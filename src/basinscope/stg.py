"""Symbolic state transition graph: relation construction and reachability."""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

from .dd import OP_AND, OP_DIFF, OP_OR, OP_XOR, DdManager, StateSet
from .model import BooleanNetwork, conjuncts, expr_vars


class UpdateMode(enum.Enum):
    ASYNC = "async"
    SYNC = "sync"


@dataclass
class TransitionSystem:
    """Transition relation over unprimed/primed slot pairs, restricted to
    the admissible state space and totalized by self-loops.

    `loops` holds the states with a self-loop.  Each has no other
    successor, so each is a one-state attractor, and attractor detection
    takes them, and removes their backward reaches, before any pivot."""

    manager: DdManager
    net: BooleanNetwork
    mode: UpdateMode
    relation: int
    space_ref: int
    loops: int
    _preimage_cache: dict = field(default_factory=dict, repr=False)

    # -- set plumbing ------------------------------------------------------

    def set_of(self, ref: int) -> StateSet:
        return StateSet(self.manager, ref)

    def space(self) -> StateSet:
        return self.set_of(self.space_ref)

    def empty(self) -> StateSet:
        return self.set_of(0)

    def state_set(self, states) -> StateSet:
        """StateSet from an iterable of bit strings."""
        return self.set_of(self.manager.from_states(states))

    def space_size(self) -> int:
        return self.manager.count_states(self.space_ref)

    # -- image and preimage ------------------------------------------------

    def image_ref(self, x: int) -> int:
        m = self.manager
        return m.rename_primed_to_unprimed(m.exists_unprimed(self.relation, x))

    def preimage_ref(self, x: int) -> int:
        cached = self._preimage_cache.get(x)
        if cached is not None:
            return cached
        m = self.manager
        xp = m.rename_unprimed_to_primed(x)
        res = m.exists_primed(self.relation, xp)
        self._preimage_cache[x] = res
        return res

    def successors(self, x: int) -> list[int]:
        """Successors of the packed state x (bit i holds variable i), read
        from the relation, self-loops included, in lexicographic order of
        their bit strings."""
        return self.manager.kernel.successors(self.relation, x)

    def image(self, x: StateSet) -> StateSet:
        return self.set_of(self.image_ref(x.ref))

    def preimage(self, x: StateSet) -> StateSet:
        return self.set_of(self.preimage_ref(x.ref))

    # -- reachability closures ---------------------------------------------

    def _reach(self, step, x: int, within: int | None = None) -> int:
        """Least fixpoint of Z = x | (step(Z) & within); step is image_ref
        or preimage_ref.  The k-th iterate is x plus the states that at
        most k steps from x reach through within, and each step is taken
        from the whole iterate, not from its frontier (the states first
        reached in the last step).

        Any set between the frontier and the reached set gives the same
        iterates: step distributes over union, and step of the previous
        iterate, within `within`, already lies in the current one.  So the
        iterates and the number of steps are those of the frontier form,
        but the reached set's diagram is the smaller one: on rings the
        frontier's is about twice its size, and so is its image."""
        m = self.manager
        reached = new = x
        while new != 0:
            new = m.apply(OP_DIFF, step(reached), reached)
            if within is not None:
                new = m.apply(OP_AND, new, within)
            reached = m.apply(OP_OR, reached, new)
        return reached

    def gfp_ref(self, step, x: int) -> int:
        """Greatest fixpoint of Z = Z & step(Z), from x, taken one step at
        a time; with preimage_ref it is CTL EG x."""
        m = self.manager
        z = x
        while True:
            nz = m.apply(OP_AND, z, step(z))
            if nz == z:
                return z
            z = nz

    def forward_reach_ref(self, x: int) -> int:
        return self._reach(self.image_ref, x)

    def backward_reach_ref(self, x: int, within: int | None = None) -> int:
        """States of x plus those with a path into x whose states before
        entering x all lie in within (everywhere when within is None)."""
        return self._reach(self.preimage_ref, x, within)

    def forward_reach(self, x: StateSet) -> StateSet:
        return self.set_of(self.forward_reach_ref(x.ref))

    def backward_reach(self, x: StateSet) -> StateSet:
        return self.set_of(self.backward_reach_ref(x.ref))


FORCE_ROUNDS = 50


def force_order(net: BooleanNetwork) -> list[int]:
    """A static variable order by FORCE (Aloul, Markov & Sakallah, GLSVLSI
    2003), as the variables from the top level down.

    Each update gives one hyperedge, its target and the variables it reads,
    and each conjunct of the admissibility constraint (one per van Ham
    pair) gives one more.  From the declaration order, each of up to
    FORCE_ROUNDS rounds moves every variable to the mean centre of gravity
    of its hyperedges and ranks the variables by that; ties keep the
    previous order.  The arithmetic is exact, so ties are exact too."""
    n = net.n
    edges = [sorted({i} | expr_vars(upd)) for i, upd in enumerate(net.updates)]
    edges += [sorted(expr_vars(c)) for c in conjuncts(net.admissibility)]
    edges = [e for e in edges if e]
    member = [[] for _ in range(n)]
    for j, e in enumerate(edges):
        for v in e:
            member[v].append(j)
    # centres scaled by the lcm of the edge sizes and means by the lcm of
    # the degrees are integers; a round takes each as one flat sum over
    # the concatenated edges or memberships
    edge_vars, edge_spans = _flat(edges, math.lcm(*map(len, edges)))
    var_edges, var_spans = _flat(member, math.lcm(*map(len, member)))
    order = list(range(n))
    pos = list(range(n))
    for _ in range(FORCE_ROUNDS):
        centre = _span_sums(map(pos.__getitem__, edge_vars), edge_spans)
        target = _span_sums(map(centre.__getitem__, var_edges), var_spans)
        # a stable sort of the previous order: ties keep it
        ranked = sorted(order, key=target.__getitem__)
        if ranked == order:
            break
        order = ranked
        for p, v in enumerate(order):
            pos[v] = p
    return order


def _flat(lists, lcm: int):
    """The concatenation of the lists, and for each list its span in it,
    (start, end, lcm // its length)."""
    spans, end = [], 0
    for xs in lists:
        spans.append((end, end + len(xs), lcm // len(xs)))
        end += len(xs)
    return [x for xs in lists for x in xs], spans


def _span_sums(values, spans) -> list[int]:
    """The sum of the values in each span, times the span's weight."""
    total = [0, *itertools.accumulate(values)]
    return [(total[end] - total[start]) * weight
            for start, end, weight in spans]


def build(net: BooleanNetwork, mode: UpdateMode = UpdateMode.ASYNC,
          order=None) -> TransitionSystem:
    """Build the symbolic STG for the given update mode.

    ASYNC: x -> y iff exactly one variable changes to its update value.
    SYNC: y = f(x).  A state left without a successor self-loops, so the
    relation is total on the space: an async steady state, which has no
    variable to flip, and a state stranded by the admissibility
    restriction.  A sync steady state has y = f(x) = x.  The states that
    self-loop, in either mode, are kept as `loops`.  The manager takes its
    node limit from BASINSCOPE_NODE_LIMIT, and its variable order from
    `order` (variables from the top level down), by default from
    `force_order`.  Every output is the same under any order.
    """
    n = net.n
    m = DdManager(n, force_order(net) if order is None else order)
    space = (1 if net.admissibility is None
             else m.compile_expr(net.admissibility))

    f_refs = [m.compile_expr(upd) for upd in net.updates]
    same = [m.not_(m.apply(OP_XOR, m.var_primed(i), m.var(i)))
            for i in range(n)]
    upd_eq = [m.not_(m.apply(OP_XOR, m.var_primed(i), f_refs[i]))
              for i in range(n)]
    # prefix products of the frame conditions same_j
    prefix = [1] * (n + 1)
    for i in range(n):
        prefix[i + 1] = m.apply(OP_AND, prefix[i], same[i])
    identity = prefix[n]

    if mode is UpdateMode.SYNC:
        relation = 1
        for u in upd_eq:
            relation = m.apply(OP_AND, relation, u)
    else:
        # the frame of flip i is same_j for every j != i
        suffix = [1] * (n + 1)
        for i in reversed(range(n)):
            suffix[i] = m.apply(OP_AND, suffix[i + 1], same[i])
        relation = 0
        for i in range(n):
            flip = m.apply(OP_AND, upd_eq[i], m.not_(same[i]))
            frame = m.apply(OP_AND, prefix[i], suffix[i + 1])
            relation = m.apply(OP_OR, relation, m.apply(OP_AND, flip, frame))

    space_primed = space if space == 1 else m.rename_unprimed_to_primed(space)
    relation = m.apply(OP_AND, relation, m.apply(OP_AND, space, space_primed))

    # totalize: states without a successor self-loop
    has_succ = m.exists_primed(relation)
    deadlocks = m.apply(OP_DIFF, space, has_succ)
    if deadlocks != 0:
        relation = m.apply(OP_OR, relation, m.apply(OP_AND, deadlocks, identity))
    # an async flip changes a variable, so only the deadlocks self-loop;
    # a sync state has one successor, so its fixed points join them
    loops = m.exists_primed(relation, identity)

    return TransitionSystem(m, net, mode, relation, space, loops)


def steady_states(ts: TransitionSystem) -> StateSet:
    """Exactly the admissible states with f(x) = x."""
    m = ts.manager
    acc = ts.space_ref
    for i, upd in enumerate(ts.net.updates):
        eq = m.not_(m.apply(OP_XOR, m.var(i), m.compile_expr(upd)))
        acc = m.apply(OP_AND, acc, eq)
    return ts.set_of(acc)
