"""Independent explicit-graph reference implementation used as test oracle.

Everything here enumerates all 2^n states directly and never touches the
symbolic code paths: Tarjan SCC for attractors, BFS for weak basins,
reachable-attractor signatures for strong basins and commitment blocks, and
a greatest-fixpoint on the explicit graph for cycle-free basins.
"""

from __future__ import annotations

import random
from itertools import product

from basinscope.model import (
    And, BooleanNetwork, Const, Not, Or, Var, VariableTable,
    detect_van_ham_pairs, eval_expr, make_and, make_or)


def all_states(n):
    return ["".join(bits) for bits in product("01", repeat=n)]


def bits_of(s):
    return tuple(int(c) for c in s)


def admissible_states(net: BooleanNetwork):
    out = []
    for s in all_states(net.n):
        if net.admissibility is None or eval_expr(net.admissibility, bits_of(s)):
            out.append(s)
    return out


def successors(net: BooleanNetwork, s: str, mode: str, space: set) -> list:
    """Successor states mirroring the build semantics: restriction to the
    admissible space and self-loop totalization."""
    bits = bits_of(s)
    fx = tuple(eval_expr(u, bits) for u in net.updates)
    if mode == "sync":
        succ = ["".join(map(str, fx))]
    else:
        succ = []
        for i in range(net.n):
            if fx[i] != bits[i]:
                y = list(s)
                y[i] = str(fx[i])
                succ.append("".join(y))
        if not succ:
            succ = [s]
    succ = [t for t in succ if t in space]
    if not succ:
        succ = [s]
    return succ


def explicit_stg(net: BooleanNetwork, mode: str = "async") -> dict:
    """Adjacency map over the admissible states."""
    space = set(admissible_states(net))
    return {s: successors(net, s, mode, space) for s in sorted(space)}


def reverse_graph(adj):
    rev = {s: [] for s in adj}
    for s, succ in adj.items():
        for t in succ:
            rev[t].append(s)
    return rev


def tarjan_sccs(adj):
    """Iterative Tarjan; returns SCCs as lists of states."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in adj:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)
    return sccs


def terminal_sccs(adj):
    """Attractors: SCCs without outgoing edges, sorted by minimal state."""
    out = []
    for scc in tarjan_sccs(adj):
        members = set(scc)
        if all(t in members for s in scc for t in adj[s]):
            out.append(sorted(scc))
    out.sort(key=lambda scc: scc[0])
    return out


def reachable_from(adj, starts):
    seen = set(starts)
    todo = list(starts)
    while todo:
        s = todo.pop()
        for t in adj[s]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def weak_basin(adj, targets) -> set:
    return reachable_from(reverse_graph(adj), set(targets))


def reachable_attractor_signature(adj, attractor_list):
    """For every state, the frozenset of reachable attractor indices
    (1-based, attractor_list sorted canonically)."""
    weak = [weak_basin(adj, a) for a in attractor_list]
    sig = {}
    for s in adj:
        sig[s] = frozenset(
            i + 1 for i, w in enumerate(weak) if s in w)
    return sig


def strong_basin(adj, attractor_list, indices) -> set:
    """States that can only reach the attractors with the given 1-based
    indices (and at least one of them)."""
    sig = reachable_attractor_signature(adj, attractor_list)
    wanted = set(indices)
    return {s for s, reach in sig.items() if reach and set(reach) <= wanted}


def cycle_free_basin(adj, targets) -> set:
    """States from which every path hits the target set: complement of the
    greatest fixpoint of states that can stay outside the target forever."""
    targets = set(targets)
    z = {s for s in adj if s not in targets}
    while True:
        nz = {s for s in z if any(t in z for t in adj[s])}
        if nz == z:
            break
        z = nz
    return {s for s in adj if s not in z}


def commitment_blocks(adj, attractor_list):
    """Map frozenset of 1-based indices -> set of states."""
    sig = reachable_attractor_signature(adj, attractor_list)
    blocks = {}
    for s, key in sig.items():
        blocks.setdefault(key, set()).add(s)
    return blocks


def quotient_edges(adj, blocks):
    """Direct block-to-block edges (distinct blocks only)."""
    owner = {}
    for key, states in blocks.items():
        for s in states:
            owner[s] = key
    edges = set()
    for s, succ in adj.items():
        for t in succ:
            if owner[s] != owner[t]:
                edges.add((owner[s], owner[t]))
    return edges


def phenotype_blocks(adj, attractor_list, patterns):
    """Blocks keyed by reachable phenotype indices; patterns[i] is the
    1-based phenotype index of attractor i+1."""
    sig = reachable_attractor_signature(adj, attractor_list)
    blocks = {}
    for s, key in sig.items():
        pkey = frozenset(patterns[i - 1] for i in key)
        blocks.setdefault(pkey, set()).add(s)
    return blocks


def ctl_eval(adj, formula_eval_atom, formula):
    """Recursive explicit CTL labelling; formula is a nested tuple form:
    ('atom', x) ('not', f) ('and', f, g) ('or', f, g)
    ('EX'|'EF'|'EG'|'AX'|'AF'|'AG', f) ('EU'|'AU', f, g)."""
    states = set(adj)
    rev = reverse_graph(adj)

    def pre(x):
        return {s for s in states if any(t in x for t in adj[s])}

    def ev(f):
        op = f[0]
        if op == "atom":
            return formula_eval_atom(f[1]) & states
        if op == "not":
            return states - ev(f[1])
        if op == "and":
            return ev(f[1]) & ev(f[2])
        if op == "or":
            return ev(f[1]) | ev(f[2])
        if op == "EX":
            return pre(ev(f[1]))
        if op == "AX":
            return states - pre(states - ev(f[1]))
        if op == "EF":
            return weak_basin(adj, ev(f[1])) if ev(f[1]) else set()
        if op == "EG":
            x = ev(f[1])
            z = set(x)
            while True:
                nz = {s for s in z if any(t in z for t in adj[s])}
                if nz == z:
                    return z
                z = nz
        if op == "AF":
            return cycle_free_basin(adj, ev(f[1]))
        if op == "AG":
            x = ev(f[1])
            return states - (weak_basin(adj, states - x) if states - x else set())
        if op == "EU":
            phi, psi = ev(f[1]), ev(f[2])
            z = set(psi)
            while True:
                nz = z | {s for s in phi if any(t in z for t in adj[s])}
                if nz == z:
                    return z
                z = nz
        if op == "AU":
            phi, psi = ev(f[1]), ev(f[2])
            # AF psi restricted: all paths reach psi while staying in phi
            na, nb = states - phi, states - psi
            # E[!psi U (!phi & !psi)]
            z = set(na & nb)
            while True:
                nz = z | {s for s in nb if any(t in z for t in adj[s])}
                if nz == z:
                    break
                z = nz
            eg = set(nb)
            while True:
                ng = {s for s in eg if any(t in eg for t in adj[s])}
                if ng == eg:
                    break
                eg = ng
            return states - (z | eg)
        raise ValueError(f"bad formula {f!r}")

    return ev(formula)


# ---------------------------------------------------------------------------
# random test-case generation


def random_expr(rng: random.Random, n: int, depth: int):
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.05:
            return Const(rng.randrange(2))
        v = Var(rng.randrange(n))
        return Not(v) if rng.random() < 0.5 else v
    kind = rng.randrange(3)
    if kind == 0:
        return Not(random_expr(rng, n, depth - 1))
    args = [random_expr(rng, n, depth - 1)
            for _ in range(rng.randrange(2, 4))]
    return make_and(args) if kind == 1 else make_or(args)


def random_network(rng: random.Random, n: int) -> BooleanNetwork:
    names = tuple(f"v{i}" for i in range(n))
    updates = tuple(random_expr(rng, n, rng.randrange(1, 4))
                    for _ in range(n))
    return BooleanNetwork(VariableTable(names), updates)


def with_van_ham_pair(net, medium, high):
    """net with variables `medium` and `high` renamed to a van Ham pair,
    so that the state with x_high on and x_medium off is not admissible."""
    names = list(net.variables.names)
    names[medium], names[high] = "x_medium", "x_high"
    return detect_van_ham_pairs(
        BooleanNetwork(VariableTable(tuple(names)), net.updates))


def oracle_cases(seed, count):
    """Random networks, each also with a van Ham pair, whose admissibility
    restriction can leave states without a successor."""
    rng = random.Random(seed)
    pairs = random.Random(seed + 1)
    for _ in range(count):
        n = rng.randrange(2, 8)
        net = random_network(rng, n)
        yield net
        yield with_van_ham_pair(net, *pairs.sample(range(n), 2))
