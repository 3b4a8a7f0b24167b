"""Decision-diagram manager: kernel wrapper plus state-level helpers."""

from __future__ import annotations

import os
from functools import partial

from ..model import And, BoolExpr, Const, Not, Or, Var
from . import _select as _kernel

OP_AND = _kernel.OP_AND
OP_OR = _kernel.OP_OR
OP_XOR = _kernel.OP_XOR
OP_DIFF = _kernel.OP_DIFF

DEFAULT_NODE_LIMIT = 1 << 24


def node_limit_from_env() -> int:
    raw = os.environ.get("BASINSCOPE_NODE_LIMIT")
    if raw is None:
        return DEFAULT_NODE_LIMIT
    # the C kernel keeps the limit in a signed 64-bit integer
    message = ("BASINSCOPE_NODE_LIMIT must be a positive integer below 2^63, "
               f"got {raw!r}")
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if not 0 < limit < 1 << 63:
        raise ValueError(message)
    return limit


def balanced_fold(combine, items):
    """Fold the non-empty list items with combine as a balanced binary tree:
    each round combines neighbours and carries an odd last item."""
    while len(items) > 1:
        carry = items[-1:] if len(items) % 2 else []
        items = [*map(combine, items[::2], items[1::2]), *carry]
    return items[0]


class DdManager:
    """Canonical node store over 2n interleaved slots (unprimed, primed);
    its node limit is read from BASINSCOPE_NODE_LIMIT.

    `order` lists the variables from the top level down: the variable
    order[p] occupies levels 2p (unprimed) and 2p + 1 (primed).  It
    defaults to the declaration order.  Packed states and bit strings keep
    variable i at bit i and character i under any order."""

    def __init__(self, n_vars: int, order=None):
        self.order = tuple(range(n_vars) if order is None else order)
        self.kernel = _kernel.Kernel(n_vars, node_limit_from_env(), self.order)
        self.n = n_vars
        # the unprimed level of each variable
        self._level = [0] * n_vars
        for p, i in enumerate(self.order):
            self._level[i] = 2 * p
        self._declared = None  # see in_declaration_order

    # -- construction ------------------------------------------------------

    def var(self, i: int) -> int:
        """Diagram of model variable i (unprimed slot)."""
        return self.kernel.mk(self._level[i], 0, 1)

    def var_primed(self, i: int) -> int:
        return self.kernel.mk(self._level[i] + 1, 0, 1)

    def var_at(self, level: int) -> int:
        """The model variable whose slots include the level."""
        return self.order[level >> 1]

    def compile_expr(self, expr: BoolExpr) -> int:
        """Compile an indexed Boolean expression into an unprimed diagram."""
        k = self.kernel
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            return self.var(expr.index)
        if isinstance(expr, Not):
            return k.apply(OP_XOR, self.compile_expr(expr.child), 1)
        if isinstance(expr, (And, Or)):
            op, unit = (OP_AND, 1) if isinstance(expr, And) else (OP_OR, 0)
            return balanced_fold(partial(k.apply, op),
                                 [self.compile_expr(a) for a in expr.args]
                                 or [unit])
        raise ValueError(f"cannot compile {expr!r}")

    def cube(self, x: int) -> int:
        """Diagram of the single state x, packed into an int whose bit i
        holds variable i."""
        return self.kernel.cube(x)

    def from_states(self, states) -> int:
        """Diagram of a set of states given as bit strings."""
        acc = 0
        for s in states:
            acc = self.kernel.apply(OP_OR, acc, self.cube(self.packed(s)))
        return acc

    # -- Boolean operations ------------------------------------------------

    def apply(self, op: int, f: int, g: int) -> int:
        return self.kernel.apply(op, f, g)

    def and_(self, f: int, g: int) -> int:
        return self.kernel.apply(OP_AND, f, g)

    def or_(self, f: int, g: int) -> int:
        return self.kernel.apply(OP_OR, f, g)

    def diff(self, f: int, g: int) -> int:
        return self.kernel.apply(OP_DIFF, f, g)

    def not_(self, f: int) -> int:
        return self.kernel.apply(OP_XOR, f, 1)

    # -- quantification and renaming ---------------------------------------

    def exists(self, slots, f: int) -> int:
        """Quantify a set of slot levels away."""
        slots = frozenset(slots)
        k = self.kernel
        return self._fold(f, {0: 0, 1: 1}, lambda lvl, r0, r1: (
            k.apply(OP_OR, r0, r1) if lvl in slots else k.mk(lvl, r0, r1)))

    def exists_unprimed(self, f: int, g: int = 1) -> int:
        """Quantify the unprimed slots of f & g (g defaults to TRUE) without
        building f & g."""
        return self.kernel.and_exists(0, f, g)

    def exists_primed(self, f: int, g: int = 1) -> int:
        """Quantify the primed slots of f & g (g defaults to TRUE) without
        building f & g."""
        return self.kernel.and_exists(1, f, g)

    def rename_unprimed_to_primed(self, f: int) -> int:
        return self.kernel.shift(1, f)

    def rename_primed_to_unprimed(self, f: int) -> int:
        return self.kernel.shift(-1, f)

    # -- inspection --------------------------------------------------------

    def node(self, f: int) -> tuple[int, int, int]:
        k = self.kernel
        return k.level_of(f), k.low_of(f), k.high_of(f)

    def _check_unprimed(self, f: int):
        if self.kernel.has_primed(f):
            raise ValueError("diagram references primed slots")

    def in_declaration_order(self, f: int) -> tuple["DdManager", int]:
        """A manager whose levels follow the declaration order, and the
        unprimed diagram f in it: this manager and f when its order is the
        declaration order, else a companion manager that keeps the copies
        of earlier calls.  Exports that follow the diagram's structure read
        the copy, so that they do not depend on the order."""
        self._check_unprimed(f)
        if self.order == tuple(range(self.n)):
            return self, f
        if self._declared is None:
            self._declared = (DdManager(self.n), {0: 0, 1: 1})
        d, memo = self._declared
        dk = d.kernel

        # each node becomes (v & high) | (low & !v) over the copies of its
        # children
        def copy(lvl, lo, hi):
            v = d.var(self.var_at(lvl))
            return dk.apply(OP_OR, dk.apply(OP_AND, v, hi),
                            dk.apply(OP_DIFF, lo, v))

        return d, self._fold(f, memo, copy)

    def _fold(self, f: int, memo: dict, combine):
        """memo[f], folded bottom-up over f on an explicit stack: a node g
        gets combine(level, memo[low], memo[high]) of its children.  memo
        holds the terminals' values and keeps every value folded."""
        k = self.kernel
        stack = [f]
        while stack:
            g = stack[-1]
            if g in memo:
                stack.pop()
                continue
            lo, hi = k.low_of(g), k.high_of(g)
            if lo in memo and hi in memo:
                memo[g] = combine(k.level_of(g), memo[lo], memo[hi])
                stack.pop()
            else:
                stack += (lo, hi)
        return memo[f]

    # -- state-level operations (walked by the kernel) ---------------------
    # The kernel takes and returns packed states; the bit strings of the
    # string API are made here and nowhere else.

    def count_states(self, f: int) -> int:
        """Number of satisfying states over the n unprimed model variables."""
        return self.kernel.count_states(f)

    def bits(self, x: int) -> str:
        """The bit string of the packed state x: variable i is character i."""
        # bin(x | 1 << n) is "0b1" followed by x's n bits, variable 0 last
        return bin(x | 1 << self.n)[:2:-1]

    def packed(self, state: str) -> int:
        """The bit string of a state packed into an int: character i is bit
        i."""
        if len(state) != self.n or state.strip("01"):
            raise ValueError(f"bad state {state!r} for {self.n} variables")
        return int(state[::-1], 2)

    def pick_min_state(self, f: int) -> str:
        """Lexicographically smallest satisfying state (0 < 1)."""
        return self.bits(self.kernel.pick_min_state(f))

    def iter_states(self, f: int):
        """Iterate over the satisfying states as bit strings, in
        lexicographic order."""
        return map(self.bits, self.kernel.states(f))


class StateSet:
    """A symbolic set of states over the unprimed model variables."""

    __slots__ = ("manager", "ref")

    def __init__(self, manager: DdManager, ref: int):
        self.manager = manager
        self.ref = ref

    def _coerce(self, other: "StateSet") -> int:
        if other.manager is not self.manager:
            raise ValueError("state sets belong to different managers")
        return other.ref

    def __and__(self, other: "StateSet") -> "StateSet":
        return StateSet(self.manager, self.manager.and_(self.ref, self._coerce(other)))

    def __or__(self, other: "StateSet") -> "StateSet":
        return StateSet(self.manager, self.manager.or_(self.ref, self._coerce(other)))

    def __sub__(self, other: "StateSet") -> "StateSet":
        return StateSet(self.manager, self.manager.diff(self.ref, self._coerce(other)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, StateSet)
                and other.manager is self.manager
                and other.ref == self.ref)

    def __hash__(self) -> int:
        return hash((id(self.manager), self.ref))

    def __le__(self, other: "StateSet") -> bool:
        return self.manager.diff(self.ref, self._coerce(other)) == 0

    def __bool__(self) -> bool:
        return self.ref != 0

    def is_empty(self) -> bool:
        return self.ref == 0

    def count(self) -> int:
        return self.manager.count_states(self.ref)

    def states(self) -> list[str]:
        return list(self.manager.iter_states(self.ref))

    def contains(self, state: str) -> bool:
        return self.manager.kernel.contains(self.ref, self.manager.packed(state))

    def __repr__(self) -> str:
        return f"StateSet(count={self.count()})"
