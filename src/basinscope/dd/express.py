"""Boolean-expression export of symbolic state sets.

Three styles: one DNF term per state, a nested factored form mirroring the
diagram structure, and an irredundant sum-of-products computed by the
Minato-Morreale interval recursion.  The last two follow the diagram's
variable order, so `to_expression` takes them from a copy of the diagram in
declaration order: a set gives the same expression under any order.
"""

from __future__ import annotations

import enum

from ..model import BoolExpr, Const, Not, Var, make_and, make_or
from .manager import OP_AND, OP_DIFF, OP_OR, DdManager


class ExprStyle(enum.Enum):
    DNF_STATES = "dnf"
    FACTORED = "factored"
    ISOP = "isop"


DEFAULT_DNF_LIMIT = 4096


def to_expression(m: DdManager, f: int,
                  style: ExprStyle = ExprStyle.ISOP) -> BoolExpr:
    """Export an unprimed diagram as a Boolean expression of the given style."""
    m._check_unprimed(f)
    if style is ExprStyle.DNF_STATES:
        return dnf_states(m, f)
    if style is ExprStyle.FACTORED:
        return factored(*m.in_declaration_order(f))
    if style is ExprStyle.ISOP:
        return isop_expression(*m.in_declaration_order(f))
    raise ValueError(f"unknown expression style {style!r}")


def dnf_states(m: DdManager, f: int) -> BoolExpr:
    """One conjunctive term per satisfying state."""
    count = m.count_states(f)
    if count > DEFAULT_DNF_LIMIT:
        raise ValueError(f"state-count {count} exceeds the DNF-per-state "
                         f"limit {DEFAULT_DNF_LIMIT}")
    terms = []
    for s in m.iter_states(f):
        lits = [Var(i) if c == "1" else Not(Var(i)) for i, c in enumerate(s)]
        terms.append(make_and(lits))
    return make_or(terms)


def factored(m: DdManager, f: int) -> BoolExpr:
    """Nested expression mirroring the diagram: (v & high) | (!v & low)."""

    def term(lvl, lo, hi):
        v = Var(m.var_at(lvl))
        terms = []
        if hi != Const(0):
            terms.append(v if hi == Const(1) else make_and([v, hi]))
        if lo != Const(0):
            terms.append(Not(v) if lo == Const(1) else make_and([Not(v), lo]))
        return make_or(terms)

    return m._fold(f, {0: Const(0), 1: Const(1)}, term)


def isop_cover(m: DdManager, f: int) -> list[dict[int, int]]:
    """Irredundant sum-of-products cover as a list of cubes (var -> 0/1)."""
    cubes, cover_ref = _isop(m, f, f, {})
    assert cover_ref == f, "internal error: cover does not reproduce the set"
    return cubes


def isop_expression(m: DdManager, f: int) -> BoolExpr:
    terms = []
    for cube in isop_cover(m, f):
        lits = [Var(i) if val else Not(Var(i))
                for i, val in sorted(cube.items())]
        terms.append(make_and(lits))
    return make_or(terms)


def _cofactors(m: DdManager, g: int, lvl: int) -> tuple[int, int]:
    if g < 2:
        return g, g
    glvl, lo, hi = m.node(g)
    if glvl == lvl:
        return lo, hi
    return g, g


def _isop_known(L: int, U: int, memo):
    """The cover of a terminal or memoized interval, else None."""
    if L == 0:
        return [], 0
    if U == 1:
        return [{}], 1
    return memo.get((L, U))


def _isop_frame(m: DdManager, L: int, U: int, memo):
    """One level of the interval recursion as a generator: it yields each
    sub-interval (L', U') and is sent back its (cubes, ref)."""
    k = m.kernel
    lvl = min(k.level_of(L), k.level_of(U))
    v = m.var_at(lvl)
    L0, L1 = _cofactors(m, L, lvl)
    U0, U1 = _cofactors(m, U, lvl)
    # cubes that must carry the negative / positive literal of v
    c0, C0 = yield m.apply(OP_DIFF, L0, U1), U0
    c1, C1 = yield m.apply(OP_DIFF, L1, U0), U1
    # remainder coverable without referencing v
    Lrem = m.apply(OP_OR, m.apply(OP_DIFF, L0, C0), m.apply(OP_DIFF, L1, C1))
    Urem = m.apply(OP_AND, U0, U1)
    cd, Cd = yield Lrem, Urem
    cubes = ([{v: 0, **c} for c in c0]
             + [{v: 1, **c} for c in c1]
             + cd)
    ref = k.mk(lvl, m.apply(OP_OR, C0, Cd), m.apply(OP_OR, C1, Cd))
    memo[(L, U)] = (cubes, ref)
    return cubes, ref


def _isop(m: DdManager, L: int, U: int, memo) -> tuple[list, int]:
    """Cover of any set between lower bound L and upper bound U, one
    suspended frame per level on an explicit stack."""
    result = _isop_known(L, U, memo)
    stack = [] if result is not None else [_isop_frame(m, L, U, memo)]
    while stack:
        try:
            sub = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
            continue
        result = _isop_known(*sub, memo)
        if result is None:
            stack.append(_isop_frame(m, *sub, memo))
    return result
