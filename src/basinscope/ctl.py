"""CTL formulas and their evaluation to accepting-state sets."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .dd import OP_AND, OP_DIFF, OP_OR, StateSet
from .model import BnetError, Const, NameVar, render_expr, resolve_names
from .stg import TransitionSystem


class CtlError(ValueError):
    """Syntax or semantic error in a CTL formula."""


# ---------------------------------------------------------------------------
# formula tree


class CtlFormula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(CtlFormula):
    """A Boolean expression over model variables, or a literal state set."""

    payload: object  # BoolExpr (possibly with NameVar nodes) or StateSet


@dataclass(frozen=True, slots=True)
class NotC(CtlFormula):
    child: CtlFormula


@dataclass(frozen=True, slots=True)
class AndC(CtlFormula):
    left: CtlFormula
    right: CtlFormula


@dataclass(frozen=True, slots=True)
class OrC(CtlFormula):
    left: CtlFormula
    right: CtlFormula


@dataclass(frozen=True, slots=True)
class Unary(CtlFormula):
    op: str  # EX, EF, EG, AX, AF, AG
    child: CtlFormula


@dataclass(frozen=True, slots=True)
class Until(CtlFormula):
    op: str  # EU or AU
    left: CtlFormula
    right: CtlFormula


def EF(f):
    return Unary("EF", f)


def AF(f):
    return Unary("AF", f)


def AG(f):
    return Unary("AG", f)


# ---------------------------------------------------------------------------
# parsing

_UNARY_OPS = ("EX", "EF", "EG", "AX", "AF", "AG")
_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[01()\[\]!&|])")


class _CtlParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> CtlError:
        return CtlError(f"{message} at position {self.pos}")

    def peek(self) -> str:
        m = _TOKEN_RE.match(self.text, self.pos)
        return m.group(1) if m else ""

    def take(self) -> str:
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            return ""
        self.pos = m.end()
        return m.group(1)

    def expect(self, token: str):
        got = self.take()
        if got != token:
            raise self.error(f"expected {token!r}, got {got!r}")

    def parse(self) -> CtlFormula:
        f = self.parse_or()
        rest = self.text[self.pos:].strip()
        if rest:
            raise self.error(f"unexpected trailing input {rest!r}")
        return f

    def parse_or(self) -> CtlFormula:
        f = self.parse_and()
        while self.peek() == "|":
            self.take()
            f = OrC(f, self.parse_and())
        return f

    def parse_and(self) -> CtlFormula:
        f = self.parse_unary()
        while self.peek() == "&":
            self.take()
            f = AndC(f, self.parse_unary())
        return f

    def parse_unary(self) -> CtlFormula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return NotC(self.parse_unary())
        if tok in _UNARY_OPS:
            self.take()
            return Unary(tok, self.parse_unary())
        if tok in ("E", "A"):
            self.take()
            self.expect("[")
            left = self.parse_or()
            self.expect("U")
            right = self.parse_or()
            self.expect("]")
            return Until(tok + "U", left, right)
        if tok == "(":
            self.take()
            f = self.parse_or()
            self.expect(")")
            return f
        if tok in ("0", "1"):
            self.take()
            return Atom(Const(int(tok)))
        if tok and (tok[0].isalpha() or tok[0] == "_"):
            self.take()
            return Atom(NameVar(tok))
        raise self.error(f"unexpected {tok!r}" if tok else "unexpected end of formula")


def parse_ctl(text: str) -> CtlFormula:
    """Parse a CTL formula; atoms are variable names resolved at accept time."""
    return _CtlParser(text).parse()


def render_ctl(f: CtlFormula, names) -> str:
    if isinstance(f, Atom):  # parsed formulas hold no state-set atoms
        return f"({render_expr(f.payload, names)})"
    if isinstance(f, NotC):
        return f"!{render_ctl(f.child, names)}"
    if isinstance(f, AndC):
        return f"({render_ctl(f.left, names)} & {render_ctl(f.right, names)})"
    if isinstance(f, OrC):
        return f"({render_ctl(f.left, names)} | {render_ctl(f.right, names)})"
    if isinstance(f, Unary):
        return f"{f.op}({render_ctl(f.child, names)})"
    if isinstance(f, Until):
        return (f"{f.op[0]}[{render_ctl(f.left, names)} U "
                f"{render_ctl(f.right, names)}]")
    raise CtlError(f"cannot render {f!r}")


# ---------------------------------------------------------------------------
# evaluation


def accept_ref(ts: TransitionSystem, formula: CtlFormula) -> int:
    """Evaluate a formula to the diagram of its accepting states in space."""
    m = ts.manager
    space = ts.space_ref

    def compl(x: int) -> int:
        return m.apply(OP_DIFF, space, x)

    # build() restricts the relation to space x space', so every preimage,
    # and with it EX, EF and EU, already lies in the space
    ex = ts.preimage_ref
    ef = ts.backward_reach_ref

    def eg(x: int) -> int:
        return ts.gfp_ref(ex, x)

    def ev(f: CtlFormula) -> int:
        if isinstance(f, Atom):
            p = f.payload
            if isinstance(p, StateSet):
                if p.manager is not m:
                    raise CtlError("state-set atom belongs to another manager")
                ref = p.ref
            else:
                try:
                    expr = resolve_names(p, ts.net.variables)
                except BnetError as exc:
                    raise CtlError(str(exc)) from None
                ref = m.compile_expr(expr)
            res = m.apply(OP_AND, space, ref)
        elif isinstance(f, NotC):
            res = compl(ev(f.child))
        elif isinstance(f, AndC):
            res = m.apply(OP_AND, ev(f.left), ev(f.right))
        elif isinstance(f, OrC):
            res = m.apply(OP_OR, ev(f.left), ev(f.right))
        elif isinstance(f, Unary):
            x = ev(f.child)
            if f.op == "EX":
                res = ex(x)
            elif f.op == "EF":
                res = ef(x)
            elif f.op == "EG":
                res = eg(x)
            elif f.op == "AX":
                res = compl(ex(compl(x)))
            elif f.op == "AF":
                res = compl(eg(compl(x)))
            elif f.op == "AG":
                res = compl(ef(compl(x)))
            else:
                raise CtlError(f"unknown operator {f.op}")
        elif isinstance(f, Until):
            a, b = ev(f.left), ev(f.right)
            if f.op == "EU":
                res = ef(b, within=a)
            else:  # AU = !(E[!b U (!a & !b)] | EG !b)
                na, nb = compl(a), compl(b)
                res = compl(m.apply(
                    OP_OR, ef(m.apply(OP_AND, na, nb), within=nb), eg(nb)))
        else:
            raise CtlError(f"cannot evaluate {f!r}")
        return res

    return ev(formula)


def accept(ts: TransitionSystem, formula: CtlFormula) -> StateSet:
    """The accepting states of a CTL formula over the totalized relation;
    the caller counts them or exports them as an expression."""
    return ts.set_of(accept_ref(ts, formula))
