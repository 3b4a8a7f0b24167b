"""Boolean network model: expression trees, .bnet parsing and rendering."""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class BnetError(ValueError):
    """Raised for malformed .bnet input; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# expression trees


class BoolExpr:
    """Base class for Boolean expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(BoolExpr):
    value: int  # 0 or 1


@dataclass(frozen=True, slots=True)
class Var(BoolExpr):
    index: int


@dataclass(frozen=True, slots=True)
class NameVar(BoolExpr):
    """Unresolved variable reference, only present before name resolution."""

    name: str


@dataclass(frozen=True, slots=True)
class Not(BoolExpr):
    child: BoolExpr


@dataclass(frozen=True, slots=True)
class And(BoolExpr):
    args: tuple[BoolExpr, ...]


@dataclass(frozen=True, slots=True)
class Or(BoolExpr):
    args: tuple[BoolExpr, ...]


FALSE = Const(0)
TRUE = Const(1)


def make_and(args) -> BoolExpr:
    """N-ary conjunction, flattening nested conjunctions (associativity)."""
    flat: list[BoolExpr] = []
    for a in args:
        if isinstance(a, And):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def make_or(args) -> BoolExpr:
    """N-ary disjunction, flattening nested disjunctions."""
    flat: list[BoolExpr] = []
    for a in args:
        if isinstance(a, Or):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def expr_vars(expr: BoolExpr) -> set[int]:
    """Indices of all variables referenced by ``expr``."""
    out: set[int] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            out.add(e.index)
        elif isinstance(e, Not):
            stack.append(e.child)
        elif isinstance(e, (And, Or)):
            stack.extend(e.args)
        elif isinstance(e, NameVar):
            raise ValueError(f"unresolved variable name {e.name!r}")
    return out


def eval_expr(expr: BoolExpr, bits) -> int:
    """Evaluate an indexed expression on a concrete state (sequence of 0/1)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return bits[expr.index]
    if isinstance(expr, Not):
        return 1 - eval_expr(expr.child, bits)
    if isinstance(expr, And):
        for a in expr.args:
            if not eval_expr(a, bits):
                return 0
        return 1
    if isinstance(expr, Or):
        for a in expr.args:
            if eval_expr(a, bits):
                return 1
        return 0
    raise ValueError(f"cannot evaluate {expr!r}")


def resolve_names(expr: BoolExpr, table: "VariableTable") -> BoolExpr:
    """Replace NameVar nodes by indexed Var nodes; raises on unknown names."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return expr
    if isinstance(expr, NameVar):
        idx = table.index_of(expr.name)
        if idx is None:
            raise BnetError(f"undeclared variable {expr.name!r}")
        return Var(idx)
    if isinstance(expr, Not):
        return Not(resolve_names(expr.child, table))
    if isinstance(expr, And):
        return And(tuple(resolve_names(a, table) for a in expr.args))
    if isinstance(expr, Or):
        return Or(tuple(resolve_names(a, table) for a in expr.args))
    raise ValueError(f"cannot resolve {expr!r}")


def render_expr(expr: BoolExpr, names) -> str:
    """Render an expression in .bnet syntax (! > & > | precedence)."""

    def go(e: BoolExpr, level: int) -> str:
        # level: 0 = or-context, 1 = and-context, 2 = literal-context
        if isinstance(e, Const):
            return str(e.value)
        if isinstance(e, Var):
            return names[e.index]
        if isinstance(e, NameVar):
            return e.name
        if isinstance(e, Not):
            return "!" + go(e.child, 2)
        if isinstance(e, And):
            s = " & ".join(go(a, 1) for a in e.args)
            return f"({s})" if level >= 2 else s
        if isinstance(e, Or):
            s = " | ".join(go(a, 0) for a in e.args)
            return f"({s})" if level >= 1 else s
        raise ValueError(f"cannot render {e!r}")

    return go(expr, 0)


# ---------------------------------------------------------------------------
# expression parsing (.bnet right-hand sides; ctl.py has its own grammar)


class _ExprParser:
    """Recursive-descent parser for `!` > `&` > `|` with parentheses."""

    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, message: str) -> BnetError:
        return BnetError(f"{message} (column {self.pos + 1})", self.line)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> BoolExpr:
        expr = self.parse_or()
        if self.peek():
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return expr

    def parse_or(self) -> BoolExpr:
        args = [self.parse_and()]
        while self.peek() == "|":
            self.pos += 1
            args.append(self.parse_and())
        return make_or(args)

    def parse_and(self) -> BoolExpr:
        args = [self.parse_literal()]
        while self.peek() == "&":
            self.pos += 1
            args.append(self.parse_literal())
        return make_and(args)

    def parse_literal(self) -> BoolExpr:
        c = self.peek()
        if c == "!":
            self.pos += 1
            return Not(self.parse_literal())
        if c == "(":
            self.pos += 1
            expr = self.parse_or()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return expr
        if c and c in "01":
            self.pos += 1
            return Const(int(c))
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            if c:
                raise self.error(f"unexpected {c!r}")
            raise self.error("unexpected end of expression")
        self.pos = m.end()
        return NameVar(m.group())


def parse_expression(text: str, table: "VariableTable | None" = None,
                     line: int | None = None) -> BoolExpr:
    """Parse a Boolean expression; resolves names if a table is given."""
    expr = _ExprParser(text, line).parse()
    if table is not None:
        expr = resolve_names(expr, table)
    return expr


# ---------------------------------------------------------------------------
# networks


@dataclass(frozen=True)
class VariableTable:
    """Ordered variable identifiers; declaration order fixes bit order."""

    names: tuple[str, ...]
    _index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.names:
            raise ValueError("variable table must be non-empty")
        seen = {}
        for i, name in enumerate(self.names):
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid identifier {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable {name!r}")
            seen[name] = i
        self._index.update(seen)

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int | None:
        return self._index.get(name)


@dataclass(frozen=True)
class BooleanNetwork:
    """Variables, one update expression per variable, optional admissibility;
    `reads[i]` holds the variables that update i reads."""

    variables: VariableTable
    updates: tuple[BoolExpr, ...]
    admissibility: BoolExpr | None = None
    reads: tuple[frozenset, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.variables)
        if len(self.updates) != n:
            raise ValueError("need exactly one update per variable")
        reads = tuple(frozenset(expr_vars(expr)) for expr in self.updates)
        object.__setattr__(self, "reads", reads)
        admitted = (() if self.admissibility is None
                    else expr_vars(self.admissibility))
        for what, used in (("update", frozenset().union(*reads)),
                           ("admissibility", admitted)):
            for idx in used:
                if not 0 <= idx < n:
                    raise ValueError(f"{what} references invalid index {idx}")

    @property
    def n(self) -> int:
        return len(self.variables)

    def to_bnet(self) -> str:
        """Render back to .bnet text (one `target, expression` line per var)."""
        names = self.variables.names
        lines = [f"{name}, {render_expr(upd, names)}"
                 for name, upd in zip(names, self.updates)]
        return "\n".join(lines) + "\n"


def parse_bnet(text: str) -> BooleanNetwork:
    """Parse the .bnet format: one `target, expression` line per variable.

    `#` starts a comment, blank lines are ignored, and variable order is
    the first-appearance order of targets.  Every referenced variable must
    also appear as a target.  A first line `targets, factors` (any case) is
    BoolNet's header and declares nothing.
    """
    targets: list[str] = []
    raw: list[tuple[str, str, int]] = []
    seen: set[str] = set()
    first = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "," not in line:
            raise BnetError("expected 'target, expression'", lineno)
        target, rhs = line.split(",", 1)
        target = target.strip()
        header = (first and target.lower() == "targets"
                  and rhs.strip().lower() == "factors")
        first = False
        if header:
            continue
        if not _IDENT_RE.fullmatch(target):
            raise BnetError(f"invalid target identifier {target!r}", lineno)
        if target in seen:
            raise BnetError(f"duplicate target {target!r}", lineno)
        seen.add(target)
        targets.append(target)
        raw.append((target, rhs.strip(), lineno))
    if not targets:
        raise BnetError("no variables declared")
    table = VariableTable(tuple(targets))
    updates = []
    for target, rhs, lineno in raw:
        expr = _ExprParser(rhs, lineno).parse()
        try:
            expr = resolve_names(expr, table)
        except BnetError as exc:
            raise BnetError(str(exc), lineno) from None
        updates.append(expr)
    return BooleanNetwork(table, tuple(updates))


# ---------------------------------------------------------------------------
# booleanized multi-valued variables


def conjuncts(expr: BoolExpr | None) -> tuple[BoolExpr, ...]:
    """The top-level conjuncts of an admissibility expression."""
    if expr is None:
        return ()
    if isinstance(expr, And):
        return expr.args
    return (expr,)


def detect_van_ham_pairs(net: BooleanNetwork) -> BooleanNetwork:
    """Detect `x_medium`/`x_high` variable pairs from a 3-level booleanization.

    For every detected pair the constraint `!(x_high & !x_medium)` is
    conjoined into the network's admissibility expression; the level
    encoding is 0 -> (0,0), 1 -> (1,0), 2 -> (1,1), so (0,1) is an
    artefact combination.  Idempotent: constraints already present are
    not duplicated.
    """
    names = net.variables.names
    constraints: list[BoolExpr] = []
    for i, name in enumerate(names):
        if not name.endswith("_medium"):
            continue
        high = name[: -len("_medium")] + "_high"
        j = net.variables.index_of(high)
        if j is None:
            continue
        constraints.append(Not(make_and([Var(j), Not(Var(i))])))
    if not constraints:
        return net
    existing = conjuncts(net.admissibility)
    new = [c for c in constraints if c not in existing]
    if not new:
        return net
    admissibility = make_and(list(existing) + new)
    return BooleanNetwork(net.variables, net.updates, admissibility)


# ---------------------------------------------------------------------------
# states


def state_from_string(net: BooleanNetwork, s: str) -> str:
    """Validate a state bit string (declaration order) and return it."""
    if len(s) != net.n:
        raise ValueError(
            f"state length {len(s)} does not match variable count {net.n}")
    for c in s:
        if c not in "01":
            raise ValueError(f"illegal character {c!r} in state string")
    return s
