"""Explicit-state reference semantics for the benchmark's output checks.

Every state of a .bnet model is enumerated as an integer whose bit string,
most significant bit first, is the state string in declaration order, so
integer order is the lexicographic order of state strings.  The transition
graph, attractors, basins, commitment blocks and CTL sets are computed with
NumPy and SciPy directly from the model text; nothing here imports the
program under test.  `perfbench/tests/test_smoke.py` checks these results
against the explicit oracle in `tests/oracle.py` on small models.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([01])|([!&|()]))")
_PATTERN_ORDER = {"0": 0, "1": 1, "*": 2}


def parse_bnet(text: str) -> tuple[list[str], list[str]]:
    """Names and update-expression texts of a .bnet model."""
    names, exprs = [], []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            target, rhs = line.split(",", 1)
            names.append(target.strip())
            exprs.append(rhs.strip())
    return names, exprs


def eval_expr(text: str, env: dict, size: int) -> np.ndarray:
    """Evaluate a Boolean expression in .bnet syntax (! > & > |) over
    arrays; `env` maps variable names to boolean arrays of length `size`."""
    out, pos, consts = [], 0, {}
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"bad expression {text!r}")
            break
        pos = m.end()
        name, const, op = m.groups()
        if name is not None:
            if name not in env:
                raise ValueError(f"unknown variable {name!r}")
            out.append(f"env[{name!r}]")
        elif const is not None:
            consts[const] = np.full(size, const == "1")
            out.append(f"consts[{const!r}]")
        else:
            out.append({"!": "~"}.get(op, op))
    if not out:
        raise ValueError("empty expression")
    return np.asarray(eval(" ".join(out), {"__builtins__": {}},  # noqa: S307
                           {"env": env, "consts": consts}), dtype=bool)


def variable_arrays(names: list[str], x: np.ndarray) -> dict:
    """Value of each variable in the states x (first name = top bit)."""
    n = len(names)
    return {name: ((x >> (n - 1 - i)) & 1).astype(bool)
            for i, name in enumerate(names)}


def van_ham_mask(names: list[str], env: dict, size: int) -> np.ndarray:
    """Admissible states: no `x_high` without its `x_medium`."""
    ok = np.ones(size, dtype=bool)
    for name in names:
        if name.endswith("_medium"):
            high = name[: -len("_medium")] + "_high"
            if high in env:
                ok &= ~(env[high] & ~env[name])
    return ok


def state_string(x: int, n: int) -> str:
    return format(x, f"0{n}b")


class Model:
    """Explicit transition graph of a .bnet model in one update mode,
    restricted to the admissible space and totalized by self-loops."""

    def __init__(self, text: str, mode: str = "async"):
        self.names, exprs = parse_bnet(text)
        n = self.n = len(self.names)
        size = self.size = 1 << n
        x = np.arange(size, dtype=np.int64)
        self.bits = variable_arrays(self.names, x)
        fx = [eval_expr(e, self.bits, size) for e in exprs]
        self.space = van_ham_mask(self.names, self.bits, size)
        src, dst = [], []
        if mode == "async":
            for i, name in enumerate(self.names):
                y = x ^ (1 << (n - 1 - i))
                ok = self.space & (fx[i] != self.bits[name])
                ok &= self.space[y]
                src.append(x[ok])
                dst.append(y[ok])
        elif mode == "sync":
            y = np.zeros(size, dtype=np.int64)
            for i in range(n):
                y |= fx[i].astype(np.int64) << (n - 1 - i)
            ok = self.space & self.space[y]
            src.append(x[ok])
            dst.append(y[ok])
        else:
            raise ValueError(f"unknown mode {mode!r}")
        src, dst = np.concatenate(src), np.concatenate(dst)
        has_succ = np.zeros(size, dtype=bool)
        has_succ[src] = True
        loops = x[self.space & ~has_succ]
        self.src = np.concatenate([src, loops])
        self.dst = np.concatenate([dst, loops])
        # adj[s, t] = 1 for every transition s -> t
        self.adj = csr_matrix(
            (np.ones(len(self.src), dtype=np.int8), (self.src, self.dst)),
            shape=(size, size))
        self.outdeg = np.bincount(self.src, minlength=size)
        self._attractors = None
        self._reach = None

    # -- attractors ----------------------------------------------------------

    def attractors(self) -> list[np.ndarray]:
        """Terminal SCCs as sorted state arrays, ordered by minimal state."""
        if self._attractors is None:
            _, label = connected_components(
                self.adj, directed=True, connection="strong")
            leaving = np.zeros(label.max() + 1, dtype=bool)
            cross = label[self.src] != label[self.dst]
            leaving[label[self.src][cross]] = True
            states = np.flatnonzero(self.space)
            terminal = states[~leaving[label[states]]]
            groups = {}
            for s in terminal:
                groups.setdefault(label[s], []).append(s)
            self._attractors = sorted(
                (np.array(sorted(g), dtype=np.int64) for g in groups.values()),
                key=lambda a: a[0])
        return self._attractors

    def masks(self, sets) -> np.ndarray:
        """Columns of a state x set boolean matrix, one per state array."""
        out = np.zeros((self.size, len(sets)), dtype=bool)
        for j, states in enumerate(sets):
            out[states, j] = True
        return out

    # -- fixpoints, one column per target set ----------------------------------

    def pre(self, z: np.ndarray) -> np.ndarray:
        """States with at least one successor in z (column-wise)."""
        return (self.adj @ z.astype(np.int8)) > 0

    def ef(self, z: np.ndarray) -> np.ndarray:
        reached = z.copy()
        frontier = z
        while frontier.any():
            new = self.pre(frontier) & ~reached
            reached |= new
            frontier = new
        return reached

    def eg(self, z: np.ndarray) -> np.ndarray:
        while True:
            nz = z & self.pre(z)
            if (nz == z).all():
                return z
            z = nz

    def eu(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        z = psi.copy()
        while True:
            nz = z | (phi & self.pre(z))
            if (nz == z).all():
                return z
            z = nz

    def af(self, y: np.ndarray) -> np.ndarray:
        """States from which every path enters y: lfp Z = y | AX Z."""
        deg = self.outdeg[:, None] if y.ndim == 2 else self.outdeg
        z = y.copy()
        while True:
            nz = z | (((self.adj @ z.astype(np.int8)) == deg) & (deg > 0))
            if (nz == z).all():
                return z
            z = nz

    # -- basins and blocks -----------------------------------------------------

    def reach(self) -> np.ndarray:
        """reach[s, j]: state s can reach attractor j (its weak basin)."""
        if self._reach is None:
            self._reach = self.ef(self.masks(self.attractors())) & \
                self.space[:, None]
        return self._reach

    def basin_sizes(self) -> list[tuple[int, int, int]]:
        """(weak, strong, cycle-free) sizes per attractor.  The strong basin
        of an attractor is the set of states that reach no other attractor;
        the cycle-free basin is AF of the attractor's states."""
        reach = self.reach()
        only = reach.sum(axis=1) == 1
        cyc = self.af(self.masks(self.attractors()))
        return [(int(reach[:, j].sum()), int((reach[:, j] & only).sum()),
                 int(cyc[:, j].sum())) for j in range(reach.shape[1])]

    def blocks(self, unit_of=None) -> dict[tuple, np.ndarray]:
        """Commitment blocks: states grouped by the set of reachable
        attractors (1-based indices), or of reachable units when
        `unit_of[j]` maps attractor j to a 1-based unit index."""
        reach = self.reach()
        k = reach.shape[1]
        if unit_of is None:
            unit_of = list(range(1, k + 1))
        units = sorted(set(unit_of))
        by_unit = np.zeros((self.size, len(units)), dtype=bool)
        for j, u in enumerate(unit_of):
            by_unit[:, units.index(u)] |= reach[:, j]
        out = {}
        states = np.flatnonzero(self.space)
        packed = np.packbits(by_unit[states], axis=1)
        _, first, inverse = np.unique(
            packed, axis=0, return_index=True, return_inverse=True)
        for g, row in enumerate(first):
            key = tuple(u for u, hit in zip(units, by_unit[states[row]]) if hit)
            out[key] = states[inverse.ravel() == g]
        return out

    def block_edges(self, blocks: dict) -> set[tuple[tuple, tuple]]:
        owner = np.full(self.size, -1, dtype=np.int64)
        keys = list(blocks)
        for i, key in enumerate(keys):
            owner[blocks[key]] = i
        a, b = owner[self.src], owner[self.dst]
        cross = a != b
        pairs = set(zip(a[cross].tolist(), b[cross].tolist()))
        return {(keys[i], keys[j]) for i, j in pairs}

    def phenotypes(self, markers: list[str]) -> list[tuple[str, tuple[int, ...]]]:
        """(pattern, attractor indices) per phenotype, in pattern order."""
        groups: dict[str, list[int]] = {}
        for j, states in enumerate(self.attractors(), start=1):
            pattern = ""
            for mk in markers:
                vals = self.bits[mk][states]
                pattern += "1" if vals.all() else "0" if not vals.any() else "*"
            groups.setdefault(pattern, []).append(j)
        order = sorted(groups, key=lambda p: [_PATTERN_ORDER[c] for c in p])
        return [(p, tuple(groups[p])) for p in order]

    # -- CTL -------------------------------------------------------------------

    def ctl(self, f) -> np.ndarray:
        """Accepting states of a CTL formula in tuple form:
        ('var', name) ('not', f) ('and', f, g) ('or', f, g)
        ('EX'|'EF'|'EG'|'AX'|'AF'|'AG', f) ('EU'|'AU', f, g)."""
        sp = self.space
        op = f[0]
        if op == "var":
            return self.bits[f[1]] & sp
        if op == "not":
            return sp & ~self.ctl(f[1])
        if op in ("and", "or"):
            a, b = self.ctl(f[1]), self.ctl(f[2])
            return a & b if op == "and" else a | b
        if op == "EX":
            return sp & self.pre(self.ctl(f[1]))
        if op == "EF":
            return sp & self.ef(self.ctl(f[1]))
        if op == "EG":
            return sp & self.eg(self.ctl(f[1]))
        if op == "AX":
            return sp & ~self.pre(sp & ~self.ctl(f[1]))
        if op == "AF":
            return sp & ~self.eg(sp & ~self.ctl(f[1]))
        if op == "AG":
            return sp & ~self.ef(sp & ~self.ctl(f[1]))
        if op == "EU":
            return sp & self.eu(self.ctl(f[1]), self.ctl(f[2]))
        if op == "AU":
            a, b = self.ctl(f[1]), self.ctl(f[2])
            na, nb = sp & ~a, sp & ~b
            return sp & ~(self.eu(nb, na & nb) | self.eg(nb))
        raise ValueError(f"bad formula {f!r}")


def ctl_text(f) -> str:
    """The formula in the CLI's CTL syntax."""
    op = f[0]
    if op == "var":
        return f[1]
    if op == "not":
        return f"!{ctl_text(f[1])}"
    if op in ("and", "or"):
        sym = " & " if op == "and" else " | "
        return f"({ctl_text(f[1])}{sym}{ctl_text(f[2])})"
    if op in ("EU", "AU"):
        return f"{op[0]}[{ctl_text(f[1])} U {ctl_text(f[2])}]"
    return f"{op}({ctl_text(f[1])})"


def steady_states(text: str) -> list[int]:
    """Admissible states with f(x) = x, without building the graph; used
    where the state space is too large for the full explicit model."""
    names, exprs = parse_bnet(text)
    size = 1 << len(names)
    bits = variable_arrays(names, np.arange(size, dtype=np.int32))
    ok = van_ham_mask(names, bits, size)
    for name, expr in zip(names, exprs):
        ok &= eval_expr(expr, bits, size) == bits[name]
    return np.flatnonzero(ok).tolist()
