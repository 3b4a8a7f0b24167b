"""Commitment sets, phenotypes, quotient diagrams, and walk-based
phenotype reachability estimation."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .attractors import Attractor
from .basins import weak_basin
from .dd import OP_AND, OP_DIFF, StateSet
from .stg import TransitionSystem

# the builtin digest that Random.seed uses, so that OpenSSL stays unloaded;
# CPython 3.13 imports it only on the first string seed, so random has none
try:
    from _sha2 import sha512  # 3.12+
except ImportError:
    try:
        from _sha512 import sha512  # 3.10, 3.11
    except ImportError:
        from hashlib import sha512


class DiagramError(RuntimeError):
    """A complete unit list leaves states outside every weak basin."""


@dataclass(frozen=True)
class DiagramNode:
    states: StateSet
    size: int
    percent: float


def key_order(key: tuple[int, ...]) -> tuple:
    """The canonical order of node keys: by size, then lexicographic."""
    return (len(key), key)


@dataclass
class Diagram:
    """Quotient graph keyed by attractor-index or phenotype-index subsets."""

    nodes: dict[tuple[int, ...], DiagramNode]
    edges: set[tuple[tuple[int, ...], tuple[int, ...]]]
    partial: bool = False

    def sorted_keys(self) -> list[tuple[int, ...]]:
        return sorted(self.nodes, key=key_order)

    def sorted_edges(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Edges by source key, then target key, each in key order."""
        return sorted(self.edges,
                      key=lambda e: (key_order(e[0]), key_order(e[1])))


# ---------------------------------------------------------------------------
# quotient construction, shared by commitment and phenotype diagrams


def _quotient_nodes(ts: TransitionSystem, units: dict[int, StateSet],
                    partial: bool) -> dict[tuple[int, ...], DiagramNode]:
    """Nodes of the quotient graph for units (attractors or phenotypes),
    each given by its set of representative states.

    The block of an index subset I holds the states that reach exactly
    the units in I; the blocks partition the union W of the weak basins.
    Each weak basin in turn splits the blocks it meets and adds its states
    outside the running union as a new block, so a basin that meets no
    earlier one (as in every synchronous STG) is one block in one step.
    With a complete list W is the space and a block is a commitment set.

    With a partial list the node of I keeps the states of its block in
    AG EF(reps of I), dropping those that may reach a missing unit.  As the
    set of units a state can reach only shrinks along a path, that is the
    block minus the escape set E = EF(space \\ W) of states that can reach a
    state reaching no unit.  With a complete list E is empty and free.
    """
    m = ts.manager
    total = ts.space_size()
    blocks: list[tuple[int, tuple[int, ...]]] = []
    covered = 0
    for i in sorted(units):
        w = weak_basin(ts, units[i]).ref
        if m.apply(OP_AND, w, covered) != 0:
            split = []
            for ref, key in blocks:
                inside = m.apply(OP_AND, ref, w)
                rest = m.apply(OP_DIFF, ref, w)
                if inside != 0:
                    split.append((inside, key + (i,)))
                if rest != 0:
                    split.append((rest, key))
            blocks = split
            w = m.apply(OP_DIFF, w, covered)
        if w != 0:
            blocks.append((w, (i,)))
        covered = m.or_(covered, w)
    outside = m.apply(OP_DIFF, ts.space_ref, covered)
    if outside != 0 and not partial:
        raise DiagramError(
            "states outside every weak basin despite a complete unit list")
    escape = ts.backward_reach_ref(outside)
    nodes: dict[tuple[int, ...], DiagramNode] = {}
    for ref, key in blocks:
        ref = m.apply(OP_DIFF, ref, escape) if escape else ref
        if ref == 0:
            continue
        states = ts.set_of(ref)
        size = states.count()
        nodes[key] = DiagramNode(states, size,
                                 100.0 * size / total if total else 0.0)
    return nodes


def _quotient_edges(ts: TransitionSystem,
                    nodes: dict[tuple[int, ...], DiagramNode]):
    """Edges of the quotient graph; an edge (I, J) needs J a proper subset
    of I and a direct transition between the blocks."""
    m = ts.manager
    edges = set()
    keys = sorted(nodes, key=key_order)
    key_sets = [frozenset(k) for k in keys]
    lengths = [len(k) for k in keys]
    for j, j_key in enumerate(keys):
        pre = None
        # a proper superset is longer, so it follows j_key in the order
        for i in range(bisect_right(lengths, lengths[j]), len(keys)):
            if not key_sets[j] < key_sets[i]:
                continue
            if pre is None:
                pre = ts.preimage_ref(nodes[j_key].states.ref)
            if m.apply(OP_AND, pre, nodes[keys[i]].states.ref) != 0:
                edges.add((keys[i], j_key))
    return edges


# ---------------------------------------------------------------------------
# commitment diagrams


def commitment_sets(ts: TransitionSystem, attrs: list[Attractor],
                    partial: bool = False) -> Diagram:
    units = {a.index: ts.state_set([a.representative]) for a in attrs}
    nodes = _quotient_nodes(ts, units, partial)
    return Diagram(nodes, set(), partial)


def commitment_edges(ts: TransitionSystem, diagram: Diagram) -> Diagram:
    diagram.edges = _quotient_edges(ts, diagram.nodes)
    return diagram


def commitment_diagram(ts: TransitionSystem, attrs: list[Attractor],
                       partial: bool = False) -> Diagram:
    return commitment_edges(ts, commitment_sets(ts, attrs, partial))


# ---------------------------------------------------------------------------
# phenotypes


@dataclass(frozen=True)
class Phenotype:
    """Long-term marker pattern over {0, 1, *} shared by a group of
    attractors."""

    index: int  # 1-based, in pattern order (0 < 1 < *)
    pattern: str
    attractor_indices: tuple[int, ...]


def phenotype_of(ts: TransitionSystem, attractor: Attractor,
                 markers: list[str]) -> str:
    """Pattern of one attractor: 0/1 if the marker is constant over all
    attractor states, * if it oscillates."""
    if not markers:
        raise ValueError("marker set must be non-empty")
    m = ts.manager
    ref = attractor.states.ref
    out = []
    for name in markers:
        idx = ts.net.variables.index_of(name)
        if idx is None:
            raise ValueError(f"unknown marker {name!r}")
        v = m.var(idx)
        if m.and_(ref, v) == ref:
            out.append("1")
        elif m.and_(ref, m.not_(v)) == ref:
            out.append("0")
        else:
            out.append("*")
    return "".join(out)


_PATTERN_ORDER = {"0": 0, "1": 1, "*": 2}


def compute_phenotypes(ts: TransitionSystem, attrs: list[Attractor],
                       markers: list[str]) -> list[Phenotype]:
    """Group attractors by marker pattern; indices follow pattern order."""
    groups: dict[str, list[int]] = {}
    for a in attrs:
        groups.setdefault(phenotype_of(ts, a, markers), []).append(a.index)
    ordered = sorted(groups, key=lambda p: [_PATTERN_ORDER[c] for c in p])
    return [Phenotype(i, pattern, tuple(sorted(groups[pattern])))
            for i, pattern in enumerate(ordered, start=1)]


def phenotype_sets(ts: TransitionSystem, attrs: list[Attractor],
                   phenotypes: list[Phenotype],
                   partial: bool = False) -> Diagram:
    by_index = {a.index: a for a in attrs}
    units = {}
    for p in phenotypes:
        units[p.index] = ts.state_set(
            [by_index[i].representative for i in p.attractor_indices])
    nodes = _quotient_nodes(ts, units, partial)
    return Diagram(nodes, set(), partial)


def phenotype_diagram(ts: TransitionSystem, attrs: list[Attractor],
                      phenotypes: list[Phenotype],
                      partial: bool = False) -> Diagram:
    return commitment_edges(ts, phenotype_sets(ts, attrs, phenotypes, partial))


# ---------------------------------------------------------------------------
# JSON schema


def diagram_to_json(diagram: Diagram, expressions: dict | None = None) -> dict:
    nodes = []
    for key in diagram.sorted_keys():
        node = diagram.nodes[key]
        entry = {
            "key": list(key),
            "size": node.size,
            "percent": round(node.percent, 6),
        }
        if expressions is not None:
            entry["expression"] = expressions.get(key, "")
        nodes.append(entry)
    return {
        "nodes": nodes,
        "edges": [[list(i), list(j)] for i, j in diagram.sorted_edges()],
        "partial": diagram.partial,
    }


# ---------------------------------------------------------------------------
# trajectory-based phenotype reachability


@dataclass
class SimulationResult:
    """Walk frequencies per phenotype index; frequencies sum to 1 over the
    completed (non-capped) walks."""

    frequencies: dict[int, float]
    walks: int
    capped: int = 0


def walk_keys(rng_seed: int, walks: int):
    """The kernel key of each walk w: walk w draws what
    random.Random(f"{rng_seed}:{w}") draws, as that seeds MT19937 with the
    integer whose big-endian bytes are s + sha512(s), for s the string's
    bytes; the key is the little-endian bytes of that integer."""
    for w in range(walks):
        s = f"{rng_seed}:{w}".encode()
        yield (s + sha512(s).digest())[::-1]


def simulate_phenotype_reachability(
        ts: TransitionSystem, phenotypes: list[Phenotype],
        attrs: list[Attractor], walks: int, rng_seed: int) -> SimulationResult:
    """Estimate phenotype reachability by uniform random walks.

    Each walk starts from a uniformly random admissible state and takes
    uniformly random transitions of the relation, self-loops left out,
    until it enters some attractor; the phenotype of that attractor is
    recorded.  Walk length is capped, and a walk that can no longer reach
    a listed attractor ends at once as capped; capped walks are excluded
    from the frequencies and counted separately.  Deterministic for a
    fixed seed, independent of merge order, because every walk derives its
    own generator from (seed, walk index).
    """
    if walks < 1:
        raise ValueError("need at least one walk")
    m = ts.manager
    contains = m.kernel.contains
    phenotype_of_attr = {}
    for p in phenotypes:
        for ai in p.attractor_indices:
            phenotype_of_attr[ai] = p.index
    # A binary tree of unions in heap layout: leaf k + j holds attractor j
    # and node i < k the union of nodes 2i and 2i + 1, so node 1 holds every
    # listed attractor.  The attractors are disjoint, so a state in a node
    # lies in exactly one of its children.
    k = len(attrs)
    tree = [0] * k + [a.states.ref for a in attrs]
    for i in reversed(range(1, k)):
        tree[i] = m.or_(tree[2 * i], tree[2 * i + 1])
    units = tree[1] if attrs else 0
    # a walk that leaves this set can never enter a listed attractor
    reach = ts.backward_reach_ref(units)
    ends, capped, _ = m.kernel.walks(
        ts.relation, ts.space_ref, reach, units, walk_keys(rng_seed, walks),
        64 * (1 << min(ts.net.n, 20)))
    counts: dict[int, int] = {p.index: 0 for p in phenotypes}
    for x, walks_to_x in ends.items():
        i = 1
        while i < k:
            i = 2 * i if contains(tree[2 * i], x) else 2 * i + 1
        counts[phenotype_of_attr[attrs[i - k].index]] += walks_to_x
    done = walks - capped
    freqs = {i: (c / done if done else 0.0) for i, c in counts.items()}
    return SimulationResult(freqs, walks, capped)
