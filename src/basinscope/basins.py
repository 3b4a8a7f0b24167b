"""Weak, strong, and cycle-free basins of attraction with size accounting."""

from __future__ import annotations

from dataclasses import dataclass

from .attractors import Attractor
from .ctl import AF, AG, EF, Atom, accept_ref
from .dd import StateSet
from .stg import TransitionSystem, UpdateMode


def weak_basin(ts: TransitionSystem, x: StateSet) -> StateSet:
    """States with at least one path into x (EF query on representatives)."""
    if x.is_empty():
        raise ValueError("weak basin of the empty set")
    return ts.set_of(accept_ref(ts, EF(Atom(x))))


def strong_basin(ts: TransitionSystem, x: StateSet) -> StateSet:
    """States that can only reach x among attractors (AG EF query)."""
    if x.is_empty():
        raise ValueError("strong basin of the empty set")
    return ts.set_of(accept_ref(ts, AG(EF(Atom(x)))))


def cycle_free_basin(ts: TransitionSystem, y: StateSet) -> StateSet:
    """States from which every path inevitably enters y (AF query; basin
    triples pass the attractor's own states)."""
    if y.is_empty():
        raise ValueError("cycle-free basin of the empty set")
    return ts.set_of(accept_ref(ts, AF(Atom(y))))


@dataclass(frozen=True)
class SizeInfo:
    size: int
    percent: float


@dataclass(frozen=True)
class BasinTriple:
    """Weak/strong basins of the representative and cycle-free basin of the
    attractor's own states; the three sets are nested."""

    attractor: Attractor
    weak: StateSet
    strong: StateSet
    cycle_free: StateSet
    weak_info: SizeInfo
    strong_info: SizeInfo
    cycle_free_info: SizeInfo


def _info(s: StateSet, total: int) -> SizeInfo:
    size = s.count()
    return SizeInfo(size, 100.0 * size / total if total else 0.0)


def basin_triples(ts: TransitionSystem, attrs: list[Attractor]) -> list[BasinTriple]:
    """One basin triple per attractor.

    A synchronous STG is deterministic: each state has one path, which
    ends in one attractor.  So the three basins of a verified attractor
    are all its backward reach.  Pattern seeds are not closed under the
    dynamics and keep the three queries."""
    if not attrs:
        raise ValueError("need at least one attractor")
    total = ts.space_size()
    out = []
    for a in attrs:
        if ts.mode is UpdateMode.SYNC and not a.unverified:
            basin = ts.backward_reach(a.states)
            info = _info(basin, total)
            out.append(BasinTriple(a, basin, basin, basin, info, info, info))
            continue
        rep = ts.state_set([a.representative])
        weak = weak_basin(ts, rep)
        strong = strong_basin(ts, rep)
        cyc = cycle_free_basin(ts, a.states)
        out.append(BasinTriple(
            a, weak, strong, cyc,
            _info(weak, total), _info(strong, total), _info(cyc, total)))
    return out


def basins_to_json(triples: list[BasinTriple]) -> list[dict]:
    """JSON payload: per attractor index, representative, kind, and the
    three basin sizes with percentages."""
    out = []
    for t in triples:
        out.append({
            "index": t.attractor.index,
            "representative": t.attractor.representative,
            "kind": t.attractor.kind.value,
            "weak": {"size": t.weak_info.size,
                     "percent": round(t.weak_info.percent, 6)},
            "strong": {"size": t.strong_info.size,
                       "percent": round(t.strong_info.percent, 6)},
            "cycle_free": {"size": t.cycle_free_info.size,
                           "percent": round(t.cycle_free_info.percent, 6)},
        })
    return out
