"""Attractor detection: steady states, terminal SCCs, and imports."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .dd import OP_AND, OP_DIFF, OP_OR, StateSet
from .model import Not, Var, make_and
from .stg import (  # noqa: F401 - steady_states is a re-export
    TransitionSystem, UpdateMode, steady_states)


class AttractorKind(enum.Enum):
    STEADY = "steady"
    CYCLIC = "cyclic"


class AttractorError(ValueError):
    pass


@dataclass(frozen=True)
class Attractor:
    """A terminal strongly connected state set with canonical representative."""

    index: int  # 1-based, assigned in canonical order
    states: StateSet
    representative: str
    kind: AttractorKind
    size: int  # number of states
    unverified: bool = False


def _scc(ts: TransitionSystem, pivot: int) -> tuple[int, int]:
    """Forward and backward reach of the pivot states.  Their SCC is the
    meet of the two, and it is terminal (an attractor, then equal to the
    forward reach) iff the forward reach lies inside the backward one."""
    return ts.forward_reach_ref(pivot), ts.backward_reach_ref(pivot)


def _numbered(ts: TransitionSystem, entries) -> list[Attractor]:
    """Attractors from (representative, states, unverified, size) entries,
    where the representative is the bit string of the smallest state and
    size is the number of states, or None to count them, numbered from 1
    in the order of their representatives."""
    result = []
    for i, (rep, ref, unverified, size) in enumerate(sorted(entries),
                                                     start=1):
        states = ts.set_of(ref)
        if size is None:
            size = states.count()
        kind = AttractorKind.STEADY if size == 1 else AttractorKind.CYCLIC
        result.append(Attractor(i, states, rep, kind, size, unverified))
    return result


def _sync_cycles(ts: TransitionSystem) -> list[tuple[str, int, bool, None]]:
    """Attractors of more than one state of a deterministic STG, as
    `_numbered` takes them.  Each state has one successor, so every cycle
    is terminal and is the forward reach of any of its states.  The
    smallest recurrent state left names the next one: its whole cycle is
    still recurrent, so it is also the cycle's smallest state."""
    m = ts.manager
    found = []
    # the states on a cycle: each has a predecessor among them
    recurrent = m.apply(OP_DIFF, ts.gfp_ref(ts.image_ref, ts.space_ref),
                        ts.loops)
    while recurrent != 0:
        x = m.kernel.pick_min_state(recurrent)
        cycle = ts.forward_reach_ref(m.cube(x))
        found.append((m.bits(x), cycle, False, None))
        recurrent = m.apply(OP_DIFF, recurrent, cycle)
    return found


def attractors(ts: TransitionSystem) -> list[Attractor]:
    """All terminal SCCs of the STG restricted to the admissible space.

    A self-looping state has no other successor, so each state of
    `ts.loops` is an attractor, and the states that reach one lie in no
    other attractor: their backward reaches leave the candidates first.
    The rest is a pivot-based symbolic search: the SCC of the minimal
    candidate state is an attractor iff its forward reach lies inside its
    backward reach.  Either way the whole backward reach leaves the
    candidates, since a state that reaches a non-terminal SCC lies in no
    attractor, and the next pivot is preferred among the forward reach
    outside it.  Synchronous dynamics are deterministic and take
    `_sync_cycles` for the longer cycles instead.

    A loop and a synchronous cycle are named by the state that detection
    already holds; only an attractor found from a pivot is picked.  A loop
    is one state, so only the others are counted.
    """
    m = ts.manager
    found = [(m.bits(x), m.cube(x), False, 1)
             for x in m.kernel.states(ts.loops)]
    if ts.mode is UpdateMode.SYNC:
        return _numbered(ts, found + _sync_cycles(ts))
    candidates = m.apply(OP_DIFF, ts.space_ref, ts.loops)
    # one reach per state, as the weak basins ask for, so that they find
    # its preimages cached
    for _, loop, _, _ in found:
        if candidates == 0:
            break
        candidates = m.apply(OP_DIFF, candidates, ts.backward_reach_ref(loop))
    preferred = 0
    while candidates != 0:
        # preferred is a subset of candidates
        pool = preferred if preferred != 0 else candidates
        fwd, bwd = _scc(ts, m.cube(m.kernel.pick_min_state(pool)))
        beyond = m.apply(OP_DIFF, fwd, bwd)
        if beyond == 0:
            found.append((m.pick_min_state(fwd), fwd, False, None))
        candidates = m.apply(OP_DIFF, candidates, bwd)
        preferred = m.apply(OP_AND, beyond, candidates)
    return _numbered(ts, found)


def _subspace_ref(ts: TransitionSystem, pattern: dict) -> int:
    """Diagram of a partial assignment {variable name: 0/1}."""
    lits = []
    for name, value in pattern.items():
        idx = ts.net.variables.index_of(name)
        if idx is None:
            raise AttractorError(f"unknown variable {name!r} in subspace pattern")
        if value not in (0, 1):
            raise AttractorError(f"subspace value for {name!r} must be 0 or 1")
        lits.append(Var(idx) if value else Not(Var(idx)))
    ref = ts.manager.compile_expr(make_and(lits))
    return ts.manager.apply(OP_AND, ts.space_ref, ref)


def import_attractors(ts: TransitionSystem, seeds) -> list[Attractor]:
    """Build attractors from externally supplied seeds.

    A bit-string seed names a state whose SCC is computed and verified
    terminal.  A dict seed is a subspace pattern used as an unverified
    representative set (trap-space mode).  The sets of two seeds must not
    share a state.
    """
    m = ts.manager
    entries = []
    accepted = []  # the seed of each entry
    union = 0  # the states of every entry so far
    for seed in seeds:
        if isinstance(seed, str):
            if len(seed) != ts.net.n or any(c not in "01" for c in seed):
                raise AttractorError(f"bad state seed {seed!r}")
            pivot = m.from_states([seed])
            if m.apply(OP_AND, pivot, ts.space_ref) == 0:
                raise AttractorError(f"seed {seed!r} lies outside the space")
            fwd, bwd = _scc(ts, pivot)
            if m.apply(OP_DIFF, fwd, bwd) != 0:
                scc = m.apply(OP_AND, fwd, bwd)
                y = m.kernel.pick_min_state(
                    m.apply(OP_DIFF, ts.image_ref(scc), scc))
                src = m.apply(OP_AND, ts.preimage_ref(m.cube(y)), scc)
                x = m.pick_min_state(src)
                raise AttractorError(
                    f"seed {seed!r}: SCC is not terminal, "
                    f"escaping transition {x} -> {m.bits(y)}")
            entries.append((m.pick_min_state(fwd), fwd, False, None))
        elif isinstance(seed, dict):
            ref = _subspace_ref(ts, seed)
            if ref == 0:
                raise AttractorError(
                    f"subspace pattern {seed!r} is empty within the space")
            entries.append((m.pick_min_state(ref), ref, True, None))
        else:
            raise AttractorError(f"unsupported seed {seed!r}")
        ref = entries[-1][1]
        # comparing every pair would take O(k^2) applies; scan the earlier
        # seeds only to name the first one that the new seed meets
        if m.apply(OP_AND, ref, union) != 0:
            for (_, other, _, _), other_seed in zip(entries, accepted):
                shared = m.apply(OP_AND, ref, other)
                if shared == 0:
                    continue
                if isinstance(seed, str) and isinstance(other_seed, str):
                    # two terminal SCCs that meet are the same attractor
                    raise AttractorError(
                        f"seeds {other_seed!r} and {seed!r} lie in the same "
                        "attractor")
                raise AttractorError(
                    f"seeds {other_seed!r} and {seed!r} overlap in state "
                    f"{m.pick_min_state(shared)}")
        union = m.apply(OP_OR, union, ref)
        accepted.append(seed)
    return _numbered(ts, entries)


def load_attractor_seeds(text: str) -> list:
    """Parse the attractor import file: a JSON list of bit strings and/or
    partial-assignment objects."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise AttractorError("attractor file must contain a JSON list")
    for entry in data:
        if not isinstance(entry, (str, dict)):
            raise AttractorError(f"unsupported attractor entry {entry!r}")
    return data
