import pytest

from basinscope.attractors import (
    AttractorError, AttractorKind, attractors, import_attractors,
    load_attractor_seeds, steady_states)
from basinscope.ctl import EF, Atom, accept_ref
from basinscope.model import detect_van_ham_pairs, parse_bnet
from basinscope.stg import UpdateMode, build
from conftest import TOGGLE, VAN_HAM
from oracle import explicit_stg, oracle_cases, tarjan_sccs, terminal_sccs


def test_toggle_attractors(toggle_ts):
    attrs = attractors(toggle_ts)
    assert [(a.index, a.representative, a.kind) for a in attrs] == [
        (1, "01", AttractorKind.STEADY), (2, "10", AttractorKind.STEADY)]


def test_repressilator_single_cyclic(repressilator_ts):
    attrs = attractors(repressilator_ts)
    assert len(attrs) == 1
    assert attrs[0].kind is AttractorKind.CYCLIC
    assert steady_states(repressilator_ts).is_empty()


def test_chain_three_steady(chain_ts):
    attrs = attractors(chain_ts)
    assert len(attrs) == 3
    assert all(a.kind is AttractorKind.STEADY for a in attrs)
    assert [a.representative for a in attrs] == ["00", "10", "11"]


class CountingKernel:
    """A kernel that records each of its pick_min_state calls."""

    def __init__(self, kernel, calls):
        self._kernel, self._calls = kernel, calls

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def pick_min_state(self, f):
        self._calls.append("kernel")
        return self._kernel.pick_min_state(f)


def record_picks(ts, monkeypatch):
    """The pick_min_state calls on the manager of ts and on its kernel, in
    order; a pick on the manager also records the kernel pick it makes."""
    calls = []
    m = ts.manager
    monkeypatch.setattr(m, "kernel", CountingKernel(m.kernel, calls))
    pick = m.pick_min_state
    monkeypatch.setattr(m, "pick_min_state",
                        lambda f: calls.append("manager") or pick(f))
    return calls


def test_steady_only_detection_takes_no_pivot(chain_ts, monkeypatch):
    """Three steady states and no cycle: no forward reach, at most one
    backward reach per steady state, and no pick, since each loop is its
    own representative."""
    calls = []
    for name in ("forward_reach_ref", "backward_reach_ref"):
        reach = getattr(chain_ts, name)
        monkeypatch.setattr(
            chain_ts, name,
            lambda *args, name=name, reach=reach:
                calls.append(name) or reach(*args))
    picks = record_picks(chain_ts, monkeypatch)
    assert len(attractors(chain_ts)) == 3
    assert "forward_reach_ref" not in calls
    assert 0 < calls.count("backward_reach_ref") <= 3
    assert picks == []


def test_sync_detection_picks_once_per_cycle(toggle_net, monkeypatch):
    """Synchronously the toggle has a 2-cycle beside two steady states: one
    kernel pick names the cycle, and the loops and the numbering take
    none."""
    ts = build(toggle_net, UpdateMode.SYNC)
    picks = record_picks(ts, monkeypatch)
    attrs = attractors(ts)
    assert picks == ["kernel"]
    expected = terminal_sccs(explicit_stg(toggle_net, "sync"))
    assert [a.representative for a in attrs] == [scc[0] for scc in expected]
    assert [a.size for a in attrs] == [2, 1, 1]


def test_steady_equals_union_of_steady_attractors(chain_ts):
    attrs = attractors(chain_ts)
    union = chain_ts.empty()
    for a in attrs:
        if a.kind is AttractorKind.STEADY:
            union = union | a.states
    assert union == steady_states(chain_ts)


def test_import_state_seed(toggle_ts):
    attrs = import_attractors(toggle_ts, ["10"])
    assert attrs[0].states.states() == ["10"]
    assert not attrs[0].unverified


@pytest.mark.parametrize("mode", list(UpdateMode), ids=lambda mode: mode.value)
def test_loops_are_the_one_state_attractors(manager_on, mode):
    """The self-looping states are the one-state terminal SCCs, stranded
    states of the van Ham pairs among them."""
    stranded = 0
    for net in oracle_cases(31, 30):
        ts = build(net, mode)
        loops = ts.set_of(ts.loops)
        expected = [scc[0] for scc in terminal_sccs(explicit_stg(
            net, mode.value)) if len(scc) == 1]
        assert loops.states() == sorted(expected)
        stranded += (loops - steady_states(ts)).count()
    assert stranded > 0


def test_import_non_terminal_seed_rejected(toggle_net):
    """A seed in a non-terminal SCC names an edge x -> y of the STG from
    inside the SCC to outside it: on the toggle switch, and from the
    smallest state of every non-terminal SCC of random networks."""
    checked = 0
    for net in [toggle_net, *oracle_cases(17, 6)]:
        ts = build(net)
        adj = explicit_stg(net, "async")
        terminal = terminal_sccs(adj)
        for scc in tarjan_sccs(adj):
            if sorted(scc) in terminal:
                continue
            with pytest.raises(AttractorError,
                               match="escaping transition") as info:
                import_attractors(ts, [min(scc)])
            x, y = str(info.value).rsplit(" ", 3)[1::2]
            assert y in adj[x]
            assert x in scc and y not in scc
            checked += 1
    assert checked > 10


def test_import_seeds_in_one_attractor_rejected(repressilator_ts):
    """Two seeds of one attractor would otherwise come back as two
    attractors with the same states."""
    first, *_, last = attractors(repressilator_ts)[0].states.states()
    with pytest.raises(AttractorError, match=(
            f"seeds '{first}' and '{last}' lie in the same attractor")):
        import_attractors(repressilator_ts, [first, last])


@pytest.mark.parametrize("seeds, message", [
    ([{"a": 1}, "10"], "seeds {'a': 1} and '10' overlap in state 10"),
    ([{"a": 1}, {"b": 0}], "seeds {'a': 1} and {'b': 0} overlap in state 10"),
    ([{"a": 1, "b": 1}, {"a": 0}, {"b": 1}],
     "seeds {'a': 1, 'b': 1} and {'b': 1} overlap in state 11"),
])
def test_import_overlapping_seeds_rejected(toggle_ts, seeds, message):
    """Overlapping seeds would otherwise come back as two attractors that
    share states."""
    with pytest.raises(AttractorError) as info:
        import_attractors(toggle_ts, seeds)
    assert str(info.value) == message


@pytest.mark.parametrize("text, seed, message", [
    (TOGGLE, "1x", "bad state seed '1x'"),
    (TOGGLE, "100", "bad state seed '100'"),
    (VAN_HAM, "01000", "seed '01000' lies outside the space"),
    (TOGGLE, "00",
     "seed '00': SCC is not terminal, escaping transition 00 -> 01"),
    (TOGGLE, 5, "unsupported seed 5"),
    (TOGGLE, ["10"], "unsupported seed ['10']"),
    (TOGGLE, {"zz": 1}, "unknown variable 'zz' in subspace pattern"),
    (TOGGLE, {"a": 2}, "subspace value for 'a' must be 0 or 1"),
    (VAN_HAM, {"x_medium": 0, "x_high": 1}, "subspace pattern "
     "{'x_medium': 0, 'x_high': 1} is empty within the space"),
])
def test_import_bad_seed_rejected(text, seed, message):
    ts = build(detect_van_ham_pairs(parse_bnet(text)))
    with pytest.raises(AttractorError) as info:
        import_attractors(ts, [seed])
    assert str(info.value) == message


def test_import_checks_overlap_in_linear_apply_calls(monkeypatch):
    """Disjoint seeds cost a bounded number of apply calls each; comparing
    every pair of 256 seeds would take over 32k."""
    net = parse_bnet("".join(f"v{i}, v{i}\n" for i in range(8)))
    ts = build(net)
    seeds = [format(x, "08b") for x in range(256)]
    apply = ts.manager.apply
    calls = []
    monkeypatch.setattr(ts.manager, "apply",
                        lambda *args: calls.append(1) or apply(*args))
    assert len(import_attractors(ts, seeds)) == 256
    assert len(calls) < 16 * len(seeds)


def test_import_subspace_pattern(toggle_ts):
    attrs = import_attractors(toggle_ts, [{"a": 1}])
    assert set(attrs[0].states.states()) == {"10", "11"}
    assert attrs[0].unverified
    assert attrs[0].kind is AttractorKind.CYCLIC


def test_load_attractor_seeds():
    seeds = load_attractor_seeds('["10", {"a": 1}]')
    assert seeds == ["10", {"a": 1}]
    with pytest.raises(AttractorError):
        load_attractor_seeds('{"a": 1}')


def test_determinism(toggle_ts):
    a1 = attractors(toggle_ts)
    a2 = attractors(toggle_ts)
    assert [(a.index, a.representative) for a in a1] == \
        [(a.index, a.representative) for a in a2]


def test_matches_tarjan_oracle_on_random_networks():
    for net in oracle_cases(31, 60):
        ts = build(net)
        expected = terminal_sccs(explicit_stg(net, "async"))
        attrs = attractors(ts)
        got = [sorted(a.states.states()) for a in attrs]
        assert got == expected
        # pairwise disjoint, representatives minimal
        for a in attrs:
            assert a.representative == min(a.states.states())
        # every state reaches some attractor
        union = ts.empty()
        for a in attrs:
            union = union | a.states
        reach = ts.set_of(accept_ref(ts, EF(Atom(union))))
        assert reach == ts.space()
