import random

import pytest

from basinscope.attractors import attractors, import_attractors
from basinscope.basins import (
    basin_triples, basins_to_json, cycle_free_basin, strong_basin, weak_basin)
from basinscope.stg import build
from oracle import (
    cycle_free_basin as oracle_cycle_free, explicit_stg, random_network,
    strong_basin as oracle_strong, terminal_sccs, weak_basin as oracle_weak,
    with_van_ham_pair)


def test_weak_basin_toggle(toggle_ts):
    w = weak_basin(toggle_ts, toggle_ts.state_set(["10"]))
    assert set(w.states()) == {"00", "11", "10"}
    both = weak_basin(toggle_ts, toggle_ts.state_set(["01", "10"]))
    assert both.count() == 4
    w2 = weak_basin(toggle_ts, toggle_ts.state_set(["01"]))
    assert both == (w | w2)


def test_weak_basin_contains_seed(toggle_ts):
    x = toggle_ts.state_set(["01"])
    assert x <= weak_basin(toggle_ts, x)


def test_strong_basin_toggle(toggle_ts):
    s = strong_basin(toggle_ts, toggle_ts.state_set(["10"]))
    assert s.states() == ["10"]
    both = strong_basin(toggle_ts, toggle_ts.state_set(["01", "10"]))
    assert both.count() == 4


def test_strong_basin_chain(chain_ts):
    s = strong_basin(chain_ts, chain_ts.state_set(["00"]))
    assert set(s.states()) == {"00", "01"}


def test_cycle_free_basin_toggle(toggle_ts):
    c = cycle_free_basin(toggle_ts, toggle_ts.state_set(["10"]))
    assert c.states() == ["10"]
    both = cycle_free_basin(toggle_ts, toggle_ts.state_set(["01", "10"]))
    assert both.count() == 4


def test_cycle_free_equals_weak_for_single_attractor(repressilator_ts):
    attrs = attractors(repressilator_ts)
    y = attrs[0].states
    assert cycle_free_basin(repressilator_ts, y) == \
        weak_basin(repressilator_ts, y)
    assert cycle_free_basin(repressilator_ts, y) == repressilator_ts.space()


def test_empty_arguments_rejected(toggle_ts):
    with pytest.raises(ValueError):
        weak_basin(toggle_ts, toggle_ts.empty())
    with pytest.raises(ValueError):
        strong_basin(toggle_ts, toggle_ts.empty())
    with pytest.raises(ValueError):
        cycle_free_basin(toggle_ts, toggle_ts.empty())


def test_basin_triples_toggle(toggle_ts):
    triples = basin_triples(toggle_ts, attractors(toggle_ts))
    for t in triples:
        assert (t.weak_info.size, t.strong_info.size,
                t.cycle_free_info.size) == (3, 1, 1)
    payload = basins_to_json(triples)
    assert payload[0]["weak"] == {"size": 3, "percent": 75.0}


def test_singleton_strong_basins_disjoint(toggle_ts):
    attrs = attractors(toggle_ts)
    basins = [strong_basin(toggle_ts, toggle_ts.state_set([a.representative]))
              for a in attrs]
    assert (basins[0] & basins[1]).is_empty()


def test_inclusion_chain_and_oracle_equivalence():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randrange(3, 8)
        net = random_network(rng, n)
        ts = build(net)
        adj = explicit_stg(net, "async")
        oracle_attractors = terminal_sccs(adj)
        attrs = attractors(ts)
        assert len(attrs) == len(oracle_attractors)
        for a, oa in zip(attrs, oracle_attractors):
            rep = ts.state_set([a.representative])
            weak = weak_basin(ts, rep)
            strong = strong_basin(ts, rep)
            cyc = cycle_free_basin(ts, a.states)
            # Eq-1 style inclusion chain
            assert a.states <= cyc and cyc <= strong and strong <= weak
            assert set(weak.states()) == oracle_weak(adj, oa)
            assert set(strong.states()) == oracle_strong(
                adj, oracle_attractors, {a.index})
            assert set(cyc.states()) == oracle_cycle_free(adj, oa)


def test_async_basin_triples_match_oracle():
    """What `basins` reports in async mode, on detected attractors and on
    every other attractor imported from its largest state, on random
    networks with and without a van Ham pair."""
    rng = random.Random(41)
    cyclic = 0
    for k in range(60):
        n = rng.randrange(3, 9)
        net = random_network(rng, n)
        if k % 2:
            net = with_van_ham_pair(net, *rng.sample(range(n), 2))
        ts = build(net)
        adj = explicit_stg(net, "async")
        oracle_attractors = terminal_sccs(adj)
        listed = oracle_attractors[::2]
        for attrs in (attractors(ts),
                      import_attractors(ts, [a[-1] for a in listed])):
            for t in basin_triples(ts, attrs):
                target = sorted(t.attractor.states.states())
                index = oracle_attractors.index(target) + 1
                expected = (oracle_weak(adj, target),
                            oracle_strong(adj, oracle_attractors, {index}),
                            oracle_cycle_free(adj, target))
                got = (t.weak, t.strong, t.cycle_free)
                assert [set(s.states()) for s in got] == list(expected)
                assert [t.weak_info.size, t.strong_info.size,
                        t.cycle_free_info.size] == [len(s) for s in expected]
                cyclic += len(target) > 1
    assert cyclic > 10


def test_union_laws():
    rng = random.Random(123)
    for _ in range(20):
        net = random_network(rng, 5)
        ts = build(net)
        attrs = attractors(ts)
        if len(attrs) < 2:
            continue
        a, b = attrs[0], attrs[1]
        ra = ts.state_set([a.representative])
        rb = ts.state_set([b.representative])
        rab = ra | rb
        assert weak_basin(ts, rab) == weak_basin(ts, ra) | weak_basin(ts, rb)
        sa, sb = strong_basin(ts, ra), strong_basin(ts, rb)
        assert (sa | sb) <= strong_basin(ts, rab)
        assert cycle_free_basin(ts, a.states) <= \
            cycle_free_basin(ts, a.states | b.states)
