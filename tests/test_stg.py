import random

import pytest

from basinscope.model import eval_expr, parse_bnet
from basinscope.stg import UpdateMode, build, steady_states
from oracle import (
    all_states, bits_of, explicit_stg, oracle_cases, random_network,
    reverse_graph, successors, with_van_ham_pair)


def relation_pairs(ts):
    """Explicit (x, y) pairs of the symbolic relation, via singleton images."""
    pairs = set()
    for s in ts.space().states():
        for t in ts.image(ts.state_set([s])).states():
            pairs.add((s, t))
    return pairs


def test_toggle_async_relation(toggle_ts):
    assert relation_pairs(toggle_ts) == {
        ("00", "10"), ("00", "01"), ("11", "01"), ("11", "10"),
        ("01", "01"), ("10", "10")}


def test_toggle_sync_relation(toggle_net):
    ts = build(toggle_net, UpdateMode.SYNC)
    assert relation_pairs(ts) == {
        ("00", "11"), ("11", "00"), ("01", "01"), ("10", "10")}


def test_identity_update_self_loops():
    ts = build(parse_bnet("a, a"))
    assert relation_pairs(ts) == {("0", "0"), ("1", "1")}


def test_image_preimage_toggle(toggle_ts):
    assert toggle_ts.image(toggle_ts.state_set(["00"])).states() == ["01", "10"]
    assert toggle_ts.preimage(toggle_ts.state_set(["10"])).states() == \
        ["00", "10", "11"]
    assert toggle_ts.image(toggle_ts.empty()).is_empty()


def test_reachability_toggle(toggle_ts):
    fwd = toggle_ts.forward_reach(toggle_ts.state_set(["00"]))
    assert set(fwd.states()) == {"00", "01", "10"}
    bwd = toggle_ts.backward_reach(toggle_ts.state_set(["01"]))
    assert set(bwd.states()) == {"00", "01", "11"}


def test_forward_reach_reflexive(toggle_ts):
    x = toggle_ts.state_set(["01"])
    assert x <= toggle_ts.forward_reach(x)


def test_totality(toggle_ts):
    assert toggle_ts.preimage(toggle_ts.space()) == toggle_ts.space()


def test_steady_states_examples(toggle_ts, chain_ts, repressilator_ts):
    assert set(steady_states(toggle_ts).states()) == {"01", "10"}
    assert set(steady_states(chain_ts).states()) == {"00", "10", "11"}
    assert steady_states(repressilator_ts).is_empty()


def test_admissibility_restricts_space():
    net = parse_bnet("x_medium, x_high\nx_high, x_medium")
    from basinscope.model import detect_van_ham_pairs
    ts = build(detect_van_ham_pairs(net))
    assert ts.space_size() == 3
    assert not ts.space().contains("01")
    # relation stays total on the restricted space
    assert ts.preimage(ts.space()) == ts.space()


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_relation_matches_explicit_construction(mode):
    rng = random.Random(2024)
    pairs = random.Random(2025)
    for _ in range(25):
        n = rng.randrange(2, 7)
        net = random_network(rng, n)
        # a van Ham pair can strand states without an admissible successor
        for net in (net, with_van_ham_pair(net, *pairs.sample(range(n), 2))):
            ts = build(net, UpdateMode(mode))
            adj = explicit_stg(net, mode)
            assert relation_pairs(ts) == {
                (s, t) for s, succ in adj.items() for t in succ}



def explicit_iterates(adj, x, within):
    """x, then x plus its successors in adj that lie in within, and so on
    until nothing is added: the sets of states within distance k of x."""
    reached = set(x)
    iterates = [frozenset(reached)]
    while True:
        new = {t for s in reached for t in adj[s]} - reached
        if within is not None:
            new &= within
        if not new:
            return iterates
        reached |= new
        iterates.append(frozenset(reached))


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_reach_steps_from_each_iterate(mode, manager_on):
    """Each step of a reachability fixpoint is taken from the whole set
    reached so far, the k-th from the states within distance k of x, and
    the steps stop at the first that adds nothing; no step is taken from
    an empty x."""
    rng = random.Random(31)
    for net in oracle_cases(13, 6):
        ts = build(net, UpdateMode(mode))
        adj = explicit_stg(net, mode)
        states = sorted(adj)
        m = ts.manager
        for name, graph in (("image_ref", adj),
                            ("preimage_ref", reverse_graph(adj))):
            args = []

            def step(ref, step=getattr(ts, name)):
                args.append(frozenset(m.iter_states(ref)))
                return step(ref)

            for _ in range(6):
                x = rng.sample(states, rng.randrange(len(states) // 2 + 1))
                within = (None if rng.random() < 0.5 else set(
                    rng.sample(states, rng.randrange(len(states) + 1))))
                within_ref = None if within is None else m.from_states(within)
                args.clear()
                reached = ts._reach(step, m.from_states(x), within_ref)
                expected = explicit_iterates(graph, x, within)
                assert args == (expected if x else [])
                assert set(m.iter_states(reached)) == expected[-1]

def test_duality_image_preimage():
    rng = random.Random(99)
    for _ in range(10):
        net = random_network(rng, 5)
        ts = build(net)
        states = ts.space().states()
        for _ in range(10):
            xs = rng.sample(states, rng.randrange(1, 8))
            ys = rng.sample(states, rng.randrange(1, 8))
            x, y = ts.state_set(xs), ts.state_set(ys)
            assert ((ts.image(x) & y).is_empty()
                    == (x & ts.preimage(y)).is_empty())


def packed(s):
    return int(s[::-1], 2)


@pytest.mark.parametrize("mode", ["async", "sync"])
@pytest.mark.parametrize("van_ham", [False, True])
def test_successors_match_explicit_construction(mode, van_ham):
    """Successors of every admissible state, read from the relation, are
    the oracle's, totalizing self-loops included, in bit-string order."""
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(2, 7)
        net = random_network(rng, n)
        if van_ham:
            net = with_van_ham_pair(net, *rng.sample(range(n), 2))
        ts = build(net, UpdateMode(mode))
        adj = explicit_stg(net, mode)
        for s in all_states(n):
            assert ts.successors(packed(s)) == \
                [packed(t) for t in sorted(adj.get(s, []))]


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_successors_of_states_wider_than_a_word(mode):
    """A 70-variable ring whose van Ham pair straddles bits 63 and 64."""
    n = 70
    rng = random.Random(70)
    lines = []
    for i in range(n):
        a, b = f"v{(i - 1) % n}", f"v{(i + 1) % n}"
        lines.append(f"v{i}, " + rng.choice(
            [f"{a} & !{b}", f"!{a} | {b}", f"{a}", f"!{b}"]))
    net = with_van_ham_pair(parse_bnet("\n".join(lines)), 63, 64)

    class Space:
        def __contains__(self, s):
            return eval_expr(net.admissibility, bits_of(s))

    ts = build(net, UpdateMode(mode))
    for _ in range(50):
        s = "".join(rng.choice("01") for _ in range(n))
        if s[63:65] == "01":
            continue
        expected = successors(net, s, mode, Space())
        assert ts.successors(packed(s)) == [packed(t) for t in sorted(expected)]
