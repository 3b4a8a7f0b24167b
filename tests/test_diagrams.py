import hashlib
import random

import pytest

from basinscope.attractors import attractors, import_attractors
from basinscope.basins import strong_basin, weak_basin
from basinscope.dd import _kernel_py, _select
from basinscope.diagrams import (
    commitment_diagram, commitment_sets, compute_phenotypes, diagram_to_json,
    phenotype_diagram, phenotype_of, simulate_phenotype_reachability,
    walk_keys)
from basinscope.model import parse_bnet
from basinscope.stg import UpdateMode, build
from conftest import OVERLAP, OVERLAP_SEEDS
from oracle import (
    commitment_blocks, explicit_stg, phenotype_blocks, quotient_edges,
    random_network, terminal_sccs)


def node_states(diagram):
    return {key: set(node.states.states())
            for key, node in diagram.nodes.items()}


def commitment_units(ts, attrs):
    return {a.index: ts.state_set([a.representative]) for a in attrs}


def phenotype_units(ts, attrs, phenos):
    reps = {a.index: a.representative for a in attrs}
    return {p.index: ts.state_set([reps[i] for i in p.attractor_indices])
            for p in phenos}


def assert_commitment_identity(ts, diagram, units):
    """Every node with index set I is the intersection of the weak basins of
    the units in I with the strong basin of their united representatives."""
    for key, node in diagram.nodes.items():
        expected, reps = ts.space(), ts.empty()
        for i in key:
            expected = expected & weak_basin(ts, units[i])
            reps = reps | units[i]
        assert node.states == expected & strong_basin(ts, reps), key


def test_toggle_commitment_sets(toggle_ts):
    d = commitment_sets(toggle_ts, attractors(toggle_ts))
    assert node_states(d) == {
        (1,): {"01"}, (2,): {"10"}, (1, 2): {"00", "11"}}


def test_toggle_commitment_edges(toggle_ts):
    d = commitment_diagram(toggle_ts, attractors(toggle_ts))
    assert d.edges == {((1, 2), (1,)), ((1, 2), (2,))}


def test_single_attractor_network(repressilator_ts):
    d = commitment_diagram(repressilator_ts, attractors(repressilator_ts))
    assert list(d.nodes) == [(1,)]
    assert d.nodes[(1,)].size == repressilator_ts.space_size()
    assert d.edges == set()


def test_chain_commitment_sets(chain_ts):
    d = commitment_sets(chain_ts, attractors(chain_ts))
    assert node_states(d) == {
        (1,): {"00", "01"}, (2,): {"10"}, (3,): {"11"}}


def test_singleton_nodes_equal_strong_basins(toggle_ts):
    attrs = attractors(toggle_ts)
    d = commitment_sets(toggle_ts, attrs)
    for a in attrs:
        sb = strong_basin(toggle_ts, toggle_ts.state_set([a.representative]))
        assert d.nodes[(a.index,)].states == sb


def test_partial_mode(toggle_ts):
    attrs = import_attractors(toggle_ts, ["10"])
    d = commitment_diagram(toggle_ts, attrs, partial=True)
    # only states committed exclusively to the known attractor remain
    assert node_states(d) == {(1,): {"10"}}
    assert d.partial


def test_partial_pattern_seed_nodes_are_disjoint():
    """A pattern seed's representative is a transient state here: its node
    must not also be counted in the node of the steady state alone."""
    ts = build(parse_bnet(OVERLAP))
    attrs = import_attractors(ts, OVERLAP_SEEDS)
    d = commitment_sets(ts, attrs, partial=True)
    assert {key: node.size for key, node in d.nodes.items()} == {
        (1,): 7, (1, 2): 1}
    assert d.nodes[(1, 2)].states.states() == ["110"]
    assert not d.nodes[(1,)].states & d.nodes[(1, 2)].states


def test_phenotype_of_steady(toggle_ts):
    attrs = attractors(toggle_ts)
    # attractor 2 is the steady state "10"
    assert phenotype_of(toggle_ts, attrs[1], ["a"]) == "1"


def test_phenotype_of_cyclic(repressilator_ts):
    attrs = attractors(repressilator_ts)
    assert phenotype_of(repressilator_ts, attrs[0], ["a"]) == "*"


def test_phenotype_requires_markers(toggle_ts):
    attrs = attractors(toggle_ts)
    with pytest.raises(ValueError):
        phenotype_of(toggle_ts, attrs[0], [])


def test_toggle_phenotype_diagram_mirrors_commitment(toggle_ts):
    attrs = attractors(toggle_ts)
    for marker in ("a", "b"):
        phenos = compute_phenotypes(toggle_ts, attrs, [marker])
        assert len(phenos) == 2
        pd = phenotype_diagram(toggle_ts, attrs, phenos)
        cd = commitment_diagram(toggle_ts, attrs)
        assert ({frozenset(k) for k in pd.nodes}
                == {frozenset(k) for k in cd.nodes})
        assert sorted(n.size for n in pd.nodes.values()) == \
            sorted(n.size for n in cd.nodes.values())


def test_diagram_json_schema(toggle_ts):
    d = commitment_diagram(toggle_ts, attractors(toggle_ts))
    payload = diagram_to_json(d)
    assert payload["nodes"][0] == {"key": [1], "size": 1, "percent": 25.0}
    assert [[1, 2], [1]] in payload["edges"]


def test_partition_and_edges_match_explicit_oracle():
    rng = random.Random(404)
    for _ in range(30):
        n = rng.randrange(3, 8)
        net = random_network(rng, n)
        ts = build(net)
        adj = explicit_stg(net, "async")
        oracle_attrs = terminal_sccs(adj)
        attrs = attractors(ts)
        d = commitment_diagram(ts, attrs)
        assert_commitment_identity(ts, d, commitment_units(ts, attrs))
        expected_blocks = commitment_blocks(adj, oracle_attrs)
        got = {frozenset(k): v for k, v in node_states(d).items()}
        assert got == expected_blocks
        expected_edges = quotient_edges(adj, expected_blocks)
        assert {(frozenset(i), frozenset(j)) for i, j in d.edges} == \
            expected_edges
        # committed index sets shrink along transitions
        owner = {}
        for key, states in got.items():
            for s in states:
                owner[s] = key
        for s, succ in adj.items():
            for t in succ:
                assert owner[t] <= owner[s]
        # phenotype partition coarsens the commitment partition
        markers = [net.variables.names[i]
                   for i in sorted(rng.sample(range(n), min(2, n)))]
        phenos = compute_phenotypes(ts, attrs, markers)
        pd = phenotype_diagram(ts, attrs, phenos)
        assert_commitment_identity(ts, pd, phenotype_units(ts, attrs, phenos))
        pheno_of_attr = {}
        for p in phenos:
            for ai in p.attractor_indices:
                pheno_of_attr[ai] = p.index
        expected_pheno = phenotype_blocks(
            adj, oracle_attrs,
            [pheno_of_attr[i + 1] for i in range(len(oracle_attrs))])
        got_pheno = {frozenset(k): v for k, v in node_states(pd).items()}
        assert got_pheno == expected_pheno
        for cstates in got.values():
            containers = [pk for pk, ps in got_pheno.items()
                          if cstates <= ps]
            assert len(containers) == 1
        # partial diagrams of every other attractor, each imported from a
        # state seed other than its representative where it has one
        known = import_attractors(
            ts, [a.states.states()[-1] for a in attrs[::2]])
        partial = commitment_diagram(ts, known, partial=True)
        assert_commitment_identity(ts, partial, commitment_units(ts, known))
        phenos = compute_phenotypes(ts, known, markers)
        partial = phenotype_diagram(ts, known, phenos, partial=True)
        assert_commitment_identity(ts, partial,
                                   phenotype_units(ts, known, phenos))


def test_simulation_toggle_split(toggle_ts):
    attrs = attractors(toggle_ts)
    phenos = compute_phenotypes(toggle_ts, attrs, ["a"])
    res = simulate_phenotype_reachability(toggle_ts, phenos, attrs, 10000, 42)
    assert res.capped == 0
    for freq in res.frequencies.values():
        assert abs(freq - 0.5) < 0.02
    assert abs(sum(res.frequencies.values()) - 1.0) < 1e-12


def test_simulation_single_attractor(repressilator_ts):
    attrs = attractors(repressilator_ts)
    phenos = compute_phenotypes(repressilator_ts, attrs, ["a"])
    res = simulate_phenotype_reachability(
        repressilator_ts, phenos, attrs, 500, 1)
    assert res.frequencies == {1: 1.0}


def test_simulation_deterministic(toggle_ts):
    attrs = attractors(toggle_ts)
    phenos = compute_phenotypes(toggle_ts, attrs, ["a"])
    r1 = simulate_phenotype_reachability(toggle_ts, phenos, attrs, 2000, 7)
    r2 = simulate_phenotype_reachability(toggle_ts, phenos, attrs, 2000, 7)
    assert r1.frequencies == r2.frequencies


@pytest.mark.parametrize("seed", [0, 7, -3])
def test_walk_keys_draw_what_the_string_seeds_draw(seed):
    """Walk w's key seeds the generator that random.Random(f"{seed}:{w}")
    is."""
    for w, key in enumerate(walk_keys(seed, 40)):
        ours = random.Random(int.from_bytes(key, "little"))
        theirs = random.Random(f"{seed}:{w}")
        assert ([ours.getrandbits(32) for _ in range(32)]
                == [theirs.getrandbits(32) for _ in range(32)])


def test_walk_keys_need_no_digest_from_random(monkeypatch):
    """CPython 3.13 leaves random._sha512 unset until a string seed is
    used; the keys come from the same digest without it."""
    monkeypatch.setattr(random, "_sha512", None, raising=False)
    expected = []
    for w in range(20):
        s = f"5:{w}".encode()
        expected.append((s + hashlib.sha512(s).digest())[::-1])
    assert list(walk_keys(5, 20)) == expected


class RecordingKernel:
    """A kernel that keeps what each of its walks calls returns."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.walk_results = []

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def walks(self, *args):
        self.walk_results.append(self.kernel.walks(*args))
        return self.walk_results[-1]


def simulate_on_each_kernel(kernel_c, monkeypatch, text, mode, seeds,
                            marker):
    """Simulate 3 walks from seed 0 with the imported seeds, once on each
    kernel; yields the result and the kernel's step total."""
    for module in (_kernel_py, kernel_c):
        monkeypatch.setattr(_select, "Kernel", module.Kernel)
        ts = build(parse_bnet(text), mode)
        attrs = import_attractors(ts, seeds)
        phenos = compute_phenotypes(ts, attrs, [marker])
        ts.manager.kernel = kernel = RecordingKernel(ts.manager.kernel)
        res = simulate_phenotype_reachability(ts, phenos, attrs, 3, 0)
        (_, _, steps), = kernel.walk_results
        yield res, steps


def test_sync_walk_ends_on_a_steady_state_missing_from_the_list(
        kernel_c, monkeypatch):
    """On the identity network every state is steady; with only 0...0
    imported, a sync walk from any other state ends at once as capped
    instead of stepping to the cap.  No walk takes a step."""
    n = 14
    text = "".join(f"v{i}, v{i}\n" for i in range(n))
    for res, steps in simulate_on_each_kernel(
            kernel_c, monkeypatch, text, UpdateMode.SYNC, ["0" * n], "v0"):
        assert (res.frequencies, res.walks, res.capped) == ({1: 0.0}, 3, 3)
        assert steps == 0


def test_async_walk_ends_where_no_listed_attractor_is_reachable(
        kernel_c, monkeypatch):
    """A repressilator beside 11 fixed variables has one cyclic attractor
    per assignment of them; with only the one at 0...0 imported, a walk
    that starts elsewhere can never reach it and ends at once as capped,
    where it would cycle to the cap.  No walk takes a step."""
    n = 14
    text = "a, !c\nb, a\nc, b\n" + "".join(
        f"v{i}, v{i}\n" for i in range(n - 3))
    for res, steps in simulate_on_each_kernel(
            kernel_c, monkeypatch, text, UpdateMode.ASYNC,
            ["1" + "0" * (n - 1)], "a"):
        assert (res.frequencies, res.walks, res.capped) == ({1: 0.0}, 3, 3)
        assert steps == 0
