"""Synchronous dynamics against the explicit oracle.

A synchronous STG is deterministic, so attractor detection and basin
triples take shortcuts in sync mode, and the weak basins of attractors are
pairwise disjoint, so each is its own diagram block, split by no other.
These tests hold each shortcut, the complete and partial diagrams, and
the three basin queries that pattern seeds keep, to the explicit graph, on
random networks with and without a van Ham pair.
"""

import random

from basinscope.attractors import attractors, import_attractors
from basinscope.basins import basin_triples
from basinscope.diagrams import (
    commitment_diagram, compute_phenotypes, phenotype_diagram)
from basinscope.stg import UpdateMode, build
from oracle import (
    commitment_blocks, ctl_eval, cycle_free_basin, explicit_stg,
    phenotype_blocks, quotient_edges, random_network, strong_basin,
    terminal_sccs, weak_basin, with_van_ham_pair)


def sync_cases(seed, count):
    """(rng, net, symbolic STG, explicit STG) for random sync networks;
    every other one has a van Ham pair."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randrange(3, 9)
        net = random_network(rng, n)
        if k % 2:
            net = with_van_ham_pair(net, *rng.sample(range(n), 2))
        yield rng, net, build(net, UpdateMode.SYNC), explicit_stg(net, "sync")


def states_of(state_set):
    return set(state_set.states())


def nodes_of(diagram):
    return {frozenset(key): states_of(node.states)
            for key, node in diagram.nodes.items()}


def assert_triple(triple, adj, oracle_attrs, index):
    target = oracle_attrs[index - 1]
    assert states_of(triple.weak) == weak_basin(adj, target)
    assert states_of(triple.strong) == strong_basin(adj, oracle_attrs, {index})
    assert states_of(triple.cycle_free) == cycle_free_basin(adj, target)
    assert (triple.weak_info, triple.strong_info) == \
        (triple.cycle_free_info, triple.cycle_free_info)


def test_attractors_and_basin_triples_match_oracle():
    for _, _, ts, adj in sync_cases(31, 60):
        oracle_attrs = terminal_sccs(adj)
        attrs = attractors(ts)
        assert [sorted(a.states.states()) for a in attrs] == oracle_attrs
        assert [a.size for a in attrs] == [len(o) for o in oracle_attrs]
        for triple in basin_triples(ts, attrs):
            assert_triple(triple, adj, oracle_attrs, triple.attractor.index)


def test_commitment_and_phenotype_diagrams_match_oracle():
    for rng, net, ts, adj in sync_cases(32, 40):
        oracle_attrs = terminal_sccs(adj)
        attrs = attractors(ts)
        d = commitment_diagram(ts, attrs)
        expected = commitment_blocks(adj, oracle_attrs)
        assert nodes_of(d) == expected
        assert {(frozenset(i), frozenset(j)) for i, j in d.edges} == \
            quotient_edges(adj, expected)
        markers = [net.variables.names[i]
                   for i in sorted(rng.sample(range(net.n), 2))]
        phenos = compute_phenotypes(ts, attrs, markers)
        pd = phenotype_diagram(ts, attrs, phenos)
        pheno_of_attr = {i: p.index for p in phenos
                         for i in p.attractor_indices}
        expected = phenotype_blocks(
            adj, oracle_attrs,
            [pheno_of_attr[i + 1] for i in range(len(oracle_attrs))])
        assert nodes_of(pd) == expected
        assert {(frozenset(i), frozenset(j)) for i, j in pd.edges} == \
            quotient_edges(adj, expected)


def test_imported_state_seeds_match_oracle():
    """Every other attractor, each imported from its largest state: the
    triples take the shortcut, and each weak basin of the partial diagram
    is its own block."""
    for _, _, ts, adj in sync_cases(33, 40):
        oracle_attrs = terminal_sccs(adj)
        listed = oracle_attrs[::2]
        known = import_attractors(ts, [a[-1] for a in listed])
        assert [sorted(a.states.states()) for a in known] == listed
        for triple, target in zip(basin_triples(ts, known), listed):
            assert_triple(triple, adj, oracle_attrs,
                          oracle_attrs.index(target) + 1)
        partial = commitment_diagram(ts, known, partial=True)
        assert nodes_of(partial) == {
            frozenset({a.index}): weak_basin(adj, target)
            for a, target in zip(known, listed)}
        assert partial.edges == set()


def test_pattern_seeds_keep_the_three_queries():
    """A pattern seed is not closed under the dynamics: its weak and strong
    basins are those of its representative alone, which the shortcut (the
    backward reach of the whole pattern) would not give."""
    differs = 0
    for rng, net, ts, adj in sync_cases(34, 40):
        i = rng.randrange(net.n)
        value = rng.randrange(2)
        [seed] = import_attractors(ts, [{net.variables.names[i]: value}])
        pattern = {s for s in adj if s[i] == str(value)}
        rep = {seed.representative}
        [triple] = basin_triples(ts, [seed])
        assert states_of(triple.weak) == weak_basin(adj, rep)
        assert states_of(triple.strong) == ctl_eval(
            adj, set, ("AG", ("EF", ("atom", rep))))
        assert states_of(triple.cycle_free) == cycle_free_basin(adj, pattern)
        differs += weak_basin(adj, pattern) != states_of(triple.weak)
    assert differs
