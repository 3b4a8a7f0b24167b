"""The variable order: FORCE, the manager's level layout, and outputs that do
not depend on the order."""

import importlib.util
import math
import sys
import types
from pathlib import Path

import pytest

from basinscope import cli
from basinscope.attractors import attractors
from basinscope.basins import basin_triples
from basinscope.dd import DdManager, ExprStyle, NodeLimitError, to_expression
from basinscope.model import (
    Not, Or, Var, conjuncts, detect_van_ham_pairs, expr_vars, make_and,
    parse_bnet)
from basinscope.stg import FORCE_ROUNDS, build, force_order
from conftest import CHAIN, TOGGLE, VAN_HAM
from oracle import oracle_cases


def ring(n):
    """The in-degree-3 ring: v_i = v_{i-1} & !v_{i+3} | v_{i+7}."""
    return "".join(f"v{i}, v{(i - 1) % n} & !v{(i + 3) % n} | v{(i + 7) % n}\n"
                   for i in range(n))


def pairs(k):
    """k copies a_i <-> b_i, declared all a before all b, so that each pair
    is k levels apart in the declaration order."""
    return ("".join(f"a{i}, b{i}\n" for i in range(k))
            + "".join(f"b{i}, a{i}\n" for i in range(k)))


def dag_size(m, f):
    k, seen, stack = m.kernel, set(), [f]
    while stack:
        g = stack.pop()
        if g >= 2 and g not in seen:
            seen.add(g)
            stack += (k.low_of(g), k.high_of(g))
    return len(seen)


def test_force_order_is_deterministic():
    net = parse_bnet(ring(22))
    expected = [4, 8, 15, 19, 0, 11, 1, 12, 7, 18, 5, 16, 3, 14, 9, 20, 10,
                21, 2, 6, 13, 17]
    assert force_order(net) == expected
    assert force_order(parse_bnet(ring(22))) == expected
    assert force_order(parse_bnet(pairs(4))) == [0, 4, 1, 5, 2, 6, 3, 7]


@pytest.mark.parametrize("text, expected", [
    # every variable has the same centre: ties keep the declaration order
    ("a, c\nb, b\nc, a\n", [0, 1, 2]),
    ("a, b & c\nb, a & c\nc, a & b\n", [0, 1, 2]),
    (TOGGLE, [0, 1]),
    # v3 and v4 tie in a later round; v4 is ahead by then, and stays so
    ("v0, v4\nv1, v0\nv2, v0 | !v0\nv3, v0 & v4\nv4, v0 | v1 | v2 | v3\n",
     [1, 2, 0, 4, 3]),
])
def test_force_ties_keep_their_position(text, expected):
    assert force_order(parse_bnet(text)) == expected


def test_each_van_ham_pair_is_a_hyperedge():
    """A chain from x_medium to x_high: the admissibility constraint of the
    pair pulls its two ends together."""
    net = parse_bnet("x_medium, a\na, b\nb, c\nc, d\nd, e\ne, x_high\n"
                     "x_high, x_high\n")
    assert force_order(net) == list(range(7))
    assert force_order(detect_van_ham_pairs(net)) == [1, 0, 2, 3, 4, 6, 5]


def force_order_by_rounds(net):
    """FORCE as each round once summed every hyperedge and membership on
    its own: the reference for the flat sums of `force_order`."""
    n = net.n
    edges = [sorted({i} | expr_vars(upd)) for i, upd in enumerate(net.updates)]
    edges += [sorted(expr_vars(c)) for c in conjuncts(net.admissibility)]
    edges = [e for e in edges if e]
    member = [[] for _ in range(n)]
    for j, e in enumerate(edges):
        for v in e:
            member[v].append(j)
    size_lcm = math.lcm(*map(len, edges))
    degree_lcm = math.lcm(*map(len, member))
    order = list(range(n))
    pos = list(range(n))
    for _ in range(FORCE_ROUNDS):
        centre = [sum(pos[v] for v in e) * (size_lcm // len(e)) for e in edges]
        target = [sum(centre[j] for j in member[v])
                  * (degree_lcm // len(member[v])) for v in range(n)]
        ranked = sorted(range(n), key=lambda v: (target[v], pos[v]))
        if ranked == order:
            break
        order = ranked
        for p, v in enumerate(order):
            pos[v] = p
    return order


def benchmark_pool_models(monkeypatch):
    """The .bnet texts of the benchmark's random16 and vanham14 pools.  The
    generators need none of the explicit checker that gen.py imports
    (NumPy and SciPy), so a stub stands in for it."""
    monkeypatch.setitem(sys.modules, "explicit", types.SimpleNamespace(
        Model=None, ctl_text=None, state_string=None))
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench"
        / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return ([gen.random16_model(p["model"])
             for p in gen.load_pool("random16")]
            + [gen.vanham_model(p["model"])
               for p in gen.load_pool("vanham14")])


def test_force_order_matches_the_round_by_round_sums(monkeypatch):
    """The flat sums give the same order as summing each hyperedge on its
    own, on every model of the benchmark's random16 and vanham14 pools, as
    the CLI reads them (van Ham pairs detected)."""
    texts = benchmark_pool_models(monkeypatch)
    assert len(texts) == 48 + 24
    paired = 0
    for text in texts:
        net = detect_van_ham_pairs(parse_bnet(text))
        paired += net.admissibility is not None
        assert force_order(net) == force_order_by_rounds(net)
    assert paired == 24


def test_manager_levels_follow_the_order():
    m = DdManager(3, (2, 0, 1))
    assert [m.node(m.var(i))[0] for i in range(3)] == [2, 4, 0]
    assert [m.node(m.var_primed(i))[0] for i in range(3)] == [3, 5, 1]
    assert [m.var_at(level) for level in range(6)] == [2, 2, 0, 0, 1, 1]
    # packed states keep bit i = variable i
    x = m.cube(0b011)
    assert list(m.iter_states(x)) == ["110"]
    assert m.node(x)[0] == 0 and m.kernel.contains(x, 0b011)
    for order in ((0, 0, 1), (0, 1), (0, 1, 3)):
        with pytest.raises(ValueError, match="permutation"):
            DdManager(3, order)


def test_state_walks_keep_the_declaration_order():
    """Listing and picking order states by their bit strings whatever the
    level order."""
    expr = Or((make_and([Var(0), Not(Var(2))]), Var(1)))
    listed = {}
    for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
        m = DdManager(3, order)
        f = m.compile_expr(expr)
        listed[order] = (tuple(m.iter_states(f)), m.pick_min_state(f),
                         m.pick_min_state(m.diff(f, m.var(1))))
    assert len(set(listed.values())) == 1
    assert listed[(0, 1, 2)] == (
        ("010", "011", "100", "110", "111"), "010", "100")


@pytest.mark.parametrize("style", list(ExprStyle))
def test_exports_do_not_depend_on_the_order(style):
    expr = Or((make_and([Var(3), Not(Var(0))]), make_and([Var(1), Var(2)]),
               Not(Var(4))))
    declared = DdManager(5)
    expected = to_expression(declared, declared.compile_expr(expr), style)
    m = DdManager(5, (4, 2, 0, 3, 1))
    f = m.compile_expr(expr)
    assert to_expression(m, f, style) == expected
    copy, ref = m.in_declaration_order(f)
    assert copy.order == tuple(range(5))
    assert ref == copy.compile_expr(expr)
    assert m.in_declaration_order(f) == (copy, ref)
    assert declared.in_declaration_order(7) == (declared, 7)


def cli_outputs(path, mode, out, capsys):
    """Stdout and the files written into the new directory out of every
    subcommand on the model at path."""
    names = parse_bnet(path.read_text()).variables.names
    out.mkdir()
    runs = [
        ["attractors", "--json", "-"],
        ["basins", "--json", "-", "--svg", f"{out}/bars.svg"],
        ["commitment", "--json", "-", "--dot", f"{out}/c.dot", "--svg",
         f"{out}/c.svg"],
        ["commitment", "--json", "-", "--expression-style", "factored"],
        ["commitment", "--json", "-", "--expression-style", "dnf"],
        ["phenotypes", "--markers", ",".join(names[:2]), "--json", "-",
         "--svg", f"{out}/p.svg"],
        ["check", "--ctl", f"AG(EF({names[0]}))", "--json", "-"],
        ["check", "--ctl", f"EF({names[-1]} & !{names[0]})", "--json", "-",
         "--expression-style", "factored"],
        ["render", "--dot", f"{out}/stg.dot"],
        ["simulate", "--markers", names[-1], "--walks", "50", "--json", "-"],
    ]
    results = []
    for argv in runs:
        argv = argv[:1] + ["--bnet", str(path), "--update", mode] + argv[1:]
        assert cli.run(argv) == 0
        results.append(capsys.readouterr().out)
    return results, {p.name: p.read_text() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_cli_bytes_do_not_depend_on_the_order(mode, monkeypatch, tmp_path,
                                              capsys):
    """Every subcommand writes the same bytes in the declaration order as
    in FORCE order, which differs from it on most of these models."""
    texts = [TOGGLE, CHAIN, VAN_HAM] + [net.to_bnet()
                                        for net in oracle_cases(5, 8)]
    reordered = 0
    for i, text in enumerate(texts):
        path = tmp_path / f"model{i}.bnet"
        path.write_text(text)
        net = detect_van_ham_pairs(parse_bnet(text))
        reordered += force_order(net) != list(range(net.n))
        forced = cli_outputs(path, mode, tmp_path / f"force{i}", capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build", lambda net, mode: build(
                net, mode, order=range(net.n)))
            assert cli_outputs(path, mode, tmp_path / f"declared{i}",
                               capsys) == forced
    assert reordered >= len(texts) // 2


def test_build_takes_force_order(monkeypatch, tmp_path, capsys):
    """Six copy pairs declared 6 levels apart need 80k nodes for their
    basins in the declaration order and under 9k in FORCE order, which
    puts each pair side by side: the CLI completes under a limit of 20k
    nodes only in FORCE order."""
    net = parse_bnet(pairs(6))
    assert force_order(net) == [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]
    monkeypatch.setenv("BASINSCOPE_NODE_LIMIT", "20000")
    with pytest.raises(NodeLimitError):
        ts = build(net, order=range(net.n))
        basin_triples(ts, attractors(ts))
    path = tmp_path / "pairs.bnet"
    path.write_text(pairs(6))
    assert cli.run(["basins", "--bnet", str(path), "--json", "-"]) == 0
    assert '"space_size": 4096' in capsys.readouterr().out


def test_force_order_shrinks_the_ring_relation():
    net = parse_bnet(ring(22))
    declared = build(net, order=range(22))
    forced = build(net)
    assert forced.manager.order == tuple(force_order(net))
    assert dag_size(declared.manager, declared.relation) == 8650
    assert dag_size(forced.manager, forced.relation) == 1321


def test_ring_basins_step_from_the_reached_set(monkeypatch, tmp_path, capsys):
    """The basins of ring(18) allocate 71k nodes when each reachability
    step is taken from the reached set, and 140k when it is taken from the
    frontier, whose diagram is about twice the size."""
    monkeypatch.setenv("BASINSCOPE_NODE_LIMIT", "100000")
    path = tmp_path / "ring18.bnet"
    path.write_text(ring(18))
    assert cli.run(["basins", "--bnet", str(path), "--json", "-"]) == 0
    assert '"space_size": 262144' in capsys.readouterr().out
