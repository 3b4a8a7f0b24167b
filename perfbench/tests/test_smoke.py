"""Smoke test of the benchmark harness on tiny instances of each workload.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import child  # noqa: E402
import explicit  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from basinscope.model import parse_bnet, detect_van_ham_pairs  # noqa: E402
from verify import Checker, Mismatch  # noqa: E402

TINY = {"random16": {"networks": 1}, "ring22": {"n": 12},
        "vanham14": {"models": 1}}

# spans that the traced runs of the three workloads must emit, per layer
LAYER_SPANS = [
    "cli.emit_json", "cli.write", "model.parse_bnet", "model.van_ham",
    "stg.build", "stg.image", "stg.preimage", "stg.forward_reach",
    "stg.backward_reach", "dd.apply", "dd.and", "dd.or", "dd.exists_primed",
    "dd.exists_unprimed", "dd.pick_min_state", "dd.count_states",
    "dd.iter_states", "dd.to_expression", "ctl.accept", "ctl.accept_ref",
    "attractors.detect", "attractors.import", "basins.weak", "basins.strong",
    "basins.cycle_free", "diagrams.commitment_sets", "diagrams.phenotype_sets",
    "diagrams.edges", "diagrams.simulate", "report.diagram_dot",
    "report.stg_dot", "report.barplot_svg", "report.piechart_svg",
]
COUNTS = [n for n, (unit, _, _) in tracing.LAYER_METRICS.items()
          if unit == "count"]


def _runs(trace):
    """One tiny run per workload: result object, span names (traced runs)
    and the printed report."""
    out = {}
    for workload, sizes in TINY.items():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            result = run.execute(ROOT, workload, 5, 0, trace, sizes)
        names = set()
        if trace:
            spans = json.loads(
                (ROOT / ".bench_out" / f"{workload}-seed5-trace-spans.json")
                .read_text())
            names = {spans["names"][s[0]] for s in spans["spans"]}
        out[workload] = (result, names, printed.getvalue())
    return out


@pytest.fixture(scope="module")
def untraced():
    return _runs(0)


@pytest.fixture(scope="module")
def traced():
    return _runs(1)


def test_end_to_end_metrics_present_and_no_errors(untraced):
    printed_all = ""
    for workload, (result, _, printed) in untraced.items():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [n for n, *_ in run.END_TO_END]
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "error_rate                         0.0000" in printed
        for name, *_ in run.END_TO_END:
            assert f"  {name} " in printed
        printed_all += printed
    for kind in run.SUBCOMMANDS:
        assert f"  {kind}_s " in printed_all


def test_traced_runs_cover_every_layer(traced):
    seen = set()
    for workload, (result, names, printed) in traced.items():
        assert result["correct"] and result["failed"] == 0
        listed = [n for n, (_, _, ok) in tracing.LAYER_METRICS.items() if ok]
        assert list(result["metrics"]) == listed
        for name in tracing.LAYER_METRICS:
            assert f"  {name} " in printed
        assert "overhead" in printed and "parent > child" in printed
        seen |= names
    assert set(LAYER_SPANS) <= seen


def test_count_metrics_repeat_exactly(traced):
    result = traced["random16"][0]
    again = run.execute(ROOT, "random16", 5, 0, 1, TINY["random16"])
    for name in COUNTS:
        if name in result["metrics"]:
            assert again["metrics"][name] == result["metrics"][name], name


def test_generators_are_deterministic():
    for workload, make in gen.WORKLOADS.items():
        assert make(7, **TINY[workload]) == make(7, **TINY[workload])
    assert gen.random16(7, 4) != gen.random16(8, 4)


def _with_reference(workload, tmp_path, monkeypatch, seed=3):
    """Files, plan and reference outputs of one untraced tiny pass."""
    from basinscope import cli
    files, plan = gen.WORKLOADS[workload](seed, **TINY[workload])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    for name, text in files.items():
        Path(name).write_text(text)
    refs = []
    for inv in plan:
        _, _, error, outputs = child.run_one(cli, inv)
        assert error is None, error
        refs.append(outputs)
    return files, plan, refs


def test_ring_facts_agree_with_the_explicit_graph(tmp_path, monkeypatch):
    files, plan, refs = _with_reference("ring22", tmp_path, monkeypatch)
    facts, full = Checker(files), Checker(files)
    formulas = iter(gen.RING_FORMULAS)
    for inv, ref in zip(plan, refs):
        facts.check(inv, ref)
        check = {"formula": next(formulas)} if inv["kind"] == "check" else {}
        full.check(dict(inv, check=check), ref)


def _corrupt(inv, ref):
    bad = copy.deepcopy(ref)
    if inv["argv"][0] == "render":
        path = inv["outputs"][0]
        lines = bad[path].splitlines(keepends=True)
        lines.remove(next(line for line in lines if " -> " in line))
        bad[path] = "".join(lines)
        return bad
    p = json.loads(bad["stdout"])
    if "--attractor-file" in inv["argv"]:
        p["nodes"][-1]["expression"] = "v0"
    elif "nodes" in p:
        p["nodes"][0]["size"] += 1
    elif "basins" in p:
        p["basins"][0]["strong"]["size"] += 1
    elif "attractors" in p:
        p["attractors"][0]["size"] += 1
    elif "count" in p:
        p["count"] += 1
    elif "diagram" in p:
        p["diagram"]["edges"].append([[1], [2]])
    else:
        p["capped"] = 1
    bad["stdout"] = json.dumps(p)
    return bad


def test_checker_rejects_wrong_outputs(tmp_path, monkeypatch):
    files, plan, refs = _with_reference("vanham14", tmp_path, monkeypatch)
    for inv, ref in zip(plan, refs):
        Checker(files).check(inv, ref)
        with pytest.raises(Mismatch):
            Checker(files).check(inv, _corrupt(inv, ref))


CTL_CASES = [
    ("AU", ("not", ("var", "v2")), ("and", ("var", "v0"), ("var", "v1"))),
    ("EG", ("or", ("var", "v1"), ("var", "v2"))),
    ("AG", ("EF", ("and", ("var", "v0"), ("not", ("var", "v1"))))),
    ("EF", ("AG", ("and", ("var", "v0"), ("var", "v1")))),
    ("AX", ("var", "v0")), ("EX", ("var", "v1")), ("AF", ("var", "v2")),
    ("EU", ("var", "v0"), ("var", "v1")),
]


def _oracle_formula(f):
    if f[0] == "var":
        return ("atom", f[1])
    return (f[0],) + tuple(_oracle_formula(g) for g in f[1:])


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_explicit_semantics_match_the_test_oracle(mode):
    rng = random.Random(2024)
    for case in range(24):
        n = rng.randrange(5, 9)
        names = [f"v{i}" for i in range(n - 2)] + (
            ["x_medium", "x_high"] if case % 2 else ["w0", "w1"])
        text = gen.random_bnet(rng, names)
        net = detect_van_ham_pairs(parse_bnet(text))
        adj = oracle.explicit_stg(net, mode)
        m = explicit.Model(text, mode)

        def states(arr):
            return {explicit.state_string(int(s), n) for s in arr}

        attrs = oracle.terminal_sccs(adj)
        assert [sorted(states(a)) for a in m.attractors()] == attrs
        for idx, (a, (weak, strong, cyc)) in enumerate(
                zip(attrs, m.basin_sizes()), start=1):
            assert weak == len(oracle.weak_basin(adj, a))
            assert strong == len(oracle.strong_basin(adj, attrs, {idx}))
            assert cyc == len(oracle.cycle_free_basin(adj, a))
        blocks = {frozenset(k): states(v) for k, v in m.blocks().items()}
        assert blocks == oracle.commitment_blocks(adj, attrs)
        edges = m.block_edges(m.blocks())
        assert {(frozenset(i), frozenset(j)) for i, j in edges} == \
            oracle.quotient_edges(adj, blocks)
        unit_of = [0] * len(attrs)
        for i, (_, members) in enumerate(m.phenotypes(["v0", "v1"]), 1):
            for j in members:
                unit_of[j - 1] = i
        got = {frozenset(k): states(v) for k, v in m.blocks(unit_of).items()}
        assert got == oracle.phenotype_blocks(adj, attrs, unit_of)

        def atom(name):
            i = net.variables.index_of(name)
            return {s for s in adj if s[i] == "1"}

        for f in CTL_CASES:
            want = oracle.ctl_eval(adj, atom, _oracle_formula(f))
            assert states(m.ctl(f).nonzero()[0]) == want, f
