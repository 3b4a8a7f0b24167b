"""basinscope benchmark: one closed-loop client running CLI workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-manifest

Run from the root of a source checkout.  The workload's models are generated
from the seed and written to a scratch directory under `.bench_out/`.  A
fresh interpreter (`child.py`) then calls `basinscope.cli.run(argv)` for
each invocation in turn, one at a time, until `--seconds` have passed;
every output is checked.  With `--trace 0` the last line of standard output
is a JSON object with the end-to-end metrics; with `--trace 1` the same
loop runs again with span tracing and the object carries the per-layer
metrics.  Full results, and for traced runs the raw spans, are written to
`.bench_out/`.  `--write-manifest` regenerates BENCHMARK.json from the
definitions below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from gen import WORKLOADS  # noqa: E402
from verify import Checker  # noqa: E402

RUN_SECONDS = 25
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150

WHY = {
    "random16": "12 random async networks (16 variables, in-degree <= 3), "
                "attractors + basins each: few attractors but many transient "
                "pivots, so the pivot loop and per-call overhead dominate",
    "ring22": "the in-degree-3 ring at n = 22: basins, commitment and two CTL "
              "checks; 2 steady attractors but deep fixpoints over large "
              "diagrams, so relation products, node growth and RSS dominate",
    "vanham14": "3 van Ham models (14 variables, >= 3 async attractors) "
                "through every subcommand, import, render and sync: "
                "quotients, ISOP, simulation and many tiny images dominate",
}

# (name, unit, better, bound)
END_TO_END = [
    ("total_s", "s", "lower", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]
SUBCOMMANDS = ["attractors", "basins", "commitment", "commitment_import",
               "phenotypes", "check", "render", "simulate", "sync"]
CLEAN_ENV = ("BASINSCOPE_DD_BACKEND", "BASINSCOPE_NODE_LIMIT")


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b, listed) in tracing.LAYER_METRICS.items()
                      if listed],
    }


def child_env(root: Path, tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEAN_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env


def build(root: Path, out: Path, env: dict):
    """Build the package in place once per checkout (compiles the optional
    kernel extension when the toolchain allows; a no-op otherwise)."""
    stamp = out / "build.stamp"
    if stamp.exists():
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"build failed:\n{proc.stdout}{proc.stderr}")
    stamp.write_text("built\n")


def measure_setup(env: dict, cwd: Path) -> float:
    """Median time from starting a fresh interpreter until basinscope.cli
    is imported.  A first, untimed start writes the bytecode caches."""
    code = ("import time, basinscope.cli; "
            "print(repr(time.monotonic()), flush=True)")
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import basinscope.cli:\n{proc.stderr}")
        times.append(float(proc.stdout) - t0)
    return statistics.median(times[1:])


def run_child(work: Path, env: dict, plan: list, seconds: int, trace: int,
              spans_path: Path) -> dict:
    """Run the closed loop in a fresh interpreter inside `work`, which holds
    the model files; return its result."""
    spec = {"plan": plan, "seconds": seconds, "trace": trace,
            "spans_path": str(spans_path)}
    (work / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "spec.json", "result.json"],
        cwd=work, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed:\n{proc.stderr[-4000:]}")
    return json.loads((work / "result.json").read_text())


def environment(root: Path, backend: str, python: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return {"backend": backend, "python": python, "commit": commit,
            "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0))}


def summarize(plan, child, checker) -> dict:
    """Verify references and count attempts, failures and the per-pass
    medians of the untraced and traced loops."""
    attempted = failed = 0
    errors = []
    by_kind = defaultdict(float)
    totals = {"total_s": 0.0, "cpu_s": 0.0, "traced_total_s": 0.0}
    per_invocation = {}
    layers, breakdown = [], defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for inv, res in zip(plan, child["invocations"]):
        samples = res["samples"]
        bad = None
        try:
            checker.check(inv, res["reference"])
        except Exception as exc:  # noqa: BLE001 - any failure counts as error
            bad = f"{type(exc).__name__}: {exc}"
        attempted += len(samples)
        for s in samples:
            if s["error"] or bad:
                failed += 1
                errors.append(f"{inv['id']}: {s['error'] or bad}")
        plain = [s for s in samples if not s["traced"]]
        traced = [s for s in samples if s["traced"]]
        wall = statistics.median(s["wall"] for s in plain)
        per_invocation[inv["id"]] = [round(s["wall"], 4) for s in samples]
        by_kind[inv["kind"]] += wall
        totals["total_s"] += wall
        totals["cpu_s"] += statistics.median(s["cpu"] for s in plain)
        if traced:
            totals["traced_total_s"] += statistics.median(
                s["wall"] for s in traced)
            layers.append([s["layers"] for s in traced])
            for key, (calls, self_s) in res["breakdown"].items():
                row = breakdown[inv["kind"]][key]
                row[0] += calls
                row[1] += self_s
    passes = min(len(r["samples"]) for r in child["invocations"])
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "by_kind": dict(by_kind), "totals": totals, "passes": passes,
            "wall_s": per_invocation,
            "layers": tracing.combine(layers) if layers else None,
            "breakdown": {k: dict(v) for k, v in breakdown.items()}}


def report(trace, env_info, setup_s, peak_rss_mb, summary) -> dict:
    """Print every metric by name with its unit; return the JSON metrics."""
    s = summary
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"closed loop, 1 client: {s['passes']}+ passes, {s['attempted']} "
          f"invocations attempted, {s['failed']} failed")
    for err in s["errors"][:10]:
        print(f"  error: {err}")
    rate = s["failed"] / s["attempted"]
    print(f"  {'error_rate':<34} {rate:.4f} ({s['failed']} of "
          f"{s['attempted']} attempted)")
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
              "total_s": s["totals"]["total_s"], "cpu_s": s["totals"]["cpu_s"]}
    for kind in SUBCOMMANDS:
        if kind in s["by_kind"]:
            print(f"  {kind + '_s':<34} {s['by_kind'][kind]:.4f} s")
    units = {n: u for n, u, _, _ in END_TO_END}
    for name, value in values.items():
        if value is not None:
            print(f"  {name:<34} {value:.4f} {units[name]}")
    if not trace:
        return {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}

    layers = dict(s["layers"])
    layers["trace.overhead_s"] = (s["totals"]["traced_total_s"]
                                  - s["totals"]["total_s"])
    print(f"per-layer metrics (traced pass; overhead "
          f"{layers['trace.overhead_s']:.4f} s on "
          f"{s['totals']['total_s']:.4f} s untraced):")
    for name, (unit, _, _) in tracing.LAYER_METRICS.items():
        print(f"  {name:<34} {layers[name]:.6g} {unit}")
    print("self time by parent > child span, per subcommand:")
    for kind, rows in sorted(s["breakdown"].items()):
        print(f"  {kind}:")
        top = sorted(rows.items(), key=lambda kv: -kv[1][1])[:12]
        for key, (calls, self_s) in top:
            print(f"    {key:<52} {calls:>8} calls {self_s:10.4f} s")
    return {n: {"value": layers[n], "unit": u}
            for n, (u, _, listed) in tracing.LAYER_METRICS.items() if listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    root = HERE.parent
    if args.write_manifest:
        (root / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (root / "src" / "basinscope" / "cli.py").is_file():
        print(f"error: no basinscope sources under {root / 'src'}",
              file=sys.stderr)
        return 2

    result = execute(root, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def execute(root: Path, workload: str, seed: int, seconds: int, trace: int,
            sizes: dict | None = None) -> dict | None:
    """Run one workload and print its report.  Returns the result object,
    or None after printing why the run failed.  `sizes` overrides the
    generator's size parameters (the smoke test runs tiny instances)."""
    out = root / ".bench_out"
    tag = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    work = out / f"work-{tag}-{os.getpid()}"
    (work / "out").mkdir(parents=True)
    try:
        env = child_env(root, work)
        build(root, out, env)
        files, plan = WORKLOADS[workload](seed, **(sizes or {}))
        for name, text in files.items():
            (work / name).write_text(text)
        setup_s = None if trace else measure_setup(env, work)
        child = run_child(work, env, plan, seconds, trace,
                          out / f"{tag}-spans.json")
        summary = summarize(plan, child, Checker(files))
        env_info = environment(root, child["backend"], child["python"])
        if child["missing_targets"]:
            print("warning: untraced (not found): "
                  + ", ".join(child["missing_targets"]))
        print(f"basinscope benchmark: workload={workload} seed={seed} "
              f"seconds={seconds} trace={trace}")
        metrics = report(trace, env_info, setup_s,
                         child["peak_rss_kb"] / 1024.0, summary)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": summary["failed"] == 0,
              "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    (out / f"{tag}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds,
         "environment": env_info, "summary": summary, **result}, indent=1))
    return result


if __name__ == "__main__":
    sys.exit(main())
