"""Closed-loop runner, started by run.py in a fresh interpreter.

One client calls `basinscope.cli.run(argv)` for each invocation of the plan
in turn, on one thread, and starts the next only after the previous one
returns.  It repeats the plan until the time is up; the first pass always
completes.  The first output of each invocation is its reference; every
later output must match it byte for byte.

Usage: python3 child.py SPEC.json RESULT.json
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

import tracing


def run_one(cli, inv) -> tuple[float, float, str | None, dict]:
    out, err = io.StringIO(), io.StringIO()
    error = None
    gc.collect()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(inv["argv"])
        if rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()}"
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as failed
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    outputs = {"stdout": out.getvalue()}
    for path in inv["outputs"]:
        p = Path(path)
        outputs[path] = p.read_text() if p.exists() else None
        p.unlink(missing_ok=True)
    return wall, cpu, error, outputs


def closed_loop(cli, plan, seconds, results, tracer=None):
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(plan) or time.perf_counter() < deadline:
        k = i % len(plan)
        inv, res = plan[k], results[k]
        first = tracer.begin(k) if tracer else 0
        wall, cpu, error, outputs = run_one(cli, inv)
        sample = {"wall": wall, "cpu": cpu, "traced": tracer is not None}
        if res["reference"] is None:
            res["reference"] = outputs
        elif error is None and outputs != res["reference"]:
            error = "output differs from the first run"
        sample["error"] = error
        if tracer:
            counters = tracer.end()
            layers, breakdown = tracing.layer_metrics(tracer, first, counters)
            layers["cli.output_bytes"] = sum(
                len(v.encode()) for v in outputs.values() if v)
            sample["layers"] = layers
            if "breakdown" not in res:
                res["breakdown"] = breakdown
        res["samples"].append(sample)
        i += 1


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    result_path = Path(sys.argv[2])
    from basinscope import cli
    from basinscope.dd import BACKEND

    plan = spec["plan"]
    results = [{"id": inv["id"], "kind": inv["kind"], "reference": None,
                "samples": []} for inv in plan]
    closed_loop(cli, plan, spec["seconds"], results)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        start = time.perf_counter()
        closed_loop(cli, plan, spec["seconds"], results, tracer)
        Path(spec["spans_path"]).write_text(json.dumps({
            "names": tracer.names,
            "invocations": [inv["id"] for inv in plan],
            "fields": ["name", "start_s", "end_s", "parent", "invocation"],
            "spans": [[s[0], round(s[1] - start, 7), round(s[2] - start, 7),
                       s[3], s[4]] for s in tracer.spans],
        }, separators=(",", ":")))
    result_path.write_text(json.dumps({
        "backend": BACKEND,
        "python": platform.python_version(),
        "peak_rss_kb": peak_rss_kb,
        "missing_targets": tracer.missing if tracer else [],
        "invocations": results,
    }))


if __name__ == "__main__":
    main()
