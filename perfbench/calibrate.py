"""Measure the model pools of random16 and vanham14 and write pool.json.

Usage (from the repository root, on an otherwise idle machine):
    python3 perfbench/calibrate.py

Each pool model runs its workload invocations once per repeat in a fresh
interpreter; pool.json records the median wall time and peak RSS of each.
The workloads draw cost-balanced model sets from these numbers, so the
numbers fix which models a seed selects: rewriting pool.json changes the
benchmark's inputs and needs a new baseline.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

REPEATS = 3


def measure(root: Path, env: dict, files: dict, plan: list):
    """Median wall time and peak RSS of the plan, and the kernel backend."""
    work = root / ".bench_out" / f"calibrate-{os.getpid()}"
    (work / "out").mkdir(parents=True)
    try:
        for name, text in files.items():
            (work / name).write_text(text)
        walls, rss = [], []
        for _ in range(REPEATS):
            child = run.run_child(work, env, plan, 0, 0, work / "spans.json")
            walls.append(sum(s["wall"] for inv in child["invocations"]
                             for s in inv["samples"]))
            rss.append(child["peak_rss_kb"] / 1024.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"cost_s": round(statistics.median(walls), 3),
            "rss_mb": round(statistics.median(rss), 1)}, child["backend"]


def main():
    root = HERE.parent
    env = run.child_env(root, root / ".bench_out")
    run.build(root, root / ".bench_out", env)
    pools = {"measured": "", "random16": [], "vanham14": []}
    for index in range(gen.RANDOM16_POOL):
        plan = gen.random16_plan("net", "net.bnet")
        cost, backend = measure(
            root, env, {"net.bnet": gen.random16_model(index)}, plan)
        entry = {"model": index, **cost}
        pools["random16"].append(entry)
        print("random16", entry, flush=True)
    for k, candidate in enumerate(gen.vanham_candidates()):
        text = gen.vanham_model(candidate)
        files = {"m.bnet": text, "m.seeds.json": gen.vanham_seeds(text)}
        plan = gen.vanham_plan("m", "m.bnet", "m.seeds.json", k == 0, 0)
        cost, backend = measure(root, env, files, plan)
        entry = {"model": candidate, **cost}
        pools["vanham14"].append(entry)
        print("vanham14", entry, flush=True)
    pools["measured"] = (
        f"perfbench/calibrate.py: median of {REPEATS} runs in fresh "
        f"interpreters, {backend} kernel, Python "
        f"{platform.python_version()}, {len(os.sched_getaffinity(0))} CPUs")
    gen.POOL_FILE.write_text(json.dumps(pools, indent=1) + "\n")


if __name__ == "__main__":
    main()
