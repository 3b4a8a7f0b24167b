"""Benchmark the compiled C kernel against the pure-Python fallback.

Runs the same workload once per backend in a fresh subprocess (the backend
is fixed at import time via BASINSCOPE_DD_BACKEND) and prints a comparison
table; it exits with status 1 when the backends disagree on node counts,
attractor representatives or weak/strong/cycle-free basin sizes.  The
workload builds asynchronous transition systems for random networks,
detects attractors and computes the three basins per attractor — the
operations that dominate real analyses.

Usage: python3 benchmarks/bench_kernel.py [--networks N] [--vars V]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
import time


def workload(networks: int, n_vars: int) -> dict:
    from basinscope.attractors import attractors
    from basinscope.basins import basin_triples
    from basinscope.dd import DdManager
    from basinscope.stg import build

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
    from oracle import random_network

    backend = DdManager(1).backend
    rng = random.Random(99)
    start = time.monotonic()
    nodes = 0
    found = []  # per attractor: representative, weak, strong, cycle-free size
    for _ in range(networks):
        net = random_network(rng, n_vars)
        ts = build(net)
        attrs = attractors(ts)
        for a, t in zip(attrs, basin_triples(ts, attrs)):
            found.append([a.representative, t.weak_info.size,
                          t.strong_info.size, t.cycle_free_info.size])
        nodes += ts.manager.kernel.num_nodes()
    return {
        "backend": backend,
        "seconds": round(time.monotonic() - start, 3),
        "networks": networks,
        "vars": n_vars,
        "attractors": found,
        "nodes": nodes,
    }


def run_child(backend: str, networks: int, n_vars: int) -> dict:
    env = dict(os.environ, BASINSCOPE_DD_BACKEND=backend)
    out = subprocess.run(
        [sys.executable, __file__, "--child",
         "--networks", str(networks), "--vars", str(n_vars)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--networks", type=int, default=25)
    parser.add_argument("--vars", type=int, default=16)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        print(json.dumps(workload(args.networks, args.vars)))
        return

    if importlib.util.find_spec("basinscope.dd._kernel_c") is None:
        parser.error("the C kernel is not built; "
                     "run python3 setup.py build_ext --inplace")
    results = [run_child(b, args.networks, args.vars) for b in ("py", "c")]
    print(f"workload: {args.networks} random networks, "
          f"{args.vars} variables each (attractors + basins)")
    for r in results:
        print(f"  {r['backend']:>8}: {r['seconds']:8.3f} s "
              f"({r['nodes']} nodes, {len(r['attractors'])} attractors)")
    speedup = results[0]["seconds"] / max(results[1]["seconds"], 1e-9)
    print(f"  speedup: {speedup:.2f}x")
    if (results[0]["nodes"], results[0]["attractors"]) != \
            (results[1]["nodes"], results[1]["attractors"]):
        print("  WARNING: backends disagree on node counts, attractor "
              "representatives or basin sizes")
        sys.exit(1)


if __name__ == "__main__":
    main()
