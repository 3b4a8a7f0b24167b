"""Seeded workload generators: model files plus the CLI invocations to run.

The generators write .bnet text themselves, so that edits to the program or
to its tests cannot change the inputs: the same seed gives the same bytes.
Each workload returns `(files, plan)`: `files` maps a file name to its text,
and `plan` lists the invocations, each with the argv for `basinscope.cli.run`
(paths relative to the directory that holds the files), the subcommand
metric it counts towards, the output files it writes and what to check.

The cost of one random network varies from 0.1 s to 5 s (pure-Python
kernel, 2 CPUs), so models drawn freely from the seed made the work of a
run vary by 30 % between seeds.
random16 and vanham14 therefore draw their models from a fixed pool whose
per-model cost and peak RSS were measured once (`pool.json`, written by
`calibrate.py`): the seed picks the models, and a draw is used only when
its summed cost is within 1 % of the pool average.  One model is in every
draw (random16's largest-RSS network, vanham14's render-and-sync model), so
that the peak RSS of a run does not depend on the seed either.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from explicit import Model, ctl_text, state_string

POOL_FILE = Path(__file__).with_name("pool.json")
RANDOM16_NETWORKS = 12
RANDOM16_POOL = 48
RING_N = 22
VANHAM_MODELS = 3
VANHAM_POOL = 24
VANHAM_SYNC_BAND = (2000, 3000)
DRAWS = 200
TOLERANCE = 0.01
WALKS = 2000
MARKERS = ["v0", "v1"]

# fixed formulas; atoms are single variables in the CLI's CTL syntax
RING_FORMULAS = [
    ("AG", ("EF", ("and", ("var", "v0"), ("not", ("var", "v1"))))),
    ("EF", ("AG", ("and", ("var", "v0"), ("var", "v11")))),
]
VANHAM_FORMULAS = [
    ("AU", ("not", ("var", "x0_high")), ("and", ("var", "v0"), ("var", "v1"))),
    ("EG", ("or", ("var", "v1"), ("var", "x1_medium"))),
]


def random_expr(rng: random.Random, regulators: list[str], depth: int) -> str:
    """Random expression over the regulators, shaped like the test oracle's
    `random_expr`: literals, negations and 2-3-way and/or nodes."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.05:
            return str(rng.randrange(2))
        v = rng.choice(regulators)
        return "!" + v if rng.random() < 0.5 else v
    kind = rng.randrange(3)
    if kind == 0:
        return "!(" + random_expr(rng, regulators, depth - 1) + ")"
    args = [random_expr(rng, regulators, depth - 1)
            for _ in range(rng.randrange(2, 4))]
    return "(" + (" & " if kind == 1 else " | ").join(args) + ")"


def random_bnet(rng: random.Random, names: list[str]) -> str:
    """Random network with in-degree at most 3."""
    lines = []
    for name in names:
        regulators = rng.sample(names, rng.randint(1, 3))
        lines.append(f"{name}, "
                     f"{random_expr(rng, regulators, rng.randrange(1, 4))}")
    return "\n".join(lines) + "\n"


def ring_bnet(n: int) -> str:
    """v_i = v_{i-1} & !v_{i+3} | v_{i+7}, indices mod n."""
    return "".join(f"v{i}, v{(i - 1) % n} & !v{(i + 3) % n} | v{(i + 7) % n}\n"
                   for i in range(n))


def _inv(inv_id, kind, model, argv, outputs=(), **check):
    return {"id": inv_id, "kind": kind, "model": model, "argv": argv,
            "outputs": list(outputs), "check": check}


def balanced(rng: random.Random, costs: list[float], k: int,
             anchor: int) -> list[int]:
    """The anchor plus k - 1 other pool indices: the first of DRAWS seeded
    draws whose summed cost is within TOLERANCE of its expectation, or else
    the closest draw."""
    others = [i for i in range(len(costs)) if i != anchor]
    target = (k - 1) * sum(costs[i] for i in others) / len(others)
    best, best_gap = [], float("inf")
    for _ in range(DRAWS):
        draw = rng.sample(others, k - 1)
        gap = abs(sum(costs[i] for i in draw) - target)
        if gap <= TOLERANCE * target:
            return [anchor] + draw
        if gap < best_gap:
            best, best_gap = draw, gap
    return [anchor] + best


def load_pool(workload: str) -> list[dict]:
    return json.loads(POOL_FILE.read_text())[workload]


# -- random16 -------------------------------------------------------------------

RANDOM16_NAMES = [f"v{i}" for i in range(16)]


def random16_model(index: int) -> str:
    return random_bnet(random.Random(f"random16:pool:{index}"), RANDOM16_NAMES)


def random16_plan(stem: str, model: str) -> list[dict]:
    svg = f"out/{stem}.basins.svg"
    return [
        _inv(f"{stem}.attractors", "attractors", model,
             ["attractors", "--bnet", model, "--json", "-"]),
        _inv(f"{stem}.basins", "basins", model,
             ["basins", "--bnet", model, "--json", "-", "--svg", svg], [svg]),
    ]


def random16(seed: int, networks: int = RANDOM16_NETWORKS):
    pool = load_pool("random16")
    largest_rss = max(range(len(pool)), key=lambda i: pool[i]["rss_mb"])
    picked = balanced(random.Random(f"random16:{seed}"),
                      [p["cost_s"] for p in pool], networks, largest_rss)
    files, plan = {}, []
    for k, index in enumerate(picked):
        stem = f"net{k:02d}"
        files[f"{stem}.bnet"] = random16_model(pool[index]["model"])
        plan += random16_plan(stem, f"{stem}.bnet")
    return files, plan


# -- ring22 ---------------------------------------------------------------------


def ring22(seed: int, n: int = RING_N):
    # The ring is symmetric and fixed; the seed does not change it.  No
    # attractor satisfies v0 & !v1 and every state reaches an attractor, so
    # the first formula holds nowhere; the second holds on the weak basin of
    # 1^n and fails on the steady state 0^n.
    model = f"ring{n}.bnet"
    files = {model: ring_bnet(n)}
    svg = "out/ring.basins.svg"
    ranges = [(0, 0), ("1" * n, (1 << n) - 1)]
    plan = [
        _inv("ring.basins", "basins", model,
             ["basins", "--bnet", model, "--json", "-", "--svg", svg], [svg],
             facts=True),
        _inv("ring.commitment", "commitment", model,
             ["commitment", "--bnet", model, "--json", "-"], facts=True),
    ]
    for j, (f, count_range) in enumerate(zip(RING_FORMULAS, ranges), start=1):
        plan.append(_inv(f"ring.check{j}", "check", model,
                         ["check", "--bnet", model, "--ctl", ctl_text(f),
                          "--json", "-"], facts=True, count_range=count_range))
    return files, plan


# -- vanham14 -------------------------------------------------------------------

VANHAM_NAMES = ([f"v{i}" for i in range(8)]
                + [f"x{k}_{lvl}" for k in range(3) for lvl in ("medium", "high")])


def vanham_model(candidate: int) -> str:
    return random_bnet(random.Random(f"vanham14:pool:{candidate}"),
                       VANHAM_NAMES)


def vanham_acceptable(text: str, sync_band=None) -> bool:
    """3-6 async attractors, at least one cyclic; optionally a number of
    sync attractors inside the band."""
    attrs = Model(text).attractors()
    if not 3 <= len(attrs) <= 6 or all(len(a) == 1 for a in attrs):
        return False
    if sync_band is None:
        return True
    lo, hi = sync_band
    return lo <= len(Model(text, "sync").attractors()) <= hi


def vanham_candidates():
    """Pool candidates: the first acceptable one whose sync attractor count
    is in VANHAM_SYNC_BAND (it also runs render and sync), then the next
    VANHAM_POOL - 1 acceptable ones."""
    accepted = (c for c in itertools.count()
                if vanham_acceptable(vanham_model(c)))
    first = next(c for c in accepted
                 if vanham_acceptable(vanham_model(c), VANHAM_SYNC_BAND))
    return [first] + list(itertools.islice(
        (c for c in accepted if c != first), VANHAM_POOL - 1))


def vanham_seeds(text: str) -> str:
    """Attractor import file: the representative of every attractor."""
    n = len(VANHAM_NAMES)
    reps = [state_string(int(a[0]), n) for a in Model(text).attractors()]
    return json.dumps(reps) + "\n"


def vanham_plan(stem: str, model: str, seeds: str, extras: bool,
                seed: int) -> list[dict]:
    dot, svg = f"out/{stem}.commitment.dot", f"out/{stem}.commitment.svg"
    markers = ",".join(MARKERS)
    plan = [
        _inv(f"{stem}.attractors", "attractors", model,
             ["attractors", "--bnet", model, "--json", "-"]),
        _inv(f"{stem}.commitment", "commitment", model,
             ["commitment", "--bnet", model, "--json", "-",
              "--expression-style", "isop", "--dot", dot, "--svg", svg],
             [dot, svg]),
        _inv(f"{stem}.phenotypes", "phenotypes", model,
             ["phenotypes", "--bnet", model, "--markers", markers,
              "--json", "-"]),
    ]
    for j, f in enumerate(VANHAM_FORMULAS, start=1):
        plan.append(_inv(f"{stem}.check{j}", "check", model,
                         ["check", "--bnet", model, "--ctl", ctl_text(f),
                          "--json", "-"], formula=f))
    plan += [
        _inv(f"{stem}.simulate", "simulate", model,
             ["simulate", "--bnet", model, "--markers", markers,
              "--walks", str(WALKS), "--seed", str(seed), "--json", "-"]),
        _inv(f"{stem}.commitment_import", "commitment_import", model,
             ["commitment", "--bnet", model, "--attractor-file", seeds,
              "--json", "-"]),
    ]
    if extras:
        stg = f"out/{stem}.stg.dot"
        plan += [
            _inv(f"{stem}.render", "render", model,
                 ["render", "--bnet", model, "--dot", stg], [stg]),
            _inv(f"{stem}.sync_attractors", "sync", model,
                 ["attractors", "--bnet", model, "--update", "sync",
                  "--json", "-"], mode="sync"),
            _inv(f"{stem}.sync_basins", "sync", model,
                 ["basins", "--bnet", model, "--update", "sync",
                  "--json", "-"], mode="sync"),
        ]
    return plan


def vanham14(seed: int, models: int = VANHAM_MODELS):
    pool = load_pool("vanham14")
    # entry 0 runs render and sync as well, and sets the peak RSS
    costs = [p["cost_s"] for p in pool]
    picked = balanced(random.Random(f"vanham14:{seed}"), costs, models, 0)
    files, plan = {}, []
    for k, index in enumerate(picked):
        stem = f"m{k}"
        text = vanham_model(pool[index]["model"])
        files[f"{stem}.bnet"] = text
        files[f"{stem}.seeds.json"] = vanham_seeds(text)
        plan += vanham_plan(stem, f"{stem}.bnet", f"{stem}.seeds.json",
                            k == 0, seed)
    return files, plan


WORKLOADS = {"random16": random16, "ring22": ring22, "vanham14": vanham14}
