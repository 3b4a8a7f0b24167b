"""Span tracing of the program's layers from outside the program.

`install` wraps the public functions and methods of each module.  A name
bound with `from X import f` is a separate binding, so every module of the
package that holds the same function object gets the wrapper
(`diagrams.strong_basin` as well as `basins.strong_basin`).  Spans
(name, start, end, parent, invocation) are kept in memory; `layer_metrics`
turns the spans and counters of one invocation into per-layer numbers.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute or Class.method, span name, counter hook)
TARGETS = [
    ("basinscope.cli", "cmd_attractors", "cli.attractors", None),
    ("basinscope.cli", "cmd_basins", "cli.basins", None),
    ("basinscope.cli", "cmd_commitment", "cli.commitment", None),
    ("basinscope.cli", "cmd_phenotypes", "cli.phenotypes", None),
    ("basinscope.cli", "cmd_check", "cli.check", None),
    ("basinscope.cli", "cmd_render", "cli.render", None),
    ("basinscope.cli", "cmd_simulate", "cli.simulate", None),
    ("basinscope.cli", "_emit_json", "cli.emit_json", None),
    ("basinscope.cli", "_write", "cli.write", None),
    ("basinscope.model", "parse_bnet", "model.parse_bnet", None),
    ("basinscope.model", "detect_van_ham_pairs", "model.van_ham", None),
    ("basinscope.stg", "build", "stg.build", "relation_nodes"),
    ("basinscope.stg", "TransitionSystem.image_ref", "stg.image", None),
    ("basinscope.stg", "TransitionSystem.preimage_ref", "stg.preimage", None),
    ("basinscope.stg", "TransitionSystem.forward_reach_ref",
     "stg.forward_reach", None),
    ("basinscope.stg", "TransitionSystem.backward_reach_ref",
     "stg.backward_reach", None),
    ("basinscope.dd.manager", "DdManager.apply", "dd.apply", None),
    ("basinscope.dd.manager", "DdManager.and_", "dd.and", None),
    ("basinscope.dd.manager", "DdManager.or_", "dd.or", None),
    ("basinscope.dd.manager", "DdManager.diff", "dd.diff", None),
    ("basinscope.dd.manager", "DdManager.exists", "dd.exists", None),
    ("basinscope.dd.manager", "DdManager.exists_unprimed",
     "dd.exists_unprimed", None),
    ("basinscope.dd.manager", "DdManager.exists_primed",
     "dd.exists_primed", None),
    ("basinscope.dd.manager", "DdManager.rename_unprimed_to_primed",
     "dd.rename", None),
    ("basinscope.dd.manager", "DdManager.rename_primed_to_unprimed",
     "dd.rename", None),
    ("basinscope.dd.manager", "DdManager.from_states", "dd.from_states", None),
    ("basinscope.dd.manager", "DdManager.count_states", "dd.count_states", None),
    ("basinscope.dd.manager", "DdManager.pick_min_state",
     "dd.pick_min_state", None),
    ("basinscope.dd.manager", "DdManager.iter_states", "dd.iter_states",
     "states_iterated"),
    ("basinscope.dd.express", "to_expression", "dd.to_expression", None),
    ("basinscope.ctl", "accept", "ctl.accept", None),
    ("basinscope.ctl", "accept_ref", "ctl.accept_ref", None),
    ("basinscope.attractors", "attractors", "attractors.detect", "found"),
    ("basinscope.attractors", "import_attractors", "attractors.import",
     "imported"),
    ("basinscope.basins", "weak_basin", "basins.weak", None),
    ("basinscope.basins", "strong_basin", "basins.strong", None),
    ("basinscope.basins", "cycle_free_basin", "basins.cycle_free", None),
    ("basinscope.basins", "basin_triples", "basins.triples", None),
    ("basinscope.diagrams", "commitment_sets", "diagrams.commitment_sets",
     "quotient_blocks"),
    ("basinscope.diagrams", "phenotype_sets", "diagrams.phenotype_sets",
     "quotient_blocks"),
    ("basinscope.diagrams", "commitment_edges", "diagrams.edges",
     "quotient_edges"),
    ("basinscope.diagrams", "compute_phenotypes", "diagrams.phenotypes", None),
    ("basinscope.diagrams", "simulate_phenotype_reachability",
     "diagrams.simulate", "walks"),
    ("basinscope.report", "diagram_to_dot", "report.diagram_dot", "bytes"),
    ("basinscope.report", "small_stg_to_dot", "report.stg_dot", "bytes"),
    ("basinscope.report", "basin_barplot_svg", "report.barplot_svg", "bytes"),
    ("basinscope.report", "basin_piechart_svg", "report.piechart_svg", "bytes"),
]

APPLY = ("dd.apply", "dd.and", "dd.or", "dd.diff")
QUANT = ("dd.exists", "dd.exists_unprimed", "dd.exists_primed")
QUOTIENT = ("diagrams.commitment_sets", "diagrams.phenotype_sets")
REPORT = ("report.diagram_dot", "report.stg_dot", "report.barplot_svg",
          "report.piechart_svg")
EMIT = ("cli.emit_json", "cli.write")

# name -> (unit, better, listed in BENCHMARK.json).  The traced run prints
# every entry; times that are exactly 0 on some workload are not listed.
LAYER_METRICS = {
    "dd.apply_calls": ("count", "lower", True),
    "dd.apply_s": ("s", "lower", True),
    "dd.quant_s": ("s", "lower", True),
    "dd.nodes_allocated": ("count", "lower", True),
    "dd.pick_min_s": ("s", "lower", True),
    "dd.count_states_calls": ("count", "lower", True),
    "dd.count_states_s": ("s", "lower", True),
    "dd.iter_states_s": ("s", "lower", False),
    "dd.states_iterated": ("count", "lower", True),
    "dd.to_expression_s": ("s", "lower", False),
    "dd.to_expression_calls": ("count", "lower", True),
    "stg.preimage_calls": ("count", "lower", True),
    "stg.preimage_s": ("s", "lower", True),
    "stg.preimage_cache_hit_ratio": ("ratio", "higher", True),
    "stg.image_calls": ("count", "lower", True),
    "stg.image_s": ("s", "lower", True),
    "stg.build_s": ("s", "lower", True),
    "stg.relation_nodes": ("count", "lower", True),
    "ctl.fixpoint_iterations": ("count", "lower", True),
    "attractors.pivots": ("count", "lower", True),
    "attractors.found": ("count", "higher", False),
    "attractors.pivot_yield": ("ratio", "higher", True),
    "attractors.detect_s": ("s", "lower", True),
    "attractors.import_s": ("s", "lower", False),
    "attractors.imported": ("count", "higher", False),
    "basins.weak_s": ("s", "lower", True),
    "basins.strong_s": ("s", "lower", True),
    "basins.cycle_free_s": ("s", "lower", True),
    "diagrams.quotient_nodes_s": ("s", "lower", False),
    "diagrams.quotient_blocks": ("count", "higher", False),
    "diagrams.quotient_strong_calls": ("count", "lower", True),
    "diagrams.quotient_edges_s": ("s", "lower", False),
    "diagrams.simulate_s": ("s", "lower", False),
    "diagrams.walks_per_s": ("1/s", "higher", False),
    "diagrams.capped_walks": ("count", "lower", True),
    "report.render_s": ("s", "lower", True),
    "report.bytes": ("B", "lower", True),
    "cli.emit_s": ("s", "lower", True),
    "cli.output_bytes": ("B", "lower", True),
    "model.parse_s": ("s", "lower", True),
    "trace.overhead_s": ("s", "lower", True),
}


def _dag_size(manager, ref: int) -> int:
    kernel = manager.kernel
    seen, stack = set(), [ref]
    while stack:
        f = stack.pop()
        if f < 2 or f in seen:
            continue
        seen.add(f)
        stack += (kernel.low_of(f), kernel.high_of(f))
    return len(seen)


def _listing(fn):
    return functools.wraps(fn)(lambda *args, **kwargs: list(fn(*args, **kwargs)))


def _count(counter: str, result, counters: Counter):
    if counter == "relation_nodes":
        counters[counter] += _dag_size(result.manager, result.relation)
    elif counter == "walks":
        counters["walks"] += result.walks
        counters["capped_walks"] += result.capped
    elif counter == "quotient_blocks":
        counters[counter] += len(result.nodes)
    elif counter == "quotient_edges":
        counters[counter] += len(result.edges)
    else:  # lists and strings: found, imported, states_iterated, bytes
        counters[counter] += len(result)


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, invocation]
        self.current = -1
        self.invocation = -1
        self.counters: Counter = Counter()
        self.managers: list = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, counter: str | None):
        nid = self.name_id(name)
        spans, clock, tracer = self.spans, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            span = [nid, clock(), 0.0, parent, tracer.invocation]
            tracer.current = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer.current = parent
            if counter is not None:
                _count(counter, result, tracer.counters)
            return result

        return traced

    def install(self):
        """Patch every target in every loaded module of the package."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "basinscope" or name.startswith("basinscope.")]
        for module_name, attr, span_name, counter in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = getattr(owner, method, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if method == "iter_states":  # a generator: time its consumption
                eager = self.wrap(span_name, _listing(orig), counter)
                wrapped = functools.wraps(orig)(
                    lambda *args, **kwargs: iter(eager(*args, **kwargs)))
            else:
                wrapped = self.wrap(span_name, orig, counter)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        manager_cls = sys.modules["basinscope.dd.manager"].DdManager
        init = manager_cls.__init__
        managers = self.managers

        def register(self, *args, **kwargs):
            init(self, *args, **kwargs)
            managers.append(self)

        manager_cls.__init__ = register

    def begin(self, invocation: int) -> int:
        self.invocation = invocation
        self.counters = Counter()
        self.managers.clear()
        return len(self.spans)

    def end(self) -> Counter:
        """Counters of the invocation, plus the nodes its managers hold."""
        counters = self.counters
        counters["nodes_allocated"] = sum(
            m.kernel.num_nodes() - 2 for m in self.managers)
        self.managers.clear()
        self.invocation = -1
        return counters


def layer_metrics(tracer: Tracer, first: int, counters: Counter):
    """Per-layer numbers and the parent->child self-time breakdown of the
    spans from index `first` on, which belong to one invocation."""
    spans = tracer.spans
    names = tracer.names
    n = len(spans) - first
    dur = [s[2] - s[1] for s in spans[first:]]
    child_time = [0.0] * n
    children = [0] * n
    ups = []  # names of each span's ancestors, nearest first
    for i in range(n):
        p = spans[first + i][3] - first
        if p >= 0:
            child_time[p] += dur[i]
            children[p] += 1
            ups.append([names[spans[first + p][0]]] + ups[p])
        else:
            ups.append([])

    by_name = defaultdict(list)
    breakdown = defaultdict(lambda: [0, 0.0])
    hits = fixpoint = pivots = strong_in_quotient = 0
    for i in range(n):
        name = names[spans[first + i][0]]
        up = ups[i]
        by_name[name].append(i)
        parent = up[0] if up else "-"
        row = breakdown[(parent, name)]
        row[0] += 1
        row[1] += dur[i] - child_time[i]
        if name == "stg.preimage":
            hits += children[i] == 0
            fixpoint += "ctl.accept_ref" in up
        elif name == "stg.forward_reach" and parent == "attractors.detect":
            pivots += 1
        elif name == "basins.strong" and any(q in up for q in QUOTIENT):
            strong_in_quotient += 1

    def total(*group):
        """Time in the outermost spans of the group, so that nested calls
        are not counted twice."""
        return sum(dur[i] for name in group for i in by_name[name]
                   if not any(a in group for a in ups[i]))

    m = {
        "dd.apply_calls": sum(len(by_name[k]) for k in APPLY),
        "dd.apply_s": total(*APPLY),
        "dd.quant_s": total(*QUANT),
        "dd.nodes_allocated": counters["nodes_allocated"],
        "dd.pick_min_s": total("dd.pick_min_state"),
        "dd.count_states_calls": len(by_name["dd.count_states"]),
        "dd.count_states_s": total("dd.count_states"),
        "dd.iter_states_s": total("dd.iter_states"),
        "dd.states_iterated": counters["states_iterated"],
        "dd.to_expression_s": total("dd.to_expression"),
        "dd.to_expression_calls": len(by_name["dd.to_expression"]),
        "stg.preimage_calls": len(by_name["stg.preimage"]),
        "stg.preimage_s": total("stg.preimage"),
        "stg.preimage_hits": hits,
        "stg.image_calls": len(by_name["stg.image"]),
        "stg.image_s": total("stg.image"),
        "stg.build_s": total("stg.build"),
        "stg.relation_nodes": counters["relation_nodes"],
        "ctl.fixpoint_iterations": fixpoint,
        "attractors.pivots": pivots,
        "attractors.found": counters["found"],
        "attractors.detect_s": total("attractors.detect"),
        "attractors.import_s": total("attractors.import"),
        "attractors.imported": counters["imported"],
        "basins.weak_s": total("basins.weak"),
        "basins.strong_s": total("basins.strong"),
        "basins.cycle_free_s": total("basins.cycle_free"),
        "diagrams.quotient_nodes_s": total(*QUOTIENT),
        "diagrams.quotient_blocks": counters["quotient_blocks"],
        "diagrams.quotient_strong_calls": strong_in_quotient,
        "diagrams.quotient_edges_s": total("diagrams.edges"),
        "diagrams.simulate_s": total("diagrams.simulate"),
        "diagrams.walks": counters["walks"],
        "diagrams.capped_walks": counters["capped_walks"],
        "report.render_s": total(*REPORT),
        "report.bytes": counters["bytes"],
        "cli.emit_s": total(*EMIT),
        "model.parse_s": total("model.parse_bnet", "model.van_ham"),
    }
    return m, {f"{p} > {c}": v for (p, c), v in breakdown.items()}


def combine(per_invocation: list[list[dict]]) -> dict:
    """Per-layer metrics of one pass over the workload: for each invocation
    the median over its traced samples (counts repeat exactly, so the median
    is the count), summed over invocations; ratios from the sums."""
    def middle(values):
        if all(isinstance(v, int) for v in values):
            return statistics.median_low(values)
        return statistics.median(values)

    keys = per_invocation[0][0].keys()
    out = {k: sum(middle([s[k] for s in samples])
                  for samples in per_invocation) for k in keys}
    out["stg.preimage_cache_hit_ratio"] = (
        out["stg.preimage_hits"] / out["stg.preimage_calls"]
        if out["stg.preimage_calls"] else 0.0)
    out["attractors.pivot_yield"] = (
        out["attractors.found"] / out["attractors.pivots"]
        if out["attractors.pivots"] else 0.0)
    out["diagrams.walks_per_s"] = (
        out["diagrams.walks"] / out["diagrams.simulate_s"]
        if out["diagrams.simulate_s"] else 0.0)
    return out
