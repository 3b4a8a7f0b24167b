"""Checks of each invocation's reference output.

Models small enough to enumerate (random16, vanham14) are checked against
the explicit semantics in `explicit.py`: attractors, the three basin sizes,
commitment and phenotype blocks and edges, CTL sets, every exported
expression, the DOT and SVG files, and the rendered transition graph.  The
ring, whose 2^22 states are beyond the explicit graph, is checked against
facts that can be verified by hand: its only steady states are 0^n and
1^n, cycle-free <= strong <= weak for each, the commitment blocks partition
the space, and the CTL counts are consistent with the basins.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET

import numpy as np

from explicit import (
    Model, eval_expr, parse_bnet, state_string, steady_states, variable_arrays)
from gen import MARKERS, WALKS


class Mismatch(Exception):
    pass


def expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def _pct(size: int, total: int) -> float:
    return round(100.0 * size / total, 6)


def _key_order(key):
    return (len(key), tuple(key))


def _svg_texts(svg: str) -> list[str]:
    return [t.text for t in ET.fromstring(svg).iter(
        "{http://www.w3.org/2000/svg}text")]


def _barplot(inv, ref, attractors: int):
    for path in inv["outputs"]:
        expect([t for t in _svg_texts(ref[path]) if t.startswith("A")] ==
               [f"A{i}" for i in range(1, attractors + 1)],
               "bar plot labels differ from the attractors")


class Checker:
    """Checks the references of one workload; models are built once."""

    def __init__(self, files: dict[str, str]):
        self.files = files
        self._models: dict = {}
        self._bits: dict = {}
        self.facts: dict = {}

    def model(self, name: str, mode: str = "async") -> Model:
        if (name, mode) not in self._models:
            self._models[name, mode] = Model(self.files[name], mode)
        return self._models[name, mode]

    def bits(self, name: str) -> tuple[dict, int]:
        """Variable arrays over all states, for evaluating expressions."""
        if name not in self._bits:
            names, _ = parse_bnet(self.files[name])
            size = 1 << len(names)
            self._bits[name] = (variable_arrays(
                names, np.arange(size, dtype=np.int32)), size)
        return self._bits[name]

    def denotes(self, model: str, expr: str, mask: np.ndarray, what: str):
        env, size = self.bits(model)
        expect(np.array_equal(eval_expr(expr, env, size), mask),
               f"{what}: expression {expr[:60]!r} denotes another set")

    def check(self, inv: dict, ref: dict):
        """Raise Mismatch if the reference output of `inv` is wrong."""
        sub = inv["argv"][0]
        source = "facts" if inv["check"].get("facts") else "explicit"
        payload = None if sub == "render" else json.loads(ref["stdout"])
        getattr(self, f"_{source}_{sub}")(inv, payload, ref)

    # -- explicit checks ------------------------------------------------------

    def _attractor_rows(self, m: Model) -> list[dict]:
        return [{"index": j, "representative": state_string(int(a[0]), m.n),
                 "kind": "steady" if len(a) == 1 else "cyclic",
                 "size": len(a)} for j, a in enumerate(m.attractors(), 1)]

    def _explicit_attractors(self, inv, payload, ref):
        m = self.model(inv["model"], inv["check"].get("mode", "async"))
        expect(payload == {"space_size": int(m.space.sum()), "partial": False,
                           "attractors": self._attractor_rows(m)},
               "attractors differ from the explicit graph")

    def _explicit_basins(self, inv, payload, ref):
        m = self.model(inv["model"], inv["check"].get("mode", "async"))
        total = int(m.space.sum())
        rows = []
        for row, sizes in zip(self._attractor_rows(m), m.basin_sizes()):
            entry = {k: row[k] for k in ("index", "representative", "kind")}
            for key, size in zip(("weak", "strong", "cycle_free"), sizes):
                entry[key] = {"size": size, "percent": _pct(size, total)}
            rows.append(entry)
        expect(payload == {"space_size": total, "partial": False,
                           "basins": rows},
               "basin sizes differ from the explicit graph")
        _barplot(inv, ref, len(rows))

    def _diagram(self, inv, diagram, blocks, m: Model, partial: bool):
        total = int(m.space.sum())
        keys = sorted(blocks, key=_key_order)
        expect([(tuple(n["key"]), n["size"], n["percent"])
                for n in diagram["nodes"]] ==
               [(k, len(blocks[k]), _pct(len(blocks[k]), total)) for k in keys],
               "diagram blocks differ from the explicit graph")
        expect(diagram["partial"] is partial, "wrong partial flag")
        edges = sorted(m.block_edges(blocks),
                       key=lambda e: (_key_order(e[0]), _key_order(e[1])))
        expect([[tuple(i), tuple(j)] for i, j in diagram["edges"]] ==
               [[i, j] for i, j in edges], "diagram edges differ")
        for node in diagram["nodes"]:
            mask = np.zeros(m.size, dtype=bool)
            mask[blocks[tuple(node["key"])]] = True
            self.denotes(inv["model"], node["expression"], mask,
                         f"block {node['key']}")
        return keys

    def _explicit_commitment(self, inv, payload, ref):
        m = self.model(inv["model"])
        partial = "--attractor-file" in inv["argv"]
        expect(payload["attractors"] == self._attractor_rows(m),
               "attractors differ from the explicit graph")
        blocks = m.blocks()
        keys = self._diagram(inv, payload, blocks, m, partial)
        labels = ["{" + ",".join(map(str, k)) + "}" for k in keys]
        for path in inv["outputs"]:
            text = ref[path]
            if path.endswith(".dot"):
                nodes = re.findall(r'label="(\{[\d,]*\})\\n(\d+) states', text)
                expect([(lab, int(size)) for lab, size in nodes] ==
                       [(lab, len(blocks[k])) for lab, k in zip(labels, keys)],
                       "DOT nodes differ from the blocks")
                expect(len(re.findall(r" -> ", text)) == len(payload["edges"]),
                       "DOT edges differ from the diagram")
            else:
                expect([t.split(":")[0] for t in _svg_texts(text)] == labels,
                       "pie chart legend differs from the blocks")

    def _explicit_phenotypes(self, inv, payload, ref):
        m = self.model(inv["model"])
        phenos = m.phenotypes(MARKERS)
        expect(payload["markers"] == MARKERS, "wrong markers")
        expect(payload["phenotypes"] ==
               [{"index": i, "pattern": p, "attractors": list(a)}
                for i, (p, a) in enumerate(phenos, 1)],
               "phenotypes differ from the explicit graph")
        unit_of = [0] * len(m.attractors())
        for i, (_, members) in enumerate(phenos, 1):
            for j in members:
                unit_of[j - 1] = i
        self._diagram(inv, payload["diagram"], m.blocks(unit_of), m, False)

    def _explicit_check(self, inv, payload, ref):
        m = self.model(inv["model"])
        accepted = m.ctl(inv["check"]["formula"])
        expect(payload["count"] == int(accepted.sum()),
               "CTL count differs from the explicit graph")
        self.denotes(inv["model"], payload["expression"], accepted, "CTL set")

    def _explicit_simulate(self, inv, payload, ref):
        m = self.model(inv["model"])
        patterns = {p for p, _ in m.phenotypes(MARKERS)}
        freqs = payload["frequencies"]
        expect(payload["walks"] == WALKS and payload["capped"] == 0,
               "walks capped or missing")
        expect(set(freqs) == patterns, "frequencies name other phenotypes")
        expect(all(f >= 0 for f in freqs.values())
               and abs(sum(freqs.values()) - 1.0) < 1e-6,
               "frequencies do not sum to 1")

    def _explicit_render(self, inv, payload, ref):
        m = self.model(inv["model"])
        text = ref[inv["outputs"][0]]
        nodes = re.findall(r'^  s([01]+) \[label="\1", fillcolor="(#[0-9a-f]+)"'
                           r'(, peripheries=2)?\];$', text, re.M)
        n = m.n
        space = [state_string(int(s), n) for s in np.flatnonzero(m.space)]
        expect([s for s, _, _ in nodes] == space,
               "rendered states differ from the space")
        expect({s for s, _, p in nodes if p} ==
               {state_string(int(s), n) for a in m.attractors() for s in a},
               "rendered attractor states differ")
        colour = {s: c for s, c, _ in nodes}
        for states in m.blocks().values():
            expect(len({colour[state_string(int(s), n)] for s in states}) == 1,
                   "one commitment block drawn in several colours")
        edges = set(re.findall(r"^  s([01]+) -> s([01]+);$", text, re.M))
        loops = m.src == m.dst
        expect(edges == {(state_string(int(a), n), state_string(int(b), n))
                         for a, b in zip(m.src[~loops], m.dst[~loops])},
               "rendered transitions differ from the explicit graph")

    # -- facts for the ring ---------------------------------------------------

    def _ring(self, inv):
        names, _ = parse_bnet(self.files[inv["model"]])
        return len(names), 1 << len(names)

    def _ring_attractors(self, inv, attractors):
        n, total = self._ring(inv)
        if "steady" not in self.facts:
            self.facts["steady"] = steady_states(self.files[inv["model"]])
        expect(self.facts["steady"] == [0, total - 1],
               "the ring's steady states are not exactly 0^n and 1^n")
        expect([(a["representative"], a["kind"]) for a in attractors] ==
               [("0" * n, "steady"), ("1" * n, "steady")],
               "attractors are not the two steady states")

    def _facts_basins(self, inv, payload, ref):
        _, total = self._ring(inv)
        expect(payload["space_size"] == total, "wrong space size")
        self._ring_attractors(inv, payload["basins"])
        for b in payload["basins"]:
            sizes = [b[k]["size"] for k in ("cycle_free", "strong", "weak")]
            expect(1 <= sizes[0] <= sizes[1] <= sizes[2] <= total,
                   "basins violate cycle-free <= strong <= weak")
            self.facts[b["representative"]] = b["weak"]["size"]
        _barplot(inv, ref, len(payload["basins"]))

    def _facts_commitment(self, inv, payload, ref):
        _, total = self._ring(inv)
        self._ring_attractors(inv, payload["attractors"])
        union = np.zeros(total, dtype=bool)
        for node in payload["nodes"]:
            expect(node["key"] in ([1], [2], [1, 2]), "unexpected block key")
            env, size = self.bits(inv["model"])
            mask = eval_expr(node["expression"], env, size)
            expect(int(mask.sum()) == node["size"] and not (mask & union).any(),
                   "block expressions overlap or miss their sizes")
            union |= mask
        expect(sum(nd["size"] for nd in payload["nodes"]) == total
               and union.all(), "commitment blocks do not partition the space")

    def _facts_check(self, inv, payload, ref):
        env, size = self.bits(inv["model"])
        count = payload["count"]
        expect(int(eval_expr(payload["expression"], env, size).sum()) == count,
               "CTL expression and count disagree")
        lo, hi = inv["check"]["count_range"]
        # a bound given as a state is the weak basin of that steady state
        lo = self.facts.get(lo, 0) if isinstance(lo, str) else lo
        expect(lo <= count <= hi, f"CTL count {count} outside [{lo}, {hi}]")
