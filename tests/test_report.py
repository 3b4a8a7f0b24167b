import re
import xml.etree.ElementTree as ET

import pytest

from basinscope import report
from basinscope.attractors import attractors
from basinscope.basins import basin_triples
from basinscope.diagrams import commitment_diagram, commitment_sets
from basinscope.model import parse_bnet
from basinscope.report import (
    basin_barplot_svg, basin_piechart_svg, diagram_to_dot,
    pie_slices, small_stg_to_dot)
from basinscope.stg import build

_DOT_NODE = re.compile(r"^\s*\w+\s*\[[^\]]*\];$")
_DOT_EDGE = re.compile(r"^\s*\w+\s*->\s*\w+(\s*\[[^\]]*\])?;$")


def check_dot(text: str) -> tuple[int, int]:
    """Minimal DOT grammar check; returns (node count, edge count)."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if "->" in line:
            assert _DOT_EDGE.match(line), line
            edges += 1
        elif line.strip().startswith("node "):
            continue
        else:
            assert _DOT_NODE.match(line), line
            nodes += 1
    return nodes, edges


def test_diagram_dot_toggle(toggle_ts):
    d = commitment_diagram(toggle_ts, attractors(toggle_ts))
    dot = diagram_to_dot(d)
    assert check_dot(dot) == (3, 2)
    assert dot == diagram_to_dot(d)  # byte-identical


def test_diagram_dot_single_node(repressilator_ts):
    d = commitment_diagram(repressilator_ts, attractors(repressilator_ts))
    assert check_dot(diagram_to_dot(d)) == (1, 0)


def test_small_stg_dot_toggle(toggle_ts):
    attrs = attractors(toggle_ts)
    d = commitment_sets(toggle_ts, attrs)
    colouring = {s: key for key, node in d.nodes.items()
                 for s in node.states.states()}
    attractor_states = {s for a in attrs for s in a.states.states()}
    dot = small_stg_to_dot(toggle_ts, colouring, attractor_states)
    nodes, edges = check_dot(dot)
    assert nodes == 4 and edges == 4  # self-loops omitted
    assert dot.count("peripheries=2") == 2
    assert dot == small_stg_to_dot(toggle_ts, colouring, attractor_states)


def test_small_stg_limit(toggle_ts, monkeypatch):
    monkeypatch.setattr(report, "SMALL_STG_LIMIT", 2)
    with pytest.raises(ValueError, match="diagram view"):
        small_stg_to_dot(toggle_ts, {})


def test_barplot_svg(toggle_ts):
    triples = basin_triples(toggle_ts, attractors(toggle_ts))
    svg = basin_barplot_svg(triples, toggle_ts.space_size())
    ET.fromstring(svg)  # well-formed XML
    # per attractor: weak drawn behind strong behind cycle-free
    heights = [float(h) for h in re.findall(r'height="([0-9.]+)"', svg)]
    assert svg == basin_barplot_svg(triples, toggle_ts.space_size())
    assert len(heights) >= 6


def test_piechart_toggle(toggle_ts):
    # strong basins 1 + 1 of 4 states; light slice covers the rest
    svg = basin_piechart_svg([("A1", 1), ("A2", 1)], 4)
    ET.fromstring(svg)
    assert svg.count("<path") == 3
    assert "#f0f0f0" in svg  # the light uncommitted slice
    assert "25%" in svg or "1" in svg


def test_piechart_partition_covers_space(toggle_ts):
    svg = basin_piechart_svg([("x", 1), ("y", 1), ("z", 2)], 4)
    assert svg.count("<path") == 3
    assert "#f0f0f0" not in svg


def test_pie_slice_angles_sum():
    for sizes, total in [([1, 1], 4), ([3, 5, 7], 15), ([10], 10)]:
        slices = pie_slices(sizes, total)
        covered = sum(b - a for a, b in slices)
        assert abs(covered - 360.0) < 1e-6 * 360.0
        for (a0, a1), (b0, b1) in zip(slices, slices[1:]):
            assert abs(a1 - b0) < 1e-9


def test_bar_segments_nested(toggle_ts):
    triples = basin_triples(toggle_ts, attractors(toggle_ts))
    for t in triples:
        assert (t.cycle_free_info.size <= t.strong_info.size
                <= t.weak_info.size)


def test_percent_vs_absolute_rendering():
    """Totals above 1024 states are labelled in percent, smaller ones in
    states."""
    svg = basin_piechart_svg([("A1", 256), ("A2", 256)], 2048)
    assert "A1: 12.5%<" in svg
    svg_abs = basin_piechart_svg([("A1", 256), ("A2", 256)], 1024)
    assert "A1: 256<" in svg_abs and "%" not in svg_abs
    # the toggle with nine variables that decay to 0: 2,048 states, and each
    # weak basin holds three quarters of them
    ts = build(parse_bnet(
        "a, !b\nb, !a\n" + "".join(f"v{i}, 0\n" for i in range(9))))
    bars = basin_barplot_svg(basin_triples(ts, attractors(ts)), 2048)
    assert bars.count(">75%</text>") == 2


FULL_CIRCLE = "M 30 150 A 120 120 0 1 1 270 150 A 120 120 0 1 1 30 150 Z"


@pytest.mark.parametrize("bits", [24, 26, 28, 30])
def test_slice_of_all_but_one_state_is_the_full_circle(bits):
    """The endpoints of a slice of all but one of 2^24 states or more print
    alike, and SVG draws no arc between equal endpoints: the slice is
    drawn as the full circle, and the one-state slice stays an empty
    sliver."""
    svg = basin_piechart_svg([("c", 2 ** bits - 1)], 2 ** bits)
    paths = re.findall(r'<path d="([^"]*)" fill="([^"]*)"', svg)
    assert paths == [
        (FULL_CIRCLE, "#1f77b4"),
        ("M 150 150 L 150 30 A 120 120 0 0 1 150 30 Z", "#f0f0f0")]


def test_other_slices_keep_their_arcs():
    svg = basin_piechart_svg([("a", 2 ** 10 - 1)], 2 ** 10)
    assert re.findall(r'<path d="([^"]*)"', svg) == [
        "M 150 150 L 150 30 A 120 120 0 1 1 149.2637 30.0023 Z",
        "M 150 150 L 149.2637 30.0023 A 120 120 0 0 1 150 30 Z"]
    assert re.findall(r'<path d="([^"]*)"',
                      basin_piechart_svg([("a", 3), ("b", 5)], 10)) == [
        "M 150 150 L 150 30 A 120 120 0 0 1 264.1268 187.082 Z",
        "M 150 150 L 264.1268 187.082 A 120 120 0 0 1 35.8732 112.918 Z",
        "M 150 150 L 35.8732 112.918 A 120 120 0 0 1 150 30 Z"]
    assert FULL_CIRCLE in basin_piechart_svg([("a", 4)], 4)
