"""Deterministic DOT and SVG rendering of basins, diagrams, and small STGs."""

from __future__ import annotations

import math

from .basins import BasinTriple
from .diagrams import Diagram, key_order
from .stg import TransitionSystem

# 12-colour cycle assigned by canonical block order; LIGHT fills the
# "uncommitted" slice and the states outside every block.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)
LIGHT = "#f0f0f0"


# totals above this are labelled in percent, totals up to it in states
PERCENT_THRESHOLD = 1024
# largest state space small_stg_to_dot draws state by state
SMALL_STG_LIMIT = 1 << 15


def _colour(i: int) -> str:
    return PALETTE[i % len(PALETTE)]


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def key_label(key: tuple[int, ...]) -> str:
    return "{" + ",".join(str(i) for i in key) + "}"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


# ---------------------------------------------------------------------------
# DOT


def diagram_to_dot(diagram: Diagram) -> str:
    """Quotient graph as a graphviz digraph, byte-deterministic."""
    keys = diagram.sorted_keys()
    ids = {key: f"n{i}" for i, key in enumerate(keys)}
    lines = ["digraph diagram {", '  node [shape=box, style="filled"];']
    for i, key in enumerate(keys):
        node = diagram.nodes[key]
        label = (f"{key_label(key)}\\n{node.size} states "
                 f"({_fmt(node.percent)}%)")
        lines.append(
            f'  {ids[key]} [label="{label}", fillcolor="{_colour(i)}"];')
    for i_key, j_key in diagram.sorted_edges():
        lines.append(f"  {ids[i_key]} -> {ids[j_key]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_small_stg(ts: TransitionSystem):
    """Raise ValueError when the space is too large to draw state by state."""
    size = ts.space_size()
    if size > SMALL_STG_LIMIT:
        raise ValueError(
            f"state space of {size} states exceeds the limit "
            f"{SMALL_STG_LIMIT}; use the diagram view instead")


def small_stg_to_dot(ts: TransitionSystem, colouring: dict,
                     attractor_states: set | None = None) -> str:
    """Explicit STG drawing with one node per state, filled per block.

    `colouring` maps state bit strings to block keys; attractor states are
    drawn with a double border.  Self-loops are omitted.
    """
    check_small_stg(ts)
    block_keys = sorted(set(colouring.values()), key=key_order)
    colour_of = {key: _colour(i) for i, key in enumerate(block_keys)}
    attractor_states = attractor_states or set()
    m = ts.manager
    # the packed states (bit i holds variable i) with their bit strings
    label = {x: m.bits(x) for x in m.kernel.states(ts.space_ref)}
    lines = ["digraph stg {", '  node [shape=circle, style="filled"];']
    for s in label.values():
        attrs = [f'label="{s}"']
        key = colouring.get(s)
        if key is not None:
            attrs.append(f'fillcolor="{colour_of[key]}"')
        else:
            attrs.append(f'fillcolor="{LIGHT}"')
        if s in attractor_states:
            attrs.append("peripheries=2")
        lines.append(f'  s{s} [{", ".join(attrs)}];')
    for x, s in label.items():
        # successors come in the order of their bit strings
        for y in ts.successors(x):
            if y != x:
                lines.append(f"  s{s} -> s{label[y]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def basin_barplot_svg(triples: list[BasinTriple], space_size: int) -> str:
    """Stacked bar plot: per attractor the nested cycle-free, strong, and
    weak basins drawn front-to-back."""
    if not triples:
        raise ValueError("no basin triples to plot")
    use_percent = space_size > PERCENT_THRESHOLD

    margin_left, margin_bottom, margin_top = 60, 50, 20
    bar_w, gap = 40, 25
    plot_h = 240
    width = margin_left + len(triples) * (bar_w + gap) + gap
    height = margin_top + plot_h + margin_bottom
    if use_percent:
        max_val = max(t.weak_info.percent for t in triples) or 1.0
    else:
        max_val = float(space_size)

    body = [f'<rect width="{width}" height="{height}" fill="white"/>']
    baseline = margin_top + plot_h
    body.append(
        f'<line x1="{margin_left}" y1="{baseline}" '
        f'x2="{width - gap}" y2="{baseline}" stroke="black"/>')
    layers = [("weak", 0), ("strong", 1), ("cycle_free", 2)]
    for k, t in enumerate(triples):
        x = margin_left + gap + k * (bar_w + gap)
        for name, ci in layers:
            info = getattr(t, f"{name}_info")
            val = info.percent if use_percent else float(info.size)
            h = plot_h * val / max_val
            y = baseline - h
            body.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{bar_w}" '
                f'height="{_fmt(h)}" fill="{_colour(ci)}"/>')
        label = f"A{t.attractor.index}"
        body.append(
            f'<text x="{_fmt(x + bar_w / 2)}" y="{baseline + 18}" '
            f'text-anchor="middle" font-size="12">{_esc(label)}</text>')
        val = t.weak_info.percent if use_percent else t.weak_info.size
        body.append(
            f'<text x="{_fmt(x + bar_w / 2)}" y="{baseline + 34}" '
            f'text-anchor="middle" font-size="10">{_fmt(float(val))}'
            f'{"%" if use_percent else ""}</text>')
    legend = [("weak", 0), ("strong", 1), ("cycle-free", 2)]
    for i, (name, ci) in enumerate(legend):
        y = margin_top + i * 18
        body.append(f'<rect x="6" y="{y}" width="12" height="12" '
                    f'fill="{_colour(ci)}"/>')
        body.append(f'<text x="22" y="{y + 10}" font-size="11">{name}</text>')
    return _svg_document(width, height, body)


def pie_slices(sizes: list[int], total: int) -> list[tuple[float, float]]:
    """Start/end angles in degrees for each slice plus, when the sizes do
    not cover the total, a final light slice."""
    if total <= 0:
        raise ValueError("total must be positive")
    covered = sum(sizes)
    if covered > total:
        raise ValueError("slice sizes exceed the total")
    parts = list(sizes)
    if covered < total:
        parts.append(total - covered)
    out = []
    acc = 0.0
    for s in parts:
        span = 360.0 * s / total
        out.append((acc, acc + span))
        acc += span
    return out


def _arc_path(cx: float, cy: float, r: float, a0: float, a1: float) -> str:
    large = 1 if (a1 - a0) > 180.0 else 0
    x0 = cx + r * math.cos(math.radians(a0 - 90.0))
    y0 = cy + r * math.sin(math.radians(a0 - 90.0))
    x1 = cx + r * math.cos(math.radians(a1 - 90.0))
    y1 = cy + r * math.sin(math.radians(a1 - 90.0))
    start, end = f"{_fmt(x0)} {_fmt(y0)}", f"{_fmt(x1)} {_fmt(y1)}"
    # SVG draws no arc between equal endpoints: a large slice whose
    # endpoints print alike, as one of all but a few of 2^24 states, is
    # drawn as the full circle
    if a1 - a0 >= 360.0 - 1e-9 or (large and start == end):
        # full circle: two half arcs
        return (f"M {_fmt(cx - r)} {_fmt(cy)} "
                f"A {_fmt(r)} {_fmt(r)} 0 1 1 {_fmt(cx + r)} {_fmt(cy)} "
                f"A {_fmt(r)} {_fmt(r)} 0 1 1 {_fmt(cx - r)} {_fmt(cy)} Z")
    return (f"M {_fmt(cx)} {_fmt(cy)} L {start} "
            f"A {_fmt(r)} {_fmt(r)} 0 {large} 1 {end} Z")


def basin_piechart_svg(partition: list[tuple[str, int]], total: int) -> str:
    """Pie chart of disjoint blocks (label, size); a light slice covers any
    states outside the blocks, the whole pie when there are none."""
    sizes = [s for _, s in partition]
    slices = pie_slices(sizes, total)
    labelled = list(partition)
    if len(slices) > len(partition):
        labelled.append(("uncommitted", total - sum(sizes)))
    width = height = 360
    cx = cy = 150.0
    r = 120.0
    use_percent = total > PERCENT_THRESHOLD
    body = [f'<rect width="{width}" height="{height}" fill="white"/>']
    for i, ((label, size), (a0, a1)) in enumerate(zip(labelled, slices)):
        light = i == len(labelled) - 1 and len(slices) > len(partition)
        colour = LIGHT if light else _colour(i)
        body.append(f'<path d="{_arc_path(cx, cy, r, a0, a1)}" '
                    f'fill="{colour}" stroke="white"/>')
        if use_percent:
            amount = f"{_fmt(100.0 * size / total)}%"
        else:
            amount = str(size)
        body.append(
            f'<rect x="{300}" y="{30 + i * 18}" width="12" height="12" '
            f'fill="{colour}"/>')
        body.append(
            f'<text x="{316}" y="{40 + i * 18}" font-size="11">'
            f'{_esc(label)}: {amount}</text>')
    return _svg_document(width + 140, height, body)
