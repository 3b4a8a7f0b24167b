"""Command-line interface tying the analysis modules together."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import basins as basins_mod
from . import diagrams as diag_mod
from . import report as report_mod
from .attractors import (
    Attractor, attractors, import_attractors, load_attractor_seeds)
from .ctl import accept, parse_ctl, render_ctl
from .dd import ExprStyle, NodeLimitError, to_expression
from .model import BnetError, detect_van_ham_pairs, parse_bnet, render_expr
from .stg import UpdateMode, build


class DomainError(Exception):
    pass


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def _emit_json(args, payload):
    if args.json is not None:
        _write(args.json, json.dumps(payload, indent=2) + "\n")


def _load_network(args):
    try:
        text = Path(args.bnet).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {args.bnet}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{args.bnet}: {exc}") from exc
    try:
        net = parse_bnet(text)
    except BnetError as exc:
        raise DomainError(f"{args.bnet}: {exc}") from exc
    return detect_van_ham_pairs(net)


def _build_ts(args):
    net = _load_network(args)
    mode = UpdateMode.ASYNC if args.update == "async" else UpdateMode.SYNC
    return build(net, mode)


def _get_attractors(ts, args):
    """Detected attractors, or imported ones when --attractor-file is given;
    returns (attractors, partial flag)."""
    if args.attractor_file:
        path = args.attractor_file
        try:
            seeds = load_attractor_seeds(
                Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DomainError(str(exc)) from exc
        except ValueError as exc:  # not UTF-8, not JSON or not a seed list
            raise DomainError(f"{path}: {exc}") from exc
        return import_attractors(ts, seeds), True
    return attractors(ts), False


def _attractor_payload(a: Attractor) -> dict:
    payload = {
        "index": a.index,
        "representative": a.representative,
        "kind": a.kind.value,
        "size": a.size,
    }
    if a.unverified:
        payload["unverified"] = True
    return payload


def _markers(args, ts):
    markers = [mk.strip() for mk in args.markers.split(",") if mk.strip()]
    if not markers:
        raise DomainError("--markers must name at least one variable")
    for i, mk in enumerate(markers):
        if ts.net.variables.index_of(mk) is None:
            raise DomainError(f"unknown marker {mk!r}")
        if mk in markers[:i]:
            raise DomainError(f"duplicate marker {mk!r}")
    return markers


def _node_expressions(ts, diagram, style):
    names = ts.net.variables.names
    out = {}
    for key, node in diagram.nodes.items():
        out[key] = render_expr(
            to_expression(ts.manager, node.states.ref, style), names)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_attractors(args) -> int:
    ts = _build_ts(args)
    attrs, partial = _get_attractors(ts, args)
    payload = {
        "space_size": ts.space_size(),
        "partial": partial,
        "attractors": [_attractor_payload(a) for a in attrs],
    }
    _emit_json(args, payload)
    return 0


def cmd_basins(args) -> int:
    ts = _build_ts(args)
    attrs, partial = _get_attractors(ts, args)
    triples = basins_mod.basin_triples(ts, attrs)
    payload = {
        "space_size": ts.space_size(),
        "partial": partial,
        "basins": basins_mod.basins_to_json(triples),
    }
    _emit_json(args, payload)
    if args.svg:
        _write(args.svg, report_mod.basin_barplot_svg(triples, ts.space_size()))
    return 0


def cmd_commitment(args) -> int:
    ts = _build_ts(args)
    attrs, partial = _get_attractors(ts, args)
    diagram = diag_mod.commitment_diagram(ts, attrs, partial)
    # the payload exports one expression per node: build it only to emit it
    if args.json is not None:
        payload = diagram_to_payload(
            ts, diagram, ExprStyle(args.expression_style))
        payload["attractors"] = [_attractor_payload(a) for a in attrs]
        _emit_json(args, payload)
    if args.dot:
        _write(args.dot, report_mod.diagram_to_dot(diagram))
    if args.svg:
        _write(args.svg, _diagram_pie(ts, diagram))
    return 0


def diagram_to_payload(ts, diagram, style) -> dict:
    return diag_mod.diagram_to_json(
        diagram, _node_expressions(ts, diagram, style))


def _diagram_pie(ts, diagram) -> str:
    blocks = [(report_mod.key_label(key), diagram.nodes[key].size)
              for key in diagram.sorted_keys()]
    return report_mod.basin_piechart_svg(blocks, ts.space_size())


def cmd_phenotypes(args) -> int:
    ts = _build_ts(args)
    attrs, partial = _get_attractors(ts, args)
    markers = _markers(args, ts)
    phenos = diag_mod.compute_phenotypes(ts, attrs, markers)
    diagram = diag_mod.phenotype_diagram(ts, attrs, phenos, partial)
    if args.json is not None:
        _emit_json(args, {
            "markers": markers,
            "phenotypes": [
                {"index": p.index, "pattern": p.pattern,
                 "attractors": list(p.attractor_indices)}
                for p in phenos
            ],
            "diagram": diagram_to_payload(
                ts, diagram, ExprStyle(args.expression_style)),
        })
    if args.dot:
        _write(args.dot, report_mod.diagram_to_dot(diagram))
    if args.svg:
        _write(args.svg, _diagram_pie(ts, diagram))
    return 0


def cmd_check(args) -> int:
    ts = _build_ts(args)
    formula = parse_ctl(args.ctl)
    states = accept(ts, formula)
    names = ts.net.variables.names
    style = ExprStyle(args.expression_style)
    payload = {
        "formula": render_ctl(formula, names),
        "count": states.count(),
        "expression": render_expr(
            to_expression(ts.manager, states.ref, style), names),
        "style": args.expression_style,
    }
    _emit_json(args, payload)
    return 0


def cmd_render(args) -> int:
    ts = _build_ts(args)
    # refuse a large space before detection and before any state is listed
    report_mod.check_small_stg(ts)
    attrs, partial = _get_attractors(ts, args)
    diagram = diag_mod.commitment_sets(ts, attrs, partial)
    colouring = {}
    for key, node in diagram.nodes.items():
        for s in node.states.states():
            colouring[s] = key
    attractor_states = set()
    for a in attrs:
        attractor_states.update(a.states.states())
    dot = report_mod.small_stg_to_dot(ts, colouring, attractor_states)
    _write(args.dot or "-", dot)
    return 0


def cmd_simulate(args) -> int:
    ts = _build_ts(args)
    attrs, partial = _get_attractors(ts, args)
    markers = _markers(args, ts)
    phenos = diag_mod.compute_phenotypes(ts, attrs, markers)
    result = diag_mod.simulate_phenotype_reachability(
        ts, phenos, attrs, args.walks, args.seed)
    payload = {
        "markers": markers,
        "walks": result.walks,
        "capped": result.capped,
        "seed": args.seed,
        "frequencies": {p.pattern: round(result.frequencies[p.index], 10)
                        for p in phenos},
    }
    _emit_json(args, payload)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_FLAGS = {
    "--bnet": dict(required=True, help="path to the .bnet model"),
    "--update": dict(choices=("async", "sync"), default="async"),
    "--json": dict(metavar="PATH|-",
                   help="write the JSON result to PATH (or - for stdout)"),
    "--attractor-file": dict(
        metavar="PATH", help="JSON list of attractor seeds; skips detection"),
    "--expression-style": dict(choices=[style.value for style in ExprStyle],
                               default="isop"),
    "--dot": dict(metavar="PATH"),
    "--svg": dict(metavar="PATH"),
    "--markers": dict(required=True, metavar="CSV",
                      help="comma-separated marker variables"),
    "--ctl": dict(required=True, metavar="FORMULA"),
    "--walks": dict(type=int, default=10000),
    "--seed": dict(type=int, default=0),
}

_MODEL = ("--bnet", "--update")
_ATTRACTORS = _MODEL + ("--json", "--attractor-file")
_DIAGRAM = _ATTRACTORS + ("--expression-style", "--dot", "--svg")

# each subcommand accepts exactly the flags its cmd_* function reads
_SUBCOMMANDS = {
    "attractors": (cmd_attractors, _ATTRACTORS),
    "basins": (cmd_basins, _ATTRACTORS + ("--svg",)),
    "commitment": (cmd_commitment, _DIAGRAM),
    "phenotypes": (cmd_phenotypes, _DIAGRAM + ("--markers",)),
    "check": (cmd_check, _MODEL + ("--json", "--ctl", "--expression-style")),
    "render": (cmd_render, _MODEL + ("--attractor-file", "--dot")),
    "simulate": (cmd_simulate,
                 _ATTRACTORS + ("--markers", "--walks", "--seed")),
}


def make_parser() -> argparse.ArgumentParser:
    """The CLI parser, one subparser per entry of _SUBCOMMANDS."""
    parser = argparse.ArgumentParser(
        prog="basinscope",
        description="Symbolic attractor, basin, commitment and phenotype "
                    "analysis of Boolean networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


# built by the first run, not at import; later runs in the process reuse it
_parser = functools.cache(make_parser)


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][0](args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NodeLimitError as exc:
        print(f"error: {exc}; set BASINSCOPE_NODE_LIMIT to raise the limit",
              file=sys.stderr)
        return 1
    except RecursionError:
        print("error: maximum recursion depth exceeded (Python recursion "
              f"limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; set BASINSCOPE_NODE_LIMIT to stop "
              "earlier with a clear message", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
