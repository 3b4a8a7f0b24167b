import json

import pytest

from basinscope import cli
from basinscope.cli import run
from conftest import CHAIN, OVERLAP, OVERLAP_SEEDS, TOGGLE, VAN_HAM


@pytest.fixture
def toggle_file(tmp_path):
    p = tmp_path / "toggle.bnet"
    p.write_text(TOGGLE)
    return str(p)


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain.bnet"
    p.write_text(CHAIN)
    return str(p)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_attractors_json(toggle_file, capsys):
    payload = run_json(capsys, ["attractors", "--bnet", toggle_file,
                                "--json", "-"])
    assert payload["space_size"] == 4
    assert [(a["representative"], a["kind"]) for a in payload["attractors"]] \
        == [("01", "steady"), ("10", "steady")]


def test_check_subcommand(toggle_file, capsys):
    payload = run_json(capsys, [
        "check", "--bnet", toggle_file,
        "--ctl", "AG(EF(a & !b))", "--json", "-"])
    assert payload["count"] == 1
    assert payload["expression"] == "a & !b"


@pytest.mark.parametrize("ctl, formula, count, expression", [
    ("a | b", "((a) | (b))", 3, "a | b"),
    ("E[a U b]", "E[(a) U (b)]", 2, "b"),
    ("A[a U b]", "A[(a) U (b)]", 2, "b"),
])
def test_check_renders_the_formula(ctl, formula, count, expression,
                                   toggle_file, capsys):
    payload = run_json(capsys, [
        "check", "--bnet", toggle_file, "--ctl", ctl, "--json", "-"])
    assert payload == {"formula": formula, "count": count,
                       "expression": expression, "style": "isop"}


@pytest.mark.parametrize("argv, message", [
    (["check", "--ctl", "EF(a"], "error: expected ')', got '' at position 4"),
    (["phenotypes", "--markers", ""],
     "error: --markers must name at least one variable"),
    (["simulate", "--markers", "a,zz"], "error: unknown marker 'zz'"),
    (["phenotypes", "--markers", "a,a"], "error: duplicate marker 'a'"),
    (["simulate", "--markers", "b,a,b"], "error: duplicate marker 'b'"),
])
def test_bad_formula_or_markers_are_one_line_errors(argv, message,
                                                    toggle_file, capsys):
    assert run([argv[0], "--bnet", toggle_file, *argv[1:]]) == 1
    assert one_line_error(capsys) == message + "\n"


def test_boolnet_header_is_skipped(toggle_file, tmp_path, capsys):
    headed = tmp_path / "headed.bnet"
    headed.write_text("targets, factors\n" + TOGGLE)
    assert run_json(capsys, ["basins", "--bnet", str(headed), "--json", "-"]) \
        == run_json(capsys, ["basins", "--bnet", toggle_file, "--json", "-"])


def test_usage_error_exit_code(toggle_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["basins", "--bnet", toggle_file, "--update", "sideways"])
    assert exc.value.code == 2



def parse_outcome(parser, argv, capsys):
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSER_ARGVS = [
    [], ["-h"], ["bogus"], ["basins", "-h"],
    ["basins", "--bnet", "x", "--frob"], ["basins", "--bnet", "x", "extra"],
    ["check", "--bnet", "x"],
    ["attractors", "--bnet", "x", "--update", "foo"],
    ["simulate", "--bnet", "x", "--markers", "a", "--walks", "z"],
]


# the test keeps the name, and so the ids, it had when run built a parser
# of the named subcommand only
@pytest.mark.parametrize("argv", PARSER_ARGVS)
def test_one_subcommand_parser_prints_what_the_full_one_does(argv, monkeypatch,
                                                             capsys):
    """run keeps one parser for the process; after it has parsed every
    argv, its exit code, usage, help and error messages for argv are those
    of a parser built anew."""
    monkeypatch.setenv("COLUMNS", "80")
    for other in PARSER_ARGVS:
        parse_outcome(cli._parser(), other, capsys)
    kept = parse_outcome(cli._parser(), argv, capsys)
    assert kept[0] is not None
    assert parse_outcome(cli.make_parser(), argv, capsys) == kept


def test_subcommands_are_dispatched_by_name(toggle_file, monkeypatch,
                                            capsys):
    """A _SUBCOMMANDS entry replaced after the parser was built is the one
    that runs."""
    run_json(capsys, ["attractors", "--bnet", toggle_file, "--json", "-"])
    called = []
    monkeypatch.setitem(cli._SUBCOMMANDS, "attractors",
                        (called.append, cli._SUBCOMMANDS["attractors"][1]))
    assert run(["attractors", "--bnet", toggle_file]) is None
    assert [args.bnet for args in called] == [toggle_file]


def test_domain_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.bnet"
    bad.write_text("a, !b\n")
    assert run(["attractors", "--bnet", str(bad), "--json", "-"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_is_domain_error(capsys):
    assert run(["attractors", "--bnet", "/nonexistent.bnet"]) == 1


@pytest.mark.parametrize("flag", ["--json", "--svg", "--dot"])
def test_unwritable_output_is_one_line_error(flag, toggle_file, tmp_path,
                                             capsys):
    path = tmp_path / "missing" / "out"
    assert run(["commitment", "--bnet", toggle_file, flag, str(path)]) == 1
    err = one_line_error(capsys)
    assert err.startswith(f"error: cannot write {path}: ")


def test_basins_outputs(toggle_file, tmp_path, capsys):
    svg = tmp_path / "bars.svg"
    payload = run_json(capsys, ["basins", "--bnet", toggle_file,
                                "--json", "-", "--svg", str(svg)])
    assert payload["basins"][0]["weak"]["size"] == 3
    assert svg.read_text().startswith("<svg")


def test_payload_is_not_encoded_without_json(toggle_file, tmp_path,
                                             monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called without --json")

    monkeypatch.setattr(cli.json, "dumps", refuse)
    svg = tmp_path / "bars.svg"
    assert run(["basins", "--bnet", toggle_file, "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["commitment"], ["commitment", "--update", "sync"],
    ["phenotypes", "--markers", "a"]])
def test_diagram_expressions_are_exported_only_for_json(argv, tmp_path,
                                                        monkeypatch):
    """A --dot-only run exports no node expression and writes the same
    DOT bytes as a run that also writes the JSON payload."""
    model = tmp_path / "van_ham.bnet"
    model.write_text(VAN_HAM)
    calls = []
    export = cli.to_expression
    monkeypatch.setattr(cli, "to_expression",
                        lambda *args: calls.append(1) or export(*args))
    argv = [*argv, "--bnet", str(model), "--dot"]
    assert run([*argv, str(tmp_path / "with.dot"),
                "--json", str(tmp_path / "out.json")]) == 0
    assert calls
    calls.clear()
    assert run([*argv, str(tmp_path / "only.dot")]) == 0
    assert calls == []
    assert (tmp_path / "only.dot").read_bytes() == \
        (tmp_path / "with.dot").read_bytes()


def test_commitment_outputs(toggle_file, tmp_path, capsys):
    dot = tmp_path / "diagram.dot"
    pie = tmp_path / "pie.svg"
    payload = run_json(capsys, [
        "commitment", "--bnet", toggle_file, "--json", "-",
        "--dot", str(dot), "--svg", str(pie)])
    assert len(payload["nodes"]) == 3 and len(payload["edges"]) == 2
    assert payload["nodes"][0]["expression"]
    assert dot.read_text().startswith("digraph")
    assert pie.read_text().startswith("<svg")


def test_phenotypes_requires_markers(toggle_file):
    with pytest.raises(SystemExit) as exc:
        run(["phenotypes", "--bnet", toggle_file, "--json", "-"])
    assert exc.value.code == 2


def test_phenotypes_output(toggle_file, capsys):
    payload = run_json(capsys, [
        "phenotypes", "--bnet", toggle_file, "--markers", "a", "--json", "-"])
    assert [p["pattern"] for p in payload["phenotypes"]] == ["0", "1"]
    assert len(payload["diagram"]["nodes"]) == 3


def test_simulate_output(toggle_file, capsys):
    payload = run_json(capsys, [
        "simulate", "--bnet", toggle_file, "--markers", "a",
        "--walks", "400", "--seed", "5", "--json", "-"])
    assert payload["walks"] == 400
    assert abs(sum(payload["frequencies"].values()) - 1.0) < 1e-9


@pytest.mark.parametrize("mode, frequencies", [
    ("async", {"10": 0.34, "*1": 0.66}),
    ("sync", {"10": 0.205, "11": 0.27, "*1": 0.525}),
])
def test_simulate_draw_order_is_pinned(tmp_path, capsys, mode, frequencies):
    """Walks draw their successors in a fixed order (ascending flipped
    variable in async mode) among the admissible ones only; changing
    either changes these frequencies."""
    model = tmp_path / "van_ham.bnet"
    model.write_text(VAN_HAM)
    assert run(["simulate", "--bnet", str(model), "--update", mode,
                "--markers", "a,c", "--walks", "200", "--seed", "7",
                "--json", "-"]) == 0
    assert capsys.readouterr().out == json.dumps(
        {"markers": ["a", "c"], "walks": 200, "capped": 0, "seed": 7,
         "frequencies": frequencies}, indent=2) + "\n"


def test_render_output(toggle_file, tmp_path, capsys):
    dot = tmp_path / "stg.dot"
    assert run(["render", "--bnet", toggle_file, "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "peripheries=2" in text


def test_attractor_file_partial_mode(toggle_file, tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text('["10"]')
    payload = run_json(capsys, [
        "commitment", "--bnet", toggle_file,
        "--attractor-file", str(seeds), "--json", "-"])
    assert payload["partial"] is True
    assert payload["nodes"] == [
        {"key": [1], "size": 1, "percent": 25.0, "expression": "a & !b"}]


def test_partial_pattern_seed_nodes_fit_the_pie_chart(tmp_path, capsys):
    """The nodes of a partial diagram are disjoint, so their sizes add up to
    at most the space and the pie chart can be drawn."""
    model = tmp_path / "overlap.bnet"
    model.write_text(OVERLAP)
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(OVERLAP_SEEDS))
    pie = tmp_path / "pie.svg"
    payload = run_json(capsys, [
        "commitment", "--bnet", str(model), "--attractor-file", str(seeds),
        "--json", "-", "--svg", str(pie)])
    assert [(node["key"], node["size"]) for node in payload["nodes"]] == [
        ([1], 7), ([1, 2], 1)]
    assert pie.read_text().startswith("<svg")


@pytest.mark.parametrize("command", ["commitment", "phenotypes"])
def test_empty_diagram_pie_chart_is_one_light_slice(command, toggle_file,
                                                    tmp_path, capsys):
    """A diagram without nodes draws the whole space as uncommitted."""
    seeds = tmp_path / "seeds.json"
    seeds.write_text("[]")
    pie = tmp_path / "pie.svg"
    argv = [command, "--bnet", toggle_file, "--attractor-file", str(seeds),
            "--json", "-", "--svg", str(pie)]
    if command == "phenotypes":
        argv += ["--markers", "a"]
    run_json(capsys, argv)
    assert "uncommitted: 4</text>" in pie.read_text()


@pytest.mark.parametrize("text, message", [
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ('{"a": 1}', "attractor file must contain a JSON list"),
    ("[1]", "unsupported attractor entry 1"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte"),
])
def test_attractor_file_errors_name_the_file(text, message, toggle_file,
                                             tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    if isinstance(text, bytes):
        seeds.write_bytes(text)
    else:
        seeds.write_text(text)
    assert run(["attractors", "--bnet", toggle_file,
                "--attractor-file", str(seeds)]) == 1
    assert one_line_error(capsys) == f"error: {seeds}: {message}\n"



def test_non_utf8_model_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.bnet"
    bad.write_bytes(b"\xff a, a\n")
    assert run(["attractors", "--bnet", str(bad)]) == 1
    assert one_line_error(capsys) == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")

def test_duplicate_attractor_seeds_are_one_line_error(toggle_file, tmp_path,
                                                      capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text('["10", "10"]')
    assert run(["commitment", "--bnet", toggle_file,
                "--attractor-file", str(seeds), "--json", "-"]) == 1
    assert "seeds '10' and '10' lie in the same attractor" in \
        one_line_error(capsys)


def test_overlapping_attractor_seeds_are_one_line_error(toggle_file, tmp_path,
                                                        capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text('[{"a": 1}, "10"]')
    assert run(["commitment", "--bnet", toggle_file,
                "--attractor-file", str(seeds), "--json", "-"]) == 1
    assert "seeds {'a': 1} and '10' overlap in state 10" in \
        one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["attractors", "--json", "-"],
    ["basins", "--json", "-"],
    ["commitment", "--json", "-"],
    ["phenotypes", "--markers", "a", "--json", "-"],
    ["check", "--ctl", "EF(a)", "--json", "-"],
    ["simulate", "--markers", "a", "--walks", "200", "--seed", "3",
     "--json", "-"],
])
def test_byte_determinism(argv, toggle_file, chain_file, capsys):
    for path in (toggle_file, chain_file):
        full = argv[:1] + ["--bnet", path] + argv[1:]
        assert run(full) == 0
        first = capsys.readouterr().out
        assert run(full) == 0
        assert capsys.readouterr().out == first


# the flags each subcommand reads; every other flag is a usage error
READS = {
    "attractors": {"--bnet", "--update", "--json", "--attractor-file"},
    "basins": {"--bnet", "--update", "--json", "--attractor-file", "--svg"},
    "commitment": {"--bnet", "--update", "--json", "--attractor-file",
                   "--expression-style", "--dot", "--svg"},
    "phenotypes": {"--bnet", "--update", "--json", "--attractor-file",
                   "--expression-style", "--dot", "--svg", "--markers"},
    "check": {"--bnet", "--update", "--json", "--ctl", "--expression-style"},
    "render": {"--bnet", "--update", "--attractor-file", "--dot"},
    "simulate": {"--bnet", "--update", "--json", "--attractor-file",
                 "--markers", "--walks", "--seed"},
}
REQUIRED = {"phenotypes": ["--markers", "a"], "check": ["--ctl", "EF(a)"],
            "simulate": ["--markers", "a"]}
VALUES = {"--update": "sync", "--expression-style": "dnf", "--walks": "5",
          "--seed": "4", "--markers": "a", "--ctl": "EF(a)"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in READS
    for flag in sorted(set().union(*READS.values()) - READS[command])])
def test_unread_flag_is_usage_error(command, flag, toggle_file, capsys):
    argv = [command, "--bnet", toggle_file, *REQUIRED.get(command, []),
            flag, VALUES.get(flag, "out.txt")]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_render_refuses_a_large_space_before_detection(toggle_file,
                                                       monkeypatch, capsys):
    def detect(ts):
        raise AssertionError("attractors detected before the size check")

    monkeypatch.setattr("basinscope.report.SMALL_STG_LIMIT", 2)
    monkeypatch.setattr("basinscope.cli.attractors", detect)
    assert run(["render", "--bnet", toggle_file]) == 1
    assert "use the diagram view instead" in one_line_error(capsys)


def test_render_determinism(toggle_file, tmp_path):
    d1, d2 = tmp_path / "a.dot", tmp_path / "b.dot"
    assert run(["render", "--bnet", toggle_file, "--dot", str(d1)]) == 0
    assert run(["render", "--bnet", toggle_file, "--dot", str(d2)]) == 0
    assert d1.read_text() == d2.read_text()


def one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def test_node_limit_is_one_line_error(chain_file, monkeypatch, capsys):
    monkeypatch.setenv("BASINSCOPE_NODE_LIMIT", "4")
    assert run(["basins", "--bnet", chain_file, "--json", "-"]) == 1
    err = one_line_error(capsys)
    assert "node limit 4" in err and "BASINSCOPE_NODE_LIMIT" in err


@pytest.mark.parametrize("value", [
    "abc", "0", "9223372036854775808", "99999999999999999999"])
def test_bad_node_limit_names_variable(value, toggle_file, monkeypatch,
                                       capsys):
    monkeypatch.setenv("BASINSCOPE_NODE_LIMIT", value)
    assert run(["attractors", "--bnet", toggle_file, "--json", "-"]) == 1
    err = one_line_error(capsys)
    assert "BASINSCOPE_NODE_LIMIT" in err and repr(value) in err
    assert "invalid literal" not in err


def test_largest_node_limit_is_accepted(toggle_file, monkeypatch, capsys):
    monkeypatch.setenv("BASINSCOPE_NODE_LIMIT", str((1 << 63) - 1))
    assert run_json(capsys, ["attractors", "--bnet", toggle_file,
                             "--json", "-"])["space_size"] == 4


@pytest.mark.parametrize("exc, words", [
    (RecursionError, "maximum recursion depth exceeded"),
    (MemoryError, "out of memory"),
])
def test_resource_errors_are_one_line(exc, words, toggle_file, monkeypatch,
                                      capsys):
    def exhausted(*args, **kwargs):
        raise exc()

    monkeypatch.setattr("basinscope.cli.build", exhausted)
    assert run(["basins", "--bnet", toggle_file, "--json", "-"]) == 1
    assert words in one_line_error(capsys)


def test_interrupt_is_one_line_error(toggle_file, monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._SUBCOMMANDS, "simulate",
                        (interrupted, cli._SUBCOMMANDS["simulate"][1]))
    assert run(["simulate", "--bnet", toggle_file, "--markers", "a"]) == 130
    assert one_line_error(capsys) == "error: interrupted\n"
