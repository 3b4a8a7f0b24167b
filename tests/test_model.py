import pytest

from basinscope.model import (
    And, BnetError, Const, Not, Or, Var, detect_van_ham_pairs, parse_bnet,
    parse_expression, render_expr, state_from_string)


def test_parse_two_variable_network():
    net = parse_bnet("a, !b\nb, !a")
    assert net.variables.names == ("a", "b")
    assert net.updates == (Not(Var(1)), Not(Var(0)))
    assert net.admissibility is None


def test_duplicate_target_rejected():
    with pytest.raises(BnetError, match="duplicate target"):
        parse_bnet("a, a\na, b")


def test_undeclared_reference_rejected():
    with pytest.raises(BnetError, match="undeclared variable 'b'"):
        parse_bnet("a, !b")


def test_error_reports_line_number():
    with pytest.raises(BnetError, match="line 3"):
        parse_bnet("a, a\nb, b\nc, a &")


def test_comments_and_blank_lines():
    net = parse_bnet("# a comment\n\na, 1  # trailing\n")
    assert net.variables.names == ("a",)
    assert net.updates == (Const(1),)


@pytest.mark.parametrize("header", [
    "targets, factors", "Targets,Factors", "TARGETS , FACTORS"])
def test_boolnet_header_declares_nothing(header):
    plain = parse_bnet("a, !b\nb, !a\n")
    assert parse_bnet(f"# BoolNet\n\n{header}\na, !b\nb, !a\n") == plain


def test_boolnet_header_only_on_the_first_line():
    with pytest.raises(BnetError, match="line 2: undeclared variable 'factors'"):
        parse_bnet("a, a\ntargets, factors\n")


def test_precedence_not_and_or():
    net = parse_bnet("a, a\nb, a\nc, !a & b | c")
    assert net.updates[2] == Or((And((Not(Var(0)), Var(1))), Var(2)))


def test_crlf_accepted():
    net = parse_bnet("a, !b\r\nb, !a\r\n")
    assert net.variables.names == ("a", "b")


def test_roundtrip_parse_render_parse():
    text = "a, !b | (c & a)\nb, !a & !c\nc, 0 | b\n"
    net = parse_bnet(text)
    again = parse_bnet(net.to_bnet())
    assert again.variables.names == net.variables.names
    assert again.updates == net.updates


def test_van_ham_single_pair():
    net = parse_bnet(
        "e2f1_medium, e2f1_medium\ne2f1_high, e2f1_high\np, p")
    net = detect_van_ham_pairs(net)
    med = net.variables.index_of("e2f1_medium")
    high = net.variables.index_of("e2f1_high")
    assert net.admissibility == Not(And((Var(high), Not(Var(med)))))


def test_van_ham_no_pairs():
    net = parse_bnet("a, a\nb, b")
    assert detect_van_ham_pairs(net).admissibility is None


def test_van_ham_two_pairs_conjoined():
    net = parse_bnet(
        "x_medium, x_medium\nx_high, x_high\ny_medium, y_medium\ny_high, y_high")
    out = detect_van_ham_pairs(net)
    assert isinstance(out.admissibility, And)
    assert len(out.admissibility.args) == 2


def test_van_ham_idempotent():
    for text in ("x_medium, x_medium\nx_high, x_high",
                 "x_medium, x_medium\nx_high, x_high\n"
                 "y_medium, y_medium\ny_high, y_high"):
        once = detect_van_ham_pairs(parse_bnet(text))
        twice = detect_van_ham_pairs(once)
        assert once.admissibility == twice.admissibility


def test_van_ham_requires_both_halves():
    net = parse_bnet("x_medium, x_medium\ny_high, y_high")
    assert detect_van_ham_pairs(net).admissibility is None


def test_state_from_string():
    net = parse_bnet("a, a\nb, b")
    assert state_from_string(net, "10") == "10"
    with pytest.raises(ValueError, match="length"):
        state_from_string(net, "1")
    with pytest.raises(ValueError, match="illegal character"):
        state_from_string(net, "12")


def test_render_expr_minimal_parens():
    expr = parse_expression("!(a | b) & c")
    assert render_expr(expr, None) is not None
    # names only needed for Var nodes; use a resolved expression
    net = parse_bnet("a, a\nb, b\nc, !(a | b) & c")
    rendered = render_expr(net.updates[2], net.variables.names)
    assert parse_bnet(f"a, a\nb, b\nc, {rendered}").updates[2] == net.updates[2]
