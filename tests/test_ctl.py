import random

import pytest

from basinscope.ctl import (
    AF, AG, EF, AndC, Atom, CtlError, OrC, Unary, accept, accept_ref,
    parse_ctl)
from basinscope.dd import ExprStyle, to_expression
from basinscope.model import Const, NameVar, eval_expr, render_expr
from basinscope.stg import UpdateMode, build
from oracle import explicit_stg, random_expr, random_network


def states_of(ts, formula):
    return set(ts.set_of(accept_ref(ts, formula)).states())


def test_parse_basic():
    f = parse_ctl("EF(a & !b)")
    assert isinstance(f, Unary) and f.op == "EF"
    g = parse_ctl("AG(EF(a))")
    assert g.op == "AG" and g.child.op == "EF"
    h = parse_ctl("a | 0 & 1")
    assert h == OrC(Atom(NameVar("a")),
                    AndC(Atom(Const(0)), Atom(Const(1))))


def test_parse_until():
    f = parse_ctl("E[a U b]")
    assert f.op == "EU"
    g = parse_ctl("A[a U (b & !a)]")
    assert g.op == "AU"


def test_parse_error_position():
    with pytest.raises(CtlError, match="position"):
        parse_ctl("EF(")


def test_undeclared_atom(toggle_ts):
    with pytest.raises(CtlError, match="undeclared"):
        accept(toggle_ts, parse_ctl("EF(zz)"))


def test_toggle_ef(toggle_ts):
    target = Atom(toggle_ts.state_set(["10"]))
    assert states_of(toggle_ts, EF(target)) == {"00", "11", "10"}


def test_toggle_ag_ef(toggle_ts):
    target = Atom(toggle_ts.state_set(["10"]))
    assert states_of(toggle_ts, AG(EF(target))) == {"10"}


def test_toggle_af(toggle_ts):
    target = Atom(toggle_ts.state_set(["01", "10"]))
    assert states_of(toggle_ts, AF(target)) == {"00", "01", "10", "11"}


def test_accept_result_payload(toggle_ts):
    states = accept(toggle_ts, parse_ctl("AG(EF(a & !b))"))
    assert states.count() == 1
    expr = to_expression(toggle_ts.manager, states.ref)
    names = toggle_ts.net.variables.names
    assert render_expr(expr, names) == "a & !b"


def test_accept_styles(toggle_ts):
    states = accept(toggle_ts, parse_ctl("EF(a & !b)"))
    for style in ExprStyle:
        expr = to_expression(toggle_ts.manager, states.ref, style)
        got = {s for s in ("00", "01", "10", "11")
               if eval_expr(expr, [int(c) for c in s])}
        assert got == set(states.states())


def test_distributive_law_ef(toggle_ts):
    a = Atom(toggle_ts.state_set(["01"]))
    b = Atom(toggle_ts.state_set(["10"]))
    both = Atom(toggle_ts.state_set(["01", "10"]))
    assert (states_of(toggle_ts, EF(both))
            == states_of(toggle_ts, EF(a)) | states_of(toggle_ts, EF(b)))


def test_ag_ef_contained_in_ef():
    rng = random.Random(5)
    for _ in range(10):
        net = random_network(rng, 5)
        ts = build(net)
        states = ts.space().states()
        xs = rng.sample(states, 3)
        x = Atom(ts.state_set(xs))
        assert (ts.set_of(accept_ref(ts, AG(EF(x))))
                <= ts.set_of(accept_ref(ts, EF(x))))


def random_ctl(rng, n, depth):
    """Paired symbolic formula and oracle tuple form."""
    if depth == 0 or rng.random() < 0.3:
        e = random_expr(rng, n, 2)
        return Atom(e), ("atom", e)
    choice = rng.randrange(9)
    if choice < 6:
        op = ("EX", "EF", "EG", "AX", "AF", "AG")[choice]
        f, of = random_ctl(rng, n, depth - 1)
        return Unary(op, f), (op, of)
    if choice == 6:
        from basinscope.ctl import NotC
        f, of = random_ctl(rng, n, depth - 1)
        return NotC(f), ("not", of)
    from basinscope.ctl import AndC, OrC, Until
    f, of = random_ctl(rng, n, depth - 1)
    g, og = random_ctl(rng, n, depth - 1)
    if choice == 7:
        return (AndC(f, g), ("and", of, og)) if rng.random() < 0.5 else \
            (OrC(f, g), ("or", of, og))
    op = "EU" if rng.random() < 0.5 else "AU"
    return Until(op, f, g), (op, of, og)


@pytest.mark.parametrize("mode", list(UpdateMode), ids=lambda m: m.value)
def test_random_formulas_match_explicit_oracle(mode):
    rng = random.Random(17)
    from basinscope.model import eval_expr as ev

    for _ in range(30):
        n = rng.randrange(3, 7)
        net = random_network(rng, n)
        ts = build(net, mode)
        adj = explicit_stg(net, mode.value)

        def atom_eval(expr):
            return {s for s in adj
                    if ev(expr, [int(c) for c in s])}

        formula, oracle_form = random_ctl(rng, n, 4)
        from oracle import ctl_eval
        expected = ctl_eval(adj, atom_eval, oracle_form)
        assert states_of(ts, formula) == expected
