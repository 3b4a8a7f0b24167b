import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from basinscope.dd import (
    OP_AND, OP_DIFF, OP_OR, OP_XOR, DdManager, ExprStyle, StateSet,
    isop_cover, to_expression)
from basinscope.model import eval_expr
from oracle import random_expr


def contains(m, f, bits):
    """Whether the state given as a bit sequence lies in f."""
    return m.kernel.contains(f, sum(b << i for i, b in enumerate(bits)))


def test_apply_and():
    m = DdManager(2)
    f = m.and_(m.var(0), m.var(1))
    assert list(m.iter_states(f)) == ["11"]


def test_excluded_middle():
    m = DdManager(3)
    f = m.and_(m.var(0), m.not_(m.var(2)))
    assert m.or_(f, m.not_(f)) == 1


def test_diff_true_var():
    m = DdManager(1)
    f = m.diff(1, m.var(0))
    assert f == m.not_(m.var(0))


def test_exists():
    m = DdManager(2)
    ab = m.and_(m.var(0), m.var(1))
    assert m.exists({2}, ab) == m.var(0)
    contradiction = m.and_(m.var(0), m.not_(m.var(0)))
    assert m.exists({0, 2}, contradiction) == 0


def test_exists_of_product_matches_exists_of_conjunction():
    m = DdManager(2)
    rel = m.or_(m.and_(m.var(0), m.not_(m.var_primed(1))),
                m.and_(m.var_primed(0), m.var(1)))
    x = m.or_(m.var(1), m.var_primed(1))
    assert m.exists_primed(rel, x) == m.exists_primed(m.and_(rel, x))
    assert m.exists_unprimed(rel, x) == m.exists_unprimed(m.and_(rel, x))
    assert m.exists_primed(rel) == m.exists({1, 3}, rel)


def test_rename_involution():
    m = DdManager(3)
    f = m.or_(m.and_(m.var(0), m.var(2)), m.not_(m.var(1)))
    g = m.rename_unprimed_to_primed(f)
    assert m.rename_primed_to_unprimed(g) == f


def test_rename_mixed_polarity_rejected():
    m = DdManager(2)
    mixed = m.and_(m.var(0), m.var_primed(1))
    with pytest.raises(ValueError, match="polarity"):
        m.rename_unprimed_to_primed(mixed)


def test_count_states():
    m = DdManager(2)
    assert m.count_states(1) == 4
    assert m.count_states(m.and_(m.var(0), m.var(1))) == 1
    # one excluded assignment: !(high & !medium) over (medium, high)
    f = m.not_(m.and_(m.var(1), m.not_(m.var(0))))
    assert m.count_states(f) == 3


def test_count_rejects_primed():
    m = DdManager(2)
    with pytest.raises(ValueError, match="primed"):
        m.count_states(m.var_primed(0))


def test_pick_min_state():
    m = DdManager(2)
    f = m.from_states(["10", "01"])
    assert m.pick_min_state(f) == "01"
    m3 = DdManager(3)
    assert m3.pick_min_state(1) == "000"
    with pytest.raises(ValueError, match="empty"):
        m.pick_min_state(0)


def test_state_strings_round_trip():
    m = DdManager(3)
    assert [m.packed(m.bits(x)) for x in range(8)] == list(range(8))
    assert m.bits(1) == "100" and m.packed("011") == 6
    f = m.from_states(["011"])
    assert f == m.cube(6) and StateSet(m, f).contains("011")
    for bad in ("01", "0111", "012", " 01", "0_1"):
        with pytest.raises(ValueError, match="bad state"):
            m.from_states([bad])
        with pytest.raises(ValueError, match="bad state"):
            StateSet(m, f).contains(bad)


def test_isop_two_cube_example():
    m = DdManager(2)
    f = m.from_states(["00", "01", "11"])
    cover = isop_cover(m, f)
    assert len(cover) == 2
    expr = to_expression(m, f, ExprStyle.ISOP)
    for bits in product((0, 1), repeat=2):
        assert eval_expr(expr, bits) == contains(m, f, bits)


def test_dnf_states_single():
    m = DdManager(2)
    expr = to_expression(m, m.from_states(["11"]), ExprStyle.DNF_STATES)
    got = {bits for bits in product((0, 1), repeat=2) if eval_expr(expr, bits)}
    assert got == {(1, 1)}


def test_factored_true():
    m = DdManager(2)
    expr = to_expression(m, 1, ExprStyle.FACTORED)
    assert eval_expr(expr, (0, 0)) == 1 and eval_expr(expr, (1, 1)) == 1


def test_dnf_limit():
    m = DdManager(13)  # 1 (true) has 8,192 states, above the limit of 4,096
    with pytest.raises(ValueError, match="limit 4096"):
        to_expression(m, 1, ExprStyle.DNF_STATES)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 6))
def test_canonicity_matches_truth_table(seed, n):
    rng = random.Random(seed)
    m = DdManager(n)
    e1 = random_expr(rng, n, 3)
    e2 = random_expr(rng, n, 3)
    f1 = m.compile_expr(e1)
    f2 = m.compile_expr(e2)
    same = all(eval_expr(e1, bits) == eval_expr(e2, bits)
               for bits in product((0, 1), repeat=n))
    assert (f1 == f2) == same


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 8))
def test_count_complement_sums_to_space(seed, n):
    rng = random.Random(seed)
    m = DdManager(n)
    f = m.compile_expr(random_expr(rng, n, 3))
    assert m.count_states(f) + m.count_states(m.not_(f)) == 2 ** n


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 8))
def test_expression_styles_reproduce_set(seed, n):
    rng = random.Random(seed)
    m = DdManager(n)
    f = m.compile_expr(random_expr(rng, n, 3))
    for style in ExprStyle:
        expr = to_expression(m, f, style)
        for bits in product((0, 1), repeat=n):
            assert eval_expr(expr, bits) == contains(m, f, bits)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 8))
def test_isop_cover_is_irredundant(seed, n):
    rng = random.Random(seed)
    m = DdManager(n)
    f = m.compile_expr(random_expr(rng, n, 3))
    cover = isop_cover(m, f)

    def covered(cubes, bits):
        return any(all(bits[v] == val for v, val in cube.items())
                   for cube in cubes)

    full = {bits for bits in product((0, 1), repeat=n)
            if contains(m, f, bits)}
    assert {b for b in product((0, 1), repeat=n) if covered(cover, b)} == full
    for k in range(len(cover)):
        reduced = cover[:k] + cover[k + 1:]
        assert {b for b in product((0, 1), repeat=n)
                if covered(reduced, b)} != full


def test_apply_ops_against_python_semantics():
    m = DdManager(3)
    rng = random.Random(7)
    for _ in range(50):
        e1 = random_expr(rng, 3, 2)
        e2 = random_expr(rng, 3, 2)
        f, g = m.compile_expr(e1), m.compile_expr(e2)
        for op, fn in [(OP_AND, lambda a, b: a & b),
                       (OP_OR, lambda a, b: a | b),
                       (OP_XOR, lambda a, b: a ^ b),
                       (OP_DIFF, lambda a, b: a & (1 - b))]:
            h = m.apply(op, f, g)
            for bits in product((0, 1), repeat=3):
                assert contains(m, h, bits) == fn(
                    eval_expr(e1, bits), eval_expr(e2, bits))
