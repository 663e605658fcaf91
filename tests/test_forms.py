import random
import re
from fractions import Fraction

import pytest
from conftest import COEFFS
from hypothesis import example, given, settings, strategies as st

from nilcoh import algebra
from nilcoh.algebra import LieAlgebra
from nilcoh.dsl import ParseError
from nilcoh.forms import (
    _build_differential_rows,
    KForm,
    basis_covector,
    basis_form,
    basis_tuples,
    ce_differential,
    parse_form,
    sort_with_sign,
    unit_form,
    volume_form,
    wedge,
)
from oracles import (
    alternation_wedge_eval,
    dense_twin,
    naive_differential_matrix,
    naive_differential_rows,
    naive_wedge_coeffs,
    ordered_items,
    random_rational_form,
)

H3 = algebra.heisenberg3()
AB3 = algebra.abelian(3)
FREE = algebra.free_nilpotent_two_step(3)


def test_sort_with_sign():
    assert sort_with_sign((0, 1, 2)) == ((0, 1, 2), 1)
    assert sort_with_sign((1, 0)) == ((0, 1), -1)
    assert sort_with_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_with_sign((1, 1)) is None


def test_wedge_spec_examples():
    e1, e2 = basis_covector(H3, 0), basis_covector(H3, 1)
    assert wedge(e1, e1).is_zero()
    assert wedge(e1, e2).coeffs == {(0, 1): Fraction(1)}
    assert wedge(e1 + e2, e2).coeffs == {(0, 1): Fraction(1)}


def test_differential_spec_examples():
    for i in range(3):
        assert ce_differential(basis_covector(AB3, i)).is_zero()
    d3 = ce_differential(basis_covector(H3, 2))
    assert d3.coeffs == {(0, 1): Fraction(-1)}
    assert ce_differential(basis_covector(H3, 0)).is_zero()


def test_differential_degree_overflow_is_zero():
    top = volume_form(H3)
    out = ce_differential(top)
    assert out.degree == 4 and out.is_zero()


def test_wedge_beyond_top_degree_is_zero():
    w = wedge(volume_form(H3), basis_covector(H3, 0))
    assert w.is_zero() and w.degree == 4


def test_form_evaluation_antisymmetry():
    w = basis_form(H3, (0, 2))
    assert w((0, 2)) == 1
    assert w((2, 0)) == -1
    assert w((1, 1)) == 0


small_fractions = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


def form_strategy(alg, degree):
    tuples = basis_tuples(alg.dim, degree)
    return st.fixed_dictionaries(
        {}, optional={t: small_fractions for t in tuples}
    ).map(lambda d: KForm(alg, degree, {k: v for k, v in d.items() if v}))


@settings(max_examples=60, deadline=None)
@given(a=form_strategy(H3, 1), b=form_strategy(H3, 1), c=form_strategy(H3, 2))
def test_wedge_bilinear_graded_commutative_h3(a, b, c):
    # graded commutativity: odd degrees anticommute, 1 x 2 commutes with sign -1^2
    assert wedge(a, b).coeffs == wedge(b, a).scale(-1).coeffs
    assert wedge(a, c).coeffs == wedge(c, a).coeffs
    lhs = wedge(a + b, c)
    rhs = wedge(a, c) + wedge(b, c)
    assert lhs.coeffs == rhs.coeffs


@settings(max_examples=40, deadline=None)
@given(a=form_strategy(FREE, 1), b=form_strategy(FREE, 2))
def test_leibniz_rule_free_two_step(a, b):
    lhs = ce_differential(wedge(a, b))
    rhs = wedge(ce_differential(a), b) + wedge(a, ce_differential(b)).scale(-1)
    assert lhs.coeffs == rhs.coeffs


@settings(max_examples=40, deadline=None)
@given(f=form_strategy(FREE, 2))
def test_d_squared_zero_free_two_step(f):
    assert ce_differential(ce_differential(f)).is_zero()


def test_ce_differential_matches_naive_oracle(algebras):
    rng = random.Random(13)
    cases = dict(algebras, dense_heisenberg5=dense_twin(algebra.heisenberg5(), random.Random(2)))
    for name, alg in cases.items():
        for k in range(alg.dim + 1):
            f = random_rational_form(alg, k, rng)
            naive = naive_differential_matrix(alg, k)
            vec = f.vector()
            want = [
                sum((Fraction(int(naive[r, c].p), int(naive[r, c].q)) * vec[c]
                     for c in range(naive.cols)), Fraction(0))
                for r in range(naive.rows)
            ]
            assert ce_differential(f).vector() == want, (name, k)


def test_wedge_matches_alternation_definition():
    rng = random.Random(7)
    for _ in range(15):
        m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        a = random_rational_form(FREE, m, rng)
        b = random_rational_form(FREE, n, rng)
        got = wedge(a, b)
        for key in basis_tuples(FREE.dim, m + n):
            want = alternation_wedge_eval(a.coeffs, m, b.coeffs, n, key)
            assert got.coeffs.get(key, Fraction(0)) == want


def test_unit_form_is_wedge_identity():
    rng = random.Random(3)
    f = random_rational_form(H3, 2, rng)
    assert wedge(unit_form(H3), f).coeffs == f.coeffs
    assert wedge(f, unit_form(H3)).coeffs == f.coeffs


def test_form_validation():
    with pytest.raises(ValueError):
        KForm(H3, 2, {(1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        KForm(H3, 2, {(0, 1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        KForm(H3, 4, {(0, 1, 2): Fraction(1)})


def test_parse_form():
    w = parse_form("e1^e2 - 1/2*e1^e3", H3)
    assert w.coeffs == {(0, 1): Fraction(1), (0, 2): Fraction(-1, 2)}
    assert parse_form("1", H3).coeffs == {(): Fraction(1)}
    assert parse_form("2*e3", H3).coeffs == {(2,): Fraction(2)}
    assert parse_form("e2^e1", H3).coeffs == {(0, 1): Fraction(-1)}
    assert parse_form("0.25*e1", H3).coeffs == {(0,): Fraction(1, 4)}
    with pytest.raises(Exception):
        parse_form("e9", H3)


def test_parse_form_parentheses_unary_signs_and_refusals():
    assert parse_form("-(e1^e2) + +e3^e1", H3).coeffs == {(0, 1): -1, (0, 2): -1}
    assert parse_form("2*(e1 - e2)^e3/4", H3).coeffs == {(0, 2): Fraction(1, 2),
                                                        (1, 2): Fraction(-1, 2)}
    for text, message in [("(e1", "expected ')' at position 4"),
                          ("e1/e2", "can only divide by a scalar at position 3"),
                          ("e1/0", "division by zero at position 3")]:
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_form(text, H3)


def test_float_coefficient_forms_flow_through_differential():
    f = KForm(H3, 1, {(2,): 2.0})
    d = ce_differential(f)
    assert d.coeffs == {(0, 1): -2.0}


# -- the form kernels, item for item ----------------------------------------

AB5 = algebra.abelian(5)
FLOATS = st.floats(-1e3, 1e3)  # zeros of both signs and subnormals included


def _coeffs(values):
    return st.integers(0, 3).flatmap(lambda k: st.dictionaries(
        st.sampled_from(basis_tuples(5, k)), values, max_size=6).map(lambda d: (k, d)))


# (e0 + e1 + e2) ^ (e1^e2 + e0^e2 + e0^e1): e0^e1^e2 meets 1 - 1 + 1
RETURNING = ((1, {(0,): Fraction(1), (1,): Fraction(1), (2,): Fraction(1)}),
             (2, {(1, 2): Fraction(1), (0, 2): Fraction(1), (0, 1): Fraction(1)}))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_coeffs(COEFFS), _coeffs(COEFFS)),
                 st.tuples(_coeffs(FLOATS), _coeffs(FLOATS))))
@example(RETURNING)
def test_wedge_matches_the_reference_item_for_item(pair):
    (k, a), (l, b) = pair
    out = wedge(KForm(AB5, k, a), KForm(AB5, l, b)).coeffs
    assert ordered_items(out) == ordered_items(naive_wedge_coeffs(a, b))


def test_a_wedge_term_that_cancels_and_returns_keeps_its_first_position():
    (k, a), (l, b) = RETURNING
    assert wedge(KForm(AB5, k, a), KForm(AB5, l, b)).coeffs == {(0, 1, 2): Fraction(1)}
    # with e3 before e2, e0^e1^e2 is zero while e0^e1^e3 first appears
    a = {(0,): Fraction(1), (1,): Fraction(1), (3,): Fraction(1), (2,): Fraction(1)}
    b = {(1, 2): Fraction(1), (0, 2): Fraction(1), (2, 3): Fraction(1), (0, 1): Fraction(1)}
    assert list(wedge(KForm(AB5, 1, a), KForm(AB5, 2, b)).coeffs.items()) == [
        ((0, 1, 2), 1), ((0, 2, 3), 2), ((1, 2, 3), 2), ((0, 1, 3), 1)]


@st.composite
def _structures(draw):
    """Unvalidated structure constants: the row build reads only brackets."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    structure = draw(st.dictionaries(st.sampled_from(pairs), st.dictionaries(
        st.integers(0, n - 1), COEFFS, min_size=1, max_size=3), max_size=6))
    return LieAlgebra(dim=n, basis_names=tuple(f"e{i + 1}" for i in range(n)), structure=structure)


# row (0,1,2,3) of d_3 meets (0,1,2) as -1, then +1 (zero), then, after
# (0,1,3) first appears, -1 again: {(0,1,2): -1, (0,1,3): -1} in that order
RETURNING_ROW = LieAlgebra(dim=4, basis_names=("e1", "e2", "e3", "e4"), structure={
    (0, 3): {0: Fraction(1)}, (1, 3): {1: Fraction(-1)}, (2, 3): {3: Fraction(1), 2: Fraction(1)}})


@settings(max_examples=200, deadline=None)
@given(_structures())
@example(RETURNING_ROW)
@example(algebra.filiform(6))
@example(algebra.free_nilpotent_two_step(3))
@example(dense_twin(algebra.heisenberg5(), random.Random(2)))
def test_differential_rows_match_the_reference_item_for_item(alg):
    for k in range(alg.dim + 1):
        rows, want = _build_differential_rows(alg, k), naive_differential_rows(alg, k)
        assert [(t, ordered_items(r)) for t, r in rows.items()] == [
            (t, ordered_items(r)) for t, r in want.items()]


def test_a_row_entry_that_cancels_and_returns_keeps_its_first_position():
    row = _build_differential_rows(RETURNING_ROW, 3)[(0, 1, 2, 3)]
    assert list(row.items()) == [((0, 1, 2), -1), ((0, 1, 3), -1)]
