import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import algebra
from nilcoh.forms import (
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
from oracles import alternation_wedge_eval, dense_twin, naive_differential_matrix, random_rational_form

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


def test_float_coefficient_forms_flow_through_differential():
    f = KForm(H3, 1, {(2,): 2.0})
    d = ce_differential(f)
    assert d.coeffs == {(0, 1): -2.0}
