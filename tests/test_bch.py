import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from conftest import COEFFS, corpus, rational_filiform5, skewed_heisenberg3
from hypothesis import example, given, settings, strategies as st
from oracles import (
    dense_poly_matrix,
    dense_twin,
    dynkin_product_polys,
    eval_float,
    naive_group_law_terms,
    naive_poly_add,
    naive_poly_diff,
    naive_poly_mul,
    naive_poly_scale,
    naive_poly_sub,
    neumann_inverse_frame,
    ordered_items,
    powers,
)

from nilcoh import algebra, dsl
from nilcoh.bch import (
    Poly,
    _ZERO,
    _add,
    _converter,
    _diff,
    _mat_mul,
    _mul,
    group_law,
)
from nilcoh.group import quasi_norm_batch


def rand_coords(rng, n):
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)]


def test_abelian_is_addition():
    assert group_law(algebra.abelian(3)).multiply((1, 2, 3), (4, 5, 6)) == [5, 7, 9]


def test_heisenberg_product_spec_example():
    law = group_law(algebra.heisenberg3())
    assert law.multiply((1, 0, 0), (0, 1, 0)) == [1, 1, Fraction(1, 2)]


def test_inverse_is_negation_and_cancels():
    # in exponential coordinates x^-1 = -x
    law = group_law(algebra.heisenberg3())
    rng = random.Random(0)
    for _ in range(10):
        x = rand_coords(rng, 3)
        inv = [-c for c in x]
        assert law.multiply(inv, x) == [0, 0, 0]
        assert law.multiply(x, inv) == [0, 0, 0]


def test_identity_element():
    law = group_law(algebra.filiform(4))
    rng = random.Random(1)
    x = rand_coords(rng, 4)
    assert law.multiply(x, [0] * 4) == x
    assert law.multiply([0] * 4, x) == x


def test_associativity_exact_across_classes():
    rng = random.Random(2)
    for alg in [
        algebra.heisenberg3(),
        algebra.free_nilpotent_two_step(3),
        algebra.filiform(4),
        algebra.filiform(5),
        algebra.filiform(6),
    ]:
        law = group_law(alg)
        for _ in range(4):
            a = rand_coords(rng, alg.dim)
            b = rand_coords(rng, alg.dim)
            c = rand_coords(rng, alg.dim)
            lhs = law.multiply(law.multiply(a, b), c)
            rhs = law.multiply(a, law.multiply(b, c))
            assert lhs == rhs, alg


def exact_matrix(polys, vals):
    return [[p.eval_exact(vals) for p in row] for row in polys]


def test_frame_spec_example():
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    m = exact_matrix(group_law(algebra.heisenberg3()).frame, (a, b, c))
    assert [row[0] for row in m] == [1, 0, -b / 2]
    assert [row[1] for row in m] == [0, 1, a / 2]
    assert [row[2] for row in m] == [0, 0, 1]


def test_frame_identity_at_origin(algebras):
    for name, alg in algebras.items():
        n = alg.dim
        m = exact_matrix(group_law(alg).frame, [0] * n)
        assert m == [[1 if i == j else 0 for j in range(n)] for i in range(n)], name


def test_frame_left_invariance_exact(algebras):
    # pushforward of the frame at h by left translation by g equals the frame at g.h
    rng = random.Random(3)
    for name, alg in algebras.items():
        law = group_law(alg)
        for _ in range(3):
            g = rand_coords(rng, alg.dim)
            h = rand_coords(rng, alg.dim)
            t = exact_matrix(law.trans_jac, g + h)
            frame_h = exact_matrix(law.frame, h)
            gh = law.multiply(g, h)
            frame_gh = exact_matrix(law.frame, gh)
            n = alg.dim
            pushed = [
                [sum(t[i][k] * frame_h[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert pushed == frame_gh, name


def test_frame_determinant_is_one():
    rng = random.Random(4)
    for alg in [algebra.heisenberg3(), algebra.filiform(5)]:
        law = group_law(alg)
        coords = np.array([[rng.uniform(-5, 5) for _ in range(6)] for _ in range(alg.dim)])
        mats = dense_poly_matrix(law.frame, list(coords), 6)
        assert np.allclose(np.linalg.det(mats), 1.0, atol=1e-12)
        inv = dense_poly_matrix(law.inv_frame, list(coords), 6)
        prod = inv @ mats
        assert np.allclose(prod, np.eye(alg.dim)[None], atol=1e-12)


def test_sparsity_patterns_are_read_from_the_polynomials():
    def entries(pattern):
        return {(i, k): p is None for i, row in enumerate(pattern.rows) for k, p in row}

    frame = entries(group_law(algebra.heisenberg3()).frame_pattern)
    assert len(frame) == 5 and all(frame[i, i] for i in range(3))
    assert sum(entries(group_law(algebra.heisenberg5()).frame_pattern).values()) == 5
    assert len(entries(group_law(algebra.heisenberg5()).frame_pattern)) == 9

    def identity(pattern):
        return all(r == ((i, None),) for i, r in enumerate(pattern.rows))

    for name in ("trans_pattern", "frame_pattern", "inv_frame_pattern"):
        assert identity(getattr(group_law(algebra.abelian(3)), name))
        assert not identity(getattr(group_law(algebra.heisenberg3()), name))
    # in the skewed basis the frame diagonal holds 1 + x2/2, not the constant 1
    skew = group_law(skewed_heisenberg3())
    frame = entries(skew.frame_pattern)
    assert frame[0, 0] is False and frame[1, 1] is True and (0, 1) in frame
    for pattern in (skew.trans_pattern, skew.frame_pattern, skew.inv_frame_pattern):
        cols = {(i, k): p for k, col in enumerate(pattern.cols) for i, p in col}
        assert cols == {(i, k): p for i, row in enumerate(pattern.rows) for k, p in row}


def test_every_line_of_the_frame_patterns_has_a_term():
    # the products fill each result line with its terms alone, which holds
    # because translation Jacobians, frames and inverse frames are invertible
    rng = random.Random(11)
    cases = corpus()
    cases.update({f"dense_{name}": dense_twin(alg, rng) for name, alg in corpus().items()})
    for name, alg in cases.items():
        law = group_law(alg)
        for pattern in (law.trans_pattern, law.frame_pattern, law.inv_frame_pattern):
            assert all(pattern.rows) and all(pattern.cols), name


@pytest.mark.parametrize("alg", [algebra.heisenberg5(), algebra.filiform(7), skewed_heisenberg3()],
                         ids=["h5", "filiform7", "skewed-h3"])
def test_frame_products_add_their_terms_in_k_order(alg):
    # against sum_k P[i, k] * S[k, j] over every k, zeros and ones included:
    # adding 0 * y or multiplying by 1 moves no finite value.  Each product
    # overwrites the stack it is given and returns it; in the skewed basis
    # lines of the result read lines of the stack that it overwrites
    n, count = alg.dim, 40
    law = group_law(alg)
    gen = np.random.default_rng(8)
    x, y = gen.uniform(-2.0, 2.0, size=(2, n, count))
    stack = gen.uniform(-1.0, 1.0, size=(n, n, count))

    def k_order(polys, vals, left):
        p = dense_poly_matrix(polys, vals, count).transpose(1, 2, 0)
        out = np.zeros_like(stack)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[i, j] += p[i, k] * stack[k, j] if left else stack[i, k] * p[k, j]
        return out

    xy = list(x) + list(y)
    cases = [
        (law.frame_batch, (x,), k_order(law.frame, list(x), False)),
        (law.inv_frame_batch, (x,), k_order(law.inv_frame, list(x), True)),
        (law.translation_jacobian_batch, (x, y), k_order(law.trans_jac, xy, True)),
    ]
    for product, points, want in cases:
        given = stack.copy()
        got = product(*points, given)
        assert got is given and got.tobytes() == want.tobytes()


def test_quasi_norm_examples():
    h3 = algebra.heisenberg3()
    # columns: (0, 0, 4), the origin, and delta_3 (1, 0, 0) = (3, 0, 0)
    coords = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    assert quasi_norm_batch(h3, coords).tolist() == [2.0, 0.0, 3.0]


def test_dilation_scaling_identity():
    fil = algebra.filiform(4)
    gen = np.random.default_rng(5)
    coords = gen.uniform(-4.0, 4.0, size=(4, 5))
    r = gen.uniform(0.5, 3.0, size=5)
    dilated = coords * r ** np.array(fil.weights, dtype=float)[:, None]
    assert np.allclose(quasi_norm_batch(fil, dilated), r * quasi_norm_batch(fil, coords),
                       rtol=1e-12, atol=0.0)


def test_dilations_are_automorphisms():
    # delta_r(x . y) = delta_r(x) . delta_r(y), exactly on rationals, where
    # delta_r scales coordinate i by r**weight_i: the law respects the grading
    h3 = algebra.heisenberg3()
    law = group_law(h3)
    rng = random.Random(6)
    r = Fraction(3, 2)

    def dilate(coords):
        return [c * r ** w for c, w in zip(coords, h3.weights)]

    for _ in range(5):
        x = rand_coords(rng, 3)
        y = rand_coords(rng, 3)
        assert dilate(law.multiply(x, y)) == law.multiply(dilate(x), dilate(y))


def test_batch_multiply_matches_the_reference_evaluation():
    # multiply's float path is a column of multiply_batch, so both are read
    # against the reference evaluation of the product polynomials
    rng = random.Random(7)
    for alg in (algebra.heisenberg3(), algebra.filiform(5), skewed_heisenberg3()):
        law = group_law(alg)
        n = alg.dim
        a = np.array([[rng.uniform(-2, 2) for _ in range(5)] for _ in range(n)])
        b = np.array([[rng.uniform(-2, 2) for _ in range(5)] for _ in range(n)])
        vals = list(a) + list(b)
        want = np.array([eval_float(p, vals) for p in law.product])
        assert law.multiply_batch(a, b).tobytes() == want.tobytes()
        for i in range(5):
            assert law.multiply(list(a[:, i]), list(b[:, i])) == want[:, i].tolist()


def test_group_law_refuses_non_unipotent_frames():
    # unvalidated non-nilpotent structure constants: the truncated series is
    # no group law, so the inverse frame read off it does not invert the frame
    from nilcoh.algebra import LieAlgebra
    from nilcoh.bch import IllConditionedFrame

    fake = LieAlgebra(
        dim=2,
        basis_names=("e1", "e2"),
        structure={(0, 1): {0: Fraction(1)}},
        lcs=(2, 1, 0),
        weights=(1, 1),
    )
    with pytest.raises(IllConditionedFrame):
        group_law(fake)


@pytest.mark.parametrize("bad", [[1, 2, 3, 4], [1, 2]])
def test_group_law_refuses_points_of_the_wrong_length(bad):
    law = group_law(algebra.heisenberg3())
    good = [1, 2, 3]
    calls = [lambda: law.multiply(good, bad), lambda: law.multiply(bad, good),
             lambda: law.multiply_batch(np.zeros((len(bad), 5)), np.zeros((3, 5))),
             lambda: law.multiply_batch(np.zeros(3), np.zeros((len(bad), 5)))]
    for call in calls:
        with pytest.raises(ValueError, match=f"dim-3 group has 3 coordinates, got {len(bad)}"):
            call()


PARITY = corpus()
PARITY.update({f"filiform{n}": algebra.filiform(n) for n in (7, 8, 9)})
PARITY.update({"heisenberg7": algebra.validate_algebra(
    {(2 * i, 2 * i + 1): {6: Fraction(1)} for i in range(3)}, 7),
    "rational_filiform5": rational_filiform5()})
PARITY.update({f"dense_{name}": dense_twin(alg, random.Random(11)) for name, alg in [
    ("heisenberg3", algebra.heisenberg3()), ("heisenberg5", algebra.heisenberg5()),
    ("filiform6", algebra.filiform(6)), ("free2step3", algebra.free_nilpotent_two_step(3)),
    ("filiform7", algebra.filiform(7))]})


@pytest.mark.parametrize("name", sorted(PARITY))
def test_product_polys_match_the_dynkin_sum(name):
    # the BCH polynomial is unique, so the recursion must give the same
    # exact coefficients as the Dynkin word sum, term for term
    new = group_law(PARITY[name]).product
    assert [p.terms for p in new] == dynkin_product_polys(PARITY[name])


def test_group_law_build_is_polynomial_in_the_class():
    # the Dynkin word sum needs 76,097 words (7.3 s) at class 10
    alg = algebra.filiform(11)
    t0 = time.perf_counter()
    group_law(alg)
    assert time.perf_counter() - t0 < 2.0


# -- the polynomial kernels, item for item --------------------------------

# two variables of degree <= 2: few keys, so products meet and cancel often
TERMS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), COEFFS, max_size=6)
SCALES = st.one_of(COEFFS, st.sampled_from([0, 1, -1, 2, Fraction(0), 0.5, -0.25]))

# x^2 meets 1 - 1 + 1 (zero on the way, then back) and x^3 -1 + 1
RETURNING = ({(1, 0): Fraction(1), (0, 0): Fraction(1), (2, 0): Fraction(1)},
             {(1, 0): Fraction(1), (2, 0): Fraction(-1), (0, 0): Fraction(1)})

# 3 bits per exponent: degree <= 2 in, <= 4 after a product
WIDTH = 3


def packed(terms: dict) -> tuple:
    """The integer kernel's (terms, den) of a dict of 2-variable terms."""
    den = lcm(*(v.denominator for v in terms.values())) if terms else 1
    return {a + (b << WIDTH): int(v * den) for (a, b), v in terms.items()}, den


def unpacked(p: tuple) -> dict:
    return _converter(WIDTH)([p], 2)[0].terms


@settings(max_examples=300, deadline=None)
@given(a=TERMS, b=TERMS, c=SCALES, index=st.integers(0, 1))
@example(a=RETURNING[0], b=RETURNING[1], c=Fraction(1), index=0)
def test_poly_kernels_match_the_reference_item_for_item(a, b, c, index):
    ta, tb = Poly(2, a).terms, Poly(2, b).terms
    pa, pb = packed(ta), packed(tb)
    assert ordered_items(unpacked(_add(pa, 1, pb))) == ordered_items(naive_poly_add(ta, tb))
    assert ordered_items(unpacked(_add(pa, -1, pb))) == ordered_items(naive_poly_sub(ta, tb))
    assert ordered_items(unpacked(_mul(pa, pb))) == ordered_items(naive_poly_mul(ta, tb))
    assert (ordered_items(unpacked(_add(_ZERO, Fraction(c), pa)))  # a scale is a sum onto zero
            == ordered_items(naive_poly_scale(ta, c)))
    assert (ordered_items(unpacked(_diff(pa, WIDTH * index, 2 ** WIDTH - 1)))
            == ordered_items(naive_poly_diff(ta, index)))
    for got, terms in ((pa, ta), (pb, tb)):  # no operation mutates its inputs
        want = packed(terms)
        assert ordered_items(got[0]) == ordered_items(want[0]) and got[1] == want[1]


def tree_values(p: Poly, env: list) -> np.ndarray:
    """``Poly.tree`` run through the DSL's generated code."""
    values = np.empty((1, len(env[0])))
    dsl.evaluate(dsl.compile([p.tree()]), env, values)
    return values[0]


def test_poly_trees_raise_coordinates_by_products():
    # x^e for e >= 2 is the product chain of jets.powers (oracles.powers),
    # not numpy's pow; each term is its coefficient times its coordinates in
    # index order, added to 0.0 in dict order, byte for byte the reference
    # evaluation
    x = list(np.random.default_rng(0).uniform(-3.0, 3.0, (2, 257)))
    p = Poly(2, {(3, 1): Fraction(-5, 7), (1, 0): Fraction(2), (0, 5): Fraction(1, 3)})
    want = (-5 / 7 * powers(x[0], 3)[1] * x[1] + 2.0 * x[0]) + 1 / 3 * powers(x[1], 5)[1]
    assert tree_values(p, x).tobytes() == want.tobytes() == eval_float(p, x).tobytes()
    point = [np.array([0.5]), np.array([-2.0])]
    assert tree_values(p, point)[0] == -5 / 7 * 0.125 * -2.0 + 2.0 * 0.5 + 1 / 3 * -32.0
    # the leading 0.0 turns a term's -0.0 into +0.0, as the reference does
    minus = tree_values(Poly(2, {(1, 0): Fraction(-1)}), [np.array([0.0]), np.array([1.0])])
    assert minus.tobytes() == np.array([0.0]).tobytes()


SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
VALUES = st.one_of(SPECIAL, st.floats(-4.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), nvars=st.integers(2, 4))
def test_poly_trees_match_the_reference_evaluation_byte_for_byte(data, nvars):
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 5)] * nvars),
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7)), max_size=6))
    points = data.draw(st.lists(st.lists(VALUES, min_size=nvars, max_size=nvars), max_size=12))
    env = list(np.array([[0.0] * nvars] + points).T)  # the origin first
    p = Poly(nvars, terms)
    with np.errstate(all="ignore"):  # inf * 0, inf - inf and overflow
        got = tree_values(p, env)
        want = np.empty_like(got)
        want[...] = eval_float(p, env)
    assert got.tobytes() == want.tobytes()
    if (0,) * nvars not in p.terms:  # at the origin every term is +-0.0, and 0.0 + (-0.0) is +0.0
        assert got[0] == 0.0 and not np.signbit(got[0])


def test_a_product_term_that_cancels_and_returns_keeps_its_first_position():
    product = unpacked(_mul(packed(RETURNING[0]), packed(RETURNING[1])))
    assert list(product.items()) == [((2, 0), 1), ((1, 0), 2), ((0, 0), 1), ((4, 0), -1)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(TERMS, min_size=3, max_size=3), min_size=6, max_size=6))
def test_poly_matrix_product_adds_its_products_in_k_order(entries):
    a = [[Poly(2, t).terms for t in row] for row in entries[:3]]
    b = [[Poly(2, t).terms for t in row] for row in entries[3:]]
    out = _mat_mul([[packed(t) for t in row] for row in a], [[packed(t) for t in row] for row in b])
    for i in range(3):
        for j in range(3):
            want = {}
            for k in range(3):
                if a[i][k] and b[k][j]:
                    want = naive_poly_add(want, naive_poly_mul(a[i][k], b[k][j]))
            assert ordered_items(unpacked(out[i][j])) == ordered_items(want)


LAWS = dict(corpus())
LAWS.update({"filiform6": algebra.filiform(6), "skewed_heisenberg3": skewed_heisenberg3()})
LAWS.update({f"dense_{name}": dense_twin(alg, random.Random(5)) for name, alg in [
    ("heisenberg5", algebra.heisenberg5()), ("filiform5", algebra.filiform(5)),
    ("filiform7", algebra.filiform(7)), ("rational_filiform5", rational_filiform5())]})
LAWS.update({name: PARITY[name] for name in ("heisenberg7", "filiform8", "rational_filiform5")})


@pytest.mark.parametrize("name", sorted(LAWS))
def test_group_law_terms_keep_the_reference_order(name):
    # Poly.tree adds terms in dict order, so this pins the float bits of
    # every numeric group-law evaluation
    law = group_law(LAWS[name])
    product, trans, frame, inv = naive_group_law_terms(LAWS[name])
    assert [p.terms for p in law.product] == dynkin_product_polys(LAWS[name])
    assert [ordered_items(p.terms) for p in law.product] == [ordered_items(p) for p in product]
    for got, want in ((law.trans_jac, trans), (law.frame, frame), (law.inv_frame, inv)):
        assert ([[ordered_items(p.terms) for p in row] for row in got]
                == [[ordered_items(p) for p in row] for row in want])
    # the substitution's value is the inverse, which the Neumann series gives
    # in another term order for class >= 3
    assert [[p.terms for p in row] for row in law.inv_frame] == neumann_inverse_frame(frame)
