import random
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import corpus
from oracles import dense_twin, dynkin_product_polys

from nilcoh import algebra
from nilcoh.bch import bch_product_polys, group_law
from nilcoh.group import (
    GroupPoint,
    bch_multiply,
    dilate,
    inverse,
    left_frame,
    origin,
    point,
    quasi_norm,
)


def rand_coords(rng, n):
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)]


def test_abelian_is_addition():
    ab = algebra.abelian(3)
    p = point(ab, (1, 2, 3))
    q = point(ab, (4, 5, 6))
    assert bch_multiply(p, q).coords == (5, 7, 9)


def test_heisenberg_product_spec_example():
    h3 = algebra.heisenberg3()
    p = point(h3, (1, 0, 0))
    q = point(h3, (0, 1, 0))
    assert bch_multiply(p, q).coords == (1, 1, Fraction(1, 2))


def test_inverse_is_negation_and_cancels():
    h3 = algebra.heisenberg3()
    p = point(h3, (1, 1, Fraction(1, 2)))
    assert inverse(p).coords == (-1, -1, Fraction(-1, 2))
    rng = random.Random(0)
    for _ in range(10):
        x = point(h3, tuple(rand_coords(rng, 3)))
        assert bch_multiply(inverse(x), x).coords == (0, 0, 0)
        assert bch_multiply(x, inverse(x)).coords == (0, 0, 0)


def test_identity_element():
    fil = algebra.filiform(4)
    rng = random.Random(1)
    x = point(fil, tuple(rand_coords(rng, 4)))
    assert bch_multiply(x, origin(fil)).coords == x.coords
    assert bch_multiply(origin(fil), x).coords == x.coords


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


def test_frame_spec_example():
    h3 = algebra.heisenberg3()
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    m = left_frame(point(h3, (a, b, c)))
    assert [row[0] for row in m] == [1, 0, -b / 2]
    assert [row[1] for row in m] == [0, 1, a / 2]
    assert [row[2] for row in m] == [0, 0, 1]


def test_frame_identity_at_origin(algebras):
    for name, alg in algebras.items():
        m = left_frame(origin(alg))
        n = alg.dim
        assert m == [[1 if i == j else 0 for j in range(n)] for i in range(n)], name


def test_frame_left_invariance_exact(algebras):
    # pushforward of the frame at h by left translation by g equals the frame at g.h
    rng = random.Random(3)
    for name, alg in algebras.items():
        law = group_law(alg)
        for _ in range(3):
            g = rand_coords(rng, alg.dim)
            h = rand_coords(rng, alg.dim)
            t = law.translation_jacobian(g, h)
            frame_h = law.frame_at(h)
            gh = law.multiply(g, h)
            frame_gh = law.frame_at(gh)
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
        mats = law.frame_batch(coords)
        assert np.allclose(np.linalg.det(mats), 1.0, atol=1e-12)
        inv = law.inv_frame_batch(coords)
        prod = inv @ mats
        assert np.allclose(prod, np.eye(alg.dim)[None], atol=1e-12)


def test_quasi_norm_examples():
    h3 = algebra.heisenberg3()
    assert quasi_norm(point(h3, (0, 0, 4))) == 2.0
    assert quasi_norm(origin(h3)) == 0.0
    p = point(h3, (1, 0, 0))
    assert quasi_norm(dilate(3, p)) == 3.0


def test_dilation_scaling_identity():
    fil = algebra.filiform(4)
    rng = random.Random(5)
    for _ in range(5):
        coords = tuple(rng.uniform(-4, 4) for _ in range(4))
        p = point(fil, coords)
        r = rng.uniform(0.5, 3.0)
        assert quasi_norm(dilate(r, p)) == pytest.approx(r * quasi_norm(p), rel=1e-12)


def test_dilations_are_automorphisms():
    # delta_r(x . y) = delta_r(x) . delta_r(y), exactly on rationals
    h3 = algebra.heisenberg3()
    law = group_law(h3)
    rng = random.Random(6)
    r = Fraction(3, 2)
    for _ in range(5):
        x = rand_coords(rng, 3)
        y = rand_coords(rng, 3)
        lhs = law.dilate(r, law.multiply(x, y))
        rhs = law.multiply(law.dilate(r, x), law.dilate(r, y))
        assert lhs == rhs


def test_batch_multiply_matches_scalar():
    h3 = algebra.heisenberg3()
    law = group_law(h3)
    rng = random.Random(7)
    a = np.array([[rng.uniform(-2, 2) for _ in range(5)] for _ in range(3)])
    b = np.array([[rng.uniform(-2, 2) for _ in range(5)] for _ in range(3)])
    batch = law.multiply_batch(a, b)
    for i in range(5):
        single = law.multiply(list(a[:, i]), list(b[:, i]))
        assert np.allclose(batch[:, i], single)


def test_group_law_refuses_non_unipotent_frames():
    # unvalidated non-nilpotent structure constants: frame - I is not
    # nilpotent, so the Neumann series for the inverse frame never ends
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


PARITY = corpus()
PARITY.update({f"filiform{n}": algebra.filiform(n) for n in (7, 8, 9)})
PARITY.update({f"dense_{name}": dense_twin(alg, random.Random(11)) for name, alg in [
    ("heisenberg3", algebra.heisenberg3()), ("heisenberg5", algebra.heisenberg5()),
    ("filiform6", algebra.filiform(6)), ("free2step3", algebra.free_nilpotent_two_step(3)),
    ("filiform7", algebra.filiform(7))]})


@pytest.mark.parametrize("name", sorted(PARITY))
def test_product_polys_match_the_dynkin_sum(name):
    # the BCH polynomial is unique, so the recursion must give the same
    # exact coefficients as the Dynkin word sum, term for term
    new = bch_product_polys(PARITY[name])
    ref = dynkin_product_polys(PARITY[name])
    assert [p.terms for p in new] == [p.terms for p in ref]


def test_group_law_build_is_polynomial_in_the_class():
    # the Dynkin word sum needs 76,097 words (7.3 s) at class 10
    alg = algebra.filiform(11)
    t0 = time.perf_counter()
    group_law(alg)
    assert time.perf_counter() - t0 < 2.0
