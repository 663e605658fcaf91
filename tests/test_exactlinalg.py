import random
from fractions import Fraction

import sympy

from nilcoh import exactlinalg as xl


def random_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]


def to_sympy(m):
    return sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in m]
    )


def test_rank_matches_sympy_on_random_matrices():
    rng = random.Random(0)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        assert xl.rank(m) == to_sympy(m).rank()


def test_nullspace_vectors_are_in_kernel_and_complete():
    rng = random.Random(1)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        basis = xl.nullspace(m)
        for v in basis:
            assert all(x == 0 for x in xl.mat_vec(m, v))
        assert len(basis) == cols - xl.rank(m)
        if basis:
            assert xl.rank(basis) == len(basis)


def test_in_span():
    basis = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert xl.in_span(basis, [Fraction(5), Fraction(3)])
    assert xl.in_span([], [Fraction(0), Fraction(0)])
    assert not xl.in_span([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)])


def test_echelon_rows_are_the_rref_in_any_insertion_order():
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        r, pivots = to_sympy(m).rref()
        order = list(range(rows))
        rng.shuffle(order)
        ech = xl.Echelon()
        for i in order:
            ech.insert(xl.sparse(m[i]))
        assert sorted(ech.rows) == list(pivots)
        for prow, pcol in enumerate(pivots):
            want = [Fraction(int(x.p), int(x.q)) for x in r.row(prow)]
            assert xl.dense(ech.rows[pcol], range(cols)) == want
        assert [xl.dense(v, range(cols)) for v in ech.kernel(range(cols))] == xl.nullspace(m)


def test_echelon_tags_give_coordinates_over_the_inserted_vectors():
    rng = random.Random(4)
    for _ in range(25):
        cols = rng.randint(2, 6)
        vectors = random_matrix(rng, rng.randint(1, cols), cols)
        ech = xl.Echelon()
        kept = []
        for v in vectors:
            if ech.insert(xl.sparse(v), {len(kept): Fraction(1)}):
                kept.append(v)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in kept]
        combo = [sum((c * v[i] for c, v in zip(coeffs, kept)), Fraction(0)) for i in range(cols)]
        residual, tag = ech.reduce(xl.sparse(combo))
        assert residual == {}
        assert [tag.get(i, 0) for i in range(len(kept))] == coeffs
        off = [Fraction(rng.randint(-5, 5)) for _ in range(cols)]
        residual, _ = ech.reduce(xl.sparse(off))
        assert (residual == {}) == (to_sympy(kept + [off]).rank() == len(kept))
