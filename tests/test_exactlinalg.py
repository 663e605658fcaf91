import random
from fractions import Fraction

import sympy
from conftest import COEFFS
from hypothesis import example, given, settings, strategies as st
from oracles import NaiveEchelon, ordered_items

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


def from_sympy(v):
    return [Fraction(int(x.p), int(x.q)) for x in v]


def dense(v, cols):
    return [v.get(i, Fraction(0)) for i in cols]


def exact(v):
    return xl._exact(v, "Echelon", "vector")


class Fractions:
    """An ``xl.Echelon`` fed and read in ``{key: Fraction}`` dicts: the one
    place these tests convert between the Fractions they compare and the
    (terms, den) pairs the echelon takes, gives and holds.  An empty tag
    is no tag, as for ``NaiveEchelon``."""

    def __init__(self):
        self.echelon = xl.Echelon()

    def insert(self, v, tag=None):
        return self.echelon.insert(*exact(v), exact(tag) if tag else None)

    def reduce(self, v):
        residual, tag = self.echelon.reduce(*exact(v))
        return xl._fractions(*residual), xl._fractions(*tag)

    def kernel(self, columns):
        return [xl._fractions(*v) for v in self.echelon.kernel(columns)]

    @property
    def rows(self):
        return {p: xl._fractions(*row) for p, row in self.echelon.rows.items()}

    @property
    def tags(self):
        return {p: xl._fractions(*tag) for p, tag in self.echelon.tags.items()}


def echelon_of(m):
    ech = Fractions()
    inserted = sum(ech.insert(dict(enumerate(row))) for row in m)
    return ech, inserted


def test_echelon_rank_matches_sympy_on_random_matrices():
    rng = random.Random(0)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        ech, inserted = echelon_of(m)
        assert inserted == len(ech.rows) == to_sympy(m).rank()


def test_echelon_kernel_equals_sympy_nullspace():
    rng = random.Random(1)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        if rng.random() < 0.3:  # repeated and scaled rows give rank-deficient cases
            m.append([2 * x for x in m[rng.randrange(rows)]])
        ech, _ = echelon_of(m)
        kernel = [dense(v, range(cols)) for v in ech.kernel(range(cols))]
        assert kernel == [from_sympy(v) for v in to_sympy(m).nullspace()]


def test_echelon_reduce_decides_span_membership():
    ech, _ = echelon_of([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]])
    assert ech.reduce({0: Fraction(5), 1: Fraction(3)})[0] == {}
    assert Fractions().reduce({})[0] == {}
    ech, _ = echelon_of([[Fraction(1), Fraction(0)]])
    assert ech.reduce({1: Fraction(1)})[0] == {1: Fraction(1)}
    rng = random.Random(2)
    for _ in range(25):
        cols = rng.randint(1, 6)
        basis = random_matrix(rng, rng.randint(0, 4), cols)
        v = random_matrix(rng, 1, cols)[0]
        ech, _ = echelon_of(basis)
        in_span = to_sympy(basis + [v]).rank() == (to_sympy(basis).rank() if basis else 0)
        assert (ech.reduce(dict(enumerate(v)))[0] == {}) == in_span


def test_echelon_rows_are_the_rref_in_any_insertion_order():
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        r, pivots = to_sympy(m).rref()
        order = list(range(rows))
        rng.shuffle(order)
        ech = Fractions()
        for i in order:
            ech.insert(dict(enumerate(m[i])))
        assert sorted(ech.rows) == list(pivots)
        for prow, pcol in enumerate(pivots):
            want = from_sympy(r.row(prow))
            assert dense(ech.rows[pcol], range(cols)) == want
        nullspace = [from_sympy(v) for v in to_sympy(m).nullspace()]
        assert [dense(v, range(cols)) for v in ech.kernel(range(cols))] == nullspace


def test_echelon_tags_give_coordinates_over_the_inserted_vectors():
    rng = random.Random(4)
    for _ in range(25):
        cols = rng.randint(2, 6)
        vectors = random_matrix(rng, rng.randint(1, cols), cols)
        ech = Fractions()
        kept = []
        for v in vectors:
            if ech.insert(dict(enumerate(v)), {len(kept): Fraction(1)}):
                kept.append(v)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in kept]
        combo = [sum((c * v[i] for c, v in zip(coeffs, kept)), Fraction(0)) for i in range(cols)]
        residual, tag = ech.reduce(dict(enumerate(combo)))
        assert residual == {}
        assert [tag.get(i, 0) for i in range(len(kept))] == coeffs
        off = [Fraction(rng.randint(-5, 5)) for _ in range(cols)]
        residual, _ = ech.reduce(dict(enumerate(off)))
        assert (residual == {}) == (to_sympy(kept + [off]).rank() == len(kept))


# -- the elimination kernels, item for item --------------------------------

# inserted vectors, tags and probes: rationals with denominators up to 12, so rows,
# tags and residuals get denominators of their own, and zero entries
WIDE = st.one_of(COEFFS, st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12)))
RATIONAL = st.dictionaries(st.integers(0, 5), WIDE, max_size=5)
WITH_ZEROS = st.dictionaries(st.integers(0, 5), st.one_of(WIDE, st.just(Fraction(0))), max_size=5)


@settings(max_examples=200, deadline=None)
@given(vectors=st.lists(st.tuples(WITH_ZEROS, st.one_of(st.none(), RATIONAL)), max_size=8),
       probes=st.lists(RATIONAL, max_size=3))
@example(vectors=[({0: Fraction(1)}, None), ({1: Fraction(1)}, {0: Fraction(1)})],
         probes=[{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(-1), 1: Fraction(1)}])
# a pivot of 2/3 is rescaled, and the tag with it
@example(vectors=[({0: Fraction(2, 3), 1: Fraction(1, 4)}, {0: Fraction(1)})],
         probes=[{0: Fraction(1, 3), 1: Fraction(1, 8)}, {0: Fraction(1, 2), 2: Fraction(1)}])
# back-substituting {1: 1, 2: 15/7} takes row 0 from denominator 2 to 14
@example(vectors=[({0: Fraction(1), 1: Fraction(1, 2)}, None),
                  ({1: Fraction(1, 3), 2: Fraction(5, 7)}, {1: Fraction(1)})],
         probes=[{0: Fraction(1), 2: Fraction(1, 5)}])
# row {0: 1, 1: 1/3} over 3, its tag {0: 1/15} over 15
@example(vectors=[({0: Fraction(3), 1: Fraction(1)}, {0: Fraction(1, 5)})],
         probes=[{0: Fraction(6), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(2, 3)}])
def test_echelon_matches_the_reference_item_for_item(vectors, probes):
    ech, ref = Fractions(), NaiveEchelon()
    for v, tag in vectors:
        assert ech.insert(dict(v), tag and dict(tag)) == ref.insert(dict(v), tag and dict(tag))
        assert list(ech.rows) == list(ref.rows)
        for p in ref.rows:
            assert ordered_items(ech.rows[p]) == ordered_items(ref.rows[p])
            assert ordered_items(ech.tags[p]) == ordered_items(ref.tags[p])
    for v in probes:
        (res, tag), (want_res, want_tag) = ech.reduce(v), ref.reduce(v)
        assert ordered_items(res) == ordered_items(want_res)
        assert ordered_items(tag) == ordered_items(want_tag)
    kernel = ech.kernel(range(6))
    assert [ordered_items(v) for v in kernel] == [ordered_items(v) for v in ref.kernel(range(6))]
