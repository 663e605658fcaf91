import gc
import random
import time
import weakref
from fractions import Fraction
from math import comb

import pytest
import sympy

from nilcoh import algebra
from nilcoh import exactlinalg as xl
from nilcoh.bch import group_law
from nilcoh.cohomology import (
    DegreeOverflow,
    cohomology,
    compare_rings,
    cup_class,
    cup_pairing_rank,
    ring_invariants,
)
from nilcoh.forms import (
    KForm, _differential_rows, _wedge_coeffs, basis_form, basis_tuples, ce_differential, wedge)
from conftest import corpus, rational_filiform5, skewed_heisenberg3
from oracles import cup_pairing_rank as reference_pairing_rank, dense_twin, naive_betti
from oracles import (
    naive_cohomology, naive_cup_entry, naive_differential_matrix, ordered_items, random_rational_form)

H3 = algebra.heisenberg3()
AB3 = algebra.abelian(3)


def test_betti_spec_examples():
    assert cohomology(AB3).betti == (1, 3, 3, 1)
    assert cohomology(H3).betti == (1, 2, 2, 1)
    assert cohomology(algebra.filiform(4)).betti == (1, 2, 2, 2, 1)


def test_betti_against_naive_oracle(algebras):
    for name, alg in algebras.items():
        assert cohomology(alg).betti == naive_betti(alg), name


def test_poincare_duality_and_euler(algebras):
    for name, alg in algebras.items():
        betti = cohomology(alg).betti
        n = alg.dim
        assert betti[0] == 1 and betti[n] == 1, name
        assert all(betti[k] == betti[n - k] for k in range(n + 1)), name
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0, name


def test_no_cohomology_group_is_empty():
    # b_0 = b_n = 1 (nilpotent algebras are unimodular) and b_k >= 2 for
    # 0 < k < n (Dixmier 1955): the cup and residual code has no branch for
    # an empty group, so the bound is pinned on the corpus and dense twins
    cases = corpus()
    rng = random.Random(12)
    for name in list(cases):
        cases[f"dense_{name}"] = dense_twin(cases[name], rng)
    for name, alg in cases.items():
        betti = cohomology(alg).betti
        n = alg.dim
        assert betti[0] == betti[n] == 1, name
        assert all(b >= 2 for b in betti[1:n]), name


def test_first_betti_counts_generators(algebras):
    for name, alg in algebras.items():
        derived = alg.lcs[1]
        assert cohomology(alg).betti[1] == alg.dim - derived, name


def test_representatives_are_closed_and_project_to_units(algebras):
    for name, alg in algebras.items():
        ring = cohomology(alg)
        for k in range(alg.dim + 1):
            space = ring.spaces[k]
            for i, rep in enumerate(space.representatives):
                assert ce_differential(rep).is_zero(), (name, k, i)
                coords = space.project(rep)
                want = [Fraction(1) if j == i else Fraction(0) for j in range(space.betti)]
                assert coords == want, (name, k, i)


def test_projection_kills_coboundaries(algebras):
    rng = random.Random(11)
    for name, alg in algebras.items():
        ring = cohomology(alg)
        for k in range(alg.dim):
            f = random_rational_form(alg, k, rng)
            df = ce_differential(f)
            coords = ring.spaces[k + 1].project(df)
            assert all(c == 0 for c in coords), (name, k)


def test_projection_is_linear_on_closed_forms():
    ring = cohomology(H3)
    space = ring.spaces[1]
    a, b = space.representatives
    combo = a.scale(Fraction(3, 2)) + b.scale(Fraction(-2))
    assert space.project(combo) == [Fraction(3, 2), Fraction(-2)]


def test_cup_spec_examples():
    ring = cohomology(H3)
    # [e1*] cup [e2*] is a coboundary in H^2
    coords = cup_class(ring, 1, 0, 1, 1)
    assert all(c == 0 for c in coords)

    ring_ab = cohomology(AB3)
    coords = cup_class(ring_ab, 1, 0, 1, 1)
    assert any(c != 0 for c in coords)

    # the unit acts as the identity
    for k in range(4):
        for i in range(ring.spaces[k].betti):
            coords = cup_class(ring, 0, 0, k, i)
            want = [Fraction(1) if j == i else Fraction(0) for j in range(ring.spaces[k].betti)]
            assert coords == want


def test_cup_degree_overflow():
    ring = cohomology(H3)
    with pytest.raises(DegreeOverflow):
        cup_class(ring, 2, 0, 2, 0)
    with pytest.raises(IndexError):
        cup_class(ring, 1, 5, 1, 0)


def test_cup_refuses_negative_degrees():
    # negative indexing of ring.spaces once let these through to a bare KeyError
    ring = cohomology(H3)
    with pytest.raises(ValueError, match="got -1"):
        cup_pairing_rank(ring, -1, 1)
    with pytest.raises(ValueError, match="got -2"):
        cup_class(ring, 1, 0, -2, 0)
    with pytest.raises(ValueError, match="got -1"):
        cup_class(ring, -1, 0, 1, 0)


def test_cup_table_graded_commutative(algebras):
    for name, alg in algebras.items():
        ring = cohomology(alg)
        n = alg.dim
        for k in range(n + 1):
            for l in range(n + 1 - k):
                sign = (-1) ** (k * l)
                for i in range(ring.spaces[k].betti):
                    for j in range(ring.spaces[l].betti):
                        ab = ring.cup[(k, l, i, j)]
                        ba = ring.cup[(l, k, j, i)]
                        assert ab == [sign * c for c in ba], (name, k, l, i, j)


def test_cup_matches_projected_wedge():
    ring = cohomology(algebra.free_nilpotent_two_step(3))
    for (k, l, i, j), coords in ring.cup.items():
        a = ring.spaces[k].representatives[i]
        b = ring.spaces[l].representatives[j]
        assert coords == ring.spaces[k + l].project(wedge(a, b))


def test_ring_invariants_spec_examples():
    inv_ab = ring_invariants(cohomology(AB3))
    assert inv_ab["betti"] == (1, 3, 3, 1)
    assert inv_ab["cup_ranks"][(1, 1)] == 3

    inv_h3 = ring_invariants(cohomology(H3))
    assert inv_h3["betti"] == (1, 2, 2, 1)
    assert inv_h3["cup_ranks"][(1, 1)] == 0


def test_cup_rank_invariant_under_representative_rescaling():
    # rank is capped by the target Betti number: H1 x H2 -> H3 has rank 1
    ring = cohomology(AB3)
    assert cup_pairing_rank(ring, 1, 1) == 3
    assert cup_pairing_rank(ring, 1, 2) == 1


def test_compare_verdicts():
    r3 = cohomology(AB3)
    h3 = cohomology(H3)
    assert compare_rings(r3, h3)["verdict"] == "distinguished"
    assert compare_rings(h3, cohomology(algebra.heisenberg3()))["verdict"] == (
        "indistinguishable-by-these-invariants"
    )
    r4 = cohomology(algebra.abelian(4))
    fil = cohomology(algebra.filiform(4))
    out = compare_rings(r4, fil)
    assert out["verdict"] == "distinguished"
    assert out["a"]["betti"] == (1, 4, 6, 4, 1)
    assert out["b"]["betti"] == (1, 2, 2, 2, 1)


def test_compare_separates_equal_betti_numbers_by_cup_ranks():
    # L5,9: [e1, e2] = e3, [e1, e3] = e4, [e2, e3] = e5
    l59 = algebra.validate_algebra({(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}, 5)
    out = compare_rings(cohomology(algebra.filiform(5)), cohomology(l59))
    assert (out["verdict"], out["reason"]) == ("distinguished", "cup_rank(1, 2)")
    assert out["a"]["betti"] == out["b"]["betti"] == (1, 2, 3, 3, 2, 1)
    assert [out[s]["cup_ranks"][k] for s in "ab" for k in ((1, 2), (2, 2))] == [2, 2, 0, 0]


def test_project_float_matches_exact():
    ring = cohomology(H3)
    space = ring.spaces[2]
    vec = [0.0] * len(basis_tuples(3, 2))
    rep = space.representatives[0]
    for key, c in rep.coeffs.items():
        vec[basis_tuples(3, 2).index(key)] = float(c)
    coords = space.project_float(vec)
    assert coords[0] == pytest.approx(1.0, abs=1e-15)
    assert coords[1] == pytest.approx(0.0, abs=1e-15)


RATIONAL = {"rational_filiform5": rational_filiform5(),
            "dense_rational_filiform5": dense_twin(rational_filiform5(), random.Random(4))}


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_non_integral_constants_match_the_naive_echelon_item_for_item(name):
    # structure constants 3/4, -2/3 and 5/2 give d_k, its kernel, the rows
    # and tags of the closed echelons and the cup entries denominators of
    # their own; every dict and list matches the reference, value types too
    alg = RATIONAL[name]
    ring = cohomology(alg)
    ref = naive_cohomology(alg)
    dens = set()
    for space, (reps, closed, basis) in zip(ring.spaces, ref):
        assert [ordered_items(c) for c in space.closed_basis] == [ordered_items(c) for c in basis]
        assert list(space.echelon.rows) == list(closed.rows)
        for p, row in closed.rows.items():
            assert ordered_items(space.echelon.rows[p]) == ordered_items(row)
            assert ordered_items(space.echelon.tags[p]) == ordered_items(closed.tags[p])
            dens |= {c.denominator for c in (*row.values(), *closed.tags[p].values())}
        assert [ordered_items(rep.coeffs) for rep in space.representatives] == [
            ordered_items(rep) for rep in reps]
    assert dens - {1}
    for k, l, i, j in ring.cup:
        want = naive_cup_entry(ref, k, l, i, j)
        assert [(type(c), c) for c in ring.cup[(k, l, i, j)]] == [(type(c), c) for c in want]


def test_project_refuses_a_float_form_and_points_to_project_float():
    # a float form has one path, the least-squares project_float; project
    # names the first coefficient that is not a Fraction
    space = cohomology(H3).spaces[1]
    form = KForm(H3, 1, {(0,): Fraction(1), (1,): 2.0})
    with pytest.raises(TypeError, match=r"^CohomologySpace.project takes Fraction entries: "
                                        r"form entry \(1,\) is float 2.0; project_float "):
        space.project(form)
    assert space.project_float([1.0, 2.0, 0.0]) == [1.0, 2.0]
    assert space.project(KForm(H3, 1, {(0,): Fraction(1), (1,): Fraction(2)})) == [1, 2]


# -- closed-form oracles at dim 7-10 -------------------------------------------


def heisenberg(k: int):
    """H_{2k+1}: [e_{2i-1}, e_{2i}] = e_{2k+1} for i = 1..k."""
    return algebra.validate_algebra(
        {(2 * i, 2 * i + 1): {2 * k: Fraction(1)} for i in range(k)}, 2 * k + 1
    )


def test_heisenberg7_betti_closed_form():
    # Santharoubane (1983): b_j = C(2k, j) - C(2k, j-2) for j <= k, then duality
    betti = cohomology(heisenberg(3)).betti
    assert betti == (1, 6, 14, 14, 14, 14, 6, 1)
    assert all(betti[j] == comb(6, j) - (comb(6, j - 2) if j >= 2 else 0) for j in range(4))


def test_abelian8_betti_are_binomials():
    assert cohomology(algebra.abelian(8)).betti == tuple(comb(8, j) for j in range(9))


def test_free_two_step4_betti():
    # b2 = n(n^2 - 1)/3 (Sigg 1996); the whole vector agrees with naive_betti,
    # which takes ~10 s with sympy and so is not run here
    betti = cohomology(algebra.free_nilpotent_two_step(4)).betti
    assert betti == (1, 4, 20, 56, 84, 90, 84, 56, 20, 4, 1)
    assert betti[2] == 4 * (4 * 4 - 1) // 3


def test_heisenberg_betti_closed_form_in_dims_9_to_13():
    # Santharoubane (Proc. AMS 87, 1983): b_k(H_{2n+1}) = C(2n, k) - C(2n, k-2)
    # for k <= n, and b_k = b_{2n+1-k} above
    for n in (4, 5, 6):
        betti = cohomology(heisenberg(n)).betti
        want = [comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0) for k in range(n + 1)]
        assert list(betti[: n + 1]) == want, n
        assert betti == betti[::-1], n


def test_heisenberg11_ring_invariants_fast():
    # 0.5 s on a 2-core host; 1.6-1.9 s before the pairing split by weight,
    # 4.8-6.3 s when the cup table kept dense coordinates and the pairing
    # re-sparsified every entry
    ring = cohomology(heisenberg(5))
    start = time.perf_counter()
    inv = ring_invariants(ring)
    assert time.perf_counter() - start < 4.0
    assert inv["betti"] == (1, 10, 44, 110, 165, 132, 132, 165, 110, 44, 10, 1)
    assert inv["cup_ranks"][(1, 1)] == 44  # every e_i* ^ e_j* but the symplectic form


def test_heisenberg7_ring_invariants_fast():
    start = time.perf_counter()
    inv = ring_invariants(cohomology(heisenberg(3)))
    assert time.perf_counter() - start < 0.2
    assert inv["betti"] == (1, 6, 14, 14, 14, 14, 6, 1)


def test_poincare_duality_pairing_is_perfect(algebras):
    # nilpotent algebras are unimodular, so H^k x H^{n-k} -> H^n = Q is perfect
    cases = dict(algebras, heisenberg7=heisenberg(3), filiform7=algebra.filiform(7))
    for name, alg in cases.items():
        ring = cohomology(alg)
        n = alg.dim
        for k in range(n + 1):
            b = ring.spaces[k].betti
            pairing = [
                [ring.cup[(k, n - k, i, j)][0] for j in range(ring.spaces[n - k].betti)]
                for i in range(b)
            ]
            assert b == 0 or sympy.Matrix(pairing).rank() == b, (name, k)


# -- contracts of the exact layer ------------------------------------------------


def test_differential_matrix_matches_naive_oracle(algebras):
    cases = dict(
        algebras,
        filiform7=algebra.filiform(7),
        dense_free2step3=dense_twin(algebra.free_nilpotent_two_step(3), random.Random(5)),
    )
    for name, alg in cases.items():
        for k in range(alg.dim + 1):
            naive = naive_differential_matrix(alg, k)
            rows = _differential_rows(alg, k)
            mine = [[rows.get(t, {}).get(s, 0) for s in basis_tuples(alg.dim, k)]
                    for t in basis_tuples(alg.dim, k + 1)]
            assert len(mine) == naive.rows, (name, k)
            assert all(
                mine[r][c] == Fraction(int(naive[r, c].p), int(naive[r, c].q))
                for r in range(naive.rows)
                for c in range(naive.cols)
            ), (name, k)


def test_ce_differential_matches_naive_oracle_after_cohomology_read_the_rows():
    # cohomology() and ce_differential share one memo of the rows of d_k per
    # algebra: eliminating them must leave them as ce_differential needs them
    gen = random.Random(11)
    cases = [algebra.filiform(6), dense_twin(algebra.free_nilpotent_two_step(3), random.Random(5))]
    for alg in cases:
        cohomology(alg)
        for k in range(alg.dim + 1):
            assert _differential_rows(alg, k) is _differential_rows(alg, k)
            naive = naive_differential_matrix(alg, k)
            for _ in range(3):
                f = random_rational_form(alg, k, gen)
                got = ce_differential(f).vector()
                want = naive * sympy.Matrix([sympy.Rational(c.numerator, c.denominator)
                                             for c in f.vector()])
                assert got == [Fraction(int(x.p), int(x.q)) for x in want], (alg, k)


def test_space_refuses_a_degree_outside_the_ring():
    # negative indexing answered space(-1) with the top degree's space
    ring = cohomology(H3)
    assert [ring.space(k).degree for k in range(4)] == [0, 1, 2, 3]
    for k in (-1, -4, 4):
        with pytest.raises(ValueError, match=f"got {k}"):
            ring.space(k)


def test_cup_table_has_the_eager_key_set(algebras):
    for name, alg in algebras.items():
        ring = cohomology(alg)
        n, b = alg.dim, ring.betti
        want = {
            (k, l, i, j)
            for k in range(n + 1)
            for l in range(n + 1 - k)
            for i in range(b[k])
            for j in range(b[l])
        }
        assert set(ring.cup) == want, name
        assert len(ring.cup) == len(want), name
        assert all(key in ring.cup for key in want), name
    ring = cohomology(H3)
    for bad in [(2, 2, 0, 0), (1, 1, 2, 0), (1, 1, -1, 0), (1, 1, 0)]:
        assert bad not in ring.cup
        with pytest.raises(KeyError):
            ring.cup[bad]
    with pytest.raises(TypeError):
        ring.cup[(1, 1, 0, 0)] = []


def test_representative_coefficients_are_in_lexicographic_basis_order(algebras):
    # pullback sums a form's terms in coefficient order, so this order fixes its bits
    cases = dict(algebras)
    cases.update({f"dense_{name}": dense_twin(alg, random.Random(3)) for name, alg in algebras.items()})
    for name, alg in cases.items():
        for space in cohomology(alg).spaces:
            for rep in space.representatives:
                lex = [t for t in basis_tuples(alg.dim, space.degree) if t in rep.coeffs]
                assert list(rep.coeffs) == lex, (name, space.degree)


def test_project_refuses_forms_of_another_algebra():
    # a form of H3 once read [1, 0, 0] in H^2 of R^3; algebras match by identity
    space = cohomology(AB3).spaces[2]
    for other in (H3, algebra.abelian(3)):
        with pytest.raises(ValueError, match="another algebra"):
            space.project(basis_form(other, (0, 1)))
    assert space.project(basis_form(AB3, (0, 1))) == [1, 0, 0]


def test_project_rejects_non_closed_forms():
    ring = cohomology(H3)
    with pytest.raises(ValueError, match="degree-1"):
        ring.spaces[1].project(basis_form(H3, (2,)))  # d e3* = -e1* ^ e2*
    with pytest.raises(ValueError, match="degree-2"):
        ring.spaces[2].project(basis_form(H3, (0,)))


def test_project_float_matches_reduction_on_closed_forms(algebras):
    rng = random.Random(12)
    for name, alg in algebras.items():
        ring = cohomology(alg)
        for k in range(alg.dim + 1):
            space = ring.spaces[k]
            closed = KForm(alg, k, {})
            for col in space.closed_basis:
                closed = closed + KForm(alg, k, col).scale(rng.randint(-3, 3))
            floats = space.project_float([float(x) for x in closed.vector()])
            exact = space.project(closed)
            assert len(floats) == len(exact) == space.betti, (name, k)
            assert all(abs(f - float(e)) <= 1e-12 for f, e in zip(floats, exact)), (name, k)


def test_project_float_refuses_vectors_of_the_wrong_length():
    space = cohomology(H3).spaces[1]
    for bad in ([1.0], [], [0.0] * 4, [[1.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match=r"C\(n, 1\) = 3 entries"):
            space.project_float(bad)
        with pytest.raises(ValueError, match=r"C\(n, 1\) = 3 entries"):
            space.closed_residual(bad)
    assert space.project_float([1.0, -2.0, 0.0]) == [1.0, -2.0]


def test_first_float_projection_is_fast():
    # the least-squares operator is a float pseudo-inverse: about 1 s for all
    # eleven degrees of free2step4 (dim 10) on a 2-core host
    ring = cohomology(algebra.free_nilpotent_two_step(4))
    start = time.perf_counter()
    for space in ring.spaces:
        assert len(space.project_float([0.0] * comb(10, space.degree))) == space.betti
    assert time.perf_counter() - start < 5.0


def test_derived_caches_do_not_pin_the_algebra():
    alg = algebra.free_nilpotent_two_step(3)
    ring = cohomology(alg)
    group_law(alg)
    ring.cup[(1, 1, 0, 1)]
    ring.spaces[2].project_float([0.0] * comb(6, 2))
    assert cohomology(alg) is ring and group_law(alg) is group_law(alg)
    ref = weakref.ref(alg)
    del alg, ring
    gc.collect()
    assert ref() is None


PAIRINGS = dict(corpus(), filiform6=algebra.filiform(6), skewed_heisenberg3=skewed_heisenberg3())
PAIRINGS.update({f"dense_{name}": dense_twin(alg, random.Random(seed)) for seed, (name, alg) in
                 enumerate([("heisenberg3", H3), ("heisenberg5", algebra.heisenberg5()),
                            ("filiform5", algebra.filiform(5)), ("filiform6", algebra.filiform(6)),
                            ("free2step3", algebra.free_nilpotent_two_step(3))])})


@pytest.mark.parametrize("name", sorted(PAIRINGS))
def test_cup_pairing_ranks_match_the_single_echelon_reference(name):
    # graded bases take the weight blocks, the others one block
    alg = PAIRINGS[name]
    ring = cohomology(alg)
    n = alg.dim
    for k in range(n + 1):
        for l in range(n + 1):
            assert cup_pairing_rank(ring, k, l) == reference_pairing_rank(ring, k, l), (k, l)


# built here, not taken from PAIRINGS, so no earlier test has filled the cup table
COLD = {"heisenberg5": algebra.heisenberg5, "filiform6": lambda: algebra.filiform(6),
        "dense_filiform6": lambda: dense_twin(algebra.filiform(6), random.Random(3))}


@pytest.mark.parametrize("name", sorted(COLD))
def test_zero_wedges_reach_no_echelon(name, monkeypatch):
    # a zero wedge was reduced by the target space's echelon, then inserted
    # into the pairing's block, which reduced it again
    alg = COLD[name]()
    ring = cohomology(alg)
    assert not ring.cup._values
    reduced = []
    reduce = xl.Echelon._reduce  # what reduce, insert and the cup entries run on
    monkeypatch.setattr(xl.Echelon, "_reduce", lambda self, terms, den: (
        reduced.append(dict(terms)) or reduce(self, terms, den)))
    degrees = range(alg.dim + 1)
    ranks = {(k, l): cup_pairing_rank(ring, k, l) for k in degrees for l in degrees}
    zero = 0
    for k, l, i, j in ring.cup:
        a, b = ring.spaces[k].representatives[i], ring.spaces[l].representatives[j]
        if not _wedge_coeffs(a.coeffs, b.coeffs):
            zero += 1
            assert ring.cup._coordinates((k, l, i, j)) == {}
    assert zero and reduced and all(reduced)
    monkeypatch.undo()
    assert ranks == {key: reference_pairing_rank(ring, *key) for key in ranks}


def test_canonical_bases_are_graded_and_dense_twins_are_not():
    graded = dict(corpus(), filiform6=algebra.filiform(6), heisenberg11=heisenberg(5),
                  free2step4=algebra.free_nilpotent_two_step(4))
    assert all(alg.is_graded for alg in graded.values())
    assert not skewed_heisenberg3().is_graded
    for seed in range(6):
        # filiform twins mix weights 2..5 in each bracket
        assert not dense_twin(algebra.filiform(6), random.Random(seed)).is_graded
        assert not dense_twin(algebra.filiform(5), random.Random(seed)).is_graded
        # a 2-step twin's brackets lie in g^2, the span of its weight-2 vectors
        assert dense_twin(algebra.heisenberg5(), random.Random(seed)).is_graded
        assert dense_twin(algebra.free_nilpotent_two_step(3), random.Random(seed)).is_graded


@pytest.mark.parametrize("name", ["heisenberg5", "filiform6", "free2step3", "dense_heisenberg5"])
def test_on_a_graded_basis_classes_have_one_weight_and_cups_add_weights(name):
    # what the weight blocks of cup_pairing_rank rest on
    ring = cohomology(PAIRINGS[name])
    w = ring.algebra.weights
    weights = ring._weights
    for space, rep_weights in zip(ring.spaces, weights):
        for rep, weight in zip(space.representatives, rep_weights):
            assert {sum(w[i] for i in key) for key in rep.coeffs} == {weight}
    for k, l, i, j in ring.cup:
        support = {weights[k + l][c] for c in ring.cup._coordinates((k, l, i, j))}
        assert support <= {weights[k][i] + weights[l][j]}


def test_the_unit_class_pairs_each_degree_onto_itself():
    for alg in (H3, algebra.filiform(6), dense_twin(algebra.heisenberg5(), random.Random(2))):
        ring = cohomology(alg)
        assert ring.spaces[0].representatives[0].coeffs == {(): 1}
        for k, b in enumerate(ring.betti):
            assert cup_pairing_rank(ring, 0, k) == cup_pairing_rank(ring, k, 0) == b
