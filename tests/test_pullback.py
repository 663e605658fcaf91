import gc
import math
import time
import tracemalloc
import weakref
from dataclasses import replace
from itertools import combinations

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st
from test_dsl import expr_strategy

from nilcoh import algebra, degree, ergodic, maps, pullback, rng
from nilcoh.cohomology import cohomology
from nilcoh.dsl import DomainError
from nilcoh.degree import area_formula_check, asymptotic_degree
from nilcoh.ergodic import amenable_norm, derivative_entry, ergodicity_probe
from nilcoh.forms import (KForm, basis_covector, basis_form, basis_tuples, unit_form,
                          volume_form, wedge)
from nilcoh.dsl import Bin, Coord, Num
from nilcoh.maps import (SmoothMap, differential, differential_batch, differential_pattern,
                         map_from_texts, normalize_to_y0)
from nilcoh.pullback import (
    _coefficient_rows,
    _projection_warning,
    amenable_average,
    exact_homomorphism_pullback,
    homomorphism_check,
    induced_cohomology_map,
    pullback_eval,
)

R1 = algebra.abelian(1)
R2 = algebra.abelian(2)
H3 = algebra.heisenberg3()
H5 = algebra.heisenberg5()
H3_MAP = ["x1 + 0.3*sin(x2)", "x2", "x3 + 0.2*x1^2"]
H5_MAP = ["x1 + 0.3*sin(x2)", "x2", "x3 + 0.1*x4^2", "x4", "x5 + 0.2*x1*x3"]


def f1():
    return normalize_to_y0(map_from_texts(R1, R2, ["x1", "sin(x1)"]))


def h3_doubling():
    return map_from_texts(H3, H3, ["2*x1", "x2", "2*x3"])


def test_pullback_eval_examples():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    w = basis_form(H3, (0, 1))
    for pt in ([0.0, 0.0, 0.0], [1.0, -2.0, 0.5]):
        assert pullback_eval(ident, w, (0, 1), pt) == pytest.approx(1.0, abs=1e-12)

    dy2 = basis_covector(R2, 1)
    assert pullback_eval(f1(), dy2, (0,), [0.8]) == pytest.approx(np.cos(0.8), abs=1e-12)

    zero = basis_covector(R2, 1).scale(0)
    assert pullback_eval(f1(), zero, (0,), [0.8]) == 0.0


def test_pullback_eval_antisymmetric_in_lambda():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    w = basis_form(H3, (0, 1))
    assert pullback_eval(ident, w, (1, 0), [0.3, 0.1, 0.0]) == pytest.approx(-1.0)


@pytest.mark.parametrize("lam", [(-1,), (3,), (1.0,), (0, -1), (-3, 2), (0, 3)])
def test_pullback_eval_refuses_frame_indices_outside_the_domain(lam):
    # negative indices used to wrap around: (-1,) answered for (2,), (0, -1) for (0, 2)
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    w = basis_covector(H3, 2) if len(lam) == 1 else basis_form(H3, (0, 2))
    with pytest.raises(ValueError, match=r"integers in 0 \.\. 2"):
        pullback_eval(ident, w, lam, [0.5, 0.0, 1.0])


def test_pullback_eval_names_the_point_where_the_map_is_undefined():
    # the tape's bare message reached the caller with no point
    m = map_from_texts(R1, R1, ["log(x1)"])
    with pytest.raises(DomainError) as exc:
        pullback_eval(m, basis_covector(R1, 0), (0,), [-1.0])
    assert exc.value.coords == (-1.0,)
    assert str(exc.value).endswith(" at point (-1.0)")


@pytest.mark.parametrize("shape", [(2, 1), (3, 3), (5, 5), (7, 7)])
def test_coefficient_rows_are_exact_minors_of_integer_matrices(shape):
    # every product in a Laplace expansion of small integers is exact; a
    # determinant read back through log|det| misreads even 1 x 1 minors
    m_rows, n_cols = shape
    rng = np.random.default_rng(10 * m_rows + n_cols)
    ints = rng.integers(-9, 10, size=(2, m_rows, n_cols))
    mats = ints.astype(float)
    cod = algebra.abelian(m_rows)
    pairs = []
    for k in range(1, min(shape) + 1):
        for rows in combinations(range(m_rows), k):
            for lam in combinations(range(n_cols), k):
                # every other frame tuple reversed, so permutation signs are exercised too
                pairs.append((basis_form(cod, rows), lam[::(-1) ** len(pairs)]))
    got = _coefficient_rows(mats, pairs)
    for (omega, lam), row in zip(pairs, got):
        (rows,) = omega.coeffs
        want = [oracles.exact_det(mat[np.ix_(rows, lam)].tolist()) for mat in ints]
        assert row.tolist() == want, (rows, lam)


def test_degree_one_pullback_is_the_differential_entry():
    m = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2) + 1", "x2 - 0.5*x1^2", "x3 + 0.2*x1*x2"])
    for g in ([0.3, -1.2, 2.0], [2.5, 0.7, -4.0]):
        d = differential(m, g)
        for i in range(3):
            for j in range(3):
                assert pullback_eval(m, basis_covector(H3, i), (j,), g) == d[i][j]


def test_filiform7_homomorphism_check_is_fast():
    # one LAPACK determinant per minor took 6.8 s on a 2-core host
    f7 = algebra.filiform(7)
    m = map_from_texts(f7, f7, ["x1 + 0.3*sin(x2)"] + [f"x{i}" for i in range(2, 8)])
    t0 = time.perf_counter()
    homomorphism_check(m, radii=(2.0, 4.0), samples=4000, seed=0)
    assert time.perf_counter() - t0 < 3.0


def test_filiform8_homomorphism_check_is_fast():
    # planning and evaluating all 13924 (form, lambda) rows, 3063 of them
    # not structurally zero, took 5.5 s on a 2-core host
    f8 = algebra.filiform(8)
    m = map_from_texts(f8, f8, ["x1 + 0.3*sin(x2)"] + [f"x{i}" for i in range(2, 9)])
    t0 = time.perf_counter()
    homomorphism_check(m, radii=(2.0, 4.0), samples=4000, seed=0)
    assert time.perf_counter() - t0 < 3.0


def test_identity_average_has_zero_variance():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    w = basis_form(H3, (0, 2))
    est = amenable_average(ident, w, radii=[2.0, 4.0], samples=500, seed=1)
    for value, se in zip(est.values, est.mc_stderr):
        assert value.coeffs == {(0, 2): 1.0}
        assert max(se.values()) == 0.0
    assert not est.nonconvergent


def test_f1_average_closed_forms():
    radii = [4 * np.pi, 8 * np.pi, 16 * np.pi]
    est = amenable_average(f1(), basis_covector(R2, 1), radii, samples=40000, seed=7)
    for coeffs, se in zip(est.values, est.mc_stderr):
        got = coeffs.coeffs.get((0,), 0.0)
        assert abs(got) <= 3.0 * se[(0,)]  # sin(R)/R = 0 at these radii

    est1 = amenable_average(f1(), basis_covector(R2, 0), radii, samples=40000, seed=7)
    for coeffs in est1.values:
        assert coeffs.coeffs.get((0,), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_degree_zero_average_is_exactly_one():
    est = amenable_average(f1(), unit_form(R2), radii=[2.0, 4.0], samples=1000, seed=0)
    for value in est.values:
        assert value.coeffs == {(): 1.0}


def test_linearity_exact_with_shared_cloud():
    w1 = basis_covector(R2, 0)
    w2 = basis_covector(R2, 1)
    combo = w1.scale(2.0) + w2.scale(-3.0)
    kw = dict(radii=[3.0, 6.0], samples=5000, seed=5)
    m = f1()
    est1 = amenable_average(m, w1, **kw)
    est2 = amenable_average(m, w2, **kw)
    estc = amenable_average(m, combo, **kw)
    for v1, v2, vc in zip(est1.values, est2.values, estc.values):
        a = 2.0 * v1.coeffs.get((0,), 0.0) - 3.0 * v2.coeffs.get((0,), 0.0)
        assert vc.coeffs.get((0,), 0.0) == pytest.approx(a, abs=1e-14)


def test_monte_carlo_agrees_with_exact_pullback_for_homomorphisms():
    from nilcoh.maps import is_group_homomorphism

    m = h3_doubling()
    assert is_group_homomorphism(m)
    for w in [basis_covector(H3, 0), basis_form(H3, (0, 2)), volume_form(H3)]:
        exact = exact_homomorphism_pullback(m, w)
        est = amenable_average(m, w, radii=[2.0, 4.0], samples=400, seed=2)
        for value in est.values:
            keys = set(exact.coeffs) | set(value.coeffs)
            for key in keys:
                assert value.coeffs.get(key, 0.0) == pytest.approx(
                    exact.coeffs.get(key, 0.0), abs=1e-9
                )


def test_identity_induced_map_is_identity():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    rep = homomorphism_check(ident, radii=[2.0, 4.0], samples=400, seed=3)
    for k in range(4):
        mat = np.array(rep.matrices[k])
        assert np.allclose(mat, np.eye(mat.shape[0]), atol=1e-12)
        assert rep.chain_residuals[k] == 0.0
    assert max(rep.mult_residuals.values()) == 0.0


def test_doubling_induced_map_matrices():
    rep = homomorphism_check(h3_doubling(), radii=[2.0, 4.0], samples=400, seed=3)
    assert np.allclose(rep.matrices[1], [[2.0, 0.0], [0.0, 1.0]], atol=1e-12)
    assert np.allclose(rep.matrices[2], [[4.0, 0.0], [0.0, 2.0]], atol=1e-12)
    assert np.allclose(rep.matrices[3], [[4.0]], atol=1e-12)
    assert max(rep.chain_residuals.values()) < 1e-9
    assert max(rep.mult_residuals.values()) < 1e-9
    assert not rep.warnings


def test_f1_induced_degree_one_matrix():
    radii = [4 * np.pi, 8 * np.pi, 16 * np.pi]
    rep = induced_cohomology_map(f1(), radii=radii, samples=40000, seed=7)
    mat = np.array(rep.matrices[1])
    assert mat.shape == (1, 2)
    assert mat[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert abs(mat[0, 1]) <= 3.0 * max(rep.stderrs[1], 1e-3)


def test_chain_residual_small_for_smooth_bounded_maps():
    # frame shears force Y0 maps' degree-1 pullbacks off the derived
    # directions, so h3 chain residuals are structurally ~0; assert the
    # stated bound and non-increase within Monte Carlo slack
    m = normalize_to_y0(
        map_from_texts(H3, H3, ["x1 + 0.3*sin(x2)", "x2 + 0.2*sin(x1)", "x3"])
    )
    rep = induced_cohomology_map(m, radii=[4.0, 8.0, 16.0, 32.0], samples=20000, seed=11)
    for k in range(4):
        trace = rep.chain_residual_trace[k]
        slack = 3.0 * rep.stderrs[k]
        assert trace[-1] <= trace[0] + slack
        assert trace[-1] <= max(3.0 * rep.stderrs[k], 1e-3)


def test_chain_residual_bound_with_central_coordinate_dependence():
    # a bounded-derivative map out of h3 whose first component sees the
    # center through a decaying factor: the averaged pullback picks up a
    # genuinely nonzero (but boundary-sized) non-closed component
    m = normalize_to_y0(
        map_from_texts(
            H3,
            algebra.abelian(2),
            ["x1 + sin(x3)*(1 - tanh(x1)^2)*(1 - tanh(x2)^2)/4", "x2"],
        )
    )
    rep = induced_cohomology_map(m, radii=[2.0, 4.0, 8.0], samples=20000, seed=13)
    for k, trace in rep.chain_residual_trace.items():
        assert trace[-1] <= max(3.0 * rep.stderrs[k], 1e-3)


def test_amenable_norm_closed_forms():
    m = f1()
    obs = derivative_entry(1, 2)  # cos(g) along the orbit
    radii = [4.0, 8.0, 16.0]
    rows = amenable_norm(m, obs, radii=radii, samples=40000, seed=9)
    for row in rows:
        r = row["radius"]
        want = np.sqrt(0.5 + np.sin(2 * r) / (4 * r))
        assert row["value"] == pytest.approx(want, abs=4.0 * max(row["stderr"], 1e-4))

    const = derivative_entry(1, 1)  # identically 1
    rows = amenable_norm(m, const, radii=[2.0, 4.0], samples=1000, seed=9)
    for row in rows:
        assert row["value"] == pytest.approx(1.0, abs=1e-12)

    flat = normalize_to_y0(map_from_texts(R1, R2, ["x1", "0*x1"]))
    rows = amenable_norm(flat, derivative_entry(1, 2), radii=[2.0], samples=500, seed=1)
    assert rows[0]["value"] == 0.0


def test_amenable_norm_refuses_one_sample():
    with pytest.raises(ValueError, match="at least 2 samples, got 1"):
        amenable_norm(f1(), derivative_entry(1, 2), radii=[4.0, 8.0], samples=1, seed=0)


def test_form_on_wrong_algebra_rejected():
    with pytest.raises(ValueError):
        pullback_eval(f1(), basis_covector(R1, 0), (0,), [0.0])
    # e5* of R^5 has a coefficient key beyond H3's three frame rows
    m, w = h3_doubling(), basis_covector(algebra.abelian(5), 4)
    calls = [
        lambda: exact_homomorphism_pullback(m, w),
        lambda: amenable_average(m, w, radii=[2.0, 4.0], samples=100),
        lambda: asymptotic_degree(m, volume_form(algebra.abelian(3)), radii=[2.0, 4.0], samples=100),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="form must live on the codomain algebra"):
            call()


def test_projection_warning_reads_the_non_closed_residual():
    # on H3, ker d_1 is spanned by e1*, e2* (d e3* = -e1* ^ e2*)
    space = cohomology(H3).spaces[1]
    assert space.closed_residual([0.0, 0.0, 1.0]) == 1.0
    assert space.closed_residual([1.0, -2.0, 0.0]) == 0.0
    assert space._class_fit([0.3, 0.7, 1.0]) == (space.project_float([0.3, 0.7, 1.0]),
                                                 space.closed_residual([0.3, 0.7, 1.0]))
    warnings = []
    _projection_warning(1, space.closed_residual([0.0, 0.0, 1.0]), 0.01, warnings)
    assert warnings == ["projection warning: degree-1 average has non-closed component "
                        "1.000e+00 exceeding 10 x stderr (1.000e-02)"]
    _projection_warning(1, space.closed_residual([1.0, -2.0, 0.0]), 0.01, warnings)
    _projection_warning(1, space.closed_residual([0.0, 0.0, 1.0]), 0.2, warnings)
    assert len(warnings) == 1


def test_one_least_squares_fit_per_class(monkeypatch):
    # the class coordinates and the projection warning's residual of each
    # representative come from one fit, A^+ v, not from two
    from nilcoh.cohomology import CohomologySpace

    fits = []
    fit = CohomologySpace._fit
    monkeypatch.setattr(CohomologySpace, "_fit", lambda self, vec: fits.append(1) or fit(self, vec))
    m = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2)", "x2", "x3"])
    rep = homomorphism_check(m, radii=(2.0,), samples=500, seed=0)
    owners = sum(len(matrix[0]) for matrix in rep.matrices.values())  # a column each
    assert owners == 6 and len(fits) == owners + len(rep.mult_residuals)


def test_schedule_must_increase():
    with pytest.raises(ValueError):
        amenable_average(f1(), basis_covector(R2, 0), radii=[4.0, 2.0], samples=10, seed=0)


def test_threads_keyword_is_accepted_and_changes_nothing():
    # the two calls the benchmark harness passes threads= to keep the keyword
    m3 = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2)", "x2", "x3 + 0.2*x1^2"])
    cubic = map_from_texts(R1, R1, ["x1^3 - x1"])
    calls = [
        lambda t: homomorphism_check(m3, radii=[2.0, 4.0], samples=9000, seed=5, threads=t),
        lambda t: area_formula_check(cubic, 2.0, samples=300, seed=5, threads=t),
    ]
    for call in calls:
        assert repr(call(4)) == repr(call(1))


def test_zero_forms_and_repeated_frame_indices_give_zero():
    # a plan in which no pair needs a minor of some degree divided by a zero
    # work width: ZeroDivisionError instead of the promised 0
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    zero2 = KForm(H3, 2, {})
    point = [0.3, -1.0, 2.0]
    assert pullback_eval(ident, zero2, (0, 1), point) == 0.0
    assert pullback_eval(ident, basis_form(H3, (0, 1)), (1, 1), point) == 0.0
    assert exact_homomorphism_pullback(h3_doubling(), zero2).coeffs == {}
    est = amenable_average(ident, zero2, radii=[2.0, 4.0], samples=300, seed=1)
    assert [v.coeffs for v in est.values] == [{}, {}]
    assert all(set(se.values()) == {0.0} for se in est.mc_stderr)


def test_coefficient_rows_do_not_depend_on_how_the_pairs_are_split():
    mats = np.random.default_rng(5).normal(size=(300, 5, 5))
    forms = [w for k in range(6) for w in cohomology(H5).spaces[k].representatives]
    pairs = [(w, lam) for w in forms for lam in combinations(range(5), w.degree)]
    pairs += [(KForm(H5, 2, {}), (0, 1)), (basis_form(H5, (1, 3)), (2, 2)),
              (basis_form(H5, (0, 1, 2)), (4, 0, 4)), (unit_form(H5).scale(-2.5), ())]
    whole = _coefficient_rows(mats, pairs)
    assert not whole[-4:-1].any() and set(whole[-1]) == {-2.5}
    for size in (1, 3, 17):
        parts = [_coefficient_rows(mats, pairs[i:i + size]) for i in range(0, len(pairs), size)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


# constant entries of D: mostly the 1.0 that folds away, and what its products meet
CONSTANTS = st.sampled_from([1.0, 1.0, 1.0, -1.0, 0.0, -0.0, 0.3, 2.5, np.inf, -np.inf, np.nan])
COEFFICIENTS = st.one_of(st.sampled_from([1.0, -1.0, 0.1, -0.1, 0.0, -0.0, 2.5]),
                        st.floats(-4.0, 4.0))


@st.composite
def _plans(draw):
    """A (m, n) pattern, ``_recipe``-shaped recipes of degrees 0-5 on it
    (terms on live minors only), constants at some live entries and entries
    that are zero outside the pattern, with +-0.0, +-inf and NaN at live
    entries and each constant at every sample of its entry."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pattern = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)),
                       dtype=bool).reshape(m, n)
    live = oracles.live_minors(pattern)
    recipes = []
    for _ in range(draw(st.integers(1, 8))):
        d = draw(st.integers(0, min(m, n)))
        if d == 0:
            recipes.append(((), ((draw(COEFFICIENTS), ()),)))
            continue
        cols = tuple(sorted(draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d,
                                          unique=True))))
        rows = draw(st.lists(st.sampled_from(list(combinations(range(m), d))), unique=True,
                             max_size=4))
        kept = tuple((draw(COEFFICIENTS), r) for r in rows if live(r, cols))
        recipes.append((cols, kept) if kept else None)
    count = draw(st.integers(1, 9))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    entries = gen.standard_normal((m * n, count)) * pattern.reshape(-1, 1)
    special = (gen.random(entries.shape) < 0.3) & pattern.reshape(-1, 1)
    entries[special] = gen.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=special.sum())
    live_entries = np.flatnonzero(pattern).tolist()
    chosen = draw(st.lists(st.sampled_from(live_entries), unique=True)) if live_entries else []
    constants = {i: draw(CONSTANTS) for i in chosen}
    for i, c in constants.items():
        entries[i] = c
    return pattern, recipes, entries, constants


@settings(max_examples=150, deadline=None)
@given(_plans())
def test_generated_rows_equal_the_gather_reference(plan):
    # bit for bit, signed zeros included; only the sign of a NaN may differ,
    # where the reference adds a negated product and the generated code
    # subtracts the product.  The plan folds the constants, the reference
    # reads them from the entries.  Blocks of one and two samples give the
    # same bits
    pattern, recipes, entries, constants = plan
    want = np.empty((len(recipes), entries.shape[1]))
    rows = pullback._plan_coefficient_rows(recipes, pattern, constants)
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
        oracles.gather_coefficient_rows(recipes, pattern)(entries, want)
    for block in (rows.block, 1, 2):
        got = np.full_like(want, 7.0)
        with np.errstate(invalid="ignore"):
            replace(rows, block=block)(entries, got)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.where(np.isnan(got), 0.0, got).tobytes() == np.where(
            np.isnan(want), 0.0, want).tobytes()


def test_plans_of_equal_recipes_share_one_compiled_function():
    pattern = np.array([[True, True], [False, True]])

    def recipes(c):  # built afresh: equal, not the same objects
        return [((0, 1), ((c, (0, 1)),)), ((), ((c, ()),)), ((1,), ((0.1, (1,)), (c, (0,)))),
                None]

    first = pullback._plan_coefficient_rows(recipes(0.1), pattern)
    assert pullback._plan_coefficient_rows(recipes(0.1), pattern).run is first.run
    minus, plus = (pullback._plan_coefficient_rows(recipes(c), pattern) for c in (-0.0, 0.0))
    assert minus.run is not plus.run and minus.run is not first.run
    assert pullback._plan_coefficient_rows(recipes(0.1), np.ones((2, 2), bool)).run is not first.run
    # every coefficient is read by name: the only float in the code is the
    # +0.0 each row starts from
    for plan in (first, minus, plus):
        floats = {repr(c) for c in plan.run.__code__.co_consts if isinstance(c, float)}
        assert floats == {"0.0"}
    entries = np.array([[3.0, 1.0], [2.0, 5.0], [0.0, 0.0], [-1.0, 4.0]])
    out = np.full((4, 2), 7.0)
    first(entries, out)
    assert out[:, 0].tolist() == [0.0 + -3.0 * 0.1, 0.1, 0.0 + -1.0 * 0.1 + 2.0 * 0.1, 0.0]
    minus(entries, out)
    # the constant -0.0 is written as it is; a row that adds a -0.0 term stays +0.0
    assert np.signbit(out[1]).all() and not np.signbit(out[[0, 3]]).any()


def _average_forms(alg):
    """What homomorphism_check averages, plus a scaled constant and a zero form."""
    reps = [w for k in range(alg.dim + 1) for w in cohomology(alg).spaces[k].representatives]
    products = [wedge(a, b) for a in reps for b in reps
                if a.degree <= b.degree and a.degree + b.degree <= alg.dim]
    return reps + products + [unit_form(alg).scale(-2.5), KForm(alg, 2, {})]


@pytest.mark.parametrize("alg, texts, samples, shape", [
    (H3, H3_MAP, 2 * rng.CHUNK + 1000, "box"),
    (H5, H5_MAP, rng.CHUNK + 500, "quasiball"),
    (H5, ["x1", "sin(x2)", "x3 + x1*x2", "0.5", "x5 + x4^2"], rng.CHUNK + 500, "box"),
    (H3, ["1", "2", "-0.5"], 3000, "box"),
    (H3, ["x1 + 0.3*sin(x2)", "x1 + 0.3*sin(x2)", "x3"], 3000, "box"),
])
@pytest.mark.parametrize("rows_per_block", [1, 7, None])
def test_blocked_averages_equal_whole_array_averages(monkeypatch, alg, texts, samples, shape,
                                                     rows_per_block):
    # the ragged last chunk is the one the blocks must not move; the oracle
    # evaluates the structurally zero rows that the blocks skip, and the
    # constant map leaves no row of degree >= 1 to evaluate.  A negated copy,
    # a duplicate and a negated product read their twin's row; with two equal
    # components e2 ^ e1 averages to an exact zero, which must read +0.0
    # (negating the twin's mean gave -0.0)
    m = normalize_to_y0(map_from_texts(alg, alg, texts))
    a, b = cohomology(alg).spaces[1].representatives[:2]
    omegas = _average_forms(alg) + [a.scale(-1), a, wedge(b, a)]
    if rows_per_block is not None:
        monkeypatch.setattr(pullback, "_BLOCK_ITEMS", rows_per_block * rng.CHUNK)
    radii = [2.0, 4.0]
    got, _ = pullback._ball_averages(m, omegas, radii, samples, 3, shape, [])
    for radius, averages in zip(radii, got):
        want = oracles.whole_array_averages(m, omegas, radius, samples, 3, shape)
        lambdas = [basis_tuples(alg.dim, w.degree) for w in omegas]
        assert [(mean.dtype, se.dtype, mean.shape, se.shape) for mean, se in averages] == [
            (np.float64, np.float64, (len(lams),), (len(lams),)) for lams in lambdas]
        coeffs = [dict(zip(lams, zip(mean.tolist(), se.tolist())))
                  for lams, (mean, se) in zip(lambdas, averages)]
        assert repr(coeffs) == repr(want)


def test_homomorphism_check_does_not_see_a_shift():
    # the shift cannot reach a pullback of a left-invariant form: a map with
    # F(0) != 0, its normalization and the map with another shift agree bit
    # for bit
    m = map_from_texts(H5, H5, ["x1 + 0.3*sin(x2) + 1", "x2 + 0.1*x1^2 - 0.5", "x3 + 0.5",
                                "x4 - 0.25*x3^2", "x5 + 0.2*x1*x3 + 2"])

    def check(mm):
        return repr(homomorphism_check(mm, radii=(2.0, 4.0), samples=2000, seed=3))

    want = check(m)
    assert check(normalize_to_y0(m)) == want
    assert check(replace(m, shift=(1.0, 2.0, -1.0, 0.5, 3.0))) == want


def test_averages_accept_a_map_undefined_only_at_the_origin():
    # normalizing evaluated the map at 0, so 1/x1 was refused although the
    # samples never hit the origin; it is now a singularity like any other
    m = map_from_texts(R1, R2, ["x1", "1/x1"])
    est = amenable_average(m, basis_form(R2, (0,)), radii=(2.0, 4.0), samples=500, seed=0)
    assert [v.coeffs for v in est.values] == [{(0,): 1.0}] * 2
    rep = homomorphism_check(m, radii=(2.0, 4.0), samples=500, seed=0)
    assert rep.matrices[1][0][0] == 1.0


def test_blocks_are_planned_once_per_call(monkeypatch):
    # rebuilding the plans at every radius cost about a tenth of an H5 check,
    # and at every call on the same map a quarter of a warm one: the plans
    # are kept per codomain algebra, keyed by what they are built from
    sizes = []
    plan = pullback._plan_coefficient_rows

    def counting(pairs, *args):
        sizes.append(len(pairs))
        return plan(pairs, *args)

    def planned(m, samples=1000, seed=0, radii=(2.0,)):
        sizes.clear()
        homomorphism_check(m, radii=radii, samples=samples, seed=seed)
        return list(sizes)

    monkeypatch.setattr(pullback, "_plan_coefficient_rows", counting)
    monkeypatch.setattr(pullback, "_BLOCK_ITEMS", 2 * 1000)
    h3 = algebra.heisenberg3()  # no other test has filled its caches
    m = map_from_texts(h3, h3, H3_MAP)
    first = planned(m)
    assert first == [2, 2]  # the 4 rows of the H3 map
    assert planned(m, seed=1, radii=(2.0, 4.0, 8.0)) == []
    assert planned(map_from_texts(h3, h3, H3_MAP), seed=2) == []  # same pattern, new map
    other = map_from_texts(h3, h3, ["x1", "x2", "x3 + 0.2*x1^2"])
    assert not np.array_equal(differential_pattern(other), differential_pattern(m))
    assert planned(other)
    assert planned(m, samples=500) == [4]  # another chunk: 2000 // 500 rows per block
    monkeypatch.setattr(pullback, "_BLOCK_ITEMS", 1000)
    assert planned(m) == [1] * 4


@pytest.mark.parametrize("name", ["H3", "H5", "filiform7"])
def test_warm_checks_give_the_bytes_of_cold_ones(name):
    # the benchmark's H3 and H5 sizes; filiform7 has many products per call
    alg, texts, kw = {
        "H3": (algebra.heisenberg3(), H3_MAP, dict(radii=(2.0, 4.0, 8.0), samples=20000)),
        "H5": (algebra.heisenberg5(), H5_MAP,
               dict(radii=(2.0, 4.0), samples=4000, shape="quasiball")),
        "filiform7": (algebra.filiform(7), ["x1 + 0.3*sin(x2)"] + [f"x{i}" for i in range(2, 8)],
                      dict(radii=(2.0, 4.0), samples=4000)),
    }[name]
    m = map_from_texts(alg, alg, texts)
    cold = repr(homomorphism_check(m, seed=5, **kw))
    for seed in (6, 7):
        homomorphism_check(m, seed=seed, **kw)
    assert repr(homomorphism_check(m, seed=5, **kw)) == cold
    assert repr(homomorphism_check(map_from_texts(alg, alg, texts), seed=5, **kw)) == cold


def test_induced_map_caches_do_not_pin_the_algebra():
    alg = algebra.heisenberg3()
    m = map_from_texts(alg, alg, H3_MAP)
    homomorphism_check(m, radii=[2.0], samples=500, seed=0)
    assert {name for name in vars(alg) if name.startswith("_derived_")} == {
        "_derived_cohomology", "_derived_group_law", "_derived_differential_rows",
        "_derived_induced_setup"}
    ref = weakref.ref(alg)
    del alg, m
    gc.collect()
    assert ref() is None


def _dense_cup_combination(ring, k, l, vi, vj):
    """The dense loop over the cup table's Fraction lists that
    ``pullback._cup_combination`` replaced."""
    out = [0.0] * ring.spaces[k + l].betti
    for a, va in enumerate(vi):
        if va == 0.0:
            continue
        for b, vb in enumerate(vj):
            if vb == 0.0:
                continue
            for c, coeff in enumerate(ring.cup[(k, l, a, b)]):
                out[c] += va * vb * float(coeff)
    return out


def test_sparse_cup_combination_equals_the_dense_loop(algebras):
    # zeros, signed zeros and products that underflow to -0.0 included
    gen = np.random.default_rng(9)
    specials = [0.0, -0.0, 1e-200, -1e-200]
    for name, alg in algebras.items():
        ring = cohomology(alg)
        n, b = alg.dim, ring.betti
        for k in range(n + 1):
            for l in range(n + 1 - k):
                for _ in range(3):
                    vi = [float(x) for x in gen.standard_normal(b[k])]
                    vj = [float(x) for x in gen.standard_normal(b[l])]
                    for v in (vi, vj):
                        for i in gen.choice(len(v), size=len(v) // 2, replace=False):
                            v[i] = specials[gen.integers(len(specials))]
                    got = pullback._cup_combination(ring, k, l, vi, vj)
                    want = _dense_cup_combination(ring, k, l, vi, vj)
                    assert [x.hex() for x in got] == [x.hex() for x in want], (name, k, l)


def _planned_rows(monkeypatch, alg, texts, shape):
    """(form, lambda) pairs, pairs with a live term and rows planned by one
    homomorphism_check on this map; ``alg`` must be fresh, as the plans are
    kept per algebra."""
    sizes, pairs, live = [], [], []
    plan, averages, recipe = (pullback._plan_coefficient_rows, pullback._ball_averages,
                              pullback._recipe)

    def counting(block, *args):
        sizes.append(len(block))
        return plan(block, *args)

    def recording(m, omegas, *args):
        pairs.append(sum(len(basis_tuples(m.domain.dim, w.degree)) for w in omegas))
        return averages(m, omegas, *args)

    def keeping(*args):
        got = recipe(*args)
        live.append(got is not None)
        return got

    monkeypatch.setattr(pullback, "_plan_coefficient_rows", counting)
    monkeypatch.setattr(pullback, "_ball_averages", recording)
    monkeypatch.setattr(pullback, "_recipe", keeping)
    homomorphism_check(map_from_texts(alg, alg, texts), radii=(2.0, 4.0), samples=4000, seed=0,
                       shape=shape)
    return pairs, sum(live), sizes


def test_h5_average_map_plans_only_rows_that_can_be_nonzero(monkeypatch):
    # H5_MAP has the sparsity of the benchmark's seeded H5 maps: 720 of the
    # 910 (form, lambda) rows of its check are zero at every point, and
    # graded commutativity (1 ^ w = w, w_j ^ w_i = -w_i ^ w_j) leaves 63 of
    # the other 190 distinct up to sign.  D has 19 constant entries, 1.0 on
    # its diagonal and 0.0, and folded into the ops they leave 14 distinct
    # op sequences up to sign: the constant 1.0 and 13 rows
    assert _planned_rows(monkeypatch, algebra.heisenberg5(), H5_MAP,
                         "quasiball") == ([910], 190, [14])


def test_h3_average_map_plans_only_distinct_rows(monkeypatch):
    # the benchmark's H3 maps: 24 of the 44 rows can be nonzero, 11 of them
    # distinct up to sign; D has the constants 1.0 on its diagonal and 0.0
    # at its dead entries, and folded into the ops they leave 4 distinct op
    # sequences up to sign: the constant 1.0, D01, D21 - D01 * D20 and D20
    assert _planned_rows(monkeypatch, algebra.heisenberg3(), H3_MAP, "box") == ([44], 24, [4])


def _pair_reads(plan, entries: np.ndarray) -> np.ndarray:
    """The rows of an ``_average_plan`` on these ``_entries``, read per
    (form, lambda) pair as ``_ball_averages`` reads their means: the zero
    slot for a pair with no live term, 0.0 - row for a negated one."""
    count = entries.shape[1]
    blocks = []
    for size, rows in plan.blocks:
        blocks.append(np.empty((size, count)))
        rows(entries, blocks[-1])
    pairs = np.concatenate(blocks + [np.zeros((1, count))])[plan.rows]
    np.subtract(0.0, pairs, out=pairs, where=plan.negated[:, None])
    return pairs


def _assert_folded_rows_are_the_unfolded_ones(m, forms, x):
    # per (form, lambda) pair, the folded plan's read is the gather
    # reference's row of the pair's recipe, which knows no constant: bit for
    # bit, signed zeros included, each NaN written as one NaN
    pattern = differential_pattern(m)
    plan = pullback._average_plan(forms, pattern, pullback._constants(m), x.shape[1])
    live = pullback._Minors(pattern, {})
    recipes = [pullback._recipe(w, lam, 1, live)
               for w in forms for lam in basis_tuples(m.domain.dim, w.degree)]
    with np.errstate(all="ignore"):
        entries = pullback._entries(differential_batch(m, x))
        got = _pair_reads(plan, entries)
        want = np.empty_like(got)
        oracles.gather_coefficient_rows(recipes, pattern)(entries, want)
    assert np.where(np.isnan(got), np.nan, got).tobytes() == np.where(
        np.isnan(want), np.nan, want).tobytes()
    return plan


CONSTANT_MAPS = {
    "h3-average": (H3, H3_MAP),
    "h5-average": (H5, H5_MAP),
    "h3-doubling": (H3, ["2*x1", "x2", "2*x3"]),
    "h3-exp800": (H3, ["x1 + exp(800)*x2", "x2", "x3 + 0.3*x1"]),
    "h5-shears": (H5, ["x1 + 0.3*x2", "x2", "x3 - 0.7*x4 + 0.1*x1^2", "x4", "x5 + 3*x1*x3"]),
    "filiform7-shear": (algebra.filiform(7),
                        ["x1", "x2 + 0.3*x1"] + [f"x{i}" for i in range(3, 8)]),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_MAPS))
def test_folded_rows_equal_the_unfolded_rows_at_seeded_and_edge_points(name):
    alg, texts = CONSTANT_MAPS[name]
    m = map_from_texts(alg, alg, texts)
    gen = np.random.default_rng(41)
    x = np.concatenate([gen.uniform(-4.0, 4.0, size=(alg.dim, 300)),
                        oracles.edge_points(alg.dim, gen)], axis=1)
    forms = _average_forms(alg) if alg.dim <= 5 else [
        w for space in cohomology(alg).spaces for w in space.representatives]
    _assert_folded_rows_are_the_unfolded_ones(m, forms, x)


def _component(a: int):
    """Component a of a map: the coordinate, a multiple of it, it plus an
    expression of x1 and x2, or such an expression alone."""
    coord = Coord(a, f"x{a + 1}")
    return st.one_of(st.just(coord), st.sampled_from([2.0, 0.3, -1.5, 1.0]).map(
        lambda c: Bin("*", Num(c), coord)), expr_strategy().map(lambda e: Bin("+", coord, e)),
        expr_strategy())


@st.composite
def _maps_with_constants(draw, alg):
    return SmoothMap(alg, alg, tuple(draw(_component(a)) for a in range(alg.dim)))


@pytest.mark.parametrize("alg", [H3, H5], ids=["h3", "h5"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_folded_rows_equal_the_unfolded_rows_on_generated_maps(alg, data):
    m = data.draw(_maps_with_constants(alg))
    x = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).uniform(
        -3.0, 3.0, size=(alg.dim, 40))
    try:
        with np.errstate(all="ignore"):
            differential_batch(m, x)
    except DomainError:
        return
    _assert_folded_rows_are_the_unfolded_ones(m, _average_forms(alg), x)


def test_the_doubling_and_the_identity_share_no_plan():
    # one pattern, other constants: a plan keyed by the pattern alone read
    # the doubling's top coefficient as the identity's 1.0, or the reverse
    doubling = map_from_texts(H3, H3, ["2*x1", "x2", "2*x3"])
    identity = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    assert np.array_equal(differential_pattern(doubling), differential_pattern(identity))
    plans = [pullback._induced_setup(m, True, 500)[3] for m in (doubling, identity)]
    assert plans[0] is not plans[1] and plans[0].blocks[0][1].run is not plans[1].blocks[0][1].run
    for m, det in ((doubling, 4.0), (identity, 1.0)):
        rep = homomorphism_check(m, radii=[2.0], samples=500, seed=0)
        est = amenable_average(m, volume_form(H3), radii=[2.0], samples=500, seed=0)
        assert rep.matrices[3] == [[det]] and est.values[0].coeffs == {(0, 1, 2): det}


def test_the_derivative_bound_reads_each_constant_once():
    # the variable rows are reduced, the constants come as one float
    d = np.array([[1.0, -3.0], [0.5, 2.0], [np.nan, 0.0], [-0.0, 0.0]])
    assert pullback._abs_max(d, [0, 1], 2.5) == 3.0
    assert pullback._abs_max(d, [1], 2.5) == 2.5
    assert math.isnan(pullback._abs_max(d, [1, 2], 1.0))
    assert math.isnan(pullback._abs_max(d, [1], math.nan))
    assert repr(pullback._abs_max(d, [3], -math.inf)) == "0.0"
    assert repr(pullback._abs_max(d, [], 0.0)) == "0.0"
    # a constant entry larger than every variable one is the bound
    m = map_from_texts(H3, H3, ["x1 + 0.1*sin(x2)", "5*x2", "x3"])
    assert amenable_average(m, volume_form(H3), radii=[2.0], samples=500,
                            seed=0).derivative_bound == 5.0


def test_constant_map_has_no_row_to_evaluate():
    m = map_from_texts(H3, H3, ["1", "2", "-0.5"])
    rep = homomorphism_check(m, radii=[2.0, 4.0], samples=500, seed=1)
    assert rep.matrices[0] == [[1.0]]
    assert all(v == 0.0 for k in (1, 2, 3) for row in rep.matrices[k] for v in row)
    assert set(rep.stderrs.values()) == {0.0} and rep.derivative_bound == 0.0
    est = amenable_average(m, basis_form(H3, (0, 1)), radii=[2.0, 4.0], samples=500, seed=1)
    assert [v.coeffs for v in est.values] == [{}, {}]
    assert all(set(se.values()) == {0.0} for se in est.mc_stderr)


def test_a_constant_maps_derivative_bound_is_plus_zero():
    # max D of an all-zero chunk is 0.0 and -min D is -0.0: the bound must
    # read +0.0, as np.max(np.abs(D)) did
    m = map_from_texts(H3, H3, ["1", "2", "-0.5"])
    est = amenable_average(m, volume_form(H3), radii=[2.0, 4.0], samples=20000, seed=1)
    assert math.copysign(1.0, est.derivative_bound) == 1.0 and est.derivative_bound == 0.0
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0]])
    for d in (zeros, -zeros, np.abs(zeros), -np.abs(zeros)):
        assert math.copysign(1.0, pullback._abs_max(d, range(len(d)))) == 1.0


def test_chunk_derivative_bound_equals_the_max_of_abs_on_overflow():
    # exp(800*x2) overflows for x2 > 0.89: D holds inf and NaN entries, and
    # the bound of each chunk must be np.max(np.abs(D)), NaN and inf included
    m = map_from_texts(H3, H3, ["x1 + exp(800*x2)", "x2", "x3"])
    x = np.random.default_rng(2).uniform(-1.0, 1.0, size=(3, 3 * 512))
    kinds = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, x.shape[1], 64):
            d = pullback._entries(differential_batch(m, x[:, start:start + 64]))
            want = np.max(np.abs(d))
            assert repr(pullback._abs_max(d, range(len(d)))) == repr(float(want))
            kinds.add("nan" if np.isnan(want) else "inf" if np.isinf(want) else "finite")
    assert kinds == {"nan", "finite"}
    for d in ([1.0, -np.inf], [np.inf, -2.0], [-np.inf, np.nan, 3.0], [-3.0, 2.0]):
        assert repr(pullback._abs_max(np.array(d), range(len(d)))) == repr(
            float(np.max(np.abs(d))))


def test_a_nan_chunk_bound_makes_the_derivative_bound_nan():
    # the chunk bounds were folded with Python's max, which drops a NaN that
    # is not first: every chunk at R = 1 and 2 has a NaN bound, yet the
    # bound read 3.89e176 at radii (0.5, 1, 2) and 0.0 at radii (1, 2)
    m = map_from_texts(H3, H3, ["x1 + exp(800*x2)", "x2", "x3"])
    with np.errstate(over="ignore", invalid="ignore"):
        for radii in ((0.5, 1.0, 2.0), (1.0, 2.0)):
            est = amenable_average(m, volume_form(H3), radii=radii, samples=20000, seed=3)
            rep = homomorphism_check(m, radii=radii, samples=20000, seed=3)
            assert math.isnan(est.derivative_bound) and math.isnan(rep.derivative_bound)
        est = amenable_average(m, volume_form(H3), radii=(0.5,), samples=20000, seed=3)
    assert math.isfinite(est.derivative_bound) and est.derivative_bound > 1e170


def test_nan_stderrs_increments_and_residuals_read_nan():
    # Python's max drops a NaN that is not first: on this map (the parity
    # dump's h3-exp800) the degree-1 and degree-2 matrices hold NaN and inf,
    # yet stderrs read {1: 0.0, 2: 0.0}, and the increments of e1's average
    # (inf at both radii) read [0.0]
    m = map_from_texts(H3, H3, ["x1 + exp(800)*x2", "x2", "x3"])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = homomorphism_check(m, radii=(2.0, 4.0), samples=4000, seed=0)
        est = amenable_average(m, basis_form(H3, (0,)), radii=(2.0, 4.0), samples=4000, seed=0)
    assert math.isnan(rep.matrices[1][0][0]) and math.isinf(rep.matrices[1][1][0])
    assert math.isnan(rep.stderrs[1]) and math.isnan(rep.stderrs[2])
    assert rep.stderrs[0] == rep.stderrs[3] == 0.0
    assert math.isnan(rep.mult_residuals[(1, 0, 2, 0)])
    assert math.isnan(est.increments[0])
    # the e3 coefficient of the average of psi* e2* is the mean of +-inf:
    # the degree-1 chain residual read 0.0
    m = map_from_texts(H3, H3, ["x1", "x2 + exp(800)*x3^2", "x3"])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = homomorphism_check(m, radii=(2.0, 4.0), samples=4000, seed=0)
    assert all(math.isnan(v) for v in rep.chain_residual_trace[1])
    assert rep.chain_residuals[0] == rep.chain_residuals[2] == 0.0


def test_non_finite_matrices_stderrs_and_residuals_are_warned():
    # x2 + exp(800)*x3^2 read NaN stderrs, NaN matrix entries, a NaN chain
    # residual and NaN multiplicativity residuals with warnings == []
    m = map_from_texts(H3, H3, ["x1", "x2 + exp(800)*x3^2", "x3"])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = homomorphism_check(m, radii=(2.0, 4.0), samples=4000, seed=0)
    assert math.isnan(rep.stderrs[1]) and math.isnan(rep.chain_residuals[1])
    assert math.isnan(rep.matrices[1][0][1])
    bad = [k for k in rep.matrices
           if not np.isfinite([*np.ravel(rep.matrices[k]), rep.stderrs[k],
                               rep.chain_residuals[k]]).all()]
    assert bad == [1, 2, 3]
    degrees = [w for w in rep.warnings if w.startswith("degree ")]
    assert [w.split(":")[0] for w in degrees] == [f"degree {k}" for k in bad]
    assert all("not finite" in w for w in degrees)
    unread = [key for key, r in rep.mult_residuals.items() if not math.isfinite(r)]
    products = [w for w in rep.warnings if w.startswith("products ")]
    assert len(unread) == 10 and len(products) == 1
    assert all(str(key) in products[0] for key in unread)
    assert not any(str(key) in products[0] for key in rep.mult_residuals if key not in unread)
    # finite reports warn of none of it
    m = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2)", "x2", "x3"])
    rep = homomorphism_check(m, radii=(2.0, 4.0), samples=4000, seed=0)
    assert not any("not finite" in w for w in rep.warnings)


def test_nan_increments_read_as_nonconvergent():
    # the convergence test compared increments with >, which is False for
    # NaN: increments [nan, nan] read nonconvergent False, with no warning
    m = map_from_texts(H3, H3, ["x1 + exp(800)*x2", "x2", "x3"])
    with np.errstate(over="ignore", invalid="ignore"):
        est = amenable_average(m, basis_form(H3, (0,)), radii=(2.0, 4.0, 8.0), samples=4000,
                               seed=0)
    assert all(math.isnan(v) for v in est.increments) and len(est.increments) == 2
    assert est.nonconvergent
    assert est.warnings == ["increments do not decrease monotonically; limit not trusted"]
    assert pullback._nonconvergent([0.5, 0.25], [0.0, float("nan"), 0.0])
    assert not pullback._nonconvergent([0.5, 0.25], [0.0, 0.0, 0.0])


# every caller of the sampling loop (maps._ball_means): its module, a call on
# n samples, and the clouds it averages (radii times basepoints)
BALL_MEANS_CALLERS = [
    pytest.param(pullback, lambda n: homomorphism_check(
        map_from_texts(H3, H3, H3_MAP), radii=(2.0, 4.0, 8.0), samples=n, seed=1), 3, id="averages"),
    pytest.param(ergodic, lambda n: ergodicity_probe(
        map_from_texts(H3, H3, H3_MAP), [derivative_entry(1, 2)],
        [(0.0, 0.0, 0.0), (1.0, -0.5, 0.25), (-2.0, 1.0, 3.0)], (2.0, 4.0), n, 1), 6, id="probe"),
    pytest.param(ergodic, lambda n: amenable_norm(
        map_from_texts(H3, H3, H3_MAP), derivative_entry(1, 2), (2.0, 4.0), n, 1), 2, id="norm"),
    pytest.param(degree, lambda n: area_formula_check(
        map_from_texts(R1, R1, ["x1^3 - x1"]), 2.0, samples=n, seed=1, grid_density=2), 1,
        id="area"),
]


@pytest.mark.parametrize("module, call, clouds", BALL_MEANS_CALLERS)
def test_ball_averages_pass_one_buffer_to_every_chunk(monkeypatch, module, call, clouds):
    # each chunk's short-lived Jacobian was mapped afresh; one buffer per
    # call serves every chunk (3 here, the last ragged) at every radius and
    # basepoint.  The probe allocated one per radius and basepoint, and the
    # norm and the area check passed none
    calls = []

    def spy(m, coords, warn=None, *, out=None):
        mats = differential_batch(m, coords, warn, out=out)
        calls.append((out, coords.shape[1], mats))
        return mats

    monkeypatch.setattr(module, "differential_batch", spy)
    call(2 * rng.CHUNK + 100)
    assert [count for _, count, _ in calls] == [rng.CHUNK, rng.CHUNK, 100] * clouds
    first = calls[0][0]
    dims = calls[0][2].shape[1] * calls[0][2].shape[2]
    assert first is not None and first.size == dims * rng.CHUNK
    for out, _, mats in calls:
        assert out is first
        assert np.shares_memory(mats, first)


@pytest.mark.parametrize("module, call, clouds", BALL_MEANS_CALLERS)
def test_chunk_work_is_credited_to_the_row_writers_module(monkeypatch, module, call, clouds):
    # bench/tracer.py names chunk spans by the __module__ of the function
    # that cloud_mean hands rng.chunked_sums, which wraps the loop's chunk
    # function, which wraps the caller's row writer
    seen = []
    real = maps.cloud_mean
    monkeypatch.setattr(maps, "cloud_mean",
                        lambda cloud, values: seen.append(values.__module__) or real(cloud, values))
    call(100)
    assert seen == [module.__name__] * clouds


def test_nan_at_a_structural_zero_no_longer_reaches_dead_rows():
    # exp(800*x2) overflows for x2 > 0.89; dense jets gave the partial
    # d/dx3 of the first component as inf * 0 = NaN, and the inverse frame
    # carried it to D[0, 2], an entry outside the pattern.  The tape carries
    # no such partial (it writes +0.0), so the NaN is planted there by hand.
    # The full expansion (_coefficient_rows) lets it into every row that
    # reads that entry; the plan keeps it out of the rows with no live term,
    # which read 0 there, and out of the live terms of every other row
    m = map_from_texts(H3, H3, ["x1 + exp(800*x2)", "x2", "x3 + 0.2*x1^2"])
    pattern = differential_pattern(m)
    assert pattern.tolist() == [[True, True, False], [False, True, False], [True, True, True]]
    omegas = _average_forms(H3)
    pairs = [(w, lam) for w in omegas for lam in basis_tuples(3, w.degree)]
    live = pullback._Minors(pattern, {})
    x = np.random.default_rng(4).uniform(-2.0, 2.0, size=(3, 64))
    overflow = x[1] > 800 ** -1 * np.log(np.finfo(float).max)
    assert 0 < overflow.sum() < 64
    with np.errstate(over="ignore", invalid="ignore"):
        mats = differential_batch(m, x)
        assert not mats[:, 0, 2].any()
        mats[overflow, 0, 2] = np.nan
        full = _coefficient_rows(mats, pairs)
        pruned = np.empty_like(full)
        recipes = [pullback._recipe(w, lam, 1, live) for w, lam in pairs]
        pullback._plan_coefficient_rows(recipes, pattern)(pullback._entries(mats), pruned)
    moved = {(tuple(w.coeffs), lam) for (w, lam), a, b in zip(pairs, full, pruned)
             if not np.array_equal(a, b, equal_nan=True)}
    # the dead rows that read D02; e2^e3 on (0, 2) moved too while row 2 was NaN
    dead = {(((0,),), (2,)), (((0, 1),), (0, 2)), (((0, 1),), (1, 2))}
    # e1^e2 on (0, 1) has the live term D00 D11; its full expansion also
    # reads D01 D10 = inf * 0 at the dead D10, which the plan skips.  The
    # other five read the NaN at D02, or the NaN at D21, only in a term with
    # a dead entry; they were NaN in both while all of row 2 was NaN
    live_moved = {(((0, 1),), (0, 1)), (((0, 2),), (0, 2)), (((0, 2),), (1, 2)),
                  (((1, 2),), (0, 1)), (((1, 2),), (1, 2)), (((0, 1, 2),), (0, 1, 2))}
    assert moved == dead | live_moved
    for (w, lam), a, b in zip(pairs, full, pruned):
        key = (tuple(w.coeffs), lam)
        if key in moved:
            assert np.isnan(a[overflow]).all()
            # a live row may hold inf: D01 D22 on (1, 2) is the overflow itself
            assert not b.any() if key in dead else not np.isnan(b).any()
    # e1^e3 on (0, 1), whose live term D00 D21 reads D21 = inf - inf; the
    # inverse frame's inf * 0 made all of row 2 NaN and 14 rows read it.
    # With the tape's exact +0.0 partials the count stays 2: this map's
    # overflow is in a sum, whose partials the dense jets gave no NaN
    live_nan = [b for (w, lam), b in zip(pairs, pruned)
                if any(live(r, lam) for r in w.coeffs if r) and np.isnan(b).any()]
    assert len(live_nan) == 2
    assert all(np.isnan(b[overflow]).all() for b in live_nan)


def test_h5_homomorphism_check_memory_is_bounded():
    # (pairs x chunk) arrays of all 910 (form, lambda) pairs peaked at 56 MB
    m = map_from_texts(H5, H5, H5_MAP)
    kw = dict(radii=(2.0, 4.0), samples=4000, seed=0, shape="quasiball")
    homomorphism_check(m, **kw)  # warm the cohomology and group-law caches
    tracemalloc.start()
    try:
        homomorphism_check(m, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35 * 2 ** 20
