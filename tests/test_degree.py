import re

import numpy as np
import pytest
from oracles import dense_newton_roots, masked_newton_roots, naive_preimages

from nilcoh import algebra, degree, maps, rng
from nilcoh.dsl import DomainError
from nilcoh.forms import volume_form
from nilcoh.degree import (
    DEDUPE_TOL,
    NEWTON_MAX_ITER,
    BoundaryTooClose,
    area_formula_check,
    asymptotic_degree,
    local_degree,
    qi_distortion_probe,
)
from nilcoh.group import BallSpec
from nilcoh.maps import evaluate_batch, map_from_texts, normalize_to_y0
from nilcoh.pullback import amenable_average

R1 = algebra.abelian(1)
R2 = algebra.abelian(2)
H3 = algebra.heisenberg3()


def test_identity_degree():
    ident = map_from_texts(R2, R2, ["x1", "x2"])
    res = local_degree(ident, 2.0, (0.3, -0.1))
    assert res.value == 1
    assert res.preimage_count == 1
    assert res.stable_under_refinement
    assert res.min_jacobian_margin == pytest.approx(1.0)


def test_negation_degree():
    neg = map_from_texts(R1, R1, ["-x1"])
    res = local_degree(neg, 2.0, (0.5,))
    assert res.value == -1
    assert res.preimage_count == 1


def test_monotone_perturbed_identity_degree():
    m = map_from_texts(R1, R1, ["x1 + sin(x1)"])
    res = local_degree(m, 10.0, (0.5,))
    assert res.value == 1
    assert res.preimage_count == 1
    # bisection oracle for the unique preimage
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if mid + np.sin(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    assert res.preimages[0][0] == pytest.approx(lo, abs=1e-6)


def test_folding_map_has_multiple_preimages():
    # x^3 - 2x has three preimages of 0.1 in (-2, 2): signs +, -, + -> degree 1
    m = map_from_texts(R1, R1, ["x1^3 - 2*x1"])
    res = local_degree(m, 2.0, (0.1,), grid_density=16)
    assert res.preimage_count == 3
    assert res.value == 1
    assert abs(res.value) <= res.preimage_count
    roots = sorted(np.roots([1.0, 0.0, -2.0, -0.1]).real)
    got = sorted(p[0] for p in res.preimages)
    assert np.allclose(got, roots, atol=1e-6)


def test_dimension_mismatch_rejected():
    m = map_from_texts(R1, R2, ["x1", "x1"])
    with pytest.raises(ValueError):
        local_degree(m, 1.0, (0.0, 0.0))


def test_boundary_too_close():
    ident = map_from_texts(R1, R1, ["x1"])
    with pytest.raises(BoundaryTooClose):
        local_degree(ident, 2.0, (2.0,))


def test_grid_density_below_one_refused():
    # a zero grid has no Newton starts: it read degree 0, "stable", for x + sin(x)
    m = map_from_texts(R1, R1, ["x1 + sin(x1)"])
    for density in (0, -1):
        with pytest.raises(ValueError, match=f"got {density}"):
            local_degree(m, 10.0, (0.5,), grid_density=density)
        with pytest.raises(ValueError, match=f"got {density}"):
            area_formula_check(m, 2.0, samples=50, grid_density=density)


@pytest.mark.parametrize("density", [1.5, 2.0, "8"])
def test_a_grid_density_that_is_not_an_integer_is_refused(density):
    # 1.5 ran Newton from a grid whose density is no integer
    m = map_from_texts(R1, R1, ["x1 + sin(x1)"])
    message = re.escape(f"grid density must be an integer, got {density!r}")
    with pytest.raises(TypeError, match=message):
        local_degree(m, 10.0, (0.5,), grid_density=density)
    with pytest.raises(TypeError, match=message):
        area_formula_check(m, 2.0, samples=50, grid_density=density)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_target_refused(bad):
    # a NaN target found no preimage: degree 0, "stable"
    m = map_from_texts(R1, R1, ["x1 + sin(x1)"])
    with pytest.raises(ValueError, match=f"target coordinates must be finite, got {bad}"):
        local_degree(m, 10.0, (bad,))


def test_a_window_that_is_not_a_box_is_refused():
    # a quasiball was read as its bounding box: on the identity of R2 the
    # target (0.9, 0.9), of gauge 1.27 and outside the unit quasiball, had
    # degree 1, and the area check read the disk's signed volume as 4.0
    ident = map_from_texts(R2, R2, ["x1", "x2"])
    ball = BallSpec(1.0, "quasiball")
    with pytest.raises(ValueError, match="the degree window must be a box, got shape 'quasiball'"):
        local_degree(ident, ball, (0.9, 0.9))
    with pytest.raises(ValueError, match="the degree window must be a box, got shape 'quasiball'"):
        area_formula_check(ident, ball, samples=400, seed=1)
    assert local_degree(ident, BallSpec(1.0, "box"), (0.9, 0.9)).value == 1


Z3 = ["x1^3 - 3*x1*x2^2", "3*x1^2*x2 - x2^3"]  # z^3: the target 0 has a triple root


@pytest.fixture
def boundary_calls(monkeypatch):
    """The arguments of every ``_boundary_cloud`` call from now on."""
    calls = []
    real = degree._boundary_cloud

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(degree, "_boundary_cloud", counted)
    return calls


def test_one_map_object_maps_its_boundary_once_over_many_targets(boundary_calls):
    m = map_from_texts(R2, R2, Z3)
    for target in ((0.3, -0.2), (0.1, 0.25), (-0.2, 0.1), (0.0, 0.0)):
        local_degree(m, 2.0, target, seed=3)
    assert len(boundary_calls) == 1
    # the area check with the same key reads the same set-up: it mapped its own
    area_formula_check(m, 2.0, samples=50, seed=3)
    assert len(boundary_calls) == 1


def test_the_area_check_has_no_set_up_of_its_own(monkeypatch):
    # it normalized the map, built the scales, boundary image and start grid
    # again, and mapped its whole sample cloud forward for the image box
    m = map_from_texts(R2, R2, Z3)
    local_degree(m, 2.0, (0.3, -0.2), seed=3)
    calls, clouds = [], []
    for name in ("normalize_to_y0", "_window_scales", "_boundary_cloud", "_grid_starts"):
        real = getattr(degree, name)
        monkeypatch.setattr(degree, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    sample, evaluate = degree.sample_ball_coords, degree.evaluate_batch
    monkeypatch.setattr(degree, "sample_ball_coords",
                        lambda *args, **kw: clouds.append(sample(*args, **kw)) or clouds[-1])
    monkeypatch.setattr(degree, "evaluate_batch",
                        lambda m, x: calls.append("cloud") if x is clouds[0] else evaluate(m, x))
    area_formula_check(m, 2.0, samples=50, seed=3)
    assert len(clouds) == 1 and calls == []


def test_every_call_on_one_map_equals_the_call_on_a_fresh_equal_map():
    m = map_from_texts(R2, R2, Z3)
    calls = [((0.3, -0.2), 2.0, 0, 8), ((0.0, 0.0), 2.0, 0, 8), ((0.1, 0.25), 1.5, 3, 8),
             ((0.1, 0.25), BallSpec(2), 0, 8), ((0.0, 0.0), 2.0, 3, 6), ((0.3, -0.2), 2.0, 3, 6)]
    retries = []
    for target, window, seed, density in calls:
        warm = local_degree(m, window, target, grid_density=density, seed=seed)
        fresh = local_degree(map_from_texts(R2, R2, Z3), window, target, grid_density=density,
                             seed=seed)
        assert repr(warm) == repr(fresh)
        retries.append(warm.retries)
    assert retries[1] > 0 and retries[4] > 0  # the triple root at 0 is near-singular


def test_a_new_window_seed_grid_or_map_object_recomputes(boundary_calls):
    m = map_from_texts(R2, R2, Z3)
    keys = [(2.0, 0, 8), (2.0, 0, 8), (1.5, 0, 8), (1.5, 4, 8), (1.5, 4, 6), (1.5, 4, 6),
            (2.0, 0, 8)]
    counts = []
    for radius, seed, density in keys:
        local_degree(m, radius, (0.3, -0.2), grid_density=density, seed=seed)
        counts.append(len(boundary_calls))
    assert counts == [1, 1, 2, 3, 4, 4, 5]  # one entry per map: the first key came back
    local_degree(map_from_texts(R2, R2, Z3), 2.0, (0.3, -0.2))
    assert len(boundary_calls) == 6
    assert degree._SET_UP.get(m).last[0] == (2.0, 0, 8)


def test_a_warm_call_opens_no_stream_and_only_a_retry_opens_the_perturbation(monkeypatch):
    opened = []
    real = rng.stream
    monkeypatch.setattr(rng, "stream",
                        lambda seed, *tags: opened.append(tags[0]) or real(seed, *tags))
    m = map_from_texts(R2, R2, Z3)
    local_degree(m, 2.0, (0.3, -0.2), seed=3)
    assert opened == ["degree-boundary"]
    local_degree(m, 2.0, (0.1, 0.25), seed=3)
    assert opened == ["degree-boundary"]
    assert local_degree(m, 2.0, (0.0, 0.0), seed=3).retries > 0
    assert opened == ["degree-boundary", "degree-perturb"]


@pytest.mark.parametrize("seed", [1.0, True])
def test_a_seed_equal_to_a_kept_one_but_no_integer_is_still_refused(seed):
    # 1.0 and True equal 1 as keys, so the set-up of seed 1 would answer them
    m = map_from_texts(R2, R2, Z3)
    local_degree(m, 2.0, (0.3, -0.2), seed=1)
    with pytest.raises(TypeError, match=f"seed must be an integer, got {seed!r}"):
        local_degree(m, 2.0, (0.3, -0.2), seed=seed)
    with pytest.raises(TypeError, match=f"seed must be an integer, got {seed!r}"):
        area_formula_check(m, 2.0, samples=50, seed=seed)


def test_the_kept_arrays_are_read_only():
    m = map_from_texts(R2, R2, Z3)
    local_degree(m, 2.0, (0.3, -0.2))
    _, boundary, scales, grids = degree._SET_UP.get(m).last
    for a in (boundary, scales, *grids):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 0.0


def test_homotopy_invariance_small_perturbation():
    # straight-line homotopy between the identity and a 0.1-perturbation
    for t in np.linspace(0.0, 1.0, 5):
        m = map_from_texts(R1, R1, [f"x1 + {0.1 * t}*sin(x1)"])
        res = local_degree(m, 2.0, (0.5,))
        assert res.value == 1


def test_basepoint_invariance_same_component():
    m = map_from_texts(R1, R1, ["x1 + sin(x1)"])
    d1 = local_degree(m, 10.0, (0.5,)).value
    d2 = local_degree(m, 10.0, (1.5,)).value
    assert d1 == d2 == 1


def test_excision_shrinking_window():
    m = map_from_texts(R1, R1, ["x1 + sin(x1)"])
    big = local_degree(m, 10.0, (0.5,))
    small = local_degree(m, 2.0, (0.5,))
    assert {tuple(np.round(p, 6)) for p in big.preimages} == {
        tuple(np.round(p, 6)) for p in small.preimages
    }
    assert big.value == small.value


def test_area_formula_cube():
    m = map_from_texts(R1, R1, ["x1^3"])
    out = area_formula_check(m, 1.0, samples=40000, seed=11)
    assert out["signed_integral"] == pytest.approx(2.0, abs=3 * out["signed_integral_stderr"])
    assert abs(out["residual"]) <= 3.0 * max(out["combined_stderr"], 1e-6)
    # the degree integral runs over the box of f(-2), f(2): 2·f(2), the whole
    # support of the degree, where the image box of the sample cloud missed the rim
    out = area_formula_check(map_from_texts(R1, R1, ["x1^3 - x1"]), 2.0, samples=4000, seed=1)
    assert out["degree_integral"] == out["image_box_volume"] == 12.0


def test_area_formula_identity_and_negation():
    ident = map_from_texts(R1, R1, ["x1"])
    out = area_formula_check(ident, 1.5, samples=5000, seed=3)
    assert out["signed_integral"] == pytest.approx(3.0, abs=1e-9)
    assert out["degree_integral"] == pytest.approx(3.0, rel=1e-3)

    neg = map_from_texts(R1, R1, ["-x1"])
    out = area_formula_check(neg, 1.0, samples=5000, seed=3)
    assert out["signed_integral"] == pytest.approx(-2.0, abs=1e-9)
    assert out["degree_integral"] == pytest.approx(-2.0, rel=1e-3)
    assert out["unsigned_integral"] == pytest.approx(2.0, abs=1e-9)

    # the box of the sample cloud's image missed the rim: the degree integral
    # read 3.99385 against 4.0, a residual of 0.00615 against a stderr of 0.0
    out = area_formula_check(map_from_texts(R2, R2, ["x1", "x2"]), 1.0, samples=4000, seed=1)
    assert out["degree_integral"] == out["signed_integral"] == 4.0
    assert out["residual"] == 0.0


def test_a_linear_map_reports_its_exact_determinant():
    """LAPACK's det is sign·exp(log|det|), so it read 3.0000000000000004 for
    x -> 3x, and the area check failed its own 3-sigma test: a residual of
    8.9e-16 against a combined stderr of 0.0."""
    m = map_from_texts(R1, R1, ["3*x1"])
    out = area_formula_check(m, 1.0, samples=4000, seed=1)
    assert out["signed_integral"] == out["unsigned_integral"] == 6.0
    assert out["residual"] == 0.0
    assert local_degree(m, 1.0, (0.3,)).min_jacobian_margin == 3.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_is_the_closed_form_up_to_two_dimensions_and_lapack_above(n):
    """On seeded stacks with +-0, +-inf and NaN entries, contiguous and as a
    transposed view (Newton's layout), byte for byte."""
    gen = np.random.default_rng(40 + n)
    mats = gen.standard_normal((500, n, n)) * 10.0 ** gen.uniform(-3, 3, (500, n, n))
    special = gen.random(mats.shape) < 0.1
    mats[special] = gen.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=special.sum())
    view = np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1)
    with np.errstate(all="ignore"):  # inf - inf, and LAPACK's log|det| of 0
        if n == 1:
            want = mats[:, 0, 0]
        elif n == 2:
            want = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        else:
            want = np.linalg.det(mats)
        for stack in (mats, view):
            assert degree._det(stack).tobytes() == want.tobytes()


def test_unsigned_bound():
    m = map_from_texts(R1, R1, ["sin(x1)"])
    out = area_formula_check(m, 5.0, samples=40000, seed=7)
    assert out["unsigned_integral"] >= abs(out["signed_integral"]) - 3 * out["combined_stderr"]


def test_asymptotic_degree_identity():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    tr = asymptotic_degree(ident, radii=[2.0, 4.0, 8.0], samples=2000, seed=1)
    assert tr.ratios == [1.0, 1.0, 1.0]
    assert tr.stderrs == [0.0, 0.0, 0.0]
    assert tr.verdict == "positive-asymptotic-degree"
    assert tr.tau[0] == pytest.approx(tr.ball_volumes[0])


def test_asymptotic_degree_doubling_automorphism():
    m = map_from_texts(H3, H3, ["2*x1", "x2", "2*x3"])
    tr = asymptotic_degree(m, radii=[2.0, 4.0, 8.0, 16.0, 32.0], samples=5000, seed=1)
    for ratio, se in zip(tr.ratios, tr.stderrs):
        assert abs(ratio - 4.0) <= 3.0 * se
    assert tr.verdict == "positive-asymptotic-degree"


def test_asymptotic_degree_sine_vanishes():
    # the true ratio is sin(R)/R -> 0; the verdict is a finite-schedule
    # heuristic and is not asserted here, only the magnitude bound
    m = map_from_texts(R1, R1, ["sin(x1)"])
    tr = asymptotic_degree(m, radii=[4.0, 8.0, 16.0, 32.0, 64.0], samples=40000, seed=1)
    want = np.sin(64.0) / 64.0
    assert tr.ratios[-1] == pytest.approx(want, abs=4 * tr.stderrs[-1])
    assert abs(tr.ratios[-1]) <= 0.05


def test_asymptotic_degree_keeps_the_warnings_of_its_averages():
    # x1 - x1 is exactly 0, so abs sits on its kink at every sample: the
    # average warns, and the trace used to drop the warning
    m = map_from_texts(R1, R1, ["x1 + abs(x1 - x1)"])
    tr = asymptotic_degree(m, radii=(2.0, 4.0), samples=500, seed=0)
    assert tr.warnings == ["abs evaluated within 1e-09 of its kink (500 sample(s))"]
    assert tr.warnings == amenable_average(m, volume_form(R1), radii=(2.0, 4.0), samples=500,
                                           seed=0).warnings


def test_asymptotic_degree_requires_equal_dims():
    m = map_from_texts(R1, R2, ["x1", "x1"])
    with pytest.raises(ValueError):
        asymptotic_degree(m, radii=[2.0], samples=10, seed=0)


def test_qi_distortion_probe_identity():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    out = qi_distortion_probe(ident, radius=4.0, pairs=500, seed=0)
    assert out["ratio_min"] == pytest.approx(1.0, abs=1e-9)
    assert out["ratio_max"] == pytest.approx(1.0, abs=1e-9)


def test_qi_distortion_probe_refuses_a_radius_without_separated_pairs():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    with pytest.raises(ValueError, match="radius 0.01 with 50 pairs"):
        qi_distortion_probe(ident, radius=0.01, pairs=50, seed=0)


def test_asymptotic_degree_refuses_one_sample():
    m = map_from_texts(H3, H3, ["2*x1", "x2", "2*x3"])
    with pytest.raises(ValueError, match="at least 2 samples, got 1"):
        asymptotic_degree(m, radii=[2.0, 4.0], samples=1, seed=0)


def test_area_formula_refuses_one_sample():
    with pytest.raises(ValueError, match="at least 2 samples, got 1"):
        area_formula_check(map_from_texts(R1, R1, ["x1^3"]), 1.0, samples=1, seed=0)


def test_area_formula_refuses_fewer_than_two_counted_targets(monkeypatch):
    # a constant map puts every target on the boundary image: the check used
    # to answer degree_integral 0.0 +- 0.0 from no counted target at all
    with pytest.raises(ValueError, match=r"got 0 \(50 skipped at the boundary, 0 singular, of 50\)"):
        area_formula_check(map_from_texts(R1, R1, ["0*x1 + 1"]), 2.0, samples=50, seed=1)

    # one counted target has no spread: its stderr used to read 0.0
    def first_only(boundary_vals, targets):
        return np.where(np.arange(targets.shape[1]) == 0, np.inf, 0.0)

    monkeypatch.setattr(degree, "_boundary_margin", first_only)
    with pytest.raises(ValueError, match=r"got 1 \(49 skipped at the boundary"):
        area_formula_check(map_from_texts(R1, R1, ["x1"]), 1.5, samples=50, seed=1)


def test_degree_result_window_field():
    ident = map_from_texts(R1, R1, ["x1"])
    res = local_degree(ident, BallSpec(3.0), (0.25,))
    assert res.window.radius == 3.0
    assert res.requested_target == (0.25,)


def test_greedy_dedupe_matches_the_start_by_start_loop():
    # clusters of points around a few roots per target, offset along one axis
    # by multiples of DEDUPE_TOL just inside and just outside the tolerance,
    # so chains (a - b close, b - c close, a - c far) exercise the greedy order
    gen = np.random.default_rng(3)
    n, count, n_starts = 2, 60, 64
    scales = np.array([2.0, 4.0])
    offsets = DEDUPE_TOL * np.array([0.0, 0.5, 0.999, 1.001, 1.5, 1.9, 2.5])
    for _ in range(5):
        centers = gen.uniform(-1.0, 1.0, size=(n, count, 3)) * scales[:, None, None]
        points = centers[:, np.arange(count)[:, None], gen.integers(0, 3, size=(count, n_starts))]
        axis = gen.integers(0, n, size=(count, n_starts))
        sign = gen.choice([-1.0, 1.0], size=(count, n_starts))
        shift = gen.choice(offsets, size=(count, n_starts)) * sign
        for i in range(n):
            points[i] += np.where(axis == i, shift, 0.0)
        points[0, :, :4] = scales[0] * np.array([1.0, -1.0, 1 - 1e-13, 0.5])  # on / near the box
        converged = gen.random((count, n_starts)) < 0.8
        dets = gen.normal(size=(count, n_starts))
        inside = converged & np.all(np.abs(points) < scales[:, None, None] * (1 - 1e-12), axis=0)
        keep = degree._greedy_dedupe(points, inside)
        for t in range(count):
            roots, margins = naive_preimages(points[:, t], converged[t], dets[t], scales, DEDUPE_TOL)
            kept = np.flatnonzero(keep[t])
            assert [list(r) for r in roots] == points[:, t, kept].T.tolist()
            assert margins == dets[t, kept].tolist()


def test_area_formula_degrees_match_local_degree(monkeypatch):
    # batch independence: every target the area check counts gets the degree
    # local_degree finds for it alone
    m = map_from_texts(R2, R2, ["x1^3 - 3*x1*x2^2 + 0.1*x1", "3*x1^2*x2 - x2^3 + 0.1*x2"])
    seen = []
    engine = degree._preimages

    def recording(mm, targets, scales, grids):
        out = engine(mm, targets, scales, grids)
        ((degrees, singular, _, _),) = out
        seen.append((targets, degrees, singular))
        return out

    monkeypatch.setattr(degree, "_preimages", recording)
    out = area_formula_check(m, 1.0, samples=60, seed=5)
    monkeypatch.undo()
    batch = [c for c in seen if c[0].shape[1] == 60]
    assert len(batch) == 1
    targets, degrees, singular = batch[0]
    checked = 0
    for k in np.flatnonzero(~singular):
        t = tuple(targets[:, k])
        try:
            res = local_degree(m, 1.0, t, seed=5)
        except BoundaryTooClose:
            continue
        if res.retries == 0:
            assert res.value == degrees[k]
            checked += 1
    assert checked >= 50
    assert out["targets_skipped_singular"] == int(np.sum(singular))


@pytest.mark.parametrize(
    "texts", [["2*x1", "x2", "2*x3"], ["x1 + 0.3*sin(x2)", "x2", "x3 + 0.2*x1^2"]]
)
def test_local_degree_on_heisenberg_maps(texts):
    m = map_from_texts(H3, H3, texts)
    target = (0.1, 0.2, 0.3)
    res = local_degree(m, 2.0, target)
    assert res.value == 1
    assert res.preimage_count == 1
    assert res.stable_under_refinement
    image = evaluate_batch(normalize_to_y0(m), np.array(res.preimages).T)[:, 0]
    assert np.max(np.abs(image - np.array(target))) <= 1e-9


@pytest.mark.parametrize(
    "alg, texts, window, densities, targets",
    [
        (R1, ["x1^3 - 0.9*x1"], 2.0, (8, 16), [[0.1, -0.3, 0.05, 2.5, 0.0]]),
        (R2, ["x1^3 - 3*x1*x2^2 + 0.1*x1", "3*x1^2*x2 - x2^3 + 0.1*x2"], 2.0, (8, 16),
         [[0.3, -0.2, 0.0], [0.2, 0.4, 0.0]]),
        (H3, ["x1 + 0.3*sin(x2)", "x2", "x3 + 0.2*x1^2"], 2.0, (3, 6),
         [[0.1, -0.5], [0.2, 0.1], [0.3, 0.0]]),
    ],
)
def test_one_newton_batch_over_densities_equals_one_run_per_density(
    alg, texts, window, densities, targets
):
    m = normalize_to_y0(map_from_texts(alg, alg, texts))
    scales = degree._window_scales(m, BallSpec(window))
    targets = np.array(targets)
    grids = [degree._grid_starts(scales, d) for d in densities]
    fused = degree._preimages(m, targets, scales, grids)
    assert len(fused) == len(densities)
    for grid, got in zip(grids, fused):
        (alone,) = degree._preimages(m, targets, scales, (grid,))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in alone]


def test_a_domain_error_of_the_denser_grid_does_not_stop_a_singular_retry():
    # plateau of height 0 on [-b, b] (b = 29/32), slope 1 outside it; the
    # log leaves its domain at x1 = b, where Newton from the doubled grid's
    # start 15/16 lands exactly, while every start of the 8-grid lies on
    # the plateau, so target 0 has only singular preimages there
    m = map_from_texts(
        R1, R1, ["x1 - (abs(x1 + 0.90625) - abs(x1 - 0.90625))/2 + 0*log(abs(x1 - 0.90625))"]
    )
    scales, column = np.array([1.0]), np.zeros((1, 1))
    grid8, grid16 = (degree._grid_starts(scales, d) for d in (8, 16))
    with pytest.raises(DomainError):
        degree._preimages(m, column, scales, (grid8, grid16))
    ((_, singular, _, _),) = degree._preimages(m, column, scales, (grid8,))
    assert singular[0]
    # as when the grids run in turn: retry at a nudged target, where the
    # 8-grid finds no preimage and the doubled grid finds the one at b + t
    res = local_degree(m, 1.0, (0.0,), grid_density=8, seed=0)
    assert (res.value, res.preimage_count, res.retries) == (0, 0, 1)
    assert not res.stable_under_refinement
    assert res.target != (0.0,)


def test_a_domain_error_of_the_denser_grid_alone_reaches_the_caller():
    # the log leaves its domain at x1 = 15/16, a start of the 16-grid only:
    # the joint batch raises, the 8-grid alone finds one regular root, and
    # the 16-grid then runs alone and raises its own error, not the batch's
    m = map_from_texts(R1, R1, ["x1 + 0*log(abs(x1 - 0.9375))"])
    scales, column = np.array([1.0]), np.array([[0.1]])
    grid8, grid16 = (degree._grid_starts(scales, d) for d in (8, 16))
    ((degrees, singular, roots, _),) = degree._preimages(m, column, scales, (grid8,))
    assert (degrees[0], singular[0], roots.shape) == (1, False, (1, 1))
    with pytest.raises(DomainError) as joint:
        degree._preimages(m, column, scales, (grid8, grid16))
    with pytest.raises(DomainError) as alone:
        degree._preimages(m, column, scales, (grid16,))
    assert (joint.value.sample_index, alone.value.sample_index) == (23, 15)
    with pytest.raises(DomainError) as call:
        local_degree(m, 1.0, (0.1,), grid_density=8)
    assert call.value.sample_index == 15


def dense_margin(boundary_vals, targets):
    return np.min(np.max(np.abs(boundary_vals[:, :, None] - targets[:, None, :]), axis=0), axis=0)


def test_one_dimensional_boundary_margin_equals_the_dense_minimum():
    gen = np.random.default_rng(8)
    for _ in range(200):
        cloud = gen.normal(size=(1, 512)) * 10.0 ** gen.uniform(-3, 3)
        cloud[0, :40] = cloud[0, 40:80]  # ties
        lo, hi = cloud.min(), cloud.max()
        targets = np.concatenate([
            gen.uniform(lo, hi, 30),
            cloud[0, :5],  # on the image
            [lo - 5.0, hi + 7.0, lo, hi, -0.0, 0.0],  # outside it and on its ends
        ])[None, :]
        got = degree._boundary_margin(cloud, targets)
        assert got.tobytes() == dense_margin(cloud, targets).tobytes()
    with np.errstate(invalid="ignore"):
        nan_target = np.array([[0.5, np.nan, np.inf]])
        got = degree._boundary_margin(cloud, nan_target)
        assert np.array_equal(got, dense_margin(cloud, nan_target), equal_nan=True)
        cloud[0, 7] = np.nan
        assert np.isnan(dense_margin(cloud, targets)).all()
        assert np.isnan(degree._boundary_margin(cloud, targets)).all()


def test_one_dimensional_newton_equals_the_batched_solve_form():
    """The 1-D step ``resid / J`` against the general det/solve loop.  That
    b/a has the bytes of numpy's 1x1 ``solve`` is a property of the LAPACK
    build numpy links against (a triangular solve that multiplies by a
    reciprocal would differ), so this checks the installed build only."""
    gen = np.random.default_rng(9)
    a = gen.standard_normal(100000) * 10.0 ** gen.uniform(-8, 8, 100000)
    b = gen.standard_normal(100000) * 10.0 ** gen.uniform(-8, 8, 100000)
    solved = np.linalg.solve(a[:, None, None], b[:, None, None])[:, 0, 0]
    assert (b / a).tobytes() == solved.tobytes()
    for texts in (["x1^3 - 0.9*x1"], ["x1 + sin(x1)"], ["sin(x1)"], ["x1^2"]):
        m = map_from_texts(R1, R1, texts)
        starts = gen.uniform(-3.0, 3.0, size=(1, 300))
        starts[0, :3] = 0.0  # a zero derivative for x1^2
        targets = gen.uniform(-1.0, 1.0, size=(1, 300))
        got = degree._newton_roots(m, starts, targets)
        want = dense_newton_roots(m, starts, targets)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_boundary_margin_in_two_and_three_dimensions_equals_the_dense_minimum():
    """The running maximum over coordinates has the bits of the maximum over
    the (n, B, T) stack, NaN included."""
    gen = np.random.default_rng(10)
    for n in (2, 3):
        cloud = gen.normal(size=(n, 512 * n)) * 10.0 ** gen.uniform(-3, 3)
        targets = np.concatenate([gen.uniform(-2.0, 2.0, (n, 40)), cloud[:, :5], np.zeros((n, 1))],
                                 axis=1)
        got = degree._boundary_margin(cloud, targets)
        assert got.tobytes() == dense_margin(cloud, targets).tobytes()
        with np.errstate(invalid="ignore"):
            targets[-1, 3] = np.nan
            cloud[0, 7] = np.nan
            got = degree._boundary_margin(cloud, targets)
            assert np.array_equal(got, dense_margin(cloud, targets), equal_nan=True)
            assert np.isnan(got).all()


Z3_TEXTS = ["x1^3 - 3*x1*x2^2 + 0.1234*x1", "3*x1^2*x2 - x2^3 + 0.1234*x2"]


def test_two_dimensional_closed_form_newton_matches_the_batched_solve(monkeypatch):
    """The 2-D Cramer step against LAPACK's solve: the same degrees,
    preimage counts and stability flags, preimages within 1e-12."""
    m = map_from_texts(R2, R2, Z3_TEXTS)
    gen = np.random.default_rng(11)
    targets = [tuple(t) for t in gen.uniform(-0.5, 0.5, size=(6, 2))]
    closed = [local_degree(m, 2.0, t, grid_density=8, seed=3) for t in targets]
    monkeypatch.setattr(degree, "_newton_roots", dense_newton_roots)
    dense = [local_degree(m, 2.0, t, grid_density=8, seed=3) for t in targets]
    for a, b in zip(closed, dense):
        assert (a.value, a.preimage_count, a.stable_under_refinement, a.retries) == (
            b.value, b.preimage_count, b.stable_under_refinement, b.retries)
        assert a.value == 3
        assert np.max(np.abs(np.array(a.preimages) - np.array(b.preimages))) <= 1e-12
        assert a.min_jacobian_margin == pytest.approx(b.min_jacobian_margin, rel=1e-12)


def test_three_dimensional_newton_keeps_the_batched_solve():
    m = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2)", "x2 + 0.1*x3^3", "x3 + 0.2*x1^2"])
    gen = np.random.default_rng(12)
    starts = gen.uniform(-2.0, 2.0, size=(3, 200))
    targets = gen.uniform(-0.5, 0.5, size=(3, 200))
    got = degree._newton_roots(m, starts, targets)
    want = dense_newton_roots(m, starts, targets)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


# z^3 - 3z and its kin: the derivative vanishes at x1 = 1 exactly, so the
# start 1 cannot be solved; from 1.001 towards -2.5 every step length of the
# line search lands farther from the target (the local minimum -2 is no
# root); 1e200 overflows to inf and the step to NaN; 1e60 gains a factor of
# about 0.3 per iteration and is still far off at NEWTON_MAX_ITER
HARD_COLUMNS = {
    1: (algebra.abelian(1), ["x1^3 - 3*x1"]),
    2: (R2, ["x1^3 - 3*x1*x2^2 - 3*x1", "3*x1^2*x2 - x2^3 - 3*x2"]),
    3: (algebra.abelian(3),
        ["x1^3 - 3*x1 + 0.1*x2*x3", "x2^3 - 3*x2 + 0.1*x1*x3", "x3 + 0.2*x1*x2"]),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_newton_on_take_gathers_has_the_bytes_of_the_masked_loop(n, monkeypatch):
    """Points, converged mask and Jacobians equal the boolean-mask loop's
    byte for byte, on random columns and on an unsolvable start, one that
    overflows, one that fails all six step lengths and one still iterating
    at NEWTON_MAX_ITER."""
    alg, texts = HARD_COLUMNS[n]
    m = map_from_texts(alg, alg, texts)
    gen = np.random.default_rng(20 + n)
    hard_starts, hard_targets = np.zeros((n, 4)), np.zeros((n, 4))
    hard_starts[0] = [1.0, 1.001, 1e200, 1e60]
    hard_targets[0] = [0.5, -2.5, 0.0, 0.0]
    starts = np.concatenate([gen.uniform(-2.0, 2.0, (n, 300)), hard_starts], axis=1)
    targets = np.concatenate([gen.uniform(-1.0, 1.0, (n, 300)), hard_targets], axis=1)
    calls = []
    counted = degree.jacobian_batch
    monkeypatch.setattr(degree, "jacobian_batch", lambda mm, x: calls.append(1) or counted(mm, x))
    with np.errstate(over="ignore", invalid="ignore"):
        got = degree._newton_roots(m, starts, targets)
        want = masked_newton_roots(m, starts, targets)
        dets = np.linalg.det(got[2][-4:])
        start_vals = evaluate_batch(m, hard_starts)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    points, converged, _ = got
    assert converged[:300].mean() > 0.9 and not converged[-4:].any()
    unsolvable, stalled, overflow, slow = range(-4, 0)
    assert dets[unsolvable] == 0.0 and 0.0 < abs(dets[stalled]) < np.inf
    assert not np.isfinite(start_vals[0, overflow])
    assert points[:, [unsolvable, stalled, overflow]].tobytes() == hard_starts[:, :3].tobytes()
    assert np.isfinite(points[:, slow]).all() and points[0, slow] < 1e60
    assert len(calls) == NEWTON_MAX_ITER + 1


@pytest.mark.parametrize("alg, texts", [
    (R1, ["x1 + sqrt(x1)"]),
    (R2, ["x1 + sqrt(x1) + 0.1*x2", "x2 + 0.1*x1"]),
])
def test_newton_raises_the_domain_error_of_the_masked_loop(alg, texts):
    """A trial point outside the domain raises with the masked loop's message
    and sample index: the index into the same batch of stepped columns.  The
    first three columns start at their roots and so are not stepped."""
    m = map_from_texts(alg, alg, texts)
    n = alg.dim
    starts = np.ones((n, 10))
    targets = evaluate_batch(m, starts)
    targets[0, 3:] += np.linspace(0.1, 0.5, 7)
    targets[0, 7] = -5.0  # the full step lands at x1 < 0
    errors = []
    for newton in (degree._newton_roots, masked_newton_roots):
        with pytest.raises(DomainError) as exc:
            newton(m, starts, targets)
        errors.append((str(exc.value), exc.value.sample_index))
    assert errors[0] == errors[1] == ("sqrt of a negative value", 4)


def spy_tape(monkeypatch):
    """Log the batch width of every ``jacobian_batch`` ('J', width) and
    ``evaluate_batch`` ('E', width, raised) call the Newton loop makes."""
    log = []
    jac, ev = degree.jacobian_batch, degree.evaluate_batch

    def jacobian(m, x):
        log.append(("J", x.shape[1]))
        return jac(m, x)

    def evaluate(m, x):
        try:
            out = ev(m, x)
        except DomainError:
            log.append(("E", x.shape[1], True))
            raise
        log.append(("E", x.shape[1], False))
        return out

    monkeypatch.setattr(degree, "jacobian_batch", jacobian)
    monkeypatch.setattr(degree, "evaluate_batch", evaluate)
    return log


def line_searches(log):
    """The evaluate_batch calls between consecutive Jacobians, per search."""
    out = []
    for call in log:
        if call[0] == "J":
            out.append([])
        else:
            out[-1].append(call[1:])
    return [s for s in out if s]


def test_newton_falls_back_to_single_rounds_when_a_smaller_step_leaves_the_domain(monkeypatch):
    """log(x1^2 - 1) is defined on |x1| > 1 only.  From 2.96 towards -4 the
    full step lands at -4.97 and misses, 1/2 lands at -1.0055 on the other
    branch and improves, and 1/4 lands at 0.977, outside the domain.  The
    masked loop never evaluates 1/4; the batch of the remaining step lengths
    does and raises, so the search falls back to single rounds and must
    still give the masked loop's bytes."""
    m = map_from_texts(R1, R1, ["log(x1^2 - 1)"])
    gen = np.random.default_rng(30)
    # 20 columns left of their root on the right branch, where f is concave
    # and increasing, so Newton walks monotonically to the root
    starts = np.concatenate([gen.uniform(1.5, 2.0, (1, 20)), [[2.96]]], axis=1)
    targets = np.concatenate([np.log(gen.uniform(2.5, 4.0, (1, 20)) ** 2 - 1), [[-4.0]]], axis=1)
    log = spy_tape(monkeypatch)
    got = degree._newton_roots(m, starts, targets)
    want = masked_newton_roots(m, starts, targets)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert got[1].all() and -1.01 < got[0][0, -1] < -1.0
    # the full step on all 21 columns, 5 step lengths x 1 missed column
    # refused, then 1/2 alone on that column
    assert line_searches(log)[0] == [(21, False), (5, True), (1, False)]


def test_a_line_search_whose_misses_fit_makes_at_most_two_tape_evaluations(monkeypatch):
    """After the full step on N columns, k misses try all five remaining step
    lengths in one batch of 5k columns when 5k <= N, which ends the search;
    otherwise they step one length at a time, as the masked loop does."""
    m = map_from_texts(R2, R2, Z3_TEXTS)
    gen = np.random.default_rng(31)
    starts = gen.uniform(-2.0, 2.0, (2, 256))
    targets = np.repeat(gen.uniform(-0.5, 0.5, (2, 1)), 256, axis=1)
    masked_calls = []
    masked_evaluate = maps.evaluate_batch
    monkeypatch.setattr(maps, "evaluate_batch",
                        lambda mm, x: masked_calls.append(1) or masked_evaluate(mm, x))
    want = masked_newton_roots(m, starts, targets)
    log = spy_tape(monkeypatch)
    got = degree._newton_roots(m, starts, targets)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    searches = line_searches(log)
    for search in searches:
        assert not any(raised for _, raised in search)
        # a third evaluation means the second was a single round of k
        # columns, which runs only when 5k > N
        assert len(search) <= 2 or 5 * search[1][0] > search[0][0]
    evaluations = sum(map(len, searches))
    assert 2 * evaluations <= len(masked_calls)  # 18 against 40
