import numpy as np
import pytest
from conftest import corpus, skewed_heisenberg3

from nilcoh import algebra, rng
from nilcoh.algebra import AlgebraError
from nilcoh.bch import group_law
from nilcoh.cohomology import cohomology
from nilcoh.degree import area_formula_check, local_degree, qi_distortion_probe
from nilcoh.forms import basis_covector, volume_form
from nilcoh.group import (
    BallSpec,
    box_volume,
    check_adapted,
    check_radii,
    cloud_mean,
    homogeneous_gauge_batch,
    quasi_norm_batch,
    sample_ball_coords,
)
from nilcoh.maps import map_from_texts
from nilcoh.pullback import amenable_average

H3 = algebra.heisenberg3()


def test_box_samples_lie_in_quasi_ball():
    spec = BallSpec(3.0, "box")
    coords = sample_ball_coords(H3, spec, 2000, seed=1)
    norms = quasi_norm_batch(H3, coords)
    assert np.all(norms <= 3.0 + 1e-12)


def test_quasiball_samples_respect_gauge():
    spec = BallSpec(2.0, "quasiball")
    coords = sample_ball_coords(H3, spec, 2000, seed=1)
    assert np.all(homogeneous_gauge_batch(H3, coords) <= 2.0 + 1e-12)


def test_sampling_is_deterministic_and_seed_sensitive():
    spec = BallSpec(2.0, "box")
    a = sample_ball_coords(H3, spec, 500, seed=5)
    b = sample_ball_coords(H3, spec, 500, seed=5)
    c = sample_ball_coords(H3, spec, 500, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [1.5, 1.9, 1.0, "1"])
def test_a_seed_that_is_not_an_integer_is_refused(seed):
    # int(seed) truncated it: seeds 1.5 and 1.9 averaged exactly as seed 1
    m = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2)", "x2", "x3"])
    with pytest.raises(TypeError, match=f"seed must be an integer, got {seed!r}"):
        amenable_average(m, volume_form(H3), radii=(2.0, 4.0), samples=500, seed=seed)
    with pytest.raises(TypeError, match=f"seed must be an integer, got {seed!r}"):
        rng.stream(seed, "tag")
    draw = rng.stream(np.int64(1), "tag").random(4)
    assert np.array_equal(draw, rng.stream(1, "tag").random(4))


def test_a_sample_count_that_is_not_an_integer_is_refused():
    # numpy refused these without naming the value or the parameter
    m = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2)", "x2", "x3"])
    calls = [lambda: sample_ball_coords(H3, BallSpec(2.0), 1.5, seed=0),
             lambda: amenable_average(m, volume_form(H3), radii=(2.0, 4.0), samples=1.5, seed=1),
             lambda: qi_distortion_probe(m, pairs=2.5)]
    for call, count in zip(calls, (1.5, 1.5, 2.5)):
        with pytest.raises(TypeError, match=f"sample count must be an integer, got {count}"):
            call()
    assert sample_ball_coords(H3, BallSpec(2.0), np.int64(3), seed=0).shape == (3, 3)


def test_abelian_mean_near_zero():
    ab = algebra.abelian(1)
    count = 40000
    coords = sample_ball_coords(ab, BallSpec(1.0), count, seed=2)
    assert abs(float(np.mean(coords))) <= 3.0 / np.sqrt(count)


def test_box_volume_growth_has_homogeneous_dimension_slope():
    radii = np.array([2.0, 4.0, 8.0, 16.0])
    vols = np.array([box_volume(H3, r) for r in radii])
    slope = np.polyfit(np.log(radii), np.log(vols), 1)[0]
    assert slope == pytest.approx(H3.homogeneous_dimension, rel=0.02)


def test_quasiball_volume_growth_slope():
    # the quasiball fills the same fraction of its bounding box, whose volume
    # is exactly 2^n R^Q, at every radius: its volume grows like R^Q too
    count = 60000
    fractions = []
    for r in (2.0, 4.0, 8.0):
        box = sample_ball_coords(H3, BallSpec(r), count, seed=3)
        fractions.append(float(np.mean(homogeneous_gauge_batch(H3, box) <= r)))
    assert 0.0 < min(fractions)
    # each fraction's standard error is at most 0.5 / sqrt(count)
    assert max(fractions) - min(fractions) <= 6.0 * 0.5 / np.sqrt(count)


def test_haar_translation_invariance_monte_carlo():
    # compactly supported bump averaged over translated samples; the support
    # of the translated bump stays inside the sampling box for small g
    law = group_law(H3)
    count = 60000
    coords = sample_ball_coords(H3, BallSpec(3.0), count, seed=4)

    def bump(c):
        rho = quasi_norm_batch(H3, c)
        return np.maximum(0.0, 1.0 - rho) ** 2

    base = float(np.mean(bump(coords)))
    gen_rng = np.random.default_rng(9)
    for _ in range(3):
        g = gen_rng.uniform(-0.5, 0.5, size=3)
        translated = law.multiply_batch(g, coords)
        shifted = float(np.mean(bump(translated)))
        assert abs(shifted - base) <= 4.0 / np.sqrt(count)


def test_ball_spec_validation():
    with pytest.raises(ValueError):
        BallSpec(-1.0)
    with pytest.raises(ValueError):
        BallSpec(1.0, "sphere")


@pytest.mark.parametrize("radius", [float("nan"), float("inf")])
def test_non_finite_ball_radius_refused(radius):
    # a NaN radius passed the `radius <= 0` check and sampled a NaN cloud
    with pytest.raises(ValueError, match=f"finite, got {radius}"):
        BallSpec(radius)


@pytest.mark.parametrize("radius, message", [
    (-1.0, "positive, got -1.0"), (0.0, "positive, got 0.0"),
    (float("nan"), "finite, got nan"), (float("inf"), "finite, got inf"),
], ids=["negative", "zero", "nan", "inf"])
def test_box_volume_refuses_a_radius_that_ball_spec_refuses(radius, message):
    # box_volume(H3, -1.0) read 8.0, nan read nan and 0.0 read 0.0
    with pytest.raises(ValueError, match=f"ball radius must be {message}"):
        BallSpec(radius)
    with pytest.raises(ValueError, match=f"ball radius must be {message}"):
        box_volume(H3, radius)


@pytest.mark.parametrize("radii", [[4.0, float("inf")], [float("nan"), 4.0]])
def test_non_finite_radius_schedule_refused(radii):
    # NaN compares false, so [nan, 4] passed as increasing; inf was accepted
    with pytest.raises(ValueError, match="radii must be finite"):
        check_radii(radii)


def test_cloud_mean_stderr_survives_a_large_offset():
    # a spread of ~7e-4 on a mean of 1e6: summing raw squares cancels the
    # whole variance in float64; the answer must match a two-pass estimate
    cloud = sample_ball_coords(algebra.abelian(1), BallSpec(10.0), 20000, seed=0)

    def values(coords):
        return 1e6 + 0.001 * np.sin(coords[0])

    mean, stderr = cloud_mean(cloud, values)
    v = values(cloud)
    assert mean == pytest.approx(np.mean(v), rel=1e-15)
    assert stderr == pytest.approx(np.std(v, ddof=1) / np.sqrt(v.size), rel=1e-6)


def test_cloud_mean_of_row_blocks_equals_one_array():
    # blocks reuse one buffer: cloud_mean must reduce each before the next
    cloud = sample_ball_coords(H3, BallSpec(3.0), 20000, seed=4)  # 3 chunks, the last ragged

    def rows(coords):
        return np.stack([np.sin(k * coords[0]) + coords[1] * k + 1e3 * (k % 3) for k in range(7)])

    def blocks(coords):
        whole = rows(coords)
        buffer = np.empty(3 * coords.shape[1])
        for start in range(0, 7, 3):
            part = whole[start:start + 3]
            out = buffer[:part.size].reshape(part.shape)
            out[...] = part
            yield out

    want = cloud_mean(cloud, rows)
    got = cloud_mean(cloud, blocks)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert got[0].shape == (7,)


def test_a_basis_not_adapted_to_the_lower_central_series_is_refused():
    # the skewed H3 validated with weights (1, 1, 1) although dim g^2 = 1, and
    # the numeric layer averaged over boxes that are not Følner sets
    skew = skewed_heisenberg3()
    assert (skew.lcs, skew.weights) == ((3, 1, 0), (1, 1, 1))
    assert cohomology(skew).betti == (1, 2, 2, 1)  # the exact layer needs no adapted basis
    message = r"0 basis vector\(s\) have weight >= 2 but dim g\^2 = 1"
    ident = map_from_texts(skew, skew, ["x1", "x2", "x3"])
    refused = [
        lambda: check_adapted(skew),
        lambda: sample_ball_coords(skew, BallSpec(4.0), 10, seed=0),
        lambda: sample_ball_coords(skew, BallSpec(4.0, "quasiball"), 10, seed=0),
        lambda: box_volume(skew, 4.0),
        lambda: local_degree(ident, 2.0, (0.1, 0.2, 0.3), grid_density=2),
        lambda: area_formula_check(ident, 2.0, samples=10),
        lambda: amenable_average(ident, basis_covector(skew, 0), radii=(2.0, 4.0), samples=10),
    ]
    for call in refused:
        with pytest.raises(AlgebraError, match=message):
            call()
    for alg in corpus().values():
        assert check_adapted(alg) is alg
