import re

import numpy as np
import pytest

from test_golden import MAPS

from nilcoh import algebra, ergodic, maps
from nilcoh.bch import group_law
from nilcoh.degree import qi_distortion_probe
from nilcoh.dsl import UnknownSymbolError
from nilcoh.group import BallSpec, cloud_mean, sample_ball_coords
from nilcoh.ergodic import (
    Observable,
    amenable_norm,
    convergence_report,
    derivative_entry,
    empirical_measure,
    ergodicity_probe,
    parse_observable,
)
from nilcoh.maps import map_from_texts, normalize_to_y0
from nilcoh.report import to_jsonable

R1 = algebra.abelian(1)
R2 = algebra.abelian(2)
H3 = algebra.heisenberg3()


def f1():
    return normalize_to_y0(map_from_texts(R1, R2, ["x1", "sin(x1)"]))


def f2():
    return normalize_to_y0(map_from_texts(R1, R2, ["x1", "abs(x1)"]))


def test_an_observable_index_below_one_is_refused():
    # derivative_entry(0, 0) read D[-1][-1], mean 6.0 on this map, and a
    # coordinate observable with the default j = 0 read the last coordinate
    m = map_from_texts(H3, H3, ["2*x1", "3*x2", "6*x3"])
    (d11,) = empirical_measure(m, [derivative_entry(1, 1)], 2.0, samples=64, seed=0)
    assert d11["mean"] == 2.0
    for i, j, label, value in [(0, 0, "i", 0), (1, 0, "j", 0), (1, -1, "j", -1)]:
        with pytest.raises(ValueError, match=f"observable index {label} must be at least 1, got {value}"):
            empirical_measure(m, [derivative_entry(i, j)], 2.0, samples=64, seed=0)
    with pytest.raises(ValueError, match="observable index j must be at least 1, got 0"):
        Observable("x", "coordinate", probe=(0.5, 0.0, 0.0))
    for bad in (1.5, True):
        with pytest.raises(TypeError, match=f"observable index i must be an integer, got {bad}"):
            derivative_entry(bad, 1)
    assert parse_observable("d11 + d22", 3, 3).i == 0  # an expression reads no index


def test_an_observable_beyond_the_map_is_refused_before_sampling(monkeypatch):
    # derivative_entry(5, 5) on an R1 map drew the cloud, then raised numpy's
    # IndexError; every statistic now refuses it first, naming the index
    opened = []
    real = ergodic.rng.stream
    monkeypatch.setattr(ergodic.rng, "stream", lambda *a: opened.append(a) or real(*a))
    m = map_from_texts(R1, R1, ["x1 + sin(x1)"])
    calls = (lambda obs: empirical_measure(m, [obs], 2.0, 64, 0),
             lambda obs: convergence_report(m, [obs], [2.0, 4.0], 64, 0),
             lambda obs: ergodicity_probe(m, [obs], [(0.0,), (1.0,)], [2.0, 4.0], 64, 0),
             lambda obs: amenable_norm(m, obs, [2.0, 4.0], 64, 0))
    cases = [
        (derivative_entry(5, 5), "observable 'd55': index i = 5 exceeds the domain dimension 1"),
        (derivative_entry(1, 2), "observable 'd12': index j = 2 exceeds the codomain dimension 1"),
        (Observable("c2", "coordinate", j=2, probe=(0.5,)),
         "observable 'c2': index j = 2 exceeds the codomain dimension 1"),
        (Observable("c1", "coordinate", j=1, probe=(0.5, 1.0)), "observable 'c1': probe"),
        (Observable("c1", "coordinate", j=1, probe=(np.nan,)), "got nan in (nan,)"),
        (parse_observable("d11 + d22", 2, 2),
         "observable 'd11 + d22': entry 4 exceeds the 1 x 1 entries of the differential"),
    ]
    for obs, message in cases:
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call(obs)
            assert message in str(exc.value)
    assert opened == []
    assert empirical_measure(m, [derivative_entry(1, 1)], 2.0, 64, 0)[0]["mean"] > 0
    assert opened


def test_an_expression_parsed_for_other_dimensions_is_refused_before_sampling(monkeypatch):
    # d22 parsed for (2, 2) is entry 3 of the stack, which a 3 x 3 map reads
    # as d21: it averaged to 0.0 where the d22 of this map is 3.0
    h3 = algebra.heisenberg3()
    m = map_from_texts(h3, h3, ["2*x1", "3*x2 + 0.5*x1", "6*x3"])
    assert empirical_measure(m, [parse_observable("d22 + 0", 3, 3)], 2.0, 64, 0)[0]["mean"] == 3.0
    opened = []
    real = ergodic.rng.stream
    monkeypatch.setattr(ergodic.rng, "stream", lambda *a: opened.append(a) or real(*a))
    obs = parse_observable("d22 + 0", 2, 2)
    assert obs.dims == (2, 2)
    message = "observable 'd22 + 0' was parsed for a 2 x 2 differential, but the map's is 3 x 3"
    for call in (lambda: empirical_measure(m, [obs], 2.0, 64, 0),
                 lambda: convergence_report(m, [obs], [2.0, 4.0], 64, 0),
                 lambda: ergodicity_probe(m, [obs], [(0.0,) * 3, (1.0,) * 3], [2.0, 4.0], 64, 0),
                 lambda: amenable_norm(m, obs, [2.0, 4.0], 64, 0)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    assert opened == []


def test_observable_dims_are_a_pair_of_counts():
    assert Observable("e", "expression", dims=[2, 3]).dims == (2, 3)
    with pytest.raises(ValueError, match=r"a \(domain, codomain\) pair, got \(2,\)"):
        Observable("e", "expression", dims=(2,))
    with pytest.raises(TypeError, match="observable dims must be an integer, got True"):
        Observable("e", "expression", dims=(True, 2))


def test_an_observable_power_follows_the_integer_rule():
    for bad in (2.5, True, np.nan):
        with pytest.raises(TypeError, match=f"observable power must be an integer, got {bad}"):
            Observable("d11", "derivative", i=1, j=1, power=bad)
    assert Observable("d11", "derivative", i=1, j=1, power=3).power == 3


def test_empirical_measure_closed_forms():
    obs = [derivative_entry(1, 2), derivative_entry(1, 2, squared=True)]
    for radius in [np.pi, 2 * np.pi, 7.0]:
        rows = empirical_measure(f1(), obs, radius, samples=60000, seed=3)
        want_mean = np.sin(radius) / radius
        want_sq = 0.5 + np.sin(2 * radius) / (4 * radius)
        assert rows[0]["mean"] == pytest.approx(want_mean, abs=4 * rows[0]["stderr"])
        assert rows[1]["mean"] == pytest.approx(want_sq, abs=4 * rows[1]["stderr"])


def test_identity_map_observables_are_constant():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    obs = [derivative_entry(i + 1, j + 1) for i in range(3) for j in range(3)]
    rows = empirical_measure(ident, obs, 3.0, samples=500, seed=0)
    for row in rows:
        i, j = int(row["name"][1]), int(row["name"][2])
        assert row["mean"] == (1.0 if i == j else 0.0)
        assert row["stderr"] == 0.0


def test_parse_observable_forms():
    obs = parse_observable("d12", 1, 2)
    assert obs.kind == "derivative" and (obs.i, obs.j) == (1, 2)
    obs = parse_observable("d12sq", 1, 2)
    assert obs.power == 2
    obs = parse_observable("coord2@1.5", 1, 2)
    assert obs.kind == "coordinate" and obs.probe == (1.5,)
    obs = parse_observable("d11*d12 - 1", 1, 2)
    assert obs.kind == "expression"
    with pytest.raises(ValueError):
        parse_observable("d31", 1, 2)
    with pytest.raises(UnknownSymbolError):  # xN read the N-th dIJ slot (x1: d11)
        parse_observable("x1", 1, 2)


def test_parse_observable_refuses_ambiguous_symbols_from_dimension_ten():
    # d111 could be d(11,1) or d(1,11): it must be refused, not read as either
    for text in ("d111", "d111 + d12", "d112sq"):
        with pytest.raises(UnknownSymbolError):
            parse_observable(text, 11, 11)
    obs = parse_observable("d110 + d1111", 11, 11)  # only d(1,10) and d(11,11)
    assert [c.index for c in (obs.expr.left, obs.expr.right)] == [9, 10 * 11 + 10]
    obs = parse_observable("d111", 11, 1)  # d(1,11) does not exist here
    assert obs.expr.index == 10


def test_expression_observable_matches_components():
    m = f1()
    expr = parse_observable("d12^2", 1, 2)
    direct = derivative_entry(1, 2, squared=True)
    coords = np.linspace(-3, 3, 17)[None, :]
    a = expr.evaluate_batch(m, coords)
    b = direct.evaluate_batch(m, coords)
    assert np.allclose(a, b)


def test_coordinate_observable_tracks_translated_map():
    m = f1()
    obs = parse_observable("coord2@0.5", 1, 2)
    coords = np.array([[0.0, 1.0, -2.0]])
    got = obs.evaluate_batch(m, coords)
    want = np.sin(coords[0] + 0.5) - np.sin(coords[0])
    assert np.allclose(got, want, atol=1e-12)


def test_convergence_report_f1():
    obs = [derivative_entry(1, 2), derivative_entry(1, 2, squared=True)]
    radii = [4 * np.pi, 8 * np.pi, 16 * np.pi, 32 * np.pi]
    rep = convergence_report(f1(), obs, radii, samples=60000, seed=5)
    assert [t.verdict for t in rep.traces] == ["stable", "stable"]
    assert rep.traces[0].limit == pytest.approx(0.0, abs=1e-2)
    assert rep.traces[1].limit == pytest.approx(0.5, abs=1e-2)


def test_convergence_report_refuses_bad_radius_schedules():
    obs = [derivative_entry(1, 2)]
    for radii in ([8.0, 4.0, 2.0], [], [2.0, 2.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_report(f1(), obs, radii, samples=200, seed=0)
    with pytest.raises(ValueError, match="radii must be positive, got 0.0"):
        convergence_report(f1(), obs, [0.0, 1.0], samples=200, seed=0)
    with pytest.raises(ValueError, match="strictly increasing"):
        ergodicity_probe(f1(), obs, [0.0, 1.0], [4.0, 2.0], samples=200, seed=0)


def test_convergence_report_identity_trivial():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    rep = convergence_report(ident, [derivative_entry(1, 1)], [2.0, 4.0, 8.0], 1000, seed=1)
    tr = rep.traces[0]
    assert tr.verdict == "stable"
    assert tr.increments == [0.0, 0.0]
    assert tr.limit == 1.0


def test_f2_sign_observable_averages():
    # translate far right: sign(10 + x) is 1 on every sampled radius <= 8
    probe = ergodicity_probe(f2(), [derivative_entry(1, 2)], [10.0, -10.0], [2.0, 4.0, 8.0],
                             5000, seed=2)
    assert probe.reports[0].traces[0].means == [1.0, 1.0, 1.0]
    assert probe.reports[1].traces[0].means == [-1.0, -1.0, -1.0]


def test_ergodicity_probe_f1_consistent():
    obs = [derivative_entry(1, 2), derivative_entry(1, 2, squared=True)]
    radii = [4 * np.pi, 8 * np.pi, 16 * np.pi, 32 * np.pi]
    probe = ergodicity_probe(f1(), obs, [0.0, 1.0, np.pi], radii, samples=60000, seed=5)
    assert probe.verdict == "consistent-with-ergodic"
    assert probe.spreads["d12"] <= probe.tolerances["d12"]


def test_ergodicity_probe_f2_two_point_measure():
    probe = ergodicity_probe(
        f2(),
        [derivative_entry(1, 2), derivative_entry(1, 2, squared=True)],
        [-10.0, 10.0],
        [2.0, 4.0, 8.0],
        samples=5000,
        seed=2,
    )
    assert probe.verdict == "non-ergodic-evidence"
    assert probe.spreads["d12"] == pytest.approx(2.0, abs=1e-12)
    assert probe.spreads["d12sq"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("basepoints, distinct", [([], 0), ([1.0], 1), ([1.0, 1.0], 1)],
                         ids=["none", "one", "repeated"])
def test_ergodicity_probe_refuses_fewer_than_two_distinct_basepoints(basepoints, distinct):
    # one point gave 'consistent-with-ergodic' with spread 0.0, and none
    # raised "max() arg is an empty sequence"
    count = f"got {distinct} ({len(basepoints)} given)"
    with pytest.raises(ValueError, match=re.escape(f"at least 2 distinct basepoints, {count}")):
        ergodicity_probe(f1(), [derivative_entry(1, 2)], basepoints, [2.0, 4.0],
                         samples=200, seed=0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -0.01], ids=["nan", "inf", "negative"])
def test_orbit_averages_refuse_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # max(3 se, nan) is 3 se: a NaN tol gave verdicts under a tolerance
    # smaller than the default, and the report echoed tol NaN
    obs = [derivative_entry(1, 2)]
    message = re.escape(f"tol must be finite and nonnegative, got {tol!r}")
    with pytest.raises(ValueError, match=message):
        convergence_report(f1(), obs, [2.0, 4.0], samples=200, seed=0, tol=tol)
    with pytest.raises(ValueError, match=message):
        ergodicity_probe(f1(), obs, [0.0, 1.0], [2.0, 4.0], samples=200, seed=0, tol=tol)
    assert convergence_report(f1(), obs, [2.0, 4.0], samples=200, seed=0, tol=0.0).tol == 0.0


@pytest.mark.parametrize("m, basepoints, message", [
    (map_from_texts(H3, H3, ["x1", "x2", "x3"]), [0.0, 1.0],
     "basepoint (0.0,): a point of a dim-3 group has 3 coordinates, got 1"),
    (f1(), [(0.0, 1.0), (1.0, 0.0)],
     "basepoint (0.0, 1.0): a point of a dim-1 group has 1 coordinates, got 2"),
], ids=["scalar-on-h3", "pair-on-r1"])
def test_ergodicity_probe_refuses_basepoints_of_the_wrong_dimension(m, basepoints, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ergodicity_probe(m, [derivative_entry(1, 1)], basepoints, [2.0, 4.0], samples=200, seed=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_ergodicity_probe_refuses_non_finite_basepoints_and_probes(value):
    # each read 'consistent-with-ergodic' with spread 0.0 on a NaN or an
    # infinite basepoint, and on the NaN limits of a non-finite probe point
    m = map_from_texts(R1, R2, ["x1", "sin(x1)"])
    message = f"basepoint coordinates must be finite, got {value} in ({value},)"
    with pytest.raises(ValueError, match=re.escape(message)):
        ergodicity_probe(m, [derivative_entry(1, 2)], [0.0, value], [2.0, 4.0],
                         samples=200, seed=0)
    with pytest.raises(ValueError, match="probe coordinates must be finite"):
        parse_observable(f"coord2@{value}", 1, 2)


def test_ergodicity_probe_accepts_numpy_scalar_basepoints():
    # np.int64(0) raised "TypeError: 'numpy.int64' object is not iterable"
    obs = [derivative_entry(1, 2)]
    want = ergodicity_probe(f1(), obs, [0.0, 1.0], [2.0, 4.0], samples=200, seed=0)
    for pts in ([np.int64(0), np.int64(1)], [np.float32(0.0), 1]):
        got = ergodicity_probe(f1(), obs, pts, [2.0, 4.0], samples=200, seed=0)
        assert repr(got) == repr(want)


def test_non_finite_limits_never_read_consistent_with_ergodic():
    # exp(800*x1) overflows: the d12 limits were inf with spread NaN, the
    # coord2 limits NaN, and NaN > tol is False, so the probe passed
    m = map_from_texts(R1, R2, ["x1", "exp(800*x1)"])
    obs = [parse_observable(t, 1, 2) for t in ("d12", "coord2@0.5")]
    with np.errstate(all="ignore"):
        probe = ergodicity_probe(m, obs, [0.0, 1.0], [2.0, 4.0], samples=200, seed=0)
    assert probe.verdict == "inconclusive"
    for name in ("d12", "coord2@0.5"):
        assert f"observable {name}: a limit, spread or stderr is not finite, so the basepoints " \
               "cannot be compared" in probe.warnings
    # evidence from a finite observable still stands beside a non-finite one
    m = map_from_texts(R1, algebra.abelian(3), ["x1", "abs(x1)", "exp(800*x1)"])
    obs = [derivative_entry(1, 2), derivative_entry(1, 3)]
    with np.errstate(all="ignore"):
        probe = ergodicity_probe(m, obs, [-10.0, 10.0], [2.0, 4.0], samples=200, seed=0)
    assert probe.verdict == "non-ergodic-evidence"
    assert probe.spreads["d12"] == 2.0
    assert [w for w in probe.warnings if w.startswith("observable ")] == [
        "observable d13: a limit, spread or stderr is not finite, so the basepoints cannot be "
        "compared"]


def test_probe_means_match_a_hand_translated_cloud_on_h3():
    # the probe translates each chunk of the shared cloud by its basepoint:
    # a derivative mean is that of the whole cloud translated first, bit for
    # bit, and a coordinate mean reads F(y)^-1 . F(y . p) at y = g . x
    m = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2)", "x2 - 0.2*cos(x1)", "x3 + 0.1*x1*x2"])
    obs = [derivative_entry(2, 1), parse_observable("coord3@0.5:-0.25:1", 3, 3)]
    pts, radii, samples, seed = [(0.0, 0.0, 0.0), (1.5, -2.0, 0.75)], [2.0, 4.0], 3000, 5
    probe = ergodicity_probe(m, obs, pts, radii, samples, seed)
    law = group_law(H3)

    def h3(a, b):
        return a[0] + b[0], a[1] + b[1], a[2] + b[2] + 0.5 * (a[0] * b[1] - a[1] * b[0])

    def F(x):
        return x[0] + 0.3 * np.sin(x[1]), x[1] - 0.2 * np.cos(x[0]), x[2] + 0.1 * x[0] * x[1]

    for k, r in enumerate(radii):
        cloud = sample_ball_coords(H3, BallSpec(r, "box"), samples, seed, tags=("orbit",))
        for g, rep in zip(pts, probe.reports):
            y = law.multiply_batch(np.array(g), cloud)
            mean, _ = cloud_mean(y, lambda c: np.stack([o.evaluate_batch(m, c) for o in obs]))
            assert rep.traces[0].means[k] == mean[0]
            fy = F(h3(g, cloud))
            by_hand = h3([-v for v in fy], F(h3(h3(g, cloud), (0.5, -0.25, 1.0))))[2]
            assert rep.traces[1].means[k] == pytest.approx(np.mean(by_hand), rel=1e-12)


def test_identity_probe_consistent_everywhere():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    probe = ergodicity_probe(
        ident,
        [derivative_entry(1, 1), derivative_entry(2, 3)],
        [(0.0, 0.0, 0.0), (1.0, -1.0, 0.5)],
        [2.0, 4.0],
        samples=400,
        seed=0,
    )
    assert probe.verdict == "consistent-with-ergodic"
    assert all(v == 0.0 for v in probe.spreads.values())


def test_limits_invariant_under_action():
    obs = [derivative_entry(1, 2, squared=True)]
    radii = [8 * np.pi, 16 * np.pi, 32 * np.pi]
    base, moved = ergodicity_probe(f1(), obs, [0.0, 0.7], radii, samples=60000, seed=9).reports
    tol = 3.0 * (base.traces[0].stderrs[-1] + moved.traces[0].stderrs[-1]) + 1e-2
    assert abs(base.traces[0].limit - moved.traces[0].limit) <= tol


def test_statistics_do_not_see_a_left_translation_of_the_codomain():
    # none of these normalizes the map: the shift F(0)^-1 cancels in the
    # differential and in F(x)^-1 . F(y), so the golden shifted H3 map and
    # its normalization agree up to rounding
    m = map_from_texts(H3, H3, MAPS["h3-shifted.map.json"][2])
    obs = [parse_observable(t, 3, 3) for t in ("coord3@0.5:-0.25:1", "d11")]

    def stats(m):
        rep = convergence_report(m, obs, [2.0, 4.0], samples=2000, seed=3)
        qi = qi_distortion_probe(m, radius=4.0, pairs=500, seed=3)
        norm = amenable_norm(m, obs[0], radii=[2.0, 4.0], samples=2000, seed=3)
        return ([v for t in rep.traces for v in t.means + t.stderrs]
                + [v for k, v in qi.items() if k.startswith("ratio")]
                + [r[k] for r in norm for k in ("value", "stderr")])

    shifted, normalized = stats(m), stats(normalize_to_y0(m))
    assert normalize_to_y0(m).shift is not None
    assert np.allclose(shifted, normalized, rtol=1e-12, atol=0.0)


def test_observable_continuity_in_map_coefficients():
    eps = 1e-4
    base = map_from_texts(R1, R2, ["x1", "sin(x1)"])
    bumped = map_from_texts(R1, R2, ["x1", f"sin(x1) + {eps}*cos(x1)"])
    obs = [derivative_entry(1, 2)]
    a = empirical_measure(normalize_to_y0(base), obs, 5.0, samples=20000, seed=4)
    b = empirical_measure(normalize_to_y0(bumped), obs, 5.0, samples=20000, seed=4)
    assert abs(a[0]["mean"] - b[0]["mean"]) <= 5.0 * eps


def test_reports_are_deterministic():
    obs = [derivative_entry(1, 2)]
    kw = dict(radii=[2.0, 4.0], samples=3000, seed=12)
    rep1 = to_jsonable(convergence_report(f1(), obs, **kw).traces)
    rep2 = to_jsonable(convergence_report(f1(), obs, **kw).traces)
    assert rep1 == rep2


def test_ergodicity_probe_draws_each_radius_cloud_once(monkeypatch):
    """The cloud's stream key holds no basepoint, so one draw per radius
    serves every basepoint (it drew one per basepoint and radius), and each
    report still equals the one of its basepoint on its own."""
    obs = [derivative_entry(1, 2), derivative_entry(1, 2, squared=True)]
    pts, radii = [0.0, 1.0, np.pi], [2.0, 4.0, 8.0]
    want = [ergodic._convergence_reports(f1(), [(p,)], obs, radii, 3000, 7, "box",
                                         ergodic.DEFAULT_TOL)[0] for p in pts]
    draws = []
    sample = maps.sample_ball_coords  # the sampling loop draws every cloud
    monkeypatch.setattr(maps, "sample_ball_coords",
                        lambda alg, spec, *a, **k: draws.append(spec.radius) or sample(alg, spec, *a, **k))
    probe = ergodicity_probe(f1(), obs, pts, radii, samples=3000, seed=7)
    assert draws == radii
    assert repr(probe.reports) == repr(want)
