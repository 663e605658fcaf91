import numpy as np
import pytest

from nilcoh import algebra, ergodic
from nilcoh.dsl import UnknownSymbolError
from nilcoh.ergodic import (
    Observable,
    convergence_report,
    derivative_entry,
    empirical_measure,
    ergodicity_probe,
    parse_observable,
)
from nilcoh.maps import act, map_from_texts, normalize_to_y0
from nilcoh.report import to_jsonable

R1 = algebra.abelian(1)
R2 = algebra.abelian(2)
H3 = algebra.heisenberg3()


def f1():
    return normalize_to_y0(map_from_texts(R1, R2, ["x1", "sin(x1)"]))


def f2():
    return normalize_to_y0(map_from_texts(R1, R2, ["x1", "abs(x1)"]))


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
    for radii in ([8.0, 4.0, 2.0], [], [0.0, 1.0], [2.0, 2.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_report(f1(), obs, radii, samples=200, seed=0)
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
    moved = act(f2(), [10.0])
    rep = convergence_report(moved, [derivative_entry(1, 2)], [2.0, 4.0, 8.0], 5000, seed=2)
    assert rep.traces[0].means == [1.0, 1.0, 1.0]
    moved = act(f2(), [-10.0])
    rep = convergence_report(moved, [derivative_entry(1, 2)], [2.0, 4.0, 8.0], 5000, seed=2)
    assert rep.traces[0].means == [-1.0, -1.0, -1.0]


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
    base = convergence_report(f1(), obs, radii, samples=60000, seed=9)
    moved = convergence_report(act(f1(), [0.7]), obs, radii, samples=60000, seed=9)
    tol = 3.0 * (base.traces[0].stderrs[-1] + moved.traces[0].stderrs[-1]) + 1e-2
    assert abs(base.traces[0].limit - moved.traces[0].limit) <= tol


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
    report still equals the convergence report of its acted map."""
    obs = [derivative_entry(1, 2), derivative_entry(1, 2, squared=True)]
    pts, radii = [0.0, 1.0, np.pi], [2.0, 4.0, 8.0]
    want = [convergence_report(act(f1(), [p]), obs, radii, samples=3000, seed=7) for p in pts]
    draws = []
    sample = ergodic.sample_ball_coords
    monkeypatch.setattr(ergodic, "sample_ball_coords",
                        lambda alg, spec, *a, **k: draws.append(spec.radius) or sample(alg, spec, *a, **k))
    probe = ergodicity_probe(f1(), obs, pts, radii, samples=3000, seed=7)
    assert draws == radii
    assert repr(probe.reports) == repr(want)
