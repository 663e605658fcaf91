import json

import numpy as np
import pytest

from nilcoh import algebra
from nilcoh.bch import group_law
from nilcoh.dsl import DomainError
from nilcoh.maps import (
    SmoothMap,
    act,
    differential,
    differential_batch,
    evaluate,
    evaluate_batch,
    is_group_homomorphism,
    load_map,
    map_from_texts,
    normalize_to_y0,
    save_map,
)

R1 = algebra.abelian(1)
R2 = algebra.abelian(2)
H3 = algebra.heisenberg3()


def f1():
    return normalize_to_y0(map_from_texts(R1, R2, ["x1", "sin(x1)"]))


def test_identity_map_evaluation():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    assert evaluate(ident, [1.0, 2.0, 3.0]).coords == (1.0, 2.0, 3.0)


def test_f1_evaluation():
    out = evaluate(f1(), [np.pi / 2])
    assert out.coords[0] == pytest.approx(np.pi / 2)
    assert out.coords[1] == pytest.approx(1.0)


def test_component_count_and_coordinate_range_validated():
    with pytest.raises(ValueError):
        map_from_texts(R1, R2, ["x1"])
    with pytest.raises(ValueError):
        map_from_texts(R1, R2, ["x1", "x2"])  # x2 beyond domain dim 1


def test_points_of_the_wrong_length_are_refused():
    # a 4th coordinate was dropped silently, a missing one raised a DomainError
    # about the map's coordinates, and differential failed inside numpy
    from nilcoh.forms import basis_covector
    from nilcoh.pullback import pullback_eval

    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    moved = act(ident, (1.0, 0.0, 0.0))
    for point in ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0]):
        message = f"points have {len(point)} coordinates, the domain has dimension 3"
        for m in (ident, moved):
            with pytest.raises(ValueError, match=message) as exc:
                evaluate(m, point)
            assert not isinstance(exc.value, DomainError)
            with pytest.raises(ValueError, match=message):
                differential(m, point)
            with pytest.raises(ValueError, match=message):
                pullback_eval(m, basis_covector(H3, 0), (0,), point)
            with pytest.raises(ValueError, match=message):
                differential_batch(m, np.zeros((len(point), 5)))


def test_domain_error_carries_point():
    m = map_from_texts(R1, R1, ["log(x1)"])
    with pytest.raises(DomainError) as exc:
        evaluate(m, [-1.0])
    assert "-1.0" in str(exc.value)


def test_differential_examples():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    for pt in ([0.0, 0.0, 0.0], [0.7, -1.3, 2.0]):
        mat = differential(ident, pt)
        assert np.allclose(mat, np.eye(3), atol=1e-12)

    mat = differential(f1(), [0.0])
    assert np.allclose(mat, [[1.0], [1.0]])

    # linear map between abelian groups: constant coordinate matrix
    a = map_from_texts(R2, R2, ["2*x1 - x2", "x1 + 3*x2"])
    for pt in ([0.0, 0.0], [5.0, -2.0]):
        assert np.allclose(differential(a, pt), [[2.0, -1.0], [1.0, 3.0]])


def test_jet_differential_matches_finite_differences_through_group_ops():
    m = map_from_texts(H3, H3, ["x1 + sin(x2)", "x2", "x3 + x1*x2/4"])
    # raw F(0) != 0: act stores a nonzero shift F(g)^-1 on a map never normalized
    shifted = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2) + 1", "x2 - 0.5", "x3 + 0.2*x1^2 + 2"])
    law = group_law(H3)
    x0 = np.array([0.4, 0.9, -1.1])
    frame = np.array(law.frame_batch(x0[:, None]))[0]
    h = 1e-6
    for m in (act(normalize_to_y0(m), [0.3, -0.2, 0.5]), act(shifted, [0.3, -0.2, 0.5])):
        _, mats = differential_batch(m, x0[:, None])
        got = mats[0]
        cols = []
        for j in range(3):
            xp = x0 + h * frame[:, j]
            xm = x0 - h * frame[:, j]
            fp = evaluate_batch(m, xp[:, None])[:, 0]
            fm = evaluate_batch(m, xm[:, None])[:, 0]
            cols.append((fp - fm) / (2 * h))
        # finite-difference pushforward expressed in the codomain frame
        val = evaluate_batch(m, x0[:, None])[:, 0]
        inv_frame = np.array(law.inv_frame_batch(val[:, None]))[0]
        fd = inv_frame @ np.stack(cols, axis=1)
        assert np.allclose(got, fd, rtol=1e-5, atol=1e-6)


def test_normalize_examples():
    shifted = map_from_texts(R1, R2, ["x1", "sin(x1) + 5"])
    norm = normalize_to_y0(shifted)
    assert evaluate(norm, [0.0]).coords == (0.0, 0.0)
    assert normalize_to_y0(norm) == norm  # idempotent

    # h3 constant left shift normalizes back to the identity pointwise
    texts = ["1 + x1", "x2", "x3 + 1/2*x2"]
    m = normalize_to_y0(map_from_texts(H3, H3, texts))
    for pt in ([0.5, -2.0, 1.25], [3.0, 1.0, -0.5]):
        assert np.allclose(evaluate(m, pt).coords, pt, atol=1e-12)


def test_act_identity_fixed():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    moved = act(ident, [0.4, 2.0, -1.0])
    pts = np.array([[0.1, 1.0], [0.2, -1.0], [0.3, 0.5]])
    assert np.allclose(evaluate_batch(moved, pts), pts, atol=1e-12)


def test_act_gives_sine_orbit_family():
    t = 0.85
    moved = act(f1(), [t])
    xs = np.array([[0.2, 1.7, -2.4]])
    got = evaluate_batch(moved, xs)
    assert np.allclose(got[0], xs[0], atol=1e-14)
    assert np.allclose(got[1], np.sin(xs[0] + t) - np.sin(t), atol=1e-12)


def test_act_on_abs_map():
    m = normalize_to_y0(map_from_texts(R1, R2, ["x1", "abs(x1)"]))
    moved = act(m, [1.0])
    xs = np.array([[0.5, -3.0]])
    got = evaluate_batch(moved, xs)
    assert np.allclose(got[1], np.abs(1.0 + xs[0]) - 1.0)


def test_action_property_against_manual_nesting():
    rng = np.random.default_rng(1)
    m = normalize_to_y0(map_from_texts(H3, H3, ["x1 + sin(x2)/2", "x2", "x3 - cos(x1)/3"]))
    law = group_law(H3)
    for _ in range(4):
        g1 = rng.uniform(-1.5, 1.5, size=3)
        g2 = rng.uniform(-1.5, 1.5, size=3)
        p = rng.uniform(-2.0, 2.0, size=3)
        composed = act(act(m, g1), g2)
        joint = act(m, np.array(law.multiply(list(g1), list(g2))))
        lhs = evaluate_batch(composed, p[:, None])[:, 0]
        rhs = evaluate_batch(joint, p[:, None])[:, 0]
        # manual nesting: psi = m.g1 evaluated twice through the group law
        psi = act(m, g1)
        at_g2 = evaluate_batch(psi, np.asarray(g2, dtype=float)[:, None])[:, 0]
        at_g2p = evaluate_batch(
            psi, np.array(law.multiply(list(g2), list(p)), dtype=float)[:, None]
        )[:, 0]
        manual = np.array(law.multiply(list(-at_g2), list(at_g2p)), dtype=float)
        assert np.allclose(lhs, rhs, atol=1e-10)
        assert np.allclose(lhs, manual, atol=1e-10)


def test_act_result_fixes_origin():
    m = normalize_to_y0(map_from_texts(H3, H3, ["x1 + sin(x2)", "x2", "x3"]))
    moved = act(m, [2.0, -1.0, 0.3])
    assert np.allclose(evaluate(moved, [0.0, 0.0, 0.0]).coords, 0.0, atol=1e-12)


def test_homomorphism_probe():
    auto = map_from_texts(H3, H3, ["2*x1", "x2", "2*x3"])
    assert is_group_homomorphism(auto)
    assert not is_group_homomorphism(f1())
    not_auto = map_from_texts(H3, H3, ["2*x1", "x2", "x3"])  # breaks the bracket scaling
    assert not is_group_homomorphism(not_auto)


def test_map_file_round_trip(tmp_path):
    m = map_from_texts(R1, R2, ["x1", "sin(x1)"])
    path = tmp_path / "f1.map.json"
    save_map(m, str(path))
    loaded = load_map(str(path))
    assert loaded.components == m.components
    assert loaded.domain.dim == 1 and loaded.codomain.dim == 2


def test_map_file_with_algebra_reference(tmp_path):
    from nilcoh.algebra import save_algebra

    save_algebra(R1, str(tmp_path / "dom.json"))
    save_algebra(R2, str(tmp_path / "cod.json"))
    record = {"domain": "dom.json", "codomain": "cod.json", "components": ["x1", "x1^2"]}
    path = tmp_path / "m.map.json"
    path.write_text(json.dumps(record))
    m = load_map(str(path))
    assert evaluate(m, [3.0]).coords == (3.0, 9.0)


def test_ill_conditioned_frame_guard():
    # bypass validation to fake non-nilpotent structure constants: the frame
    # determinant then collapses at x2 = 2 and the guard must fire
    from fractions import Fraction

    from nilcoh.algebra import LieAlgebra
    from nilcoh.maps import IllConditionedFrame

    fake = LieAlgebra(
        dim=2,
        basis_names=("e1", "e2"),
        structure={(0, 1): {0: Fraction(1)}},
        lcs=(2, 1, 0),
        weights=(1, 1),
    )
    m = map_from_texts(fake, fake, ["x1", "x2"])
    with pytest.raises(IllConditionedFrame):
        differential_batch(m, np.array([[0.0], [2.0]]))


def test_map_file_errors(tmp_path):
    path = tmp_path / "bad.map.json"
    path.write_text("{")
    with pytest.raises(ValueError, match="line 1"):
        load_map(str(path))
    path.write_text(json.dumps({"domain": {"dim": 1}, "codomain": {"dim": 1}}))
    with pytest.raises(ValueError, match="components"):
        load_map(str(path))
