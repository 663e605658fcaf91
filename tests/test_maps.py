import json

import numpy as np
import pytest
from conftest import skewed_heisenberg3
from oracles import dense_poly_matrix, dense_twin, stacked_differential

from nilcoh import algebra, pullback
from nilcoh.bch import Poly, group_law
from nilcoh.dsl import DomainError
from nilcoh.maps import (
    SmoothMap,
    act,
    differential,
    differential_batch,
    differential_pattern,
    evaluate,
    evaluate_batch,
    is_group_homomorphism,
    jacobian_batch,
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
    frame = dense_poly_matrix(law.frame, list(x0[:, None]), 1)[0]
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
        inv_frame = dense_poly_matrix(law.inv_frame, list(val[:, None]), 1)[0]
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


# -- sparse frame products against the dense stacked ones ----------------------


def _nonlinear(alg, constants: bool):
    """x1 + 0.3 sin(x2), x2 + 0.1 x1^2, ..., xn + 0.2 x1 x2, with constant
    terms (F(0) != 0) when asked."""
    n = alg.dim
    texts = [f"x{i + 1}" for i in range(n)]
    texts[0] = "x1 + 0.3*sin(x2)" + (" + 1" if constants else "")
    texts[1] = "x2 + 0.1*x1^2" + (" - 0.5" if constants else "")
    texts[-1] += " + 0.2*x1*x2" + (" + 2" if constants else "")
    return map_from_texts(alg, alg, texts)


def _maps_of(alg, seed: int):
    g = np.random.default_rng(seed).uniform(-1.0, 1.0, size=alg.dim)
    yield "bare", _nonlinear(alg, False)
    yield "shifted", normalize_to_y0(_nonlinear(alg, True))
    yield "acted", act(_nonlinear(alg, True), g)


def test_sparse_frame_products_are_bitwise_the_dense_ones_on_abelian_maps():
    x_plus_sin = map_from_texts(R1, R1, ["x1 + sin(x1)"])
    z3 = map_from_texts(R2, R2, ["x1^3 - 3*x1*x2^2 + 0.1*x1", "3*x1^2*x2 - x2^3 + 0.1*x2"])
    cases = [act(f1(), [t]) for t in (0.0, 1.0, np.pi)]
    cases += [x_plus_sin, normalize_to_y0(x_plus_sin), z3, act(z3, [0.5, -1.0])]
    gen = np.random.default_rng(2)
    for m in cases:
        x = gen.uniform(-3.0, 3.0, size=(m.domain.dim, 64))
        values, jac, mats = stacked_differential(m, x)
        got_values, got_mats = differential_batch(m, x)
        _, got_jac = jacobian_batch(m, x)
        assert got_values.tobytes() == values.tobytes()
        assert np.ascontiguousarray(got_jac).tobytes() == jac.tobytes()
        assert np.ascontiguousarray(got_mats).tobytes() == mats.tobytes()


@pytest.mark.parametrize("alg", [H3, algebra.heisenberg5(), algebra.filiform(7),
                                 algebra.free_nilpotent_two_step(3), skewed_heisenberg3()],
                         ids=["h3", "h5", "filiform7", "free2step3", "skewed-h3"])
def test_sparse_frame_products_match_the_dense_ones_on_nonabelian_maps(alg):
    # the stacked @ does not add its terms in plain k order, so entries move
    # by about an ulp of the matrix
    gen = np.random.default_rng(3)
    for kind, m in _maps_of(alg, 4):
        x = gen.uniform(-3.0, 3.0, size=(alg.dim, 200))
        values, jac, mats = stacked_differential(m, x)
        got_values, got_mats = differential_batch(m, x)
        _, got_jac = jacobian_batch(m, x)
        assert got_values.tobytes() == values.tobytes(), kind
        for got, want in ((got_jac, jac), (got_mats, mats)):
            scale = np.max(np.abs(want), axis=(1, 2), keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-14 * scale), kind


def test_differentials_are_views_of_sample_last_arrays():
    m = act(_nonlinear(H3, True), [0.3, -0.2, 0.5])
    x = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 50))
    for mats in (differential_batch(m, x)[1], jacobian_batch(m, x)[1]):
        assert mats.shape == (50, 3, 3)
        assert mats.transpose(1, 2, 0).flags.c_contiguous
        assert np.shares_memory(pullback._entries(mats), mats)


def test_frame_products_on_an_abelian_law_evaluate_no_polynomial(monkeypatch):
    calls = []
    eval_float = Poly.eval_float
    monkeypatch.setattr(Poly, "eval_float", lambda p, vals: calls.append(p) or eval_float(p, vals))
    r3 = algebra.abelian(3)
    law = group_law(r3)
    x = np.random.default_rng(6).uniform(-2.0, 2.0, size=(3, 20))
    stack = np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, 3, 20))
    assert law.frame_batch(x, stack) is stack
    assert law.inv_frame_batch(x, stack) is stack
    assert law.translation_jacobian_batch(x[:, 0], x, stack) is stack
    assert law.translation_jacobian_batch(x[:, 0], x, stack, left=False) is stack
    m = map_from_texts(r3, r3, ["x1 + sin(x2)", "x2*x3", "x3"])
    _, mats = differential_batch(m, x)
    assert not calls
    assert np.array_equal(mats, jacobian_batch(m, x)[1])


def test_an_infinite_jacobian_entry_does_not_spread_through_structural_zeros():
    # the dense stacked products multiplied it by the zeros of the identity
    # frames, and 0 * inf made NaN of the whole row and column
    m = map_from_texts(R1, R2, ["x1", "sqrt(x1)"])
    with np.errstate(divide="ignore"):
        _, mats = differential_batch(m, np.array([[0.0, 4.0]]))
    assert mats.tolist() == [[[1.0], [np.inf]], [[1.0], [0.25]]]


# -- the sparsity pattern of the frame differential ----------------------------


@pytest.mark.parametrize("alg", [H3, algebra.heisenberg5(), algebra.filiform(7),
                                 algebra.free_nilpotent_two_step(3),
                                 dense_twin(algebra.heisenberg5(), np.random.default_rng(1))],
                         ids=["h3", "h5", "filiform7", "free2step3", "h5-dense-twin"])
def test_differential_is_zero_outside_its_pattern(alg):
    gen = np.random.default_rng(8)
    for kind, m in _maps_of(alg, 9):
        pattern = differential_pattern(m)
        assert pattern.shape == (alg.dim, alg.dim) and pattern.dtype == bool, kind
        assert 0 < pattern.sum() < pattern.size, kind
        x = gen.uniform(-3.0, 3.0, size=(alg.dim, 200))
        _, mats = differential_batch(m, x)
        assert not mats[:, ~pattern].any(), kind


def test_differential_pattern_between_abelian_groups():
    for m in (f1(), act(f1(), [0.7]), map_from_texts(R1, R2, ["3", "x1^2"])):
        pattern = differential_pattern(m)
        x = np.random.default_rng(9).uniform(-3.0, 3.0, size=(1, 200))
        _, mats = differential_batch(m, x)
        assert not mats[:, ~pattern].any()
    assert differential_pattern(f1()).tolist() == [[True], [True]]
    assert differential_pattern(map_from_texts(R1, R2, ["3", "x1^2"])).tolist() == [[False], [True]]
