import json
import re
import sys

import numpy as np
import pytest
from conftest import skewed_heisenberg3
from hypothesis import given, settings, strategies as st
from oracles import (dense_poly_matrix, dense_twin, edge_points, fused_differential_maps,
                     stacked_differential)
from test_dsl import expr_strategy

from nilcoh import algebra, dsl, local_degree, maps, pullback
from nilcoh.bch import GroupLaw, group_law
from nilcoh.dsl import DomainError
from nilcoh.ergodic import Observable
from nilcoh.maps import (
    SmoothMap,
    differential,
    differential_batch,
    differential_constants,
    differential_pattern,
    evaluate,
    evaluate_batch,
    is_group_homomorphism,
    jacobian_batch,
    load_map,
    map_from_texts,
    normalize_to_y0,
    save_map,
    warn_once,
)

R1 = algebra.abelian(1)
R2 = algebra.abelian(2)
H3 = algebra.heisenberg3()


def f1():
    return normalize_to_y0(map_from_texts(R1, R2, ["x1", "sin(x1)"]))


def test_identity_map_evaluation():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    assert evaluate(ident, [1.0, 2.0, 3.0]) == (1.0, 2.0, 3.0)


def test_f1_evaluation():
    assert evaluate(f1(), [np.pi / 2]) == pytest.approx((np.pi / 2, 1.0))


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
    shifted = SmoothMap(H3, H3, ident.components, shift=(1.0, 0.0, 0.0))
    for point in ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0]):
        message = f"a point of a dim-3 group has 3 coordinates, got {len(point)}"
        for m in (ident, shifted):
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


def test_only_an_error_at_the_point_names_the_point():
    # a constant that overflows is no fault of the point, but evaluate said
    # "... at point (1.0)"
    m = map_from_texts(R1, R1, ["x1 + 10^400"])
    for call in (lambda: evaluate(m, [1.0]), lambda: differential(m, [2.0])):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == "constant power 10.0^400 overflows a float"
        assert exc.value.coords is None


def test_normalization_names_the_origin_where_the_map_is_undefined():
    # the calls that normalize a map evaluate F at the origin; a DomainError
    # there reached them as the tape's bare message, with no point
    m = map_from_texts(R1, R1, ["log(x1^2 - 1)"])
    want = "normalizing the map to F(0) = 0: log of a nonpositive value at point (0.0)"
    for call in (lambda: normalize_to_y0(m), lambda: local_degree(m, 0.5, (0.0,))):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == want
        assert exc.value.coords == (0.0,)


def test_a_shift_that_is_not_finite_is_refused():
    # SmoothMap took shift=(nan,), and every value of the map was then NaN;
    # x1 + exp(800) normalized to the shift (-inf,) without a word
    comps = map_from_texts(R1, R1, ["x1"]).components
    for bad, shown in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")):
        with pytest.raises(ValueError, match=f"shift coordinates must be finite, got {shown} in"):
            SmoothMap(R1, R1, comps, shift=(bad,))
    with pytest.raises(ValueError, match="shift"):
        SmoothMap(R1, R1, comps, shift=(0.0, 1.0))
    assert evaluate(SmoothMap(R1, R1, comps, shift=(2.0,)), (1.0,)) == (3.0,)
    m = map_from_texts(R1, R1, ["x1 + exp(800)"])
    with np.errstate(over="ignore"):
        for call in (lambda: normalize_to_y0(m), lambda: local_degree(m, 0.5, (0.0,))):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == ("normalizing the map to F(0) = 0: F(0) coordinates must "
                                      "be finite, got inf in (inf,)")


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
    # raw F(0) != 0: the map as it is, and normalized with a nonzero shift F(0)^-1
    shifted = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2) + 1", "x2 - 0.5", "x3 + 0.2*x1^2 + 2"])
    law = group_law(H3)
    x0 = np.array([0.4, 0.9, -1.1])
    frame = dense_poly_matrix(law.frame, list(x0[:, None]), 1)[0]
    h = 1e-6
    for m in (normalize_to_y0(m), shifted, normalize_to_y0(shifted)):
        mats = differential_batch(m, x0[:, None])
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
    assert evaluate(norm, [0.0]) == (0.0, 0.0)
    assert normalize_to_y0(norm) == norm  # idempotent

    # h3 constant left shift normalizes back to the identity pointwise
    texts = ["1 + x1", "x2", "x3 + 1/2*x2"]
    m = normalize_to_y0(map_from_texts(H3, H3, texts))
    for pt in ([0.5, -2.0, 1.25], [3.0, 1.0, -0.5]):
        assert evaluate(m, pt) == pytest.approx(tuple(pt), abs=1e-12)


def _translate(m, g, xs):
    """The right translate x -> F(g)^-1 . F(g . x) at the columns of xs, read
    through the orbit's coordinate observables F(y)^-1 . F(y . p) at y = g."""
    y = np.asarray(g, dtype=float)[:, None]
    return np.array([[Observable("c", "coordinate", j=j + 1, probe=tuple(x)).evaluate_batch(m, y)[0]
                      for x in xs.T] for j in range(m.codomain.dim)])


def test_act_identity_fixed():
    ident = map_from_texts(H3, H3, ["x1", "x2", "x3"])
    pts = np.array([[0.1, 1.0], [0.2, -1.0], [0.3, 0.5]])
    assert np.allclose(_translate(ident, [0.4, 2.0, -1.0], pts), pts, atol=1e-12)


def test_act_gives_sine_orbit_family():
    t = 0.85
    xs = np.array([[0.2, 1.7, -2.4]])
    got = _translate(f1(), [t], xs)
    assert np.allclose(got[0], xs[0], atol=1e-14)
    assert np.allclose(got[1], np.sin(xs[0] + t) - np.sin(t), atol=1e-12)


def test_act_on_abs_map():
    m = normalize_to_y0(map_from_texts(R1, R2, ["x1", "abs(x1)"]))
    xs = np.array([[0.5, -3.0]])
    got = _translate(m, [1.0], xs)
    assert np.allclose(got[1], np.abs(1.0 + xs[0]) - 1.0)


def test_act_result_fixes_origin():
    m = normalize_to_y0(map_from_texts(H3, H3, ["x1 + sin(x2)", "x2", "x3"]))
    got = _translate(m, [2.0, -1.0, 0.3], np.zeros((3, 1)))
    assert got[:, 0] == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_homomorphism_probe():
    auto = map_from_texts(H3, H3, ["2*x1", "x2", "2*x3"])
    assert is_group_homomorphism(auto)
    assert not is_group_homomorphism(f1())
    not_auto = map_from_texts(H3, H3, ["2*x1", "x2", "x3"])  # breaks the bracket scaling
    assert not is_group_homomorphism(not_auto)


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 0}, "trials must be at least 1, got 0"),
    ({"trials": -2}, "trials must be at least 1, got -2"),
    ({"tol": float("nan")}, "tol must be finite and nonnegative, got nan"),
    ({"tol": -1e-9}, "tol must be finite and nonnegative, got -1e-09"),
    ({"tol": float("inf")}, "tol must be finite and nonnegative, got inf"),
], ids=["no-trials", "negative-trials", "nan-tol", "negative-tol", "inf-tol"])
def test_homomorphism_probe_refuses_no_trials_and_a_nan_or_negative_tolerance(kwargs, message):
    # trials=0 passed every map without a trial, and tol=nan or tol=inf
    # passed every map because |lhs - rhs| > nan (or > inf) is always False
    wavy = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2)", "x2", "x3"])
    assert not is_group_homomorphism(wavy)
    with pytest.raises(ValueError, match=re.escape(message)):
        is_group_homomorphism(wavy, **kwargs)


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
    assert evaluate(m, [3.0]) == (3.0, 9.0)


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


def _maps_of(alg):
    yield "bare", _nonlinear(alg, False)
    yield "shifted", normalize_to_y0(_nonlinear(alg, True))


def test_sparse_frame_products_are_bitwise_the_dense_ones_on_abelian_maps():
    x_plus_sin = map_from_texts(R1, R1, ["x1 + sin(x1)"])
    z3 = map_from_texts(R2, R2, ["x1^3 - 3*x1*x2^2 + 0.1*x1", "3*x1^2*x2 - x2^3 + 0.1*x2"])
    # calls under +, - and negation, whose values the differential skips
    calls = map_from_texts(R2, R2, ["-cos(x1) + exp(x2)", "x2 - sin(x1)*x2 - tanh(x1 - x2)"])
    # and a constant's sum and difference with a call
    consts = map_from_texts(R1, R2, ["1 + sin(x1)", "2 - cos(x1)"])
    cases = [f1(), x_plus_sin, normalize_to_y0(x_plus_sin), z3]
    cases += [calls, normalize_to_y0(calls), consts, normalize_to_y0(consts)]
    gen = np.random.default_rng(2)
    for m in cases:
        x = gen.uniform(-3.0, 3.0, size=(m.domain.dim, 64))
        values, jac, mats = stacked_differential(m, x)
        got_mats = differential_batch(m, x)
        _, got_jac = jacobian_batch(m, x)
        assert evaluate_batch(m, x).tobytes() == values.tobytes()
        assert np.ascontiguousarray(got_jac).tobytes() == jac.tobytes()
        assert np.ascontiguousarray(got_mats).tobytes() == mats.tobytes()


@pytest.mark.parametrize("alg", [H3, algebra.heisenberg5(), algebra.filiform(7),
                                 algebra.free_nilpotent_two_step(3), skewed_heisenberg3()],
                         ids=["h3", "h5", "filiform7", "free2step3", "skewed-h3"])
def test_sparse_frame_products_match_the_dense_ones_on_nonabelian_maps(alg):
    # the stacked @ does not add its terms in plain k order, so entries move
    # by about an ulp of the matrix
    gen = np.random.default_rng(3)
    for kind, m in _maps_of(alg):
        x = gen.uniform(-3.0, 3.0, size=(alg.dim, 200))
        values, jac, mats = stacked_differential(m, x)
        got_mats = differential_batch(m, x)
        _, got_jac = jacobian_batch(m, x)
        assert evaluate_batch(m, x).tobytes() == values.tobytes(), kind
        for got, want in ((got_jac, jac), (got_mats, mats)):
            scale = np.max(np.abs(want), axis=(1, 2), keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-14 * scale), kind


NONABELIAN = pytest.mark.parametrize(
    "alg", [H3, algebra.heisenberg5(), algebra.filiform(7), algebra.free_nilpotent_two_step(3),
            skewed_heisenberg3()],
    ids=["h3", "h5", "filiform7", "free2step3", "skewed-h3"])


@NONABELIAN
def test_differential_is_bitwise_invariant_under_shifts_and_actions(alg):
    # left translations preserve the frames: D of s . F(x) is D of F at x,
    # which the translation Jacobian of the shift reproduced only up to
    # rounding (8.9e-16 relative on filiform7); a right translate reads it at
    # the moved points g . x
    gen = np.random.default_rng(12)
    m = _nonlinear(alg, True)  # F(0) != 0
    x = gen.uniform(-3.0, 3.0, size=(alg.dim, 200))
    s = tuple(gen.uniform(-2.0, 2.0, size=alg.dim))
    g = gen.uniform(-1.0, 1.0, size=alg.dim)
    for points in (x, group_law(alg).multiply_batch(g, x)):
        want = differential_batch(m, points)
        for shifted in (normalize_to_y0(m), SmoothMap(alg, alg, m.components, shift=s)):
            got = differential_batch(shifted, points)
            assert got.tobytes() == want.tobytes()
            values = stacked_differential(shifted, points)[0]
            assert evaluate_batch(shifted, points).tobytes() == values.tobytes()


def _full_differential(m, x, warn=None):
    """The frame products of ``differential_batch`` on a tape run that
    computes every value, as it ran before unread values were skipped and
    before the partials and both products became one generated function."""
    law_cod, law_dom = group_law(m.codomain), group_law(m.domain)
    values = np.empty((m.codomain.dim, x.shape[1]))
    jac = np.empty((m.codomain.dim, m.domain.dim, x.shape[1]))
    dsl.evaluate(m.tape, list(x), values, warn, jac)
    return law_dom.frame_batch(x, law_cod.inv_frame_batch(values, jac)).transpose(2, 0, 1)


# and a map whose constant component the inverse frame reads (F2 = 3 on H3)
FUSED = fused_differential_maps() + [("h3-constant", map_from_texts(H3, H3, ["x1", "3", "x3"]))]


@pytest.mark.parametrize("m", [m for _, m in FUSED], ids=[name for name, _ in FUSED])
def test_fused_differential_is_bytewise_the_frame_products(m):
    # the generated function drops only terms that move no bit: zero signs
    # and NaN bits included, at seeded points and where each coordinate is
    # +-0, +-inf, NaN, +-1e200 or +-1e-310
    gen = np.random.default_rng(21)
    n = m.domain.dim
    x = np.concatenate([gen.uniform(-4.0, 4.0, size=(n, 300)), edge_points(n, gen)], axis=1)
    with np.errstate(all="ignore"):
        got, want = differential_batch(m, x), _full_differential(m, x)
    assert got.tobytes() == want.tobytes()


def _outcome(batch, m, x):
    """The bytes of ``batch``'s matrices, or its DomainError and sample, and
    the warnings heard."""
    sink: list[str] = []
    try:
        with np.errstate(all="ignore"):
            return batch(m, x, warn_once(sink)).tobytes(), sink
    except DomainError as e:
        return (str(e), e.sample_index), sink


@settings(max_examples=150, deadline=None)
@given(exprs=st.lists(expr_strategy(), min_size=5, max_size=5), h5=st.booleans())
def test_fused_differential_is_the_frame_products_on_random_maps(exprs, h5):
    alg = algebra.heisenberg5() if h5 else H3
    m = SmoothMap(alg, alg, tuple(exprs[:alg.dim]))
    gen = np.random.default_rng(22)
    x = gen.uniform(-3.0, 3.0, size=(alg.dim, 40))
    x[:2, :9] = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 1e-310, -1e-310])
    x[1, :9] = x[1, 8::-1]
    assert _outcome(differential_batch, m, x) == _outcome(_full_differential, m, x)


def test_maps_on_equal_algebras_share_one_fused_function(monkeypatch):
    # every `nilcoh repro` step reloads its algebras and maps from JSON: the
    # function is keyed by the trees, n and the frames' patterns, not by the
    # objects, so the second algebra generates nothing
    monkeypatch.setattr(dsl, "_RUNS", {})
    generated = []
    real = dsl._generate_differential
    monkeypatch.setattr(dsl, "_generate_differential",
                        lambda *args: generated.append(args) or real(*args))
    texts = ["x1 + 0.3*sin(x2)", "x2", "x3 + 0.2*x1^2"]
    x = np.random.default_rng(23).uniform(-2.0, 2.0, size=(3, 30))
    first, second = (map_from_texts(alg, alg, texts)
                     for alg in (algebra.heisenberg3(), algebra.heisenberg3()))
    assert group_law(first.domain) is not group_law(second.domain)
    assert differential_batch(first, x).tobytes() == differential_batch(second, x).tobytes()
    assert len(generated) == 1
    assert [key[0] for key in dsl._RUNS].count("differential") == 1


def test_the_differential_skips_the_unread_sine(value_calls):
    # the abelian inverse frame reads no coordinate of F(x), so sin(x1)'s
    # value was computed for nothing, and then shifted for nothing
    m = normalize_to_y0(map_from_texts(R1, R2, ["x1", "sin(x1) + 1"]))
    assert m.shift is not None
    assert value_calls["sin"] == 1  # F(0) for the normalization
    x = np.random.default_rng(14).uniform(-3.0, 3.0, size=(1, 64))
    mats = differential_batch(m, x)
    differential(m, [0.2])
    assert value_calls["sin"] == 1
    evaluate_batch(m, x)
    jacobian_batch(m, x)
    assert value_calls["sin"] == 3
    assert mats.tobytes() == _full_differential(m, x).tobytes()


def test_a_constant_factor_does_not_force_its_operands_value(value_calls):
    # the H3 inverse frame reads F1 and F2, not F3: the sine of
    # x3 + 0.2*sin(x1) was evaluated for every differential, as an operand
    # of *, although the partials of 0.2*sin(x1) read only cos(x1)
    m = map_from_texts(H3, H3, ["x1 + 0.3*sin(x2)", "x2", "x3 + 0.2*sin(x1)"])
    x = np.random.default_rng(16).uniform(-3.0, 3.0, size=(3, 64))
    mats = differential_batch(m, x)
    assert value_calls["sin"] == 1  # sin(x2), read through F1
    assert mats.tobytes() == _full_differential(m, x).tobytes()
    assert value_calls["sin"] == 3


def test_dead_jacobian_entries_stay_exact_zeros_on_overflow():
    # x1*exp(800*x2) at x2 = 0.95: the dense jets added 0 * inf = NaN for the
    # partial d/dx2 of the factor x1 and for d/dx3 of both factors, so row 0
    # read [inf, nan, nan] in the Jacobian and [nan, nan, nan] in D, although
    # differential_pattern marks D[0, 2] dead
    m = map_from_texts(H3, H3, ["x1*exp(800*x2)", "x2", "x3"])
    assert not differential_pattern(m)[0, 2]
    x = np.array([[0.3], [0.95], [0.2]])
    with np.errstate(over="ignore", invalid="ignore"):
        _, jac = jacobian_batch(m, x)
        mats = differential_batch(m, x)
    assert jac[0, 0].tolist() == [np.inf, np.inf, 0.0]
    assert mats[0, 0].tolist() == [np.inf, np.inf, 0.0]
    assert not np.signbit(jac[0, 0, 2]) and not np.signbit(mats[0, 0, 2])


def test_skipped_values_do_not_move_the_differential():
    # calls in read and unread components: bitwise the frame products of a
    # full-value run, and as close to the dense ones as any map (abelian
    # maps: test_sparse_frame_products_are_bitwise_the_dense_ones_on_abelian_maps)
    gen = np.random.default_rng(15)
    h5 = algebra.heisenberg5()
    for alg, texts in (
            (H3, ["x1 + 0.3*sin(x2)", "x2 - cos(x1)", "x3 + 0.2*sin(x1)"]),
            (H3, ["-exp(x1/4) + x2", "x2 + abs(x3)", "-(x3 - sqrt(x1^2 + 1))"]),
            (H3, ["x1", "x2", "1 + sin(x1) + (2 - cos(x2)) + x3"]),
            (h5, ["x1 + 0.3*sin(x2)", "x2", "x3 + 0.2*sin(x4)", "x4 - tanh(x1)",
                  "x5 + 0.2*x1*x3 - cos(x2)"])):
        base = map_from_texts(alg, alg, texts)
        for m in (base, normalize_to_y0(base)):
            x = gen.uniform(-3.0, 3.0, size=(alg.dim, 100))
            got = differential_batch(m, x)
            assert got.tobytes() == _full_differential(m, x).tobytes()
            want = stacked_differential(m, x)[2]
            scale = np.max(np.abs(want), axis=(1, 2), keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_an_overflowing_call_keeps_its_exact_zero_partials():
    # exp(800*x2) overflows at x2 = 0.95, and its partials were inf times
    # (0, 800, 0): row 0 of the Jacobian read [nan, inf, nan]
    m = map_from_texts(H3, H3, ["x1 + exp(800*x2)", "x2", "x3"])
    x = np.array([[0.3, -1.0], [0.95, 0.5], [0.2, 2.0]])
    with np.errstate(over="ignore", invalid="ignore"):  # D[2, 1] adds inf and -inf
        _, jac = jacobian_batch(m, x)
        mats = differential_batch(m, x)
    assert jac[0].tolist() == [[1.0, np.inf, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert jac[1].tolist() == [[1.0, np.exp(400.0) * 800.0, 0.0], [0.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0]]
    assert mats[0, 0].tolist() == [1.0, np.inf, 0.0]
    # the inverse frame's entry -F1/2 = -inf met the exact zeros of Jacobian
    # row 0 as 0 * inf, and row 2 of D read [nan, nan, nan]
    assert mats[0, 2, 0] == 0.0 and np.isnan(mats[0, 2, 1]) and mats[0, 2, 2] == 1.0


@pytest.mark.parametrize("alg, texts, index", [
    (R2, ["x1 + log(x2)", "x2"], 4),
    (R2, ["x1", "-sqrt(x1) + x2"], 5),
    (R2, ["x1", "x2 - 1/x1"], 4),
    (R2, ["x1", "x2 + x1^-2"], 4),
    (R2, ["x1", "x2 + 10^400"], None),
    (H3, ["x1", "x2", "x3 + log(x2)"], 4),
    (H3, ["x1", "x2", "-(sqrt(x1) - x3)"], 5),
    (H3, ["x1", "x2", "x3 - x2/x1"], 4),
    (H3, ["x1", "x2", "x3 + 2*x1^-3"], 4),
    (H3, ["x1", "x2", "x3 - 10^400"], None),
], ids=["r2-log", "r2-sqrt", "r2-div", "r2-pow", "r2-const", "h3-log", "h3-sqrt", "h3-div",
        "h3-pow", "h3-const"])
def test_unread_components_raise_as_the_jacobian_does(alg, texts, index):
    # the partials-only steps run every domain check of a full run, in order
    m = map_from_texts(alg, alg, texts)
    x = np.full((alg.dim, 6), 0.5)
    x[:, 4] = [0.0, -1.0, 0.0][:alg.dim]
    x[:, 5] = [-1.0, 0.0, 0.0][:alg.dim]
    errors = []
    for batch in (differential_batch, jacobian_batch):
        with pytest.raises(DomainError) as exc:
            batch(m, x)
        errors.append((str(exc.value), exc.value.sample_index))
    assert errors[0] == errors[1]
    assert errors[0][1] == index


def test_unread_components_warn_at_the_abs_kink_as_the_jacobian_does():
    x = np.array([[0.0, 1.0, 1e-12], [2.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
    for alg, texts in ((R2, ["x1 - abs(x2)", "abs(x1) + x2"]),
                       (H3, ["x1", "x2", "x3 + abs(x1)*2 - abs(x2)"])):
        m = map_from_texts(alg, alg, texts)
        heard = []
        for batch in (differential_batch, jacobian_batch):
            sink: list[str] = []
            batch(m, x[:alg.dim], warn_once(sink))
            heard.append(sink)
        assert heard[0] == heard[1] != []


@NONABELIAN
def test_differential_pattern_ignores_shifts_and_actions(alg):
    # the translation Jacobians entered the pattern: on filiform7 a right
    # translate's added an entry to that of a map that never reads x2; it
    # reads the differential at the moved points g . x, inside the pattern
    texts = [f"x{i + 1}" for i in range(alg.dim)]
    texts[1] = f"x{alg.dim - 2} + 0.5"
    x = np.random.default_rng(10).uniform(-3.0, 3.0, size=(alg.dim, 50))
    moved = group_law(alg).multiply_batch(np.full(alg.dim, 0.5), x)
    for m in (_nonlinear(alg, True), map_from_texts(alg, alg, texts)):
        want = differential_pattern(m)
        assert np.array_equal(differential_pattern(normalize_to_y0(m)), want)
        assert not differential_batch(m, moved)[:, ~want].any()


def test_differential_of_an_acted_shifted_map_uses_no_translation_jacobian(monkeypatch):
    calls = []
    jac = GroupLaw.translation_jacobian_batch
    monkeypatch.setattr(GroupLaw, "translation_jacobian_batch",
                        lambda *a, **k: calls.append(1) or jac(*a, **k))
    h5 = algebra.heisenberg5()
    m = normalize_to_y0(_nonlinear(h5, True))
    assert m.shift is not None
    x = np.random.default_rng(13).uniform(-2.0, 2.0, size=(5, 40))
    moved = group_law(h5).multiply_batch(np.array([0.3, -0.2, 0.5, 1.0, -1.5]), x)
    differential_batch(m, moved)
    differential(m, moved[:, 0])
    assert not calls
    jacobian_batch(m, x)  # Newton's coordinate Jacobian does need the shift's
    assert len(calls) == 1


def test_differentials_are_views_of_sample_last_arrays():
    m = normalize_to_y0(_nonlinear(H3, True))
    x = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 50))
    for mats in (differential_batch(m, x), jacobian_batch(m, x)[1]):
        assert mats.shape == (50, 3, 3)
        assert mats.transpose(1, 2, 0).flags.c_contiguous
        assert np.shares_memory(pullback._entries(mats), mats)


@pytest.mark.parametrize("texts", [["x1 + 0.3*sin(x2)", "x2", "x3 + 0.2*x1^2"],
                                   ["x1 + exp(800*x2)", "x2", "x3"]])
def test_differential_batch_writes_into_the_given_buffers(texts):
    # a chunk loop passes one buffer sized for its chunk, the last chunk may
    # be shorter, and the bytes must be those of the allocating call
    m = map_from_texts(H3, H3, texts)
    x = np.random.default_rng(3).uniform(-2.0, 2.0, size=(3, 100))
    out = np.empty(3 * 3 * 100)
    with np.errstate(over="ignore", invalid="ignore"):
        for count in (100, 37):
            mats = differential_batch(m, x[:, :count], out=out)
            assert np.shares_memory(mats, out[:3 * 3 * count])
            assert mats.tobytes() == differential_batch(m, x[:, :count]).tobytes()


def test_frame_products_run_in_place_on_the_tapes_jacobian(monkeypatch):
    # the shift's translation product overwrites the Jacobian the tape wrote
    # for this call instead of allocating and filling a new stack; the frame
    # differential needs no tape Jacobian at all: one generated function
    # writes D into the array it returns a view of, without running the
    # tape or a frame product
    jacs, products = [], []
    evaluate = maps._evaluate

    def recorded(*args, **kwargs):
        values, jac = evaluate(*args, **kwargs)
        jacs.append(jac)
        return values, jac

    monkeypatch.setattr(maps, "_evaluate", recorded)
    for name in ("frame_batch", "inv_frame_batch"):
        method = getattr(GroupLaw, name)
        monkeypatch.setattr(GroupLaw, name, lambda *a, _m=method, _n=name, **k:
                            products.append(_n) or _m(*a, **k))
    skew = skewed_heisenberg3()
    x = np.random.default_rng(9).uniform(-2.0, 2.0, size=(3, 50))
    for m in (_nonlinear(H3, True), map_from_texts(skew, skew, ["x1 + 1", "x2", "x3 + x1*x2"])):
        m = normalize_to_y0(m)
        assert m.shift is not None
        jacs.clear()
        mats = differential_batch(m, x)
        assert mats.base.flags.owndata and mats.base.shape == (3, 3, 50)
        assert not jacs and not products
        assert jacobian_batch(m, x)[1].base is jacs[-1] is not None


def test_frame_products_on_an_abelian_law_evaluate_no_polynomial(monkeypatch):
    callers = []
    evaluate = dsl.evaluate

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(dsl, "evaluate", counted)
    x = np.random.default_rng(6).uniform(-2.0, 2.0, size=(3, 20))
    stack = np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, 3, 20))
    for alg, tapes in ((algebra.heisenberg3(), 3), (algebra.abelian(3), 0)):
        callers.clear()
        law = group_law(alg)
        assert law.frame_batch(x, stack) is stack
        assert law.inv_frame_batch(x, stack) is stack
        assert law.translation_jacobian_batch(x[:, 0], x, stack) is stack
        assert callers.count("nilcoh.bch") == tapes == len(callers)
    # the frame differential runs no tape through ``evaluate``, and on
    # abelian laws its function evaluates no frame entry: D is J_F
    r3 = algebra.abelian(3)
    m = map_from_texts(r3, r3, ["x1 + sin(x2)", "x2*x3", "x3"])
    callers.clear()
    mats = differential_batch(m, x)
    assert not callers
    run, _ = dsl.differential(m.tape, 3, group_law(r3).inv_frame_pattern,
                              group_law(r3).frame_pattern)
    assert "_finite" not in run.__code__.co_names
    assert np.array_equal(mats, jacobian_batch(m, x)[1])


def test_an_infinite_jacobian_entry_does_not_spread_through_structural_zeros():
    # the dense stacked products multiplied it by the zeros of the identity
    # frames, and 0 * inf made NaN of the whole row and column
    m = map_from_texts(R1, R2, ["x1", "sqrt(x1)"])
    with np.errstate(divide="ignore"):
        mats = differential_batch(m, np.array([[0.0, 4.0]]))
    assert mats.tolist() == [[[1.0], [np.inf]], [[1.0], [0.25]]]


# -- the sparsity pattern of the frame differential ----------------------------


@pytest.mark.parametrize("alg", [H3, algebra.heisenberg5(), algebra.filiform(7),
                                 algebra.free_nilpotent_two_step(3),
                                 dense_twin(algebra.heisenberg5(), np.random.default_rng(1))],
                         ids=["h3", "h5", "filiform7", "free2step3", "h5-dense-twin"])
def test_differential_is_zero_outside_its_pattern(alg):
    gen = np.random.default_rng(8)
    for kind, m in _maps_of(alg):
        pattern = differential_pattern(m)
        assert pattern.shape == (alg.dim, alg.dim) and pattern.dtype == bool, kind
        assert 0 < pattern.sum() < pattern.size, kind
        x = gen.uniform(-3.0, 3.0, size=(alg.dim, 200))
        mats = differential_batch(m, x)
        assert not mats[:, ~pattern].any(), kind


def test_differential_pattern_between_abelian_groups():
    for m in (f1(), normalize_to_y0(map_from_texts(R1, R2, ["3", "x1^2"]))):
        pattern = differential_pattern(m)
        x = np.random.default_rng(9).uniform(-3.0, 3.0, size=(1, 200))
        mats = differential_batch(m, x)
        assert not mats[:, ~pattern].any()
    assert differential_pattern(f1()).tolist() == [[True], [True]]
    assert differential_pattern(map_from_texts(R1, R2, ["3", "x1^2"])).tolist() == [[False], [True]]


def test_constant_entries_hold_their_constant_at_every_point():
    # a constant is a literal or a bound float that the generated function
    # writes into its entry of D: the same bits at every point, edges included
    gen = np.random.default_rng(31)
    seen = {}
    for name, m in fused_differential_maps():
        n = m.domain.dim
        x = np.concatenate([gen.uniform(-4.0, 4.0, size=(n, 300)), edge_points(n, gen)], axis=1)
        with np.errstate(all="ignore"):
            mats = differential_batch(m, x)
        constants = differential_constants(m)
        for (a, j), c in constants.items():
            assert mats[:, a, j].tobytes() == np.full(x.shape[1], c).tobytes(), name
        seen[name] = len(constants)
    # of the average maps' 9 and 25 entries, the diagonal's 1.0 and the zeros
    assert seen["average-h3"] == 6 and seen["average-h5"] == 19
    assert differential_constants(fused_differential_maps()[2][1]) == {
        (0, 0): 2.0, (0, 1): 0.0, (0, 2): 0.0, (1, 0): 0.0, (1, 1): 1.0, (1, 2): 0.0, (2, 2): 2.0}


def test_constants_are_those_of_the_text_not_of_the_shift():
    # a float of the map's text is a constant of D; the shift never enters it
    m = map_from_texts(H3, H3, ["x1 + 0.3*x2 + 1", "x2", "x3 - 0.5"])
    want = {(0, 0): 1.0, (0, 1): 0.3, (0, 2): 0.0, (1, 0): 0.0, (1, 1): 1.0, (1, 2): 0.0,
            (2, 2): 1.0}
    assert differential_constants(m) == want
    assert differential_constants(normalize_to_y0(m)) == want
    # a constant computed at run time, as exp(800), is no constant of the plan
    assert (0, 1) not in differential_constants(map_from_texts(H3, H3, ["x1 + exp(800)*x2",
                                                                        "x2", "x3"]))


@pytest.mark.parametrize("text", ["x1/(1 + x1^2)", "3/x1"])
def test_jet_values_of_a_quotient_are_its_float_values(text):
    # the jets computed a/b as a·(1/b), 1 ulp off at 28% and 31% of these points,
    # so Newton's residual and its line search read different values
    m = map_from_texts(R1, R1, [text])
    x = np.random.default_rng(11).uniform(-4.0, 4.0, size=(1, 10 ** 5))
    assert jacobian_batch(m, x)[0].tobytes() == evaluate_batch(m, x).tobytes()
