import builtins
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import Jet, product_power, walk
from test_golden import MAPS

from nilcoh import algebra, dsl, pullback
from nilcoh.dsl import (
    ArityError,
    Bin,
    Call,
    Coord,
    DomainError,
    Neg,
    Num,
    ParseError,
    PiConst,
    Pow,
    UnknownSymbolError,
    evaluate,
    parse,
    pretty,
)
from nilcoh.maps import jacobian_batch, map_from_texts, normalize_to_y0


def run(exprs, env, warn=None, jets=False):
    """Values (m, N) of a tape run, and with ``jets`` the Jacobian (m, n, N)."""
    tape = dsl.compile(exprs)
    count = len(env[0]) if env else 1
    values = np.empty((len(tape.components), count))
    jac = np.empty((len(tape.components), len(env), count)) if jets else None
    evaluate(tape, env, values, warn, jac)
    return values, jac


def ev(text, *vals):
    return float(run([parse(text)], [np.array([v]) for v in vals])[0][0, 0])


def test_arithmetic_spec_examples():
    assert ev("x1 + 2*x2", 1.0, 3.0) == 7.0
    assert ev("sin(x1)^2 + cos(x1)^2", 0.37) == pytest.approx(1.0, abs=1e-12)


def test_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse("x1 +")
    assert exc.value.position == 5

    with pytest.raises(ParseError) as exc:
        parse("(x1")
    assert exc.value.expected == (")",)


def test_unknown_symbol_and_arity_errors():
    with pytest.raises(UnknownSymbolError):
        parse("frob(x1)")
    with pytest.raises(UnknownSymbolError):
        parse("x0")  # coordinates are 1-based
    with pytest.raises(ArityError):
        parse("sin(x1, x2)")
    with pytest.raises(ArityError):
        parse("sin + 1")


def test_exponent_grammar():
    assert ev("x1^3", 2.0) == 8.0
    assert ev("x1^-2", 2.0) == 0.25
    assert ev("x1^2^3", 2.0) == 2.0 ** 8  # right-associative fold
    with pytest.raises(ParseError):
        parse("x1^x2")
    with pytest.raises(ParseError):
        parse("x1^2.5")


def test_precedence():
    assert ev("2 + 3*4", ) == 14.0
    assert ev("-2^2") == -4.0          # unary minus binds looser than ^
    assert ev("2*-3") == -6.0
    assert ev("(2 + 3)*4") == 20.0
    assert ev("2 - 3 - 4") == -5.0
    assert ev("12/3/2") == 2.0


def test_pi_constant():
    assert ev("sin(pi)") == pytest.approx(0.0, abs=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        ev("log(x1)", -1.0)
    with pytest.raises(DomainError):
        ev("sqrt(x1)", -0.5)
    with pytest.raises(DomainError):
        ev("1/x1", 0.0)
    with pytest.raises(DomainError):
        ev("x1^-1", 0.0)


def test_domain_error_reports_sample_index():
    arr = np.array([1.0, 2.0, -3.0, 4.0])
    with pytest.raises(DomainError) as exc:
        run([parse("log(x1)")], [arr])
    assert exc.value.sample_index == 2


def test_abs_kink_warning():
    notes = []
    run([parse("abs(x1)")], [np.array([1.0, 1e-12, 3.0])], warn=notes.append)
    assert notes and "kink" in notes[0]


def test_vectorized_evaluation():
    xs = np.linspace(-2, 2, 11)
    out = run([parse("x1^2 + 1")], [xs])[0][0]
    assert np.allclose(out, xs ** 2 + 1)


def test_jet_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    exprs = [
        "sin(x1)*cos(x2) + exp(x2/4)",
        "tanh(x1) + x2^3 - x1*x2",
        "sqrt(x1^2 + x2^2 + 1)",
        "log(2 + x1^2)",
    ]
    for text in exprs:
        expr = parse(text)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=2)
            _, jac = run([expr], [x[i : i + 1] for i in range(2)], jets=True)
            h = 1e-6
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (ev(text, *xp) - ev(text, *xm)) / (2 * h)
                assert jac[0, i, 0] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_abs_jet_uses_sign_zero_at_kink():
    _, jac = run([parse("abs(x1)")], [np.array([0.0])], jets=True)
    assert jac[0, 0, 0] == 0.0


num_strategy = st.one_of(
    st.integers(min_value=0, max_value=9).map(float),
    st.sampled_from([0.5, 2.25, 1e-3, 7.125]),
).map(Num)


def expr_strategy():
    base = st.one_of(
        num_strategy,
        st.sampled_from([Coord(0, "x1"), Coord(1, "x2"), PiConst()]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Bin(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(st.sampled_from(dsl.FUNCTIONS), children).map(
                lambda t: Call(t[0], t[1])
            ),
            st.tuples(children, st.integers(min_value=-3, max_value=5)).map(
                lambda t: Pow(t[0], t[1])
            ),
        )

    return st.recursive(base, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(expr=expr_strategy())
def test_pretty_parse_round_trip_is_fixed_point(expr):
    # printing normalizes associativity, so the canonical form is reached
    # after one round trip and stays fixed from then on
    text = pretty(expr)
    once = pretty(parse(text))
    twice = pretty(parse(once))
    assert once == twice


# -- the generated code against the tree walk and the dense jets -------------------


def oracle(exprs, env, warn=None, jets=False):
    """``run`` through ``oracles.walk`` (on dense ``Jet``s in forward mode),
    with the store of the old map evaluator."""
    count, n = len(env[0]), len(env)
    values = np.empty((len(exprs), count))
    jac = np.empty((len(exprs), n, count)) if jets else None
    seeded = [Jet.seed(v, i, n) for i, v in enumerate(env)] if jets else env
    for a, expr in enumerate(exprs):
        out = walk(expr, seeded, warn)
        if isinstance(out, Jet):
            values[a] = np.broadcast_to(out.value, (count,))
            jac[a] = np.broadcast_to(out.partials, (n, count))
        else:
            values[a] = np.broadcast_to(out, (count,))
            if jets:
                jac[a] = 0.0
    return values, jac


def outcome(evaluator, exprs, env, jets):
    """("ok", values, Jacobian, warnings), or the DomainError's message and
    sample index, plus the warnings in order."""
    notes = []
    warn = notes.append
    try:
        values, jac = evaluator(exprs, env, warn, jets)
    except DomainError as e:
        return ("error", str(e), e.sample_index, notes)
    except (ArithmeticError, ValueError) as e:
        return ("raised", type(e).__name__, str(e), notes)
    return ("ok", values, jac, notes)


def assert_partials_match(exprs, got, want):
    """The contract of the generated partials against the dense jets: where
    the code carries a partial (of a coordinate its output reads), it
    equals the dense one wherever that is not NaN; the code leaves out the
    terms of the coordinates an operand does not read, which the dense
    jets add as ±0.0 (so a 0 may differ in sign) or as 0 * inf = NaN.
    Every other entry is exactly +0.0, where the dense jets hold ±0.0 or
    NaN."""
    zero = np.zeros(got.shape[2]).tobytes()
    for a, expr in enumerate(exprs):
        reads = dsl.coordinate_indices(expr)
        for j in range(got.shape[1]):
            g, w = got[a, j], want[a, j]
            if j in reads:
                assert (np.isnan(w) | (g == w)).all(), (a, j, g, w)
            else:
                assert g.tobytes() == zero and ((w == 0.0) | np.isnan(w)).all(), (a, j, g, w)


def assert_tape_matches_walk(exprs, env):
    """The same values, bit for bit, in both modes, the same DomainError
    and the same warnings in order, and partials by ``assert_partials_match``."""
    with np.errstate(all="ignore"):
        for jets in (False, True):
            got, want = outcome(run, exprs, env, jets), outcome(oracle, exprs, env, jets)
            if got[0] != "ok" or want[0] != "ok":
                assert got == want
                continue
            assert got[1].tobytes() == want[1].tobytes() and got[3] == want[3]
            if jets:
                assert_partials_match(exprs, got[2], want[2])


ENVS = (
    [np.array([0.0, 1.5, -2.0, 1e-12, 0.25, 3.0, -0.5, 1.0]),
     np.array([1.0, -0.75, 0.0, 2.0, -1e-10, 0.5, 4.0, -3.0])],
    [np.array([0.3, 1.5, 2.0, 0.7]), np.array([1.1, 0.75, 2.5, 0.2])],  # away from the checks
)


@settings(max_examples=200, deadline=None)
@given(exprs=st.lists(expr_strategy(), min_size=1, max_size=3))
def test_tape_matches_tree_walk_bytes_errors_and_warnings(exprs):
    for env in ENVS:
        assert_tape_matches_walk(exprs, env)


def test_dense_jets_add_what_the_code_leaves_out():
    # where an operand does not read a coordinate, the dense jets add a
    # +-0.0 term, flipping a -0.0 partial, or 0 * inf = NaN; the code adds
    # neither, and a partial no output reads is +0.0
    env = [np.array([0.5, -1.0, 0.95]), np.array([-0.0, 2.0, 0.95])]
    exprs = [parse("x1*x2 + x2"), parse("x1*exp(800*x2)")]
    with np.errstate(all="ignore"):
        values, jac = run(exprs, env, jets=True)
        dense_values, dense = oracle(exprs, env, jets=True)
    assert values.tobytes() == dense_values.tobytes()
    # d/dx1 of x1*x2 + x2 at x2 = -0.0: x2 alone, where the dense sum adds +0.0
    assert np.signbit(jac[0, 0, 0]) and not np.signbit(dense[0, 0, 0])
    assert jac[1, :, 2].tolist() == [np.inf, np.inf]
    assert np.isnan(dense[1, 1, 2])  # 0 * inf + inf * 0.5
    assert_partials_match(exprs, jac, dense)


def run_reading(reads):
    """``run`` in forward mode with only the outputs ``reads`` read."""

    def evaluator(exprs, env, warn=None, jets=True):
        tape = dsl.compile(exprs)
        values = np.empty((len(exprs), len(env[0])))
        jac = np.empty((len(exprs), len(env), len(env[0])))
        evaluate(tape, env, values, warn, jac, reads)
        return values, jac

    return evaluator


@settings(max_examples=200, deadline=None)
@given(exprs=st.lists(expr_strategy(), min_size=1, max_size=3), data=st.data())
def test_unread_outputs_keep_their_partials_errors_and_warnings(exprs, data):
    # the values of an unread output are computed only where a partial or a
    # check reads them: the same partials, bit for bit, the same DomainError
    # and the same warnings as a full run, and a NaN value row
    reads = data.draw(st.sets(st.integers(0, len(exprs) - 1)))
    for env in ENVS:
        with np.errstate(all="ignore"):
            full = outcome(run, exprs, env, True)
            part = outcome(run_reading(reads), exprs, env, True)
        if full[0] != "ok":
            assert part == full
            continue
        assert part[2].tobytes() == full[2].tobytes() and part[3] == full[3]
        for a in range(len(exprs)):
            if a in reads:
                assert part[1][a].tobytes() == full[1][a].tobytes()
            else:
                assert np.isnan(part[1][a]).all()


def test_the_code_computes_only_the_values_it_reads(value_calls):
    # a value is computed where a read output, a domain check or a partials
    # rule reads it: the argument of a call or of a power, an operand of a
    # product or quotient of two varying terms.  Not where it reaches an
    # unread output through +, - and constant factors
    exprs = [parse("-cos(x1) + exp(x2) - x1*x2"), parse("sin(x1 + x2)^2"),
             parse("x3 + 0.2*sin(x1)"), parse("tanh(x1)/3 - 2*log(x2 + 2)")]
    env = [np.array([0.5, -1.0]), np.array([1.5, 0.25]), np.array([2.0, 3.0])]
    run_reading({0})(exprs, env)
    # sin(x1 + x2)^2: the power's partial 2*sin(...)*cos(...) reads the sine
    assert value_calls == {**dict.fromkeys(dsl.FUNCTIONS, 0), "cos": 1, "exp": 1, "sin": 1}
    run_reading({0, 1, 2, 3})(exprs, env)
    assert value_calls == {**dict.fromkeys(dsl.FUNCTIONS, 0), "cos": 2, "exp": 2, "sin": 3,
                           "tanh": 1, "log": 1}
    # the check of an unread log still runs, on the argument it reads
    with pytest.raises(DomainError, match="log of a nonpositive value") as exc:
        run_reading(set())(exprs, [env[0], np.array([1.5, -2.0]), env[2]])
    assert exc.value.sample_index == 1
    assert value_calls["log"] == 1


def test_a_coordinate_beyond_the_domain_raises_in_walk_order():
    # the warning of the first output is heard before the load of x3 raises
    env = [np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])]
    assert_tape_matches_walk([parse("abs(x1)"), parse("x1 + x3*log(x2)")], env)
    with pytest.raises(DomainError, match="coordinate x3 exceeds domain dimension 2"):
        run([parse("x1 + x3")], env, jets=True)


def test_a_long_sum_compiles_as_deep_as_it_parses():
    # 900 nested sums: the signature walks the trees without recursion, and
    # the generator recurses once per level
    values, jac = run([parse(" + ".join(["x1"] * 900))], [np.array([1.0, 2.0])], jets=True)
    assert values.tolist() == [[900.0, 1800.0]] and jac.tolist() == [[[900.0, 900.0]]]


def test_maps_of_the_same_text_share_one_compiled_function():
    texts = ["x1^3 - 3*x1*x2^2 + 0.4321*x1", "3*x1^2*x2 - x2^3 + 0.4321*x2"]
    r2 = algebra.abelian(2)
    first, second = map_from_texts(r2, r2, texts), map_from_texts(r2, r2, texts)
    assert first.tape is not second.tape and first.components is not second.components
    x = np.array([[0.5, -1.0], [0.25, 2.0]])
    assert jacobian_batch(first, x)[1].tobytes() == jacobian_batch(second, x)[1].tobytes()
    assert first.tape.run(2, True) is second.tape.run(2, True)
    # equal trees up to the sign of a zero are not the same tape
    plus, minus = dsl.compile([Num(0.0)]), dsl.compile([Num(-0.0)])
    assert plus.run(0, False) is not minus.run(0, False)
    values = np.empty((1, 1))
    evaluate(minus, [], values)
    assert np.signbit(values[0, 0])


def built(code, params, head):
    """``code.build`` with the source it compiled."""
    sources = []
    real = builtins.compile

    def recording(source, *args):
        sources.append(source)
        return real(source, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "compile", recording)
        run, width = code.build(params, head, "<test>")
    (source,) = sources
    return run, width, source


def test_the_writer_keeps_what_a_root_reads_and_deletes_each_name_after_its_last_use():
    code = dsl.Code({"_sin": np.sin})
    c = code.bind(2.0)
    code.line(f"a = x * {c}", ("a",), ("x", c))
    code.line("u = a + 1.0", ("u",), ("a",))  # read only by the unread line below
    code.line("v = u * u", ("v",), ("u",))  # read by nobody
    code.line("b = _sin(a)", ("b",), ("a",))
    code.line("out[0] = b + a", (), ("b", "a"), root=True)
    code.line("w = _sin(x)", ("w",), ("x",), root=True)  # a root: kept, though unread
    code.line("out[1] = b", (), ("b",), root=True)
    run, width, source = built(code, "x, out", ["x = x + 0.0"])
    # the parameter and the bound constant are read, never deleted
    assert source == ("def run(x, out):\n"
                      "    x = x + 0.0\n"
                      "    a = x * c0\n"
                      "    b = _sin(a)\n"
                      "    out[0] = b + a\n"
                      "    del a\n"
                      "    w = _sin(x)\n"
                      "    del w\n"
                      "    out[1] = b\n"
                      "    del b\n")
    # a and b, then b and w, are alive at once, plus one temporary
    assert width == 3
    out = np.empty((2, 2))
    run(np.array([0.25, -1.0]), out)
    assert out.tolist() == [[np.sin(0.5) + 0.5, np.sin(-2.0) - 2.0], [np.sin(0.5), np.sin(-2.0)]]


def test_the_width_counts_the_defined_names_alive_at_once():
    code = dsl.Code({})
    for name in "pqr":
        code.line(f"{name} = x", (name,), ("x",), root=True)
    code.line("s, t = p + q, r", ("s", "t"), ("p", "q", "r"), root=True)
    code.line("y[0] = s + t", (), ("s", "t"), root=True)
    _, width, source = built(code, "x, y", [])
    assert "del p, q, r" in source and "del s, t" in source
    assert width == 6  # p, q, r, s and t, plus one
    assert built(dsl.Code({}), "x", [])[1:] == (1, "def run(x):\n    pass\n")


def test_tapes_and_coefficient_plans_share_one_table(monkeypatch):
    # one table holds both kinds of generated function, each under its tag
    monkeypatch.setattr(dsl, "_RUNS", {})
    tape = dsl.compile([parse("x1*x2 + 0.5")])
    run = tape.run(2, True)
    recipes = [((0, 1), ((0.5, (0, 1)),)), None]
    rows = pullback._plan_coefficient_rows(recipes, np.ones((2, 2), bool))
    assert sorted(key[0] for key in dsl._RUNS) == ["rows", "tape"]
    (tape_key,) = [key for key in dsl._RUNS if key[0] == "tape"]
    (rows_key,) = [key for key in dsl._RUNS if key[0] == "rows"]
    assert dsl._RUNS[tape_key] is tape._runs and tape._runs == {(2, True, None): run}
    assert dsl._RUNS[rows_key][0] is rows.run
    assert ("rows", tape_key[1]) not in dsl._RUNS and ("tape", rows_key[1]) not in dsl._RUNS
    # a second tape and plan of equal keys compile nothing
    assert dsl.compile([parse("x1*x2 + 0.5")]).run(2, True) is run
    assert pullback._plan_coefficient_rows(recipes, np.ones((2, 2), bool)).run is rows.run
    assert len(dsl._RUNS) == 2


BENCH_TEXTS = [
    ["x1^3 - 0.9123*x1"],
    ["x1^3 - 3*x1*x2^2 + 0.1234*x1", "3*x1^2*x2 - x2^3 + 0.1234*x2"],
    ["x1 + 0.3141*sin(x2)", "x2", "x3 + 0.2718*x1^2"],
    ["x1 + 0.3141*sin(x2)", "x2", "x3 + 0.1414*x4^2", "x4", "x5 + 0.1732*x1*x3"],
    ["x1", "abs(x1)"],
]


@pytest.mark.parametrize("texts", BENCH_TEXTS + [texts for _, _, texts in MAPS.values()])
def test_tape_matches_tree_walk_on_bench_and_golden_maps(texts):
    gen = np.random.default_rng(5)
    exprs = [parse(t) for t in texts]
    dim = 1 + max(max(dsl.coordinate_indices(e), default=0) for e in exprs)
    env = list(gen.uniform(-4.0, 4.0, size=(dim, 257)))
    env[0][:3] = (0.0, 1e-12, -1e-10)  # abs kinks
    assert_tape_matches_walk(exprs, env)


def test_warnings_are_heard_once_per_occurrence():
    notes = []
    run([parse("abs(x1) + abs(x1)"), parse("abs(x1)")], [np.array([0.0, 1.0])], notes.append)
    assert notes == ["abs evaluated within 1e-09 of its kink (1 sample(s))"] * 3


def test_domain_error_is_raised_at_evaluation_not_compile_time():
    r1 = algebra.abelian(1)
    m = map_from_texts(r1, r1, ["x1 + log(0)"])
    with pytest.raises(DomainError, match="log of a nonpositive value"):
        jacobian_batch(m, np.array([[1.0, 2.0]]))
    tape = dsl.compile([parse("2^2000")])  # Python float overflow, also only when run
    with pytest.raises(DomainError, match=r"constant power 2\.0\^2000 overflows a float"):
        evaluate(tape, [], np.empty((1, 1)))


def test_constant_component_has_a_zero_jacobian_row():
    r2 = algebra.abelian(2)
    m = map_from_texts(r2, r2, ["2", "x1*x2"])
    values, jac = jacobian_batch(m, np.array([[1.0, 3.0], [2.0, 5.0]]))
    assert values[0].tolist() == [2.0, 2.0]
    assert jac[:, 0, :].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert jac[:, 1, :].tolist() == [[2.0, 1.0], [5.0, 3.0]]


def test_zero_power_under_jets_matches_the_jet_rule():
    env = [np.array([0.0, 2.0, -3.0])]
    values, jac = run([parse("x1^0"), parse("(x1 - x1)^0")], env, jets=True)
    assert values.tolist() == [[1.0, 1.0, 1.0]] * 2
    assert not jac.any()
    assert_tape_matches_walk([parse("x1^0"), parse("x1^0 * x1"), parse("(0*x1)^0")], env)


def test_integer_powers_are_products_within_gamma_of_pow():
    """Array and jet powers k >= 2 are x^(k-1)·x with x^(k-1) by binary
    powering, and the jet partials k·x^(k-1): x^2 keeps numpy's bits (x**2
    is x*x), x^3 and x^5 are the products, not numpy's ``pow``, and k - 1
    roundings put x^k within γ_{k-1} = (k-1)u / (1 - (k-1)u) of ``pow`` and
    of the exact power."""
    x = np.random.default_rng(12).uniform(-4.0, 4.0, 4096)
    x2 = x * x
    assert (x ** 3 != x2 * x).any() and (x ** 5 != x2 * x2 * x).any()
    # (x^k, x^(k-1)) written out; other k take the oracle's binary powering
    products = {2: (x ** 2, x), 3: (x2 * x, x2), 5: (x2 * x2 * x, x2 * x2)}
    u = np.finfo(float).eps / 2
    exact = [Fraction(float(v)) for v in x[:256]]
    for k in range(2, 10):
        values, _ = run([parse(f"x1^{k}")], [x])
        jet_values, jac = run([parse(f"x1^{k}")], [x], jets=True)
        below = product_power(x, k - 1)
        value, below = products.get(k, (below * x, below))
        assert values[0].tobytes() == jet_values[0].tobytes() == value.tobytes()
        assert jac[0, 0].tobytes() == (k * below).tobytes()
        gamma = (k - 1) * u / (1 - (k - 1) * u)
        assert np.all(np.abs(values[0] - x ** k) <= gamma * np.abs(x ** k))
        for v, e in zip(values[0], exact):
            assert abs(Fraction(float(v)) - e ** k) <= Fraction(gamma) * abs(e ** k)


def test_translated_maps_reuse_their_parents_tape():
    h3 = algebra.heisenberg3()
    m = map_from_texts(h3, h3, ["x1 + 1", "x2", "x3 + x1^2"])
    shifted = normalize_to_y0(m)
    assert shifted.shift is not None and shifted.tape is m.tape
    assert normalize_to_y0(shifted).tape is m.tape
    other = map_from_texts(h3, h3, ["x1", "x2", "x3"])
    assert replace(m, components=other.components).tape is not m.tape
