"""The refusal contract of the public numeric parameters.

``RULES`` names the rule of every parameter of every public function of
``nilcoh``, exact layer included, and of the ``SmoothMap`` and
``Observable`` constructors (the rules are stated in the docstring of
``nilcoh.group``).  A public function that gains a parameter fails
``test_every_public_parameter_has_a_rule`` until the parameter is listed.

Each rule carries the values it refuses.  Every function that takes a
parameter of that rule is called with each of them, and must raise
``ValueError`` or ``TypeError`` whose message shows the value, before it
draws a random number.  The CLI options that carry the same parameters
must exit 1 with ``error: ...``, or 2 with a usage error, and never with a
traceback.
"""

import inspect
import math
from typing import NamedTuple

import numpy as np
import pytest

import nilcoh
from nilcoh import cli, rng
from nilcoh.algebra import abelian, heisenberg3, save_algebra


class Rule(NamedTuple):
    what: str
    bad: tuple = ()  # (value, the text of it that the message must show)


NAN, INF = math.nan, math.inf
REALS = ((NAN, "nan"), (INF, "inf"), (-INF, "-inf"))
COUNT = Rule("an integer of at least 1",
             REALS + ((0, "0"), (-7, "-7"), (1.5, "1.5"), (True, "True")))
SEED = Rule("an integer", REALS + ((1.5, "1.5"), (True, "True")))
INDEX = Rule("an integer in 0 .. n - 1", REALS + ((-7, "-7"), (1.5, "1.5"), (True, "True")))
DEGREE = Rule("an integer in 0 .. n", INDEX.bad)
INDICES = Rule("a tuple of integers in 0 .. n - 1", tuple(((v,), s) for v, s in INDEX.bad))
RADIUS = Rule("finite and positive", REALS + ((0, "0"), (-7, "-7")))
# a degree window is a radius or a BallSpec, and its shape a box
WINDOW = Rule("finite and positive, of shape box",
              RADIUS.bad + ((nilcoh.BallSpec(1.0, "quasiball"), "'quasiball'"),))
DIMS = Rule("a (domain, codomain) pair of integers of at least 1",
            tuple(((v, 1), s) for v, s in COUNT.bad) + (((1,), "(1,)"),))
RADII = Rule("finite and positive, strictly increasing",
             tuple(((2.0, v), s) for v, s in RADIUS.bad) + (((), "[]"), ((4.0, 2.0), "[4.0, 2.0]")))
TOL = Rule("finite and nonnegative", REALS + ((-7, "-7"),))
POINT = Rule("a finite point of the dim-1 domain",
             tuple(((v,), s) for v, s in REALS) + (((0.0, 0.0), "(0.0, 0.0)"),))
POINTS = Rule("finite points of the dim-1 domain", tuple(([(0.0,), p], s) for p, s in POINT.bad))
BATCH = Rule("a (1, N) batch; its values follow IEEE 754", (([[0.0], [1.0]], "got 2"),))
# an observable's coordinate probe, checked against the map by the statistics
PROBE = Rule("a finite point of the domain, refused before any sampling")
NOT_NUMERIC = Rule("not numeric")

RULES = {
    "samples": COUNT, "count": COUNT, "pairs": COUNT, "trials": COUNT, "grid_density": COUNT,
    "threads": COUNT,
    "seed": SEED,
    "radius": RADIUS, "window": WINDOW,
    "radii": RADII,
    "tol": TOL,
    "g": POINT, "target": POINT, "shift": POINT,
    "probe": PROBE,
    "power": SEED,
    "basepoints": POINTS,
    "coords": BATCH,
    "indices": INDICES, "lam": INDICES,
    # i and j index a frame from 1, a basis covector from 0, or classes from 0
    "i": {"derivative_entry": COUNT, "Observable": COUNT, "basis_covector": INDEX,
          "cup_class": INDEX},
    "j": {"derivative_entry": COUNT, "Observable": COUNT, "cup_class": INDEX},
    "dim": COUNT, "dims": DIMS, "generators": COUNT, "domain_dim": COUNT, "codomain_dim": COUNT,
    "k": DEGREE, "l": DEGREE,
    **dict.fromkeys([
        "a", "alg", "b", "basis_names", "codomain", "codomain_ref", "components", "data",
        "domain", "domain_ref", "expr", "f", "kind", "m", "name", "names", "observable",
        "observables", "omega", "out", "path", "ring", "ring_a", "ring_b", "shape", "spec",
        "squared", "structure", "tags", "tape", "text", "texts", "warn", "warnings",
        "with_products",
    ], NOT_NUMERIC),
}


def _functions():
    """The public functions of ``nilcoh``, and the two constructors that take
    numbers from their callers."""
    return {name: obj for name in dir(nilcoh)
            if not name.startswith("_") and inspect.isfunction(obj := getattr(nilcoh, name))} | {
        "SmoothMap": nilcoh.SmoothMap, "Observable": nilcoh.Observable}


def _rule(function: str, param: str):
    rule = RULES.get(param)
    return rule.get(function) if isinstance(rule, dict) else rule


R1, H3 = abelian(1), heisenberg3()
MAP = nilcoh.map_from_texts(R1, R1, ["x1 + sin(x1)"])
E1 = nilcoh.basis_covector(R1, 0)
SAMPLED = dict(m=MAP, radii=(2.0, 4.0), samples=64, seed=0)
OBSERVED = dict(SAMPLED, observables=[nilcoh.derivative_entry(1, 1)])
# valid arguments of each function that takes a parameter with bad values
VALID = {
    "Observable": dict(name="d11", kind="derivative", i=1, j=1),
    "SmoothMap": dict(domain=R1, codomain=R1, components=MAP.components),
    "abelian": dict(dim=1),
    "amenable_average": dict(SAMPLED, omega=E1),
    "amenable_norm": dict(SAMPLED, observable=nilcoh.derivative_entry(1, 1)),
    "area_formula_check": dict(m=MAP, window=2.0, samples=64, seed=0),
    "asymptotic_degree": SAMPLED,
    "basis_covector": dict(alg=H3, i=0),  # on R1 the range check refuses 1.5 and True
    "basis_form": dict(alg=H3, indices=(0,)),
    "box_volume": dict(alg=R1, radius=2.0),
    "convergence_report": OBSERVED,
    "cup_class": dict(ring=nilcoh.cohomology(H3), k=1, i=0, l=1, j=1),
    "cup_pairing_rank": dict(ring=nilcoh.cohomology(H3), k=1, l=1),
    "derivative_entry": dict(i=1, j=1),
    "differential": dict(m=MAP, g=(0.5,)),
    "differential_batch": dict(m=MAP, coords=[[0.5]]),
    "empirical_measure": dict(m=MAP, observables=OBSERVED["observables"], radius=2.0, samples=64,
                              seed=0),
    "ergodicity_probe": dict(OBSERVED, basepoints=[(0.0,), (1.0,)]),
    "evaluate": dict(m=MAP, g=(0.5,)),
    "evaluate_batch": dict(m=MAP, coords=[[0.5]]),
    "filiform": dict(dim=3),
    "free_nilpotent_two_step": dict(generators=2),
    "homomorphism_check": SAMPLED,
    "induced_cohomology_map": SAMPLED,
    "is_group_homomorphism": dict(m=MAP),
    "local_degree": dict(m=MAP, window=10.0, target=(0.5,)),
    "parse_observable": dict(text="d11", domain_dim=1, codomain_dim=1),
    "pullback_eval": dict(m=MAP, omega=E1, lam=(0,), g=(0.5,)),
    "qi_distortion_probe": dict(m=MAP, pairs=64),
    "sample_ball_coords": dict(alg=R1, spec=nilcoh.BallSpec(2.0), count=64, seed=0),
    "validate_algebra": dict(structure={}, dim=1),
}

SWEEP = [(function, param, value, shown)
         for function, kwargs in VALID.items()
         for param in inspect.signature(_functions()[function]).parameters
         for value, shown in _rule(function, param).bad]


def test_every_public_parameter_has_a_rule():
    unlisted = [f"{name}({param})" for name, fn in _functions().items()
                for param in inspect.signature(fn).parameters if _rule(name, param) is None]
    assert unlisted == []
    swept = {name for name, fn in _functions().items()
             if any(_rule(name, p).bad for p in inspect.signature(fn).parameters)}
    assert swept == set(VALID)


@pytest.fixture
def draws(monkeypatch):
    """The random streams that calls open from now on."""
    opened = []

    def stream(seed, *tags):
        gen = original(seed, *tags)
        opened.append(tags)
        return gen

    original = rng.stream
    monkeypatch.setattr(rng, "stream", stream)
    return opened


@pytest.mark.parametrize("function, param, value, shown", SWEEP,
                         ids=[f"{f}-{p}-{s}" for f, p, _, s in SWEEP])
def test_a_bad_value_is_refused_by_name_before_sampling(draws, function, param, value, shown):
    with pytest.raises((ValueError, TypeError)) as exc:
        _functions()[function](**{**VALID[function], param: value})
    assert shown in str(exc.value)
    assert draws == []


def test_batches_follow_ieee_754_and_single_points_are_refused():
    with np.errstate(invalid="ignore"):
        values = nilcoh.evaluate_batch(MAP, [[0.5, NAN, INF]])[0]
        slopes = nilcoh.differential_batch(MAP, [[0.5, NAN]])[:, 0, 0]
    assert np.isfinite(values[0]) and np.isnan(values[1:]).all()
    assert np.isfinite(slopes[0]) and np.isnan(slopes[1])
    for call in (nilcoh.evaluate, nilcoh.differential):
        with pytest.raises(ValueError, match=r"g coordinates must be finite, got nan in \(nan,\)"):
            call(MAP, (NAN,))


@pytest.fixture()
def files(tmp_path):
    save_algebra(R1, str(tmp_path / "r1.json"))
    nilcoh.save_map(MAP, str(tmp_path / "m.json"), "r1.json", "r1.json")
    return tmp_path


INTEGER = ["nan", "inf", "-inf", "0", "-7", "1.5", "True"]
OPTIONS = {
    "--samples": (["average", "--form", "e1", "--radii", "2,4"], INTEGER),
    "--seed": (["average", "--form", "e1", "--radii", "2,4"],
               ["nan", "inf", "-inf", "1.5", "True"]),
    "--tol": (["orbit", "--radii", "2,4", "--samples", "64"], ["nan", "inf", "-inf", "-7"]),
    "--radii": (["average", "--form", "e1", "--samples", "64"],
                ["nan", "inf", "-inf", "0", "-7", "True", "4:2:2000", "1e308:10:3"]),
    "--window": (["degree", "--target", "0.5"], ["nan", "inf", "-inf", "0", "-7", "True"]),
    "--target": (["degree"], ["nan", "inf", "-inf", "0,0"]),
    "--basepoints": (["orbit", "--radii", "2,4", "--samples", "64"],
                     ["0,nan", "0,inf", "0,-inf"]),
    "--grid": (["degree", "--target", "0.5"], INTEGER),
    "--threads": (["repro"], INTEGER),
}
CLI_CASES = [(option, value) for option, (_, values) in OPTIONS.items() for value in values]
# 4:2:2000 raised OverflowError in factor ** k, and repro ignored --threads 0
ERRORS = {("--radii", "4:2:2000"): "error: radii must be finite, got inf\n",
          ("--threads", "0"): "error: threads must be at least 1, got 0\n"}


@pytest.mark.parametrize("option, value", CLI_CASES, ids=[f"{o}={v}" for o, v in CLI_CASES])
def test_a_bad_option_value_exits_with_an_error_not_a_traceback(files, capsys, option, value):
    command, *rest = OPTIONS[option][0]
    where = ["--outdir", str(files / "out")] if command == "repro" else ["--map", str(files / "m.json")]
    try:
        code = cli.main([command, *where, *rest, f"{option}={value}"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (1, 2), err
    assert "Traceback" not in err and out == ""
    assert err.startswith("error: ") if code == 1 else "usage: " in err
    assert err == ERRORS.get((option, value), err)
