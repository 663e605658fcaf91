"""Inventories of the library's interface.

The ``threads`` knob, a no-op since evaluation became serial: only the
calls the benchmark harness passes it to keep it, the library's
``homomorphism_check`` and ``area_formula_check``, and ``nilcoh repro
--threads``.  A harness that stops passing it lets this list shrink.

The calls that normalize a map to F(0) = 0: only those that compare its
values with a target, a bounding box or a product.  A call that starts to
normalize refuses every map undefined at the origin, so it joins the list
only with a reason.

The public names of ``nilcoh`` and of ``nilcoh.group``: points travel as
(dim, N) coordinate batches, and a name joins the interface only with a
caller that needs it.
"""

import inspect

import pytest

import nilcoh
from nilcoh import cli, group
from nilcoh.dsl import DomainError
from nilcoh.ergodic import derivative_entry, parse_observable
from nilcoh.forms import basis_form


def test_only_the_benchmarked_calls_take_threads():
    taking = set()
    for name in dir(nilcoh):
        obj = getattr(nilcoh, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "threads" in params:
            taking.add(name)
    assert taking == {"homomorphism_check", "area_formula_check"}


@pytest.mark.parametrize("func, nargs", [
    (nilcoh.amenable_average, 7),        # m, omega, radii, samples, seed, shape, threads
    (nilcoh.induced_cohomology_map, 6),  # m, radii, samples, seed, shape, threads
    (nilcoh.amenable_norm, 7),           # m, observable, radii, samples, seed, shape, threads
    (nilcoh.asymptotic_degree, 7),       # m, omega, radii, samples, seed, shape, threads
    (nilcoh.empirical_measure, 7),       # m, observables, radius, samples, seed, shape, threads
    (nilcoh.convergence_report, 7),      # m, observables, radii, samples, seed, shape, threads
    (nilcoh.ergodicity_probe, 8),        # m, observables, basepoints, radii, ..., shape, threads
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_a_positional_threads_argument_is_refused(func, nargs):
    # the parameter after threads is keyword-only: an old positional call
    # must not bind its thread count to with_products, warnings or tol
    with pytest.raises(TypeError, match=r"positional arguments? but \d+ were given"):
        func(*[None] * nargs)


def test_only_repro_accepts_threads():
    (subcommands,) = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
    assert {name for name, p in subcommands.items()
            if "--threads" in p._option_string_actions} == {"repro"}
    assert cli.build_parser().parse_args(["repro", "--threads", "2"]).threads == 2


@pytest.mark.parametrize("argv", [
    ["average", "--map", "m.json", "--form", "e1"],
    ["orbit", "--map", "m.json"],
    ["degree", "--map", "m.json", "--target", "0"],
    ["asymdeg", "--map", "m.json"],
], ids=lambda argv: argv[0])
def test_threads_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


PUBLIC = {
    "nilcoh": {
        "AlgebraError", "ArityError", "AsymptoticDegreeTrace", "AverageEstimate", "BallSpec",
        "BoundaryTooClose", "CohomologyRing", "CohomologySpace", "ConvergenceReport",
        "DegreeOverflow", "DegreeResult", "DomainError", "ErgodicityProbe", "HomomorphismReport",
        "IllConditionedFrame", "JacobiViolation", "KForm", "LieAlgebra", "NotNilpotent",
        "Observable", "OrbitTrace", "ParseError", "SingularTarget", "SmoothMap",
        "UnknownSymbolError", "abelian", "algebra_from_dict", "amenable_average",
        "amenable_norm", "area_formula_check", "asymptotic_degree", "basis_covector",
        "basis_form", "box_volume", "ce_differential", "cohomology", "compare_rings",
        "convergence_report", "cup_class", "cup_pairing_rank", "derivative_entry",
        "differential", "differential_batch", "empirical_measure", "ergodicity_probe",
        "evaluate", "evaluate_batch", "exact_homomorphism_pullback", "filiform",
        "free_nilpotent_two_step", "heisenberg3", "heisenberg5", "homomorphism_check",
        "induced_cohomology_map", "is_group_homomorphism", "load_algebra", "load_map",
        "local_degree", "map_from_texts", "normalize_to_y0", "parse", "parse_form",
        "parse_observable", "pretty", "pullback_eval", "qi_distortion_probe", "ring_invariants",
        "sample_ball_coords", "save_algebra", "save_map", "unit_form", "validate_algebra",
        "volume_form", "wedge",
    },
    # the names group defines; what it imports is not its interface
    "nilcoh.group": {
        "BallSpec", "box_volume", "check_adapted", "check_radii", "cloud_mean",
        "homogeneous_gauge_batch", "quasi_norm_batch", "sample_ball_coords",
    },
}


def test_the_public_names_are_pinned():
    # the single-point layer (GroupPoint and its helpers) had no caller in the
    # library, and its dilate was no automorphism unless alg = gr(alg)
    exported = {name for name in dir(nilcoh)
                if not name.startswith("_") and not inspect.ismodule(getattr(nilcoh, name))}
    defined = {name for name, value in vars(group).items()
               if not name.startswith("_") and getattr(value, "__module__", None) == group.__name__}
    assert {"nilcoh": exported, "nilcoh.group": defined} == PUBLIC


def _coord(m):
    return parse_observable("coord1@0.5", m.domain.dim, m.codomain.dim)


SAMPLED = dict(samples=64, seed=0)
MAP_CALLS = {
    "amenable_average": lambda m, tmp: nilcoh.amenable_average(
        m, basis_form(m.codomain, (0,)), (2.0, 4.0), **SAMPLED),
    "amenable_norm": lambda m, tmp: [nilcoh.amenable_norm(m, obs, (2.0, 4.0), **SAMPLED)
                                     for obs in (derivative_entry(1, 1), _coord(m))],
    "area_formula_check": lambda m, tmp: nilcoh.area_formula_check(m, 2.0, samples=64),
    "asymptotic_degree": lambda m, tmp: nilcoh.asymptotic_degree(m, None, (2.0, 4.0), **SAMPLED),
    "convergence_report": lambda m, tmp: nilcoh.convergence_report(
        m, [derivative_entry(1, 1), _coord(m)], (2.0, 4.0), **SAMPLED),
    "differential": lambda m, tmp: nilcoh.differential(m, [1.0]),
    "differential_batch": lambda m, tmp: nilcoh.differential_batch(m, [[1.0, 2.0]]),
    "empirical_measure": lambda m, tmp: nilcoh.empirical_measure(
        m, [derivative_entry(1, 1), _coord(m)], 2.0, **SAMPLED),
    "ergodicity_probe": lambda m, tmp: nilcoh.ergodicity_probe(
        m, [derivative_entry(1, 1), _coord(m)], [0.0, 1.0], (2.0, 4.0), **SAMPLED),
    "evaluate": lambda m, tmp: nilcoh.evaluate(m, [1.0]),
    "evaluate_batch": lambda m, tmp: nilcoh.evaluate_batch(m, [[1.0, 2.0]]),
    "exact_homomorphism_pullback": lambda m, tmp: nilcoh.exact_homomorphism_pullback(
        m, basis_form(m.codomain, (0,))),
    "homomorphism_check": lambda m, tmp: nilcoh.homomorphism_check(m, (2.0, 4.0), **SAMPLED),
    "induced_cohomology_map": lambda m, tmp: nilcoh.induced_cohomology_map(
        m, (2.0, 4.0), **SAMPLED),
    "is_group_homomorphism": lambda m, tmp: nilcoh.is_group_homomorphism(m),
    "local_degree": lambda m, tmp: nilcoh.local_degree(m, 2.0, (0.5,)),
    "normalize_to_y0": lambda m, tmp: nilcoh.normalize_to_y0(m),
    "pullback_eval": lambda m, tmp: nilcoh.pullback_eval(m, basis_form(m.codomain, (0,)), (0,),
                                                         [1.0]),
    "qi_distortion_probe": lambda m, tmp: nilcoh.qi_distortion_probe(m, pairs=64),
    "save_map": lambda m, tmp: nilcoh.save_map(m, str(tmp / "m.json")),
}


def test_only_the_calls_that_compare_values_normalize(tmp_path):
    # on maps undefined at the origin, normalizing refuses the map; the orbit
    # statistics, amenable_norm and qi_distortion_probe refused it too, for a
    # shift that cancels in everything they read
    exported = {name for name in dir(nilcoh) if not name.startswith("_")
                and inspect.isfunction(getattr(nilcoh, name))
                and list(inspect.signature(getattr(nilcoh, name)).parameters)[:1] == ["m"]}
    assert exported == set(MAP_CALLS)
    r1, r2 = nilcoh.abelian(1), nilcoh.abelian(2)
    maps = [nilcoh.map_from_texts(r1, r2, ["x1", "1/x1"]),
            nilcoh.map_from_texts(r1, r1, ["x1 + 1/x1"])]
    normalizing = set()
    for name, call in MAP_CALLS.items():
        for m in maps:
            try:
                call(m, tmp_path)
            except DomainError as e:
                if str(e).startswith("normalizing the map to F(0) = 0: "):
                    normalizing.add(name)
                else:  # the call reads the map at the origin itself, and names it
                    assert str(e).startswith("division by zero"), (name, str(e))
                    assert e.coords == (0.0,), (name, e.coords)
            except ValueError as e:
                assert "equal" in str(e) and m.domain.dim != m.codomain.dim, (name, str(e))
    assert normalizing == {"normalize_to_y0", "local_degree", "area_formula_check",
                           "is_group_homomorphism"}
