"""Inventory of the ``threads`` knob, a no-op since evaluation became serial.

Only the calls the benchmark harness passes it to keep it: the library's
``homomorphism_check`` and ``area_formula_check``, and ``nilcoh repro
--threads``.  A harness that stops passing it lets this list shrink.
"""

import inspect

import pytest

import nilcoh
from nilcoh import cli


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
