"""Command-line interface.

Subcommands: cohomology, compare, average, orbit, degree, asymdeg, repro.
Every randomized command takes an explicit --seed (default 0; never wall
clock), and reports echo enough (inputs, digests, parameters, seed) to
regenerate every number.

There is one report path.  Each ``cmd_*`` returns only the report fields it
computes (``params``, ``results``, ``inputs`` and, where it has them,
``seed`` and ``warnings``); ``main`` times the command, builds the report
with ``report.build_report``, renders it once and writes ``--out`` before
stdout.  ``repro`` runs its steps through ``main``.  Each command runs
under one ``np.errstate`` that ignores floating-point errors: an overflow
or a NaN in sampled values is a result, which the report states, and
stderr stays empty on success.

Exit codes: 0 success; 1 a domain or validation error, or an I/O error on
the inputs, ``--out`` or ``--outdir``, with ``error: ...`` on stderr and no
report on stdout; 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import degree as degree_mod
from . import dsl, ergodic, pullback, report, rng
from .algebra import AlgebraError, load_algebra, save_algebra, heisenberg3, abelian
from .cohomology import cohomology, compare_rings, ring_invariants
from .forms import parse_form
from .group import BallSpec
from .maps import load_map, map_from_texts, save_map


def _radii_arg(text: str) -> list[float]:
    """Either 'start:factor:count' (geometric) or a comma list of radii."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("radii spec must be start:factor:count")
        start, factor, count = float(parts[0]), float(parts[1]), int(parts[2])
        if start <= 0 or factor <= 1 or count < 1:
            raise argparse.ArgumentTypeError("need start > 0, factor > 1, count >= 1")
        try:
            return [start * factor ** k for k in range(count)]
        except OverflowError:  # factor ** k is beyond the floats: a radius check_radii refuses
            return [float("inf")]
    radii = [float(x) for x in text.split(",") if x]
    if not radii:
        raise argparse.ArgumentTypeError("empty radius list")
    return radii


def _ball_arg(text: str) -> dict:
    """Parse 'shape=box' or 'shape=quasiball'; the radii come from --radii."""
    out: dict = {}
    for piece in text.split(","):
        if not piece:
            continue
        if "=" not in piece:
            raise argparse.ArgumentTypeError(f"bad ball spec field {piece!r}")
        key, value = piece.split("=", 1)
        if key == "shape":
            if value not in ("box", "quasiball"):
                raise argparse.ArgumentTypeError(f"unknown ball shape {value!r}")
            out["shape"] = value
        else:
            raise argparse.ArgumentTypeError(f"unknown ball spec field {key!r}")
    out.setdefault("shape", "box")
    return out


def _window_arg(text: str) -> float:
    if text.startswith("R="):
        return float(text[2:])
    return float(text)


def _basepoints_arg(text: str, dim: int) -> list[tuple[float, ...]]:
    """Points split at ';', or at ',' on a 1-dimensional domain."""
    chunks = text.split(";" if dim > 1 else ",")
    return [tuple(float(x) for x in chunk.split(",")) for chunk in chunks if chunk]


def _add_common(p, seeded=True):
    p.add_argument("--out", help="write the report to this file as well as stdout")
    if seeded:
        p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcoh",
        description="Cohomology rings of nilpotent Lie algebras and averaged "
        "pullbacks of invariant forms along maps between nilpotent groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="Betti numbers, representatives, cup table")
    p.add_argument("--algebra", required=True, help="algebra file (JSON)")
    _add_common(p, seeded=False)

    p = sub.add_parser("compare", help="compare two algebras by ring invariants")
    p.add_argument("--algebra-a", required=True)
    p.add_argument("--algebra-b", required=True)
    _add_common(p, seeded=False)

    p = sub.add_parser("average", help="ball averages of a pulled-back form")
    p.add_argument("--map", required=True, dest="map_file")
    p.add_argument("--form", required=True, help="form on the codomain, e.g. 'e1^e2'")
    p.add_argument("--radii", type=_radii_arg, default=_radii_arg("4:2:6"))
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--ball", type=_ball_arg, default=_ball_arg("shape=box"))
    _add_common(p)

    p = sub.add_parser("orbit", help="orbit averages and ergodicity probes")
    p.add_argument("--map", required=True, dest="map_file")
    p.add_argument("--observables", default="d11")
    p.add_argument("--radii", type=_radii_arg, default=_radii_arg("4:2:6"))
    p.add_argument("--basepoints", default="", help="comma list (1-D) or ';'-separated tuples")
    p.add_argument("--samples", type=int, default=50000)
    p.add_argument("--tol", type=float, default=ergodic.DEFAULT_TOL)
    p.add_argument("--ball", type=_ball_arg, default=_ball_arg("shape=box"))
    _add_common(p)

    p = sub.add_parser("degree", help="local topological degree at a target")
    p.add_argument("--map", required=True, dest="map_file")
    p.add_argument("--window", type=_window_arg, default=5.0, help="window radius, e.g. R=5")
    p.add_argument("--target", required=True, help="comma-separated target coordinates")
    p.add_argument("--grid", type=int, default=8, help="Newton starts per axis")
    _add_common(p)

    p = sub.add_parser("asymdeg", help="asymptotic degree trace tau(R)/|B_R|")
    p.add_argument("--map", required=True, dest="map_file")
    p.add_argument("--radii", type=_radii_arg, default=_radii_arg("4:2:5"))
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--ball", type=_ball_arg, default=_ball_arg("shape=box"))
    _add_common(p)

    p = sub.add_parser("repro", help="write the worked-example inputs and run them")
    p.add_argument("--outdir", default="repro-out")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--threads", type=int, default=1,
                   help="at least 1; ignored, as evaluation is serial")

    return parser


def _ring_results(alg) -> dict:
    ring = cohomology(alg)
    inv = ring_invariants(ring)
    reps = {
        k: [str(w) for w in ring.spaces[k].representatives] for k in range(alg.dim + 1)
    }
    cup = {
        f"H{k}[{i}] x H{l}[{j}]": [str(c) for c in coords]
        for (k, l, i, j), coords in sorted(ring.cup.items())
    }
    return {
        "dim": alg.dim,
        "betti": list(ring.betti),
        "cup_ranks": inv["cup_ranks"],
        "representatives": reps,
        "cup_table": cup,
        "euler_characteristic": sum((-1) ** k * b for k, b in enumerate(ring.betti)),
    }


def cmd_cohomology(args) -> dict:
    return {
        "params": {"algebra": args.algebra},
        "results": _ring_results(load_algebra(args.algebra)),
        "inputs": {"algebra": args.algebra},
    }


def cmd_compare(args) -> dict:
    paths = {"algebra_a": args.algebra_a, "algebra_b": args.algebra_b}
    rings = [cohomology(load_algebra(path)) for path in paths.values()]
    return {"params": paths, "results": compare_rings(*rings), "inputs": paths}


def cmd_average(args) -> dict:
    m = load_map(args.map_file)
    omega = parse_form(args.form, m.codomain)
    est = pullback.amenable_average(
        m,
        omega,
        radii=args.radii,
        samples=args.samples,
        seed=args.seed,
        shape=args.ball["shape"],
    )
    results = {
        "form": str(omega),
        "shape": args.ball["shape"],
        "radii": est.radii,
        "values": [f.coeffs for f in est.values],
        "stderr": est.mc_stderr,
        "increments": est.increments,
        "extrapolated": est.extrapolated.coeffs,
        "nonconvergent": est.nonconvergent,
        "derivative_bound": est.derivative_bound,
        "samples_per_radius": args.samples,
    }
    return {
        "params": {
            "map": args.map_file,
            "form": args.form,
            "radii": args.radii,
            "samples": args.samples,
            "shape": args.ball["shape"],
        },
        "results": results,
        "inputs": {"map": args.map_file},
        "seed": args.seed,
        "warnings": est.warnings,
    }


def cmd_orbit(args) -> dict:
    m = load_map(args.map_file)
    observables = [
        ergodic.parse_observable(text, m.domain.dim, m.codomain.dim)
        for text in args.observables.split(",")
        if text
    ]
    if not observables:
        raise ValueError("no observables given")
    shape = args.ball["shape"]
    if args.basepoints:
        basepoints = _basepoints_arg(args.basepoints, m.domain.dim)
        probe = ergodic.ergodicity_probe(
            m, observables, basepoints, args.radii, args.samples, args.seed,
            shape=shape, tol=args.tol,
        )
        results = {
            "mode": "ergodicity-probe",
            "verdict": probe.verdict,
            "basepoints": probe.basepoints,
            "spreads": probe.spreads,
            "tolerances": probe.tolerances,
            "traces": [
                {"basepoint": p, "observables": rep.traces}
                for p, rep in zip(probe.basepoints, probe.reports)
            ],
        }
        warnings = probe.warnings
    else:
        rep = ergodic.convergence_report(
            m, observables, args.radii, args.samples, args.seed,
            shape=shape, tol=args.tol,
        )
        results = {"mode": "convergence", "traces": rep.traces, "limits": rep.limits()}
        warnings = rep.warnings
    results["shape"] = shape
    return {
        "params": {
            "map": args.map_file,
            "observables": args.observables,
            "radii": args.radii,
            "basepoints": args.basepoints,
            "samples": args.samples,
            "tol": args.tol,
        },
        "results": results,
        "inputs": {"map": args.map_file},
        "seed": args.seed,
        "warnings": warnings,
    }


def cmd_degree(args) -> dict:
    m = load_map(args.map_file)
    target = tuple(float(x) for x in args.target.split(","))
    result = degree_mod.local_degree(
        m, BallSpec(args.window), target, grid_density=args.grid, seed=args.seed
    )
    return {
        "params": {
            "map": args.map_file,
            "window": args.window,
            "target": target,
            "grid": args.grid,
        },
        "results": result,
        "inputs": {"map": args.map_file},
        "seed": args.seed,
    }


def cmd_asymdeg(args) -> dict:
    m = load_map(args.map_file)
    trace = degree_mod.asymptotic_degree(
        m,
        radii=args.radii,
        samples=args.samples,
        seed=args.seed,
        shape=args.ball["shape"],
    )
    results = report.to_jsonable(trace)
    warnings = results.pop("warnings")
    return {
        "params": {
            "map": args.map_file,
            "radii": args.radii,
            "samples": args.samples,
            "shape": args.ball["shape"],
        },
        "results": results,
        "inputs": {"map": args.map_file},
        "seed": args.seed,
        "warnings": warnings,
    }


def cmd_repro(args) -> int:
    """Write the worked-example inputs and run each pipeline on them."""
    rng._check_integer("threads", args.threads, 1)
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)

    algebras = {
        "heisenberg3.json": heisenberg3(),
        "abelian3.json": abelian(3),
        "abelian1.json": abelian(1),
        "abelian2.json": abelian(2),
    }
    for name, alg in algebras.items():
        save_algebra(alg, os.path.join(outdir, name))

    def write_map(name, domain_ref, codomain_ref, components):
        path = os.path.join(outdir, name)
        m = map_from_texts(algebras[domain_ref], algebras[codomain_ref], components)
        save_map(m, path, domain_ref, codomain_ref)
        return path

    f1 = write_map("f1.map.json", "abelian1.json", "abelian2.json", ["x1", "sin(x1)"])
    f2 = write_map("f2.map.json", "abelian1.json", "abelian2.json", ["x1", "abs(x1)"])
    auto = write_map(
        "h3-doubling.map.json", "heisenberg3.json", "heisenberg3.json",
        ["2*x1", "x2", "2*x3"],
    )
    xsin = write_map("x-plus-sin.map.json", "abelian1.json", "abelian1.json", ["x1 + sin(x1)"])

    seed = ["--seed", str(args.seed)]
    sampled = ["--samples", str(args.samples), *seed]
    f1_radii = ",".join(str(4 * np.pi * 2 ** k) for k in range(4))
    steps = [
        ("cohomology-h3", ["cohomology", "--algebra", os.path.join(outdir, "heisenberg3.json")]),
        (
            "compare-r3-h3",
            ["compare", "--algebra-a", os.path.join(outdir, "abelian3.json"),
             "--algebra-b", os.path.join(outdir, "heisenberg3.json")],
        ),
        ("average-f1-dy2", ["average", "--map", f1, "--form", "e2", "--radii", f1_radii, *sampled]),
        (
            "orbit-f1",
            ["orbit", "--map", f1, "--observables", "d12,d12sq", "--radii", f1_radii,
             "--basepoints=0,1,3.141592653589793", *sampled],
        ),
        (
            "orbit-f2",
            ["orbit", "--map", f2, "--observables", "d12,d12sq", "--radii", "2,4,8",
             "--basepoints=-10,10", *sampled],
        ),
        (
            "degree-x-plus-sin",
            ["degree", "--map", xsin, "--window", "R=10", "--target", "0.5", *seed],
        ),
        ("asymdeg-h3-doubling", ["asymdeg", "--map", auto, "--radii", "4:2:5", *sampled]),
    ]
    for name, argv in steps:
        out_path = os.path.join(outdir, f"{name}.report.json")
        code = main(argv + ["--out", out_path], quiet=True)
        if code != 0:
            print(f"{name}: FAILED (exit {code})")
            return code
        print(f"{name}: ok -> {out_path}")
    return 0


_COMMANDS = {
    "cohomology": cmd_cohomology,
    "compare": cmd_compare,
    "average": cmd_average,
    "orbit": cmd_orbit,
    "degree": cmd_degree,
    "asymdeg": cmd_asymdeg,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: ``repro`` calls ``main`` once per step.  No
    command changes a parsed default in place (``--radii``, ``--ball``), so
    the parses may share them."""
    return build_parser()


def main(argv=None, quiet: bool = False) -> int:
    args = _parser().parse_args(argv)
    try:
        # overflow and NaN in sampled values are results, which the report
        # states (its warnings, non-finite fields), not numpy warnings on stderr
        with np.errstate(all="ignore"):
            if args.command == "repro":
                return cmd_repro(args)
            t0 = time.perf_counter()
            fields = _COMMANDS[args.command](args)
            rep = report.build_report(args.command, **fields,
                                      wall_time_s=time.perf_counter() - t0)
            text = report.render(rep)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
    except (AlgebraError, dsl.ParseError, dsl.DomainError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not quiet:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
