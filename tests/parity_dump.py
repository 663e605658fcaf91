"""Write sha256 digests of the outputs a numeric change must not move.

    python tests/parity_dump.py OUT.json

The digests cover the 9 golden CLI cases (``test_golden.CASES``), the 7
``nilcoh repro`` reports at ``--samples 20000`` and at the default (the
temporary output directory replaced by ``OUTDIR``), the reprs of
``homomorphism_check`` on the ``average`` benchmark maps for seeds 1-4, on
filiform7 and filiform8, and on the filiform7 map plus constants
(F(0) != 0), whose frame differential is read next to a shift, the
``homomorphism_check`` and ``amenable_average`` reprs of three maps whose
frame differential has constant entries (``constant_entry_maps``), three warm
repeats of each ``average`` map's
``homomorphism_check`` in one process (a new seed at the 2nd and 3rd
call, so a cache filled by one call shows if it moves the next),
an ``ergodicity_probe`` repr with an expression observable on an H3 map
at basepoints off the origin (the cloud is read at the translated points)
whose third component, which the frame differential never reads, holds
calls, an ``amenable_average`` repr on an R2 sine map, whose values
the differential never reads, three ``amenable_average`` reprs over 3
chunks whose derivative bound is +0.0 (a constant H3 map) or meets an
overflow (H3 maps with exp(800*x2) or exp(800*x1) in a component, whose
frame differential holds inf and NaN, or inf alone), ``amenable_average`` and
``area_formula_check`` reprs (the latter on a
1-D cubic and on the 2-D z^3 + a·z, whose Newton takes the closed-form
Cramer step on 128-target chunks), a 3-D ``local_degree`` repr (Newton
through LAPACK's det and solve), a 1-D ``local_degree`` repr on a map
whose domain has a gap (the line search's batch of remaining step lengths
leaves the domain and is redone one length at a time), ``asymptotic_degree``
reprs on three maps (a doubling, a box average of -vol/2 whose top
coefficient is negated and whose determinant varies, and a quasiball
one), and the reprs of the first cycle of the ``degree`` benchmark for
seeds 1 and 2 (its seeded x^3 - b·x area check and z3 ``local_degree`` at
8 seeded targets), and eight ``local_degree`` reprs on one z^3 map object
whose (window, seed, grid density) changes and comes back between calls,
twice at the target 0, whose triple root forces a retry
(``one_map_degrees``), then an ``area_formula_check`` of the identity of R2
on the unit box, whose degree integral is exact, and a ``local_degree``, an
``area_formula_check`` and a ``local_degree`` again on one z^3 + a·z map
object with one (window, seed, grid density) key (``one_map_area``), and
the ``local_degree`` and ``area_formula_check`` reprs of x -> 3*x1 on R1,
whose Jacobian 3 is exact (``tripling``).  Newton digests cover the bytes
of ``_newton_roots``' points, converged mask and Jacobians on
``test_degree.HARD_COLUMNS`` for n = 1, 2 and 3, with that test's seeded
starts, and on the 3-D H3 batch of
``test_three_dimensional_newton_keeps_the_batched_solve``
(``newton_roots``).  Layer digests cover ``jacobian_batch`` (values and
Jacobians, at 64 and 4000 seeded points) on those two maps and
``differential_batch`` on the ``average`` maps of seeds 1 and 2, with
every zero written as +0.0, so the DSL's generated code is checked at its
own layer and not only through reports.  ``differential_batch`` is also
digested with zero signs and NaN bits kept, on those four maps and the
nine of ``oracles.fused_differential_maps``, at seeded points plus a grid
of +-0, +-inf, NaN, +-1e200 and +-1e-310 in every coordinate.  So are the group law's
products, ``multiply_batch``, ``frame_batch``, ``inv_frame_batch`` and
``translation_jacobian_batch``, on H3, H5, filiform7 and the skewed H3
(``conftest.skewed_heisenberg3``) at 4000 seeded points plus the origin,
with zero signs kept.  So are the coefficient rows'
generated code: the rows of the ``average`` maps' plans on one chunk of
seeded points for seeds 1 and 2, and one-shot ``_coefficient_rows`` on a
stack with +-0.0, +-inf and NaN entries, each NaN written as one NaN.  Exact-layer digests cover the
``cli._ring_results`` reprs (representatives, cup table, cup ranks) of
filiform7, filiform8, free2step4, H9 and seeded dense twins of H5 and
filiform6, ``project_float`` of one seeded vector per degree on each of
them, and, in dict order, the terms of the group law's ``product``,
``trans_jac``, ``frame`` and ``inv_frame`` (the float summation order of
every numeric group-law evaluation) and the ``rows`` and ``tags`` of each
cohomology space's echelon.  The same four group-law digests cover two
laws more: filiform5 with the non-integral structure constants 3/4, -2/3
and 5/2 (``conftest.rational_filiform5``), whose coefficients mix those
denominators with the Bernoulli ones, and a seeded dense twin of
filiform7, the class-6 law of the ``ring`` benchmark's dense bases.  The
ring, ``project_float`` and echelon digests cover that filiform5 and a
seeded dense twin of it too, so non-integral structure constants pass
through the elimination.  The inverse frame is built by substitution; a
checkout that builds it by a Neumann series has the same terms in the same
order for class <= 2 only.  Against such a checkout the ``inv_frame``
digests of filiform7, filiform8 and the dense filiform6 differ, and so, by
float rounding, do the filiform7, filiform8 and filiform7-shifted
``homomorphism_check`` ones.  Then ``ring_invariants`` (Betti numbers and
cup ranks) of the five ``ring`` benchmark algebras, H3, H5, free2step3,
filiform6 and filiform7, on the canonical basis and on one seeded dense
twin each: the canonical bases and the 2-step twins split the cup pairing
into weight blocks, the filiform twins keep it in one block.  The four
group-law term digests cover the dense filiform6 and free2step3 twins
there too, the laws of the ``ring`` benchmark's p50 ops.  Last, three
digests for each of the nine exact-layer algebras above: ``lcs`` and
``weights``, ``LieAlgebra.bracket`` of eight seeded pairs of rational
vectors (terms in dict order), and what validation says of six seeded
tables with one constant changed (the ``JacobiViolation`` or
``NotNilpotent`` message, or the series of a table that stays valid).
The Monte Carlo reduction is digested on its own: the type, shape and
bytes of ``group.cloud_mean`` over 1, 2 and 3 chunks on each of
``oracles.cloud_mean_cases`` (a 1-D array, row blocks in one reused buffer,
blocks it does not own, rows of +-0, +-inf and NaN, a 1e8 offset), then
``multiply_batch`` of (n,) left operands against a (n, N) batch with edge
entries on H3, H5, filiform7 and the skewed H3, zero signs kept, and an
``ergodicity_probe`` with a coordinate observable at 2 basepoints over 3
chunks.
The package is imported from ``PYTHONPATH``, so the same script dumps any checkout:

    PYTHONPATH=src python tests/parity_dump.py new.json
    PYTHONPATH=../old/src python tests/parity_dump.py old.json
    diff old.json new.json

The file holds 268 digests, keyed and sorted, so ``diff`` lists exactly
the cases that moved.  The name keeps pytest from collecting it; a run takes 8-13 s on a
2-core host.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..")]

import nilcoh  # noqa: E402
from bench.workloads import (  # noqa: E402
    BUILDERS, REPRO_STEPS, RING_ALGEBRAS, Average, Degree, dense_twin, heisenberg)
from nilcoh import algebra, bch, cli, degree, group, maps, pullback  # noqa: E402
from nilcoh.forms import basis_form, volume_form, wedge  # noqa: E402
from nilcoh.report import render_stable  # noqa: E402
from conftest import rational_filiform5, skewed_heisenberg3  # noqa: E402
from oracles import cloud_mean_cases, edge_points, fused_differential_maps  # noqa: E402
from test_degree import HARD_COLUMNS  # noqa: E402
from test_golden import CASES, stable_report  # noqa: E402

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_cases() -> dict:
    out = {}
    cwd = os.getcwd()
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                out[f"golden/{name}"] = digest(stable_report(argv))
            finally:
                os.chdir(cwd)
    return out


def repro_reports(samples: int | None) -> dict:
    out = {}
    label = "default" if samples is None else str(samples)
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["repro", "--outdir", tmp] + ([] if samples is None else ["--samples", str(samples)])
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        for step in REPRO_STEPS:
            with open(os.path.join(tmp, f"{step}.report.json"), encoding="utf-8") as fh:
                text = render_stable(json.load(fh))
            out[f"repro-{label}/{step}"] = digest(text.replace(tmp, "OUTDIR"))
    return out


def homomorphism_checks() -> dict:
    out = {}
    for seed in (1, 2, 3, 4):
        work = Average(seed)
        for name, m, (radii, samples, shape) in (("H3", work.m3, work.h3),
                                                  ("H5", work.m5, work.h5)):
            rep = nilcoh.homomorphism_check(m, radii=radii, samples=samples, seed=work.mc_seed,
                                            shape=shape)
            out[f"homomorphism_check/average-{name}-seed{seed}"] = digest(repr(rep))
    for dim in (7, 8):
        alg = algebra.filiform(dim)
        texts = ["x1 + 0.3*sin(x2)"] + [f"x{i}" for i in range(2, dim + 1)]
        m = nilcoh.map_from_texts(alg, alg, texts)
        rep = nilcoh.homomorphism_check(m, radii=(2.0, 4.0), samples=4000, seed=0)
        out[f"homomorphism_check/filiform{dim}"] = digest(repr(rep))
        if dim == 7:  # F(0) != 0: the parent's normalization gave it a shift
            shifted = nilcoh.map_from_texts(alg, alg, [t + c for t, c in zip(texts, (
                " + 1", " - 0.5", " + 0.25", " + 2", " - 0.75", " + 1.5", " - 3"))])
            rep = nilcoh.homomorphism_check(shifted, radii=(2.0, 4.0), samples=4000, seed=0)
            out["homomorphism_check/filiform7-shifted"] = digest(repr(rep))
    for name, m, form in constant_entry_maps():
        with np.errstate(over="ignore", invalid="ignore"):
            rep = nilcoh.homomorphism_check(m, radii=(2.0, 4.0), samples=4000, seed=0)
            est = nilcoh.amenable_average(m, form, radii=(2.0, 4.0), samples=4000, seed=0)
        out[f"homomorphism_check/{name}"] = digest(repr(rep))
        out[f"amenable_average/{name}"] = digest(repr(est))
    return out


def constant_entry_maps() -> list:
    """Maps whose frame differential has constant entries other than 0 and
    1, each with a form to average: the H3 doubling, whose top row is the
    constant 4.0; a linear shear of filiform7 by 0.3, a constant that is no
    dyadic fraction, so that sums of it round; and an H3 map with the
    constant exp(800) = inf in a component, whose D holds inf."""
    h3, f7 = algebra.heisenberg3(), algebra.filiform(7)
    shear = ["x1", "x2 + 0.3*x1"] + [f"x{i}" for i in range(3, 8)]
    return [
        ("h3-doubling", nilcoh.map_from_texts(h3, h3, ["2*x1", "x2", "2*x3"]), volume_form(h3)),
        ("filiform7-shear", nilcoh.map_from_texts(f7, f7, shear),
         wedge(basis_form(f7, (0,)), basis_form(f7, (6,)))),
        ("h3-exp800", nilcoh.map_from_texts(h3, h3, ["x1 + exp(800)*x2", "x2", "x3"]),
         basis_form(h3, (0, 2))),
    ]


def warm_repeats() -> dict:
    out = {}
    work = Average(5)
    for name, m, (radii, samples, shape) in (("H3", work.m3, work.h3), ("H5", work.m5, work.h5)):
        for call in range(3):
            rep = nilcoh.homomorphism_check(m, radii=radii, samples=samples,
                                            seed=work.mc_seed + call, shape=shape)
            out[f"homomorphism_check-warm/average-{name}-call{call}"] = digest(repr(rep))
    return out


def library_calls() -> dict:
    h3, h5, r1 = algebra.heisenberg3(), algebra.heisenberg5(), algebra.abelian(1)
    m5 = nilcoh.map_from_texts(h5, h5, ["x1 + 0.3*sin(x2) + 1", "x2 - 0.5", "x3 + 0.2*x4^2",
                                        "x4 + 0.1*sin(x1) + 0.5", "x5 + 0.2*x1*x3 + 2"])
    omega = wedge(basis_form(h5, (0, 1)), basis_form(h5, (4,)))
    doubling = nilcoh.map_from_texts(h3, h3, ["2*x1", "x2", "2*x3"])
    cubic = nilcoh.map_from_texts(r1, r1, ["x1^3 - x1"])
    bent = nilcoh.map_from_texts(h3, h3, ["2*x1 + 0.3*sin(x2)", "x2 + 0.25*x1^2", "2*x3 + x1*x2"])
    wobble = nilcoh.map_from_texts(h5, h5, ["x1 + 0.3*sin(x1)", "x2", "x3 + 0.2*x4^2", "x4",
                                            "x5 + 0.2*x1*x3"])
    r2 = algebra.abelian(2)
    z3 = nilcoh.map_from_texts(r2, r2, ["x1^3 - 3*x1*x2^2 + 0.1234*x1",
                                        "3*x1^2*x2 - x2^3 + 0.1234*x2"])
    lapack = nilcoh.map_from_texts(h3, h3, ["x1 + 0.3*sin(x2)", "x2 + 0.1*x3^3",
                                            "x3 + 0.2*x1^2"])
    # defined off the gap |x1 + 0.25| <= 0.05: a column that misses the full
    # step takes 1/2 across the gap, and the batch of the remaining step
    # lengths meets the gap and is redone one length at a time
    gap = nilcoh.map_from_texts(r1, r1, ["tanh(x1) + 0.1*log((x1 + 0.25)^2 - 0.0025)"])
    # the frame differential reads no value of the third component on H3, nor
    # any value on R2: these runs skip the values of their calls
    wavy = nilcoh.map_from_texts(h3, h3, ["x1 + 0.3*sin(x2)", "x2 - 0.2*cos(x1)",
                                          "x3 + 0.2*sin(x1) - cos(x2)"])
    basepoints = [tuple(bch.group_law(h3).multiply([0.5, -1.0, 0.25], list(p)))
                  for p in ((0.0, 0.0, 0.0), (1.0, 2.0, -1.0))]
    wedge_minor = nilcoh.parse_observable("d11*d22 - d12*d21 + d33", 3, 3)
    sine = nilcoh.map_from_texts(r2, r2, ["x1 + 0.5*sin(x2)", "x2 - sin(x1)"])
    # derivative bounds over 3 chunks: +0.0 on a constant map, and on maps
    # whose frame differential overflows, to inf and NaN or to inf alone
    bounds = {name: nilcoh.map_from_texts(h3, h3, texts) for name, texts in (
        ("h3-constant", ["1", "2", "-0.5"]), ("h3-overflow-nan", ["x1 + exp(800*x2)", "x2", "x3"]),
        ("h3-overflow-inf", ["x1", "x2", "x3 + exp(800*x1)"]))}
    with np.errstate(over="ignore", invalid="ignore"):
        out = {f"amenable_average/{name}": digest(repr(nilcoh.amenable_average(
            m, volume_form(h3), radii=(0.5, 1.0, 2.0), samples=20000, seed=3)))
            for name, m in bounds.items()}
    return out | {
        "ergodicity_probe/h3-acted-expression": digest(repr(nilcoh.ergodicity_probe(
            wavy, [wedge_minor], basepoints, radii=(2.0, 4.0),
            samples=2000, seed=3))),
        "amenable_average/r2-sine": digest(repr(nilcoh.amenable_average(
            sine, volume_form(r2), radii=(4.0, 8.0), samples=3000, seed=2))),
        "amenable_average/h5-shifted": digest(repr(nilcoh.amenable_average(
            m5, omega, radii=(4.0, 8.0), samples=3000, seed=2))),
        "asymptotic_degree/h3-doubling": digest(repr(nilcoh.asymptotic_degree(
            doubling, radii=(4.0, 8.0), samples=3000, seed=2))),
        "asymptotic_degree/h3-box-negated": digest(repr(nilcoh.asymptotic_degree(
            bent, volume_form(h3).scale(-0.5), radii=(2.0, 4.0, 8.0), samples=3000, seed=3))),
        "asymptotic_degree/h5-quasiball": digest(repr(nilcoh.asymptotic_degree(
            wobble, radii=(2.0, 4.0), samples=3000, seed=4, shape="quasiball"))),
        "area_formula_check/cubic": digest(repr(nilcoh.area_formula_check(
            cubic, 2.0, samples=2000, seed=2))),
        "area_formula_check/z3": digest(repr(nilcoh.area_formula_check(
            z3, 1.0, samples=600, seed=3))),
        "local_degree/h3-lapack": digest(repr(nilcoh.local_degree(
            lapack, 2.0, (0.1, 0.2, 0.3), grid_density=4, seed=0))),
        "local_degree/r1-gap": digest(repr(nilcoh.local_degree(
            gap, 3.0, (0.1,), grid_density=8, seed=0))),
    }


def one_map_degrees() -> dict:
    """``local_degree`` on one map object, so a set-up kept on the map by
    one call shows if it moves a later call with another window, seed or
    grid density, or the same ones again; ``BallSpec(2)`` is the window 2.0
    given as an integer radius."""
    r2 = algebra.abelian(2)
    z3 = nilcoh.map_from_texts(r2, r2, ["x1^3 - 3*x1*x2^2", "3*x1^2*x2 - x2^3"])
    calls = [((0.3, -0.2), 2.0, 0, 8), ((0.1, 0.25), 2.0, 0, 8), ((0.0, 0.0), 2.0, 0, 8),
             ((0.3, -0.2), 1.5, 3, 8), ((0.3, -0.2), nilcoh.BallSpec(2), 0, 8),
             ((-0.2, 0.1), 2.0, 3, 8), ((0.0, 0.0), 2.0, 3, 6), ((0.1, 0.25), 2.0, 3, 6)]
    return {f"local_degree-one-map/z3-call{i}": digest(repr(nilcoh.local_degree(
        z3, window, target, grid_density=density, seed=seed)))
        for i, (target, window, seed, density) in enumerate(calls)}


def one_map_area() -> dict:
    """The area check of the identity of R2 on the unit box (its degree is 1
    on the whole box), and the area check between two ``local_degree``
    calls on one map object with one key, so a set-up shared by the two
    calls shows if it moves either."""
    r2 = algebra.abelian(2)
    ident = nilcoh.map_from_texts(r2, r2, ["x1", "x2"])
    z3 = nilcoh.map_from_texts(r2, r2, ["x1^3 - 3*x1*x2^2 + 0.1234*x1",
                                        "3*x1^2*x2 - x2^3 + 0.1234*x2"])
    return {
        "area_formula_check/r2-identity": digest(repr(nilcoh.area_formula_check(
            ident, 1.0, samples=4000, seed=1))),
        "degree-one-map/z3-local": digest(repr(nilcoh.local_degree(
            z3, 1.0, (0.1, -0.05), grid_density=8, seed=3))),
        "degree-one-map/z3-area": digest(repr(nilcoh.area_formula_check(
            z3, 1.0, samples=600, seed=3, grid_density=8))),
        "degree-one-map/z3-local-again": digest(repr(nilcoh.local_degree(
            z3, 1.0, (0.1, -0.05), grid_density=8, seed=3))),
    }


def tripling() -> dict:
    """x -> 3*x1 on R1: its Jacobian is the exact 3, so every determinant
    the degree engine reports of it is 3 too."""
    r1 = algebra.abelian(1)
    m = nilcoh.map_from_texts(r1, r1, ["3*x1"])
    return {
        "local_degree/r1-tripling": digest(repr(nilcoh.local_degree(m, 1.0, (0.3,)))),
        "area_formula_check/r1-tripling": digest(repr(nilcoh.area_formula_check(
            m, 1.0, samples=4000, seed=1))),
    }


def newton_roots() -> dict:
    """The bytes of ``_newton_roots``' three outputs on the hard columns of
    ``test_newton_on_take_gathers_has_the_bytes_of_the_masked_loop`` (an
    unsolvable start, a stalled one, an overflow and one still iterating at
    the last round, after 300 seeded columns) and on the 3-D H3 batch of
    ``test_three_dimensional_newton_keeps_the_batched_solve``."""
    out = {}
    cases = []
    for n, (alg, texts) in sorted(HARD_COLUMNS.items()):
        gen = np.random.default_rng(20 + n)
        hard_starts, hard_targets = np.zeros((n, 4)), np.zeros((n, 4))
        hard_starts[0] = [1.0, 1.001, 1e200, 1e60]
        hard_targets[0] = [0.5, -2.5, 0.0, 0.0]
        starts = np.concatenate([gen.uniform(-2.0, 2.0, (n, 300)), hard_starts], axis=1)
        targets = np.concatenate([gen.uniform(-1.0, 1.0, (n, 300)), hard_targets], axis=1)
        cases.append((f"hard-columns-{n}", nilcoh.map_from_texts(alg, alg, texts), starts, targets))
    h3 = algebra.heisenberg3()
    gen = np.random.default_rng(12)
    cases.append(("h3-batch", nilcoh.map_from_texts(
        h3, h3, ["x1 + 0.3*sin(x2)", "x2 + 0.1*x3^3", "x3 + 0.2*x1^2"]),
        gen.uniform(-2.0, 2.0, size=(3, 200)), gen.uniform(-0.5, 0.5, size=(3, 200))))
    for name, m, starts, targets in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            got = degree._newton_roots(m, starts, targets)
        h = hashlib.sha256()
        for a in got:
            h.update(a.tobytes())
        out[f"newton/{name}"] = h.hexdigest()
    return out


def layer_digests() -> dict:
    """``jacobian_batch`` (values and Jacobians) on the ``degree`` maps and
    ``differential_batch`` on the ``average`` maps, at seeded points, with
    every zero written as +0.0: the tape's partials of the coordinates a
    term does not read are exact zeros whose sign is not pinned."""
    out = {}
    gen = np.random.default_rng(9)

    def zeros_as_plus(*batches) -> str:
        h = hashlib.sha256()
        for b in batches:
            h.update(np.ascontiguousarray(b + 0.0).tobytes())
        return h.hexdigest()

    for seed in (1, 2):
        work = Degree(seed)
        for name, m in (("cubic", work.cubic), ("z3", work.z3)):
            for count in (64, 4000):
                x = gen.uniform(-2.0, 2.0, size=(m.domain.dim, count))
                out[f"layer/jacobian_batch-{name}-seed{seed}-{count}"] = zeros_as_plus(
                    *maps.jacobian_batch(m, x))
        work = Average(seed)
        for name, m in (("H3", work.m3), ("H5", work.m5)):
            x = gen.uniform(-4.0, 4.0, size=(m.domain.dim, 2000))
            out[f"layer/differential_batch-{name}-seed{seed}"] = zeros_as_plus(
                maps.differential_batch(m, x))
    out.update(group_law_batches())
    out.update(coefficient_rows())
    out.update(signed_differentials())
    return out


def signed_differentials() -> dict:
    """``differential_batch`` with zero signs and NaN bits kept, on the
    ``average`` maps of seeds 1 and 2 and on ``oracles.fused_differential_maps``,
    at 500 seeded points plus ``oracles.edge_points``."""
    out = {}
    gen = np.random.default_rng(17)
    cases = [(f"average-{name}-seed{seed}", m) for seed in (1, 2)
             for name, m in (("H3", Average(seed).m3), ("H5", Average(seed).m5))]
    for name, m in cases + fused_differential_maps():
        n = m.domain.dim
        x = np.concatenate([gen.uniform(-4.0, 4.0, size=(n, 500)), edge_points(n, gen)], axis=1)
        with np.errstate(all="ignore"):
            mats = maps.differential_batch(m, x)
        out[f"layer/differential_batch-signed-{name}"] = hashlib.sha256(mats.tobytes()).hexdigest()
    return out


def group_law_batches() -> dict:
    """The product and the three frame products of four laws at 4000 seeded
    points plus the origin, each frame product on a fresh copy of one seeded
    stack; zero signs count."""
    out = {}
    gen = np.random.default_rng(13)
    for name, alg in (("H3", algebra.heisenberg3()), ("H5", algebra.heisenberg5()),
                      ("filiform7", algebra.filiform(7)), ("skewed-H3", skewed_heisenberg3())):
        law, n = bch.group_law(alg), alg.dim
        x, y = np.concatenate([np.zeros((2, n, 1)), gen.uniform(-4.0, 4.0, (2, n, 4000))], axis=2)
        stack = gen.uniform(-1.0, 1.0, (n, n, 4001))
        for method, result in (
                ("multiply_batch", law.multiply_batch(x, y)),
                ("frame_batch", law.frame_batch(x, stack.copy())),
                ("inv_frame_batch", law.inv_frame_batch(x, stack.copy())),
                ("translation_jacobian_batch", law.translation_jacobian_batch(x, y, stack.copy()))):
            out[f"layer/{method}-{name}"] = hashlib.sha256(result.tobytes()).hexdigest()
    return out


def coefficient_rows() -> dict:
    """The rows of the ``average`` maps' planned blocks on one chunk of
    seeded points, read per (form, lambda) pair as ``_ball_averages`` reads
    them (the zero slot for a pair with no live term, 0.0 - row for a
    negated one), so that plans that merge rows stay comparable; and
    one-shot ``_coefficient_rows`` of H5's cohomology representatives and
    their products on a stack with +-0.0, +-inf and NaN entries.  Signed zeros count; each NaN is written as one canonical NaN,
    as no report shows its sign."""
    out = {}
    gen = np.random.default_rng(11)

    def rows_digest(rows) -> str:
        return hashlib.sha256(np.where(np.isnan(rows), np.nan, rows).tobytes()).hexdigest()

    for seed in (1, 2):
        work = Average(seed)
        for name, m, (_, samples, _) in (("H3", work.m3, work.h3), ("H5", work.m5, work.h5)):
            chunk = pullback._chunk(samples)
            plan = pullback._induced_setup(m, True, chunk)[3]
            x = gen.uniform(-4.0, 4.0, size=(m.domain.dim, chunk))
            entries = pullback._entries(maps.differential_batch(m, x))
            blocks = []
            for size, rows in plan.blocks:
                blocks.append(np.empty((size, chunk)))
                rows(entries, blocks[-1])
            blocks.append(np.zeros((1, chunk)))  # the zero slot
            pairs = np.concatenate(blocks)[plan.rows]
            np.subtract(0.0, pairs, out=pairs, where=plan.negated[:, None])
            out[f"layer/coefficient_rows-average-{name}-seed{seed}"] = rows_digest(pairs)
    h5 = algebra.heisenberg5()
    reps = [w for space in nilcoh.cohomology(h5).spaces for w in space.representatives]
    forms = reps + [wedge(a, b) for a in reps for b in reps if a.degree + b.degree <= 5]
    pairs = [(w, lam[::-1]) for w in forms for lam in itertools.combinations(range(5), w.degree)]
    mats = gen.standard_normal((64, 5, 5))
    special = gen.random(mats.shape) < 0.15
    mats[special] = gen.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=special.sum())
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
        rows = pullback._coefficient_rows(mats, pairs)
    out["layer/coefficient_rows-one-shot-specials"] = rows_digest(rows)
    return out


def cloud_means() -> dict:
    """``group.cloud_mean`` on ``oracles.cloud_mean_cases``: the type, shape
    and bytes of the mean and the stderr."""
    out = {}
    for name, (cloud, values) in cloud_mean_cases().items():
        with np.errstate(invalid="ignore"):  # inf - inf in the specials
            result = group.cloud_mean(cloud, values)
        out[f"cloud_mean/{name}"] = digest(repr([
            (type(a).__name__, np.shape(a), np.asarray(a).tobytes().hex()) for a in result]))
    return out


def broadcast_products() -> dict:
    """``multiply_batch`` of three (n,) left operands (a seeded point, -0.0
    in every coordinate, and edge values) against one (n, N) batch of 500
    seeded points plus ``oracles.edge_points``, on four laws; zero signs
    and NaN bits count."""
    out = {}
    gen = np.random.default_rng(19)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e-310]
    for name, alg in (("H3", algebra.heisenberg3()), ("H5", algebra.heisenberg5()),
                      ("filiform7", algebra.filiform(7)), ("skewed-H3", skewed_heisenberg3())):
        law, n = bch.group_law(alg), alg.dim
        b = np.concatenate([gen.uniform(-4.0, 4.0, (n, 500)), edge_points(n, gen)], axis=1)
        h = hashlib.sha256()
        for a in (gen.uniform(-4.0, 4.0, n), np.full(n, -0.0), np.resize(edges, n)):
            with np.errstate(all="ignore"):
                h.update(law.multiply_batch(a, b).tobytes())
        out[f"layer/multiply_batch-broadcast-{name}"] = h.hexdigest()
    return out


def coordinate_probe() -> dict:
    """An ``ergodicity_probe`` with a coordinate observable, which runs
    ``multiply_batch`` in every chunk, and a derivative one at 2 basepoints
    over 3 chunks."""
    h3 = algebra.heisenberg3()
    m = nilcoh.map_from_texts(h3, h3, ["x1 + 0.3*sin(x2)", "x2 - 0.2*cos(x1)",
                                       "x3 + 0.2*sin(x1) - cos(x2)"])
    observables = [nilcoh.parse_observable("coord3@0.5:-0.25:1", 3, 3),
                   nilcoh.parse_observable("d12", 3, 3)]
    probe = nilcoh.ergodicity_probe(m, observables, [(0.5, -1.0, 0.25), (1.0, 2.0, -1.0)],
                                    radii=(2.0, 4.0), samples=20000, seed=5)
    return {"ergodicity_probe/h3-coordinate": digest(repr(probe))}


def degree_cycles() -> dict:
    out = {}
    for seed in (1, 2):
        for i, op in enumerate(Degree(seed).cycle()):
            out[f"degree-bench/seed{seed}-{i}-{op.kind}"] = digest(repr(op.call()))
    return out


def group_law_terms(name: str, alg) -> dict:
    out = {}
    law = bch.group_law(alg)
    for field in ("product", "trans_jac", "frame", "inv_frame"):
        polys = getattr(law, field)
        terms = ([list(p.terms.items()) for p in polys] if field == "product"
                 else [[list(p.terms.items()) for p in row] for row in polys])
        out[f"exact/group_law-{field}-{name}"] = digest(repr(terms))
    return out


def ring_terms(name: str, alg, rng) -> dict:
    """The ring, a seeded ``project_float`` per degree and the echelons."""
    out = {f"exact/ring-{name}": digest(repr(cli._ring_results(alg)))}
    coords = [space.project_float(rng.standard_normal(math.comb(alg.dim, k)))
              for k, space in enumerate(nilcoh.cohomology(alg).spaces)]
    out[f"exact/project_float-{name}"] = digest(repr(coords))
    echelons = [[(p, list(row.items()), list(space.echelon.tags[p].items()))
                 for p, row in space.echelon.rows.items()]
                for space in nilcoh.cohomology(alg).spaces]
    out[f"exact/echelon-{name}"] = digest(repr(echelons))
    return out


def algebra_terms(name: str, alg, seed: int) -> dict:
    """``lcs`` and ``weights``, the bracket of seeded rational vectors in dict
    order, and what validation says of seeded corruptions of the table."""
    out = {f"exact/lcs-weights-{name}": digest(repr((alg.lcs, alg.weights)))}
    rng = random.Random(seed)

    def vector():
        return {i: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for i in rng.sample(range(alg.dim), rng.randint(0, alg.dim))}

    brackets = [list(alg.bracket(vector(), vector()).items()) for _ in range(8)]
    out[f"exact/bracket-{name}"] = digest(repr(brackets))
    verdicts = []
    for _ in range(6):  # one constant changed: a Jacobi residual, non-nilpotent or valid
        structure = {pair: dict(comps) for pair, comps in alg.structure.items()}
        i, j = sorted(rng.sample(range(alg.dim), 2))
        comps = structure.setdefault((i, j), {})
        k = rng.randrange(alg.dim)
        comps[k] = comps.get(k, Fraction(0)) + Fraction(rng.choice([-3, -1, 1, 2]),
                                                        rng.choice([1, 2, 5]))
        try:
            valid = nilcoh.validate_algebra(structure, alg.dim)
            verdicts.append(("valid", valid.lcs, valid.weights))
        except algebra.AlgebraError as e:
            verdicts.append((type(e).__name__, str(e)))
    out[f"exact/jacobi-{name}"] = digest(repr(verdicts))
    return out


def exact_layer() -> dict:
    algebras = {"filiform7": algebra.filiform(7), "filiform8": algebra.filiform(8),
                "free2step4": algebra.free_nilpotent_two_step(4),
                "H9": nilcoh.validate_algebra(*heisenberg(4)[:2])}
    for seed, (name, family, size) in enumerate((("H5", "heisenberg", 2),
                                                  ("filiform6", "filiform", 6))):
        structure, dim = BUILDERS[family](size)[:2]
        twin = dense_twin(structure, dim, random.Random(seed))
        algebras[f"dense-{name}"] = nilcoh.validate_algebra(twin, dim)
    out = {}
    rng = np.random.default_rng(3)
    for seed, (name, alg) in enumerate(algebras.items()):
        out.update(ring_terms(name, alg, rng))
        out.update(group_law_terms(name, alg))
        out.update(algebra_terms(name, alg, seed))
    structure, dim = BUILDERS["filiform"](7)[:2]
    twin = nilcoh.validate_algebra(dense_twin(structure, dim, random.Random(2)), dim)
    rational = rational_filiform5()
    for seed, (name, alg) in enumerate((("rational-filiform5", rational),
                                         ("dense-filiform7", twin)), 10):
        out.update(group_law_terms(name, alg))
        out.update(algebra_terms(name, alg, seed))
    rational_twin = nilcoh.validate_algebra(dense_twin(rational.structure, 5, random.Random(3)), 5)
    for name, alg in (("rational-filiform5", rational),
                      ("dense-rational-filiform5", rational_twin)):
        out.update(ring_terms(name, alg, rng))
    out.update(algebra_terms("dense-rational-filiform5", rational_twin, 12))
    return out


def ring_invariants() -> dict:
    out = {}
    for seed, (name, (family, size)) in enumerate(sorted(RING_ALGEBRAS.items())):
        structure, dim = BUILDERS[family](size)[:2]
        twin = dense_twin(structure, dim, random.Random(seed))
        for basis, s in (("canonical", structure), ("dense", twin)):
            alg = nilcoh.validate_algebra(s, dim)
            ring = nilcoh.cohomology(alg)
            out[f"ring_invariants/{name}-{basis}"] = digest(repr(nilcoh.ring_invariants(ring)))
            if basis == "dense" and name in ("filiform6", "free2step3"):
                out.update(group_law_terms(f"ring-dense-{name}", alg))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    dump = {**golden_cases(), **repro_reports(20000), **repro_reports(None),
            **homomorphism_checks(), **warm_repeats(), **library_calls(), **one_map_degrees(),
            **one_map_area(), **tripling(), **newton_roots(), **layer_digests(),
            **degree_cycles(), **exact_layer(), **ring_invariants(), **cloud_means(),
            **broadcast_products(), **coordinate_probe()}
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(dump, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(dump)} digests written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
