"""Write sha256 digests of the outputs a numeric change must not move.

    python tests/parity_dump.py OUT.json

The digests cover the 9 golden CLI cases (``test_golden.CASES``), the 7
``nilcoh repro`` reports at ``--samples 20000`` and at the default (the
temporary output directory replaced by ``OUTDIR``), the reprs of
``homomorphism_check`` on the ``average`` benchmark maps for seeds 1-4, on
filiform7 and filiform8, on the seed-1 H5 map acted on by a point and on
the filiform7 map plus constants (F(0) != 0), whose frame differentials
are read at moved points or next to a shift, three warm repeats of each ``average`` map's
``homomorphism_check`` in one process (a new seed at the 2nd and 3rd
call, so a cache filled by one call shows if it moves the next),
``amenable_average`` and ``area_formula_check`` reprs (the latter on a
1-D cubic and on the 2-D z^3 + a·z, whose Newton takes the closed-form
Cramer step on 128-target chunks), a 3-D ``local_degree`` repr (Newton
through LAPACK's det and solve), a 1-D ``local_degree`` repr on a map
whose domain has a gap (the line search's batch of remaining step lengths
leaves the domain and is redone one length at a time), ``asymptotic_degree``
reprs on three maps (a doubling, a box average of -vol/2 whose top
coefficient is negated and whose determinant varies, and a quasiball
one), and the reprs of the first cycle of the ``degree`` benchmark for
seeds 1 and 2 (its seeded x^3 - b·x area check and z3 ``local_degree`` at
8 seeded targets).  Exact-layer digests cover the
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
``homomorphism_check`` ones.  Last, ``ring_invariants`` (Betti numbers and
cup ranks) of the five ``ring`` benchmark algebras, H3, H5, free2step3,
filiform6 and filiform7, on the canonical basis and on one seeded dense
twin each: the canonical bases and the 2-step twins split the cup pairing
into weight blocks, the filiform twins keep it in one block.  The package
is imported from ``PYTHONPATH``, so the same script dumps any checkout:

    PYTHONPATH=src python tests/parity_dump.py new.json
    PYTHONPATH=../old/src python tests/parity_dump.py old.json
    diff old.json new.json

The file holds 133 digests, keyed and sorted, so ``diff`` lists exactly
the cases that moved.  The name keeps pytest from collecting it; a run takes 8-13 s on a
2-core host.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..")]

import nilcoh  # noqa: E402
from bench.workloads import (  # noqa: E402
    BUILDERS, REPRO_STEPS, RING_ALGEBRAS, Average, Degree, dense_twin, heisenberg)
from nilcoh import algebra, bch, cli  # noqa: E402
from nilcoh.forms import basis_form, volume_form, wedge  # noqa: E402
from nilcoh.report import render_stable  # noqa: E402
from conftest import rational_filiform5  # noqa: E402
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
    work = Average(1)
    radii, samples, shape = work.h5
    acted = nilcoh.act(work.m5, (0.5, -1.0, 0.25, 2.0, -0.75))
    rep = nilcoh.homomorphism_check(acted, radii=radii, samples=samples, seed=work.mc_seed,
                                    shape=shape)
    out["homomorphism_check/average-H5-acted"] = digest(repr(rep))
    return out


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
    return {
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
    for name, alg in algebras.items():
        out.update(ring_terms(name, alg, rng))
        out.update(group_law_terms(name, alg))
    structure, dim = BUILDERS["filiform"](7)[:2]
    twin = nilcoh.validate_algebra(dense_twin(structure, dim, random.Random(2)), dim)
    rational = rational_filiform5()
    for name, alg in (("rational-filiform5", rational), ("dense-filiform7", twin)):
        out.update(group_law_terms(name, alg))
    rational_twin = nilcoh.validate_algebra(dense_twin(rational.structure, 5, random.Random(3)), 5)
    for name, alg in (("rational-filiform5", rational),
                      ("dense-rational-filiform5", rational_twin)):
        out.update(ring_terms(name, alg, rng))
    return out


def ring_invariants() -> dict:
    out = {}
    for seed, (name, (family, size)) in enumerate(sorted(RING_ALGEBRAS.items())):
        structure, dim = BUILDERS[family](size)[:2]
        twin = dense_twin(structure, dim, random.Random(seed))
        for basis, s in (("canonical", structure), ("dense", twin)):
            ring = nilcoh.cohomology(nilcoh.validate_algebra(s, dim))
            out[f"ring_invariants/{name}-{basis}"] = digest(repr(nilcoh.ring_invariants(ring)))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    dump = {**golden_cases(), **repro_reports(20000), **repro_reports(None),
            **homomorphism_checks(), **warm_repeats(), **library_calls(), **degree_cycles(),
            **exact_layer(), **ring_invariants()}
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(dump, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(dump)} digests written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
