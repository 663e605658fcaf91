"""Write sha256 digests of the outputs a numeric change must not move.

    python tests/parity_dump.py OUT.json

The digests cover the 9 golden CLI cases (``test_golden.CASES``), the 7
``nilcoh repro`` reports at ``--samples 20000`` and at the default (the
temporary output directory replaced by ``OUTDIR``), the reprs of
``homomorphism_check`` on the ``average`` benchmark maps for seeds 1-4 and
on filiform7 and filiform8, and ``amenable_average``, ``asymptotic_degree``
and ``area_formula_check`` reprs.  The package is imported from
``PYTHONPATH``, so the same script dumps any checkout:

    PYTHONPATH=src python tests/parity_dump.py new.json
    PYTHONPATH=../old/src python tests/parity_dump.py old.json
    diff old.json new.json

The file is keyed and sorted, so ``diff`` lists exactly the cases that
moved.  The name keeps pytest from collecting it; a run takes 3-8 s on a
2-core host.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..")]

import nilcoh  # noqa: E402
from bench.workloads import REPRO_STEPS, Average  # noqa: E402
from nilcoh import algebra, cli  # noqa: E402
from nilcoh.forms import basis_form, wedge  # noqa: E402
from nilcoh.report import render_stable  # noqa: E402
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
    return out


def library_calls() -> dict:
    h3, h5, r1 = algebra.heisenberg3(), algebra.heisenberg5(), algebra.abelian(1)
    m5 = nilcoh.map_from_texts(h5, h5, ["x1 + 0.3*sin(x2) + 1", "x2 - 0.5", "x3 + 0.2*x4^2",
                                        "x4 + 0.1*sin(x1) + 0.5", "x5 + 0.2*x1*x3 + 2"])
    omega = wedge(basis_form(h5, (0, 1)), basis_form(h5, (4,)))
    doubling = nilcoh.map_from_texts(h3, h3, ["2*x1", "x2", "2*x3"])
    cubic = nilcoh.map_from_texts(r1, r1, ["x1^3 - x1"])
    return {
        "amenable_average/h5-shifted": digest(repr(nilcoh.amenable_average(
            m5, omega, radii=(4.0, 8.0), samples=3000, seed=2))),
        "asymptotic_degree/h3-doubling": digest(repr(nilcoh.asymptotic_degree(
            doubling, radii=(4.0, 8.0), samples=3000, seed=2))),
        "area_formula_check/cubic": digest(repr(nilcoh.area_formula_check(
            cubic, 2.0, samples=2000, seed=2))),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    dump = {**golden_cases(), **repro_reports(20000), **repro_reports(None),
            **homomorphism_checks(), **library_calls()}
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(dump, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(dump)} digests written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
