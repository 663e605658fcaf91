"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not tuned: exact assertions where the pipeline
is exact (rational algebra, automorphism pullbacks, determinism), and
3 x Monte Carlo standard error (or the stated absolute bound) where the
estimate is sampled.
"""

import functools
import json
import random

import numpy as np
import pytest

from nilcoh import algebra
from nilcoh.algebra import save_algebra
from nilcoh.cli import main
from nilcoh.cohomology import cohomology, ring_invariants
from nilcoh.degree import area_formula_check, asymptotic_degree, local_degree
from nilcoh.ergodic import derivative_entry, ergodicity_probe
from nilcoh.forms import basis_covector, ce_differential
from nilcoh.maps import map_from_texts, normalize_to_y0
from nilcoh.pullback import amenable_average, homomorphism_check
from nilcoh.report import render_stable
from conftest import corpus
from oracles import naive_betti, random_rational_form

SEED = 7

R1 = algebra.abelian(1)
R2 = algebra.abelian(2)
H3 = algebra.heisenberg3()


def criterion(number, description):
    """Always emit the per-criterion verdict line, even when asserts fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")

        return run

    return wrap


def _f1():
    return normalize_to_y0(map_from_texts(R1, R2, ["x1", "sin(x1)"]))


def _f2():
    return normalize_to_y0(map_from_texts(R1, R2, ["x1", "abs(x1)"]))


@criterion(1, "d.d = 0 (100 random rational forms per algebra), Jacobi validated, Betti vectors match the brute-force oracle, Poincare duality and zero Euler characteristic hold exactly")
def test_criterion_1_exact_algebra_suite():
    rng = random.Random(101)
    for name, alg in corpus().items():
        n = alg.dim
        for _ in range(100):
            degree = rng.randint(0, n)
            f = random_rational_form(alg, degree, rng)
            assert ce_differential(ce_differential(f)).is_zero(), (name, degree)
        betti = cohomology(alg).betti
        assert betti == naive_betti(alg), name
        assert all(betti[k] == betti[n - k] for k in range(n + 1)), name
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0, name


@criterion(2, "cup rank(1,1) is 0 for h3 and 3 for R^3 exactly; compare distinguishes R^3/h3 and R^4/filiform-4")
def test_criterion_2_ring_structure(tmp_path, capsys):
    inv_h3 = ring_invariants(cohomology(H3))
    inv_r3 = ring_invariants(cohomology(algebra.abelian(3)))
    assert inv_h3["cup_ranks"][(1, 1)] == 0
    assert inv_r3["cup_ranks"][(1, 1)] == 3

    save_algebra(algebra.abelian(3), str(tmp_path / "r3.json"))
    save_algebra(H3, str(tmp_path / "h3.json"))
    save_algebra(algebra.abelian(4), str(tmp_path / "r4.json"))
    save_algebra(algebra.filiform(4), str(tmp_path / "fil4.json"))
    for a, b in (("r3", "h3"), ("r4", "fil4")):
        code = main(["compare", "--algebra-a", str(tmp_path / f"{a}.json"),
                     "--algebra-b", str(tmp_path / f"{b}.json")])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["verdict"] == "distinguished", (a, b)


@criterion(3, "f1 dy2-average equals sin(R)/R = 0 within 3 x stderr at radii 4pi..128pi and 1e5 samples; dy1-average equals 1 within 1e-12")
def test_criterion_3_amenable_average_oracle():
    radii = [4 * np.pi * 2 ** k for k in range(6)]  # 4pi .. 128pi
    m = _f1()
    est = amenable_average(m, basis_covector(R2, 1), radii, samples=100000, seed=SEED)
    for r, value, se in zip(radii, est.values, est.mc_stderr):
        got = value.coeffs.get((0,), 0.0)
        assert abs(got - np.sin(r) / r) <= 3.0 * se[(0,)], r

    est1 = amenable_average(m, basis_covector(R2, 0), radii, samples=100000, seed=SEED)
    for value in est1.values:
        assert abs(value.coeffs.get((0,), 0.0) - 1.0) <= 1e-12


@criterion(4, "h3 doubling automorphism induces diag(2,1) in degree 1 and 4 in degree 3; chain and multiplicativity residuals < 1e-9")
def test_criterion_4_induced_map_exact_on_automorphism():
    m = map_from_texts(H3, H3, ["2*x1", "x2", "2*x3"])
    rep = homomorphism_check(m, radii=[2.0, 4.0], samples=2000, seed=SEED)
    assert np.allclose(rep.matrices[1], [[2.0, 0.0], [0.0, 1.0]], atol=1e-12)
    assert np.allclose(rep.matrices[3], [[4.0]], atol=1e-12)
    assert max(rep.chain_residuals.values()) < 1e-9
    assert max(rep.mult_residuals.values()) < 1e-9


@criterion(5, "f1 probes consistent-with-ergodic with limits (0, 1/2) within 1e-2; f2 probes non-ergodic-evidence with spread >= 1.5")
def test_criterion_5_ergodicity_probes():
    obs = [derivative_entry(1, 2), derivative_entry(1, 2, squared=True)]
    radii = [4 * np.pi * 2 ** k for k in range(4)]
    probe = ergodicity_probe(_f1(), obs, [0.0, 1.0, np.pi], radii, samples=100000, seed=SEED)
    assert probe.verdict == "consistent-with-ergodic"
    for rep in probe.reports:
        assert abs(rep.traces[0].limit - 0.0) <= 1e-2
        assert abs(rep.traces[1].limit - 0.5) <= 1e-2

    probe2 = ergodicity_probe(_f2(), obs, [-10.0, 10.0], [2.0, 4.0, 8.0],
                              samples=100000, seed=SEED)
    assert probe2.verdict == "non-ergodic-evidence"
    assert probe2.spreads["d12"] >= 1.5


@criterion(6, "degrees identity/negation/x+sin(x) = 1/-1/1; x^3 area-formula residual within 3 x stderr at 1e5 samples; homotopy, basepoint, and excision invariance hold")
def test_criterion_6_degree_suite():
    ident2 = map_from_texts(algebra.abelian(2), algebra.abelian(2), ["x1", "x2"])
    assert local_degree(ident2, 2.0, (0.3, -0.1), seed=SEED).value == 1
    neg = map_from_texts(R1, R1, ["-x1"])
    assert local_degree(neg, 2.0, (0.5,), seed=SEED).value == -1
    xsin = map_from_texts(R1, R1, ["x1 + sin(x1)"])
    assert local_degree(xsin, 10.0, (0.5,), seed=SEED).value == 1

    cube = map_from_texts(R1, R1, ["x1^3"])
    out = area_formula_check(cube, 1.0, samples=100000, seed=SEED)
    assert abs(out["residual"]) <= 3.0 * max(out["combined_stderr"], 1e-9)

    for t in np.linspace(0.0, 1.0, 5):  # homotopy invariance, sup-norm <= 0.1
        m = map_from_texts(R1, R1, [f"x1 + {0.1 * t}*sin(x1)"])
        assert local_degree(m, 2.0, (0.5,), seed=SEED).value == 1
    assert (
        local_degree(xsin, 10.0, (0.5,), seed=SEED).value
        == local_degree(xsin, 10.0, (1.5,), seed=SEED).value
    )  # basepoint invariance
    big = local_degree(xsin, 10.0, (0.5,), seed=SEED)
    small = local_degree(xsin, 2.0, (0.5,), seed=SEED)
    assert big.value == small.value and big.preimage_count == small.preimage_count


@criterion(7, "h3 doubling ratio = 4 within 3 x stderr at every radius of the 5-step schedule; sin(x) final ratio magnitude <= 0.05")
def test_criterion_7_asymptotic_degree():
    m = map_from_texts(H3, H3, ["2*x1", "x2", "2*x3"])
    tr = asymptotic_degree(m, radii=[4.0, 8.0, 16.0, 32.0, 64.0], samples=100000, seed=SEED)
    for ratio, se in zip(tr.ratios, tr.stderrs):
        assert abs(ratio - 4.0) <= 3.0 * se
    assert tr.verdict == "positive-asymptotic-degree"

    sine = map_from_texts(R1, R1, ["sin(x1)"])
    tr2 = asymptotic_degree(sine, radii=[4.0, 8.0, 16.0, 32.0, 64.0],
                            samples=100000, seed=SEED)
    assert abs(tr2.ratios[-1]) <= 0.05


@criterion(8, "repeated seeded runs are bit-identical, and repro --threads 1 vs --threads 8 "
              "produce identical reports")
def test_criterion_8_determinism(tmp_path, capsys, monkeypatch):
    save_algebra(algebra.abelian(1), str(tmp_path / "r1.json"))
    save_algebra(algebra.abelian(2), str(tmp_path / "r2.json"))
    save_algebra(H3, str(tmp_path / "h3.json"))
    (tmp_path / "f1.map.json").write_text(json.dumps(
        {"domain": "r1.json", "codomain": "r2.json", "components": ["x1", "sin(x1)"]}))
    (tmp_path / "auto.map.json").write_text(json.dumps(
        {"domain": "h3.json", "codomain": "h3.json", "components": ["2*x1", "x2", "2*x3"]}))

    runs = [
        ["average", "--map", str(tmp_path / "f1.map.json"), "--form", "e1 + e2",
         "--radii", "4,8,16", "--samples", "20000", "--seed", str(SEED)],
        ["orbit", "--map", str(tmp_path / "f1.map.json"), "--observables", "d12,d12sq",
         "--radii", "4,8,16", "--basepoints=0,1", "--samples", "20000",
         "--seed", str(SEED)],
        ["asymdeg", "--map", str(tmp_path / "auto.map.json"), "--radii", "4,8",
         "--samples", "20000", "--seed", str(SEED)],
        ["degree", "--map", str(tmp_path / "auto.map.json"), "--window", "R=3",
         "--target", "0.5,0.25,0.125", "--seed", str(SEED)],
    ]
    for argv in runs:
        texts = []
        for _ in range(3):
            assert main(argv) == 0
            texts.append(render_stable(json.loads(capsys.readouterr().out)))
        assert texts[0] == texts[1] == texts[2], argv[0]
    # repro accepts --threads and ignores it: its reports match byte for byte
    monkeypatch.chdir(tmp_path)
    repro = []
    for threads in ("1", "8"):
        assert main(["repro", "--outdir", "out", "--samples", "2000", "--seed", str(SEED),
                     "--threads", threads]) == 0
        repro.append({path.name: render_stable(json.loads(path.read_text()))
                      for path in sorted((tmp_path / "out").glob("*.report.json"))})
    assert len(repro[0]) == 7 and repro[0] == repro[1]
