"""Benchmark workloads: seeded inputs, the operations run on them, and the
checks every operation's output must pass.

A workload is built from a seed (input generation plus whatever caches a
library user keeps warm) and hands out one *cycle* of operations at a time.
Cycles of a workload repeat the same kinds of call; a cycle's inputs depend
only on the seed and the cycle's index.  ``cycle_s`` is a cycle's nominal
length: a timed run of S seconds makes round(S / cycle_s) cycles, so every
run has the same number and mix of operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import nilcoh
from nilcoh import bch, cli, report


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    points: Callable[[object], float]
    stderr: Callable[[object], float | None] = lambda out: None


# -- ring: cold exact pipelines ------------------------------------------------


def heisenberg(k: int):
    """H_{2k+1}: [e_{2i-1}, e_{2i}] = e_{2k+1}."""
    structure = {(2 * i, 2 * i + 1): {2 * k: Fraction(1)} for i in range(k)}
    return structure, 2 * k + 1, (1,) * (2 * k) + (2,)


def free_two_step(g: int):
    structure, extra = {}, g
    for i in range(g):
        for j in range(i + 1, g):
            structure[(i, j)] = {extra: Fraction(1)}
            extra += 1
    return structure, extra, (1,) * g + (2,) * (extra - g)


def filiform(n: int):
    structure = {(0, k): {k + 1: Fraction(1)} for k in range(1, n - 1)}
    return structure, n, (1, 1) + tuple(range(2, n))


def expected_betti(family: str, size: int) -> dict[int, int]:
    """Closed-form Betti numbers: Santharoubane (1983) for Heisenberg
    algebras, Sigg (1996) for b2 of free 2-step algebras."""
    if family == "heisenberg":
        return {j: math.comb(2 * size, j) - (math.comb(2 * size, j - 2) if j >= 2 else 0)
                for j in range(size + 1)}
    if family == "free2step":
        return {2: size * (size * size - 1) // 3}
    return {}


RING_ALGEBRAS = {
    "H3": ("heisenberg", 1),
    "H5": ("heisenberg", 2),
    "free2step3": ("free2step", 3),
    "filiform6": ("filiform", 6),
    "filiform7": ("filiform", 7),
}
BUILDERS = {"heisenberg": heisenberg, "free2step": free_two_step, "filiform": filiform}
COEFFICIENTS = (Fraction(-1), Fraction(1))


def dense_twin(structure, dim: int, gen: random.Random):
    """Structure constants in the basis f_i = e_i + sum_{j>i} c_ij e_j, c_ij = +-1.

    Bases here list directions in order of non-decreasing weight, so every
    e_j added to f_i has weight >= that of e_i and the basis stays adapted
    to the lower central series: weights and invariants are unchanged.
    """
    p = [[Fraction(int(i == j)) if j <= i else gen.choice(COEFFICIENTS) for j in range(dim)]
         for i in range(dim)]
    # q = p^{-1}, by back substitution on the unipotent upper triangle
    q = [[Fraction(0)] * dim for _ in range(dim)]
    for i in reversed(range(dim)):
        q[i][i] = Fraction(1)
        for j in range(i + 1, dim):
            q[i][j] = -sum((p[i][k] * q[k][j] for k in range(i + 1, j + 1)), Fraction(0))
    out = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            v = [Fraction(0)] * dim  # [f_a, f_b] in the e basis
            for (i, j), comps in structure.items():
                w = p[a][i] * p[b][j] - p[a][j] * p[b][i]
                if w:
                    for k, c in comps.items():
                        v[k] += w * c
            coords = {l: sum((v[k] * q[k][l] for k in range(dim)), Fraction(0)) for l in range(dim)}
            coords = {l: c for l, c in coords.items() if c}
            if coords:
                out[(a, b)] = coords
    return out


def ring_pipeline(structure, dim):
    alg = nilcoh.validate_algebra(structure, dim)
    bch.group_law(alg)
    ring = nilcoh.cohomology(alg)
    return alg, ring, nilcoh.ring_invariants(ring)


def check_ring(name, family, size, weights):
    """Closed-form and twin checks on (canonical, dense) pipeline outputs."""
    def check(outs):
        signatures = []
        for alg, ring, inv in outs:
            betti = ring.betti
            n = alg.dim
            require(alg.weights == weights, f"{name}: weights {alg.weights} != {weights}")
            require(betti[0] == 1 and betti[n] == 1, f"{name}: b0/bn {betti}")
            require(betti[1] == weights.count(1), f"{name}: b1 {betti[1]} != {weights.count(1)}")
            require(all(betti[k] == betti[n - k] for k in range(n + 1)), f"{name}: duality {betti}")
            require(sum((-1) ** k * b for k, b in enumerate(betti)) == 0, f"{name}: Euler {betti}")
            for j, b in expected_betti(family, size).items():
                require(betti[j] == b, f"{name}: b{j} = {betti[j]}, closed form {b}")
            signatures.append((alg.weights, inv["betti"], inv["cup_ranks"]))
        require(signatures[0] == signatures[1], f"{name}: dense twin differs from canonical")
    return check


class Ring:
    """One op: the cold pipeline on an algebra's canonical basis and on a
    seeded dense twin.  Cycle i draws fresh twins from (seed, i), so a run
    averages over twins instead of resting on one draw."""

    name = "ring"
    cycle_s = 2.8
    trace_cycles = 3

    def __init__(self, seed: int, tiny: bool = False):
        names = ("H3", "H5", "free2step3") if tiny else ("H3", "H5", "filiform6", "free2step3", "filiform7")
        self.seed = seed
        self.cycles = 0
        self.algebras = []
        for name in names:
            family, size = RING_ALGEBRAS[name]
            self.algebras.append((name, family, size, *BUILDERS[family](size)))
        self.sizes = {"algebras": list(names), "bases": ["canonical", "dense"]}

    def cycle(self) -> list[Op]:
        gen = random.Random(f"{self.seed}-{self.cycles}")
        self.cycles += 1
        ops = []
        for name, family, size, structure, dim, weights in self.algebras:
            twins = (structure, dense_twin(structure, dim, gen))
            ops.append(Op(
                kind=name,
                call=lambda twins=twins, dim=dim: [ring_pipeline(s, dim) for s in twins],
                check=check_ring(name, family, size, weights),
                points=lambda outs, dim=dim: 2 * 2 ** dim,
            ))
        return ops


# -- average: warm pullback averages -----------------------------------------


def _coef(gen: random.Random, lo: float, hi: float) -> str:
    return f"{gen.uniform(lo, hi):.4f}"


def homomorphism_op(kind, m, radii, samples, shape, seed) -> Op:
    def call():
        return nilcoh.homomorphism_check(m, radii=radii, samples=samples, seed=seed,
                                         shape=shape, threads=1)

    def check(rep):
        require(rep.matrices[0] == [[1.0]], f"{kind}: degree-0 matrix {rep.matrices[0]}")
        values = [v for mat in rep.matrices.values() for row in mat for v in row]
        values += list(rep.chain_residuals.values()) + list(rep.mult_residuals.values())
        values += list(rep.stderrs.values())
        require(all(math.isfinite(v) for v in values), f"{kind}: non-finite output")

    return Op(kind, call, check,
              points=lambda rep: len(radii) * samples,
              stderr=lambda rep: max(rep.stderrs.values()))


class Average:
    name = "average"
    cycle_s = 1.05
    trace_cycles = 6

    def __init__(self, seed: int, tiny: bool = False):
        gen = random.Random(seed)
        h3, h5 = nilcoh.heisenberg3(), nilcoh.heisenberg5()
        texts3 = [f"x1 + {_coef(gen, 0.1, 0.5)}*sin(x2)", "x2", f"x3 + {_coef(gen, 0.1, 0.5)}*x1^2"]
        texts5 = [f"x1 + {_coef(gen, 0.1, 0.5)}*sin(x2)", "x2", f"x3 + {_coef(gen, 0.05, 0.2)}*x4^2",
                  "x4", f"x5 + {_coef(gen, 0.1, 0.3)}*x1*x3"]
        self.m3 = nilcoh.map_from_texts(h3, h3, texts3)
        self.m5 = nilcoh.map_from_texts(h5, h5, texts5)
        for alg in (h3, h5):  # caches library users keep per algebra object
            bch.group_law(alg)
            nilcoh.cohomology(alg)
        self.mc_seed = gen.randrange(2 ** 31)
        scale = 10 if tiny else 1
        self.h3 = ([2.0, 4.0, 8.0], 20000 // scale, "box")
        self.h5 = ([2.0, 4.0], 4000 // scale, "quasiball")
        self.sizes = {"H3": {"map": texts3, "radii": self.h3[0], "samples": self.h3[1], "shape": "box"},
                      "H5": {"map": texts5, "radii": self.h5[0], "samples": self.h5[1],
                             "shape": "quasiball"},
                      "per_cycle": "2 x H3, 1 x H5", "threads": 1}

    def cycle(self) -> list[Op]:
        h3 = homomorphism_op("H3", self.m3, *self.h3, self.mc_seed)
        h5 = homomorphism_op("H5", self.m5, *self.h5, self.mc_seed)
        return [h3, h3, h5]


# -- degree: Newton batches, large and small ------------------------------------


class Degree:
    """The area check keeps one seeded input per run (one 3-sigma test per
    run); local_degree draws fresh targets from (seed, cycle) every cycle."""

    name = "degree"
    cycle_s = 0.85
    trace_cycles = 4

    def __init__(self, seed: int, tiny: bool = False):
        gen = random.Random(seed)
        r1, r2 = nilcoh.abelian(1), nilcoh.abelian(2)
        b, a = _coef(gen, 0.5, 1.5), _coef(gen, 0.05, 0.2)
        self.cubic_text = [f"x1^3 - {b}*x1"]
        self.z3_text = [f"x1^3 - 3*x1*x2^2 + {a}*x1", f"3*x1^2*x2 - x2^3 + {a}*x2"]
        self.cubic = nilcoh.map_from_texts(r1, r1, self.cubic_text)
        self.z3 = nilcoh.map_from_texts(r2, r2, self.z3_text)
        for alg in (r1, r2):
            bch.group_law(alg)
        self.mc_seed = gen.randrange(2 ** 31)
        self.seed = seed
        self.cycles = 0
        self.area_samples = 400 if tiny else 4000
        self.local_per_cycle = 2 if tiny else 8
        self.sizes = {"area": {"map": self.cubic_text, "window": 2.0, "targets": self.area_samples},
                      "local": {"map": self.z3_text, "window": 2.0, "grid": 8,
                                "targets": "uniform in the disk |w| <= 0.5"},
                      "per_cycle": f"1 x area, {self.local_per_cycle} x local_degree",
                      "threads": 1}

    def cycle(self) -> list[Op]:
        def area():
            return nilcoh.area_formula_check(self.cubic, 2.0, samples=self.area_samples,
                                             seed=self.mc_seed, threads=1)

        def check_area(out):
            require(abs(out["residual"]) <= 3.0 * out["combined_stderr"],
                    f"area: residual {out['residual']} > 3 x {out['combined_stderr']}")

        ops = [Op("area", area, check_area, points=lambda out: out["samples"],
                  stderr=lambda out: out["combined_stderr"])]
        gen = random.Random(f"{self.seed}-{self.cycles}")
        self.cycles += 1
        for _ in range(self.local_per_cycle):
            radius, angle = 0.5 * math.sqrt(gen.random()), gen.uniform(0, 2 * math.pi)
            target = (round(radius * math.cos(angle), 6), round(radius * math.sin(angle), 6))

            def local(t=target):
                return nilcoh.local_degree(self.z3, 2.0, t, grid_density=8, seed=self.mc_seed)

            def check_local(res, t=target):
                require(res.value == 3, f"local_degree at {t}: {res.value} != 3")

            ops.append(Op("local", local, check_local, points=lambda res: 1))
        return ops


# -- repro: the CLI end to end ---------------------------------------------------

REPRO_STEPS = ("cohomology-h3", "compare-r3-h3", "average-f1-dy2", "orbit-f1", "orbit-f2",
               "degree-x-plus-sin", "asymdeg-h3-doubling")


def run_repro(outdir: str, samples: int, threads: int) -> dict[str, dict]:
    """In-process ``nilcoh repro`` (its worked examples, at its default seed);
    returns the parsed reports by step."""
    argv = ["repro", "--outdir", outdir, "--samples", str(samples), "--threads", str(threads)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"repro exited {code}")
    reports = {}
    for step in REPRO_STEPS:
        with open(os.path.join(outdir, f"{step}.report.json"), encoding="utf-8") as fh:
            reports[step] = json.load(fh)
    return reports


def stable_bytes(reports: dict[str, dict]) -> dict[str, str]:
    """render_stable per step, without the echoed --threads parameter."""
    out = {}
    for step, rep in reports.items():
        rep["params"].pop("threads", None)
        out[step] = report.render_stable(rep)
    return out


def check_repro_verdicts(reports: dict[str, dict]) -> None:
    verdicts = {
        "orbit-f1": reports["orbit-f1"]["results"]["verdict"],
        "orbit-f2": reports["orbit-f2"]["results"]["verdict"],
        "degree-x-plus-sin": reports["degree-x-plus-sin"]["results"]["value"],
        "asymdeg-h3-doubling": reports["asymdeg-h3-doubling"]["results"]["verdict"],
    }
    expected = {"orbit-f1": "consistent-with-ergodic", "orbit-f2": "non-ergodic-evidence",
                "degree-x-plus-sin": 1, "asymdeg-h3-doubling": "positive-asymptotic-degree"}
    require(verdicts == expected, f"repro verdicts {verdicts}")


def repro_points(reports: dict[str, dict]) -> int:
    """Haar sample points drawn by the Monte Carlo steps."""
    total = 0
    for rep in reports.values():
        params = rep["params"]
        if "samples" in params and "radii" in params:
            basepoints = rep["results"].get("basepoints") or [None]
            total += params["samples"] * len(params["radii"]) * len(basepoints)
    return total


def max_stderr(tree) -> float:
    """Largest number stored under a key named like 'stderr' anywhere in a report."""
    best = 0.0
    stack = [(None, tree)]
    while stack:
        key, node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.items())
        elif isinstance(node, list):
            stack.extend((key, v) for v in node)
        elif isinstance(node, float) and key is not None and "stderr" in str(key):
            best = max(best, node)
    return best


class Repro:
    """The CLI's own worked examples: the seed changes nothing here, and
    ``outdir`` and ``reference`` come from the determinism gate."""

    name = "repro"
    cycle_s = 0.5
    trace_cycles = 6
    threads = 2
    samples = 20000

    def __init__(self, seed: int, tiny: bool = False):
        self.outdir = ""
        self.reference: dict[str, str] = {}
        self.sizes = {"samples": self.samples, "threads": self.threads, "steps": len(REPRO_STEPS)}

    def cycle(self) -> list[Op]:
        def call():
            return run_repro(self.outdir, self.samples, self.threads)

        def check(reports):
            check_repro_verdicts(reports)
            require(stable_bytes(reports) == self.reference,
                    "repro report bytes differ from the --threads 1 reference")

        def stderr(reports):
            return max(max_stderr(rep["results"]) for rep in reports.values())

        return [Op("repro", call, check, points=repro_points, stderr=stderr)]


def determinism_gate(outdir: str, samples: int) -> tuple[dict[str, str], str | None]:
    """Run repro with --threads 1 and --threads 2 into one directory and
    compare the stable report bytes; returns (reference, error or None)."""
    try:
        reference = run_repro(outdir, samples, threads=1)
        check_repro_verdicts(reference)
        ref_bytes = stable_bytes(reference)
        threaded = stable_bytes(run_repro(outdir, samples, threads=2))
    except CheckFailed as e:
        return {}, str(e)
    differing = [step for step in REPRO_STEPS if ref_bytes[step] != threaded[step]]
    if differing:
        return ref_bytes, f"--threads 2 changed the stable bytes of {', '.join(differing)}"
    return ref_bytes, None


WORKLOADS = {w.name: w for w in (Ring, Average, Degree, Repro)}
