"""nilcoh benchmark: one workload per invocation, closed loop, checked outputs.

    python3 bench/run.py --workload {ring,average,degree,repro} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports nilcoh from ./src.  With
--trace 0 it times a fixed number of whole cycles of the workload's
operations, about S seconds of work on the reference host, and reports the
end-to-end metrics; with --trace 1 it runs a fixed
number of cycles, each operation once untraced and once traced, and reports
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from calibrate import NOMINAL_S, HostSpeed  # noqa: E402  (the script's directory is on sys.path)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("ring", "average", "degree", "repro"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_nilcoh():
    """Import nilcoh from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "nilcoh", "__init__.py")):
        raise SystemExit(f"error: no nilcoh sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import nilcoh

    if os.path.dirname(os.path.dirname(os.path.abspath(nilcoh.__file__))) != SRC:
        raise SystemExit(f"error: imported nilcoh from {nilcoh.__file__}, not {SRC}")
    import workloads

    return workloads


@dataclass
class Record:
    kind: str
    start: float
    seconds: float
    ok: bool
    points: float = 0.0
    stderr: float | None = None

    @property
    def end(self) -> float:
        return self.start + self.seconds


def run_op(op, tracer=None) -> Record:
    """Time one op (traced when a tracer is given), then check its output."""
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception:
        seconds = time.perf_counter() - t0
        print(f"op {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return Record(op.kind, t0, seconds, False)
    finally:
        if tracer:
            tracer.uninstall()
    seconds = time.perf_counter() - t0
    try:
        op.check(out)
        return Record(op.kind, t0, seconds, True, op.points(out), op.stderr(out))
    except Exception:
        print(f"op {op.kind} output check failed:\n{traceback.format_exc()}", file=sys.stderr)
        return Record(op.kind, t0, seconds, False)


def timed_loop(workload, seconds: float, speed: HostSpeed) -> list[Record]:
    """round(seconds / cycle_s) whole cycles, with host-speed samples between ops."""
    records: list[Record] = []
    for _ in range(max(1, round(seconds / workload.cycle_s))):
        for op in workload.cycle():
            speed.maybe_sample()
            records.append(run_op(op))
    speed.sample()
    return records


def traced_loop(workload, tracer) -> tuple[list[Record], list[Record]]:
    """Each op of a fixed number of cycles once untraced and once traced,
    alternating which goes first."""
    plain: list[Record] = []
    traced: list[Record] = []
    flip = False
    for _ in range(workload.trace_cycles):
        for op in workload.cycle():
            for traced_now in ((False, True) if flip else (True, False)):
                if traced_now:
                    traced.append(run_op(op, tracer))
                else:
                    plain.append(run_op(op))
            flip = not flip
    return plain, traced


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 ops beyond
    it; the maximum when there are fewer than 20 ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_times(args, own_setup_s: float, speed: HostSpeed) -> list[tuple[float, float]]:
    """(raw, reference) seconds of this process's set-up and of SETUP_PROBES
    fresh processes doing the same set-up, with host-speed samples between."""
    speed.sample()
    spans = [(T_PROCESS, own_setup_s)]
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0"]
        if args.tiny:
            cmd.append("--tiny")
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        spans.append((t0, float(done.stdout.strip().splitlines()[-1])))
        speed.sample()
    return [(raw, raw * speed.scale(t0, t0 + raw)) for t0, raw in spans]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records: list[Record], setups, speed: HostSpeed) -> tuple[dict, list[str]]:
    """Metrics in reference seconds (see calibrate.py); raw figures in the notes."""
    raw = [r.seconds for r in records]
    times = [r.seconds * speed.scale(r.start, r.end) for r in records]
    tail_s, tail_pct = tail(times)
    busy = sum(times)
    points = sum(r.points for r in records)
    n = len(records)
    metrics = {
        "setup_s": metric(statistics.median(ref for _, ref in setups), "s"),
        "op_s_p50": metric(statistics.median(times), "s"),
        "op_s_tail": metric(tail_s, "s"),
        "points_per_s": metric(points / busy, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    kernel = statistics.median(speed.durations)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; raw median "
                   f"{statistics.median(r for r, _ in setups):.4g} s",
        "op_s_p50": f"n={n} ops; raw median {statistics.median(raw):.4g} s",
        "op_s_tail": f"p{tail_pct:.1f} of n={n} ops; raw {tail(raw)[0]:.4g} s",
        "points_per_s": f"{points:g} points in {busy:.4g} reference s of ops; raw "
                        f"{points / sum(raw):.4g} 1/s",
        "peak_rss_mb": "ru_maxrss",
    }
    lines = [f"host-speed kernel: median {kernel:.4g} s over {len(speed.durations)} samples "
             f"(reference {NOMINAL_S} s)"]
    lines += [f"{k} = {v['value']:.6g} {v['unit']}  ({notes[k]})" for k, v in metrics.items()]
    for kind in dict.fromkeys(r.kind for r in records):
        kind_times = [t for r, t in zip(records, times) if r.kind == kind]
        lines.append(f"  op {kind}: n={len(kind_times)}, median {statistics.median(kind_times):.6g} s")
    return metrics, lines


def per_layer(tracer, plain: list[Record], traced: list[Record], traced_wall: float):
    self_by_name, self_by_layer = tracer.self_times()
    total_by_name = tracer.total_times()
    counts = tracer.counts

    def s(name):
        return self_by_name.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    targets = c("degree.targets")
    stderr_costs = [r.stderr * r.seconds ** 0.5 for r in plain if r.stderr is not None]
    values = {
        "algebra.validate_s": (s("algebra.validate"), "s"),
        "algebra.validate_calls": (c("spans:algebra.validate"), "count"),
        "bch.group_law_s": (s("bch.group_law"), "s"),
        "bch.group_law_builds": (c("bch.group_law_builds"), "count"),
        "bch.batch_eval_s": (s("bch.batch_eval"), "s"),
        "bch.batch_points": (c("bch.batch_points"), "count"),
        "forms.ce_differential_s": (s("forms.ce_differential"), "s"),
        "forms.wedge_s": (s("forms.wedge"), "s"),
        "forms.wedge_calls": (c("calls:forms.wedge"), "count"),
        "exactlinalg.elim_s": (s("exactlinalg.elim"), "s"),
        "exactlinalg.in_span_calls": (c("calls:exactlinalg.in_span"), "count"),
        "exactlinalg.mat_mul_s": (s("exactlinalg.mat_mul"), "s"),
        "exactlinalg.mat_vec_s": (s("exactlinalg.mat_vec"), "s"),
        "exactlinalg.mat_vec_calls": (c("calls:exactlinalg.mat_vec"), "count"),
        "cohomology.self_s": (s("cohomology.build"), "s"),
        "cohomology.invariants_s": (s("cohomology.invariants"), "s"),
        "group.sample_s": (s("group.sample"), "s"),
        "group.sample_points": (c("group.sample_points"), "count"),
        "dsl.evaluate_s": (s("dsl.evaluate"), "s"),
        "dsl.evaluate_calls": (c("calls:dsl.evaluate"), "count"),
        "maps.differential_batch_s": (s("maps.differential_batch"), "s"),
        "maps.evaluate_batch_s": (s("maps.evaluate_batch"), "s"),
        "maps.points": (c("maps.points"), "count"),
        "linalg.det_s": (s("linalg.det"), "s"),
        "linalg.det_matrices": (c("linalg.det.matrices"), "count"),
        "linalg.solve_s": (s("linalg.solve"), "s"),
        "pullback.self_s": (self_by_layer.get("pullback", 0.0), "s"),
        "rng.chunked_sums_s": (total_by_name.get("rng.chunked_sums", 0.0), "s"),
        "rng.chunks": (c("rng.chunks"), "count"),
        "rng.wait_s": (s("rng.chunked_sums"), "s"),
        "degree.self_s": (self_by_layer.get("degree", 0.0), "s"),
        "degree.newton_columns": (c("degree.newton_columns"), "count"),
        "degree.targets": (targets, "count"),
        "degree.skipped_frac": (c("degree.skipped") / targets if targets else 0.0, "ratio"),
        "ergodic.self_s": (self_by_layer.get("ergodic", 0.0), "s"),
        "report.render_s": (self_by_layer.get("report", 0.0), "s"),
        "cli.self_s": (self_by_layer.get("cli", 0.0), "s"),
        "cost_stderr": (statistics.median(stderr_costs) if stderr_costs else 0.0, "sqrt_s"),
        "trace.coverage": (tracer.covered_wall() / traced_wall, "ratio"),
        "trace.overhead": (sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0,
                           "ratio"),
    }
    metrics = {k: metric(v, unit) for k, (v, unit) in values.items()}
    lines = [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_nilcoh()
    os.makedirs(OUT, exist_ok=True)
    kind = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall_start = time.perf_counter()
    workload = kind(args.seed, tiny=args.tiny)
    setup_s = time.perf_counter() - T_PROCESS
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    if not tracer:
        speed = HostSpeed()
        setups = setup_times(args, setup_s, speed)

    gate_dir = os.path.join(OUT, f"repro-{os.getpid()}")
    reference, gate_error = workloads.determinism_gate(gate_dir, workloads.Repro.samples)
    if isinstance(workload, workloads.Repro):
        workload.outdir, workload.reference = gate_dir, reference
    gate_wall = time.perf_counter() - wall_start

    if tracer:
        tracer.uninstall()
        plain, records = traced_loop(workload, tracer)
        traced_wall = gate_wall + sum(r.seconds for r in records)
        metrics, lines = per_layer(tracer, plain, records, traced_wall)
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"spans": tracer.records(), "counts": tracer.counts}, fh)
        records = plain + records
    else:
        records = timed_loop(workload, args.seconds, speed)
        metrics, lines = end_to_end(records, setups, speed)
    shutil.rmtree(gate_dir, ignore_errors=True)

    failed = sum(not r.ok for r in records) + (gate_error is not None)
    attempted = len(records) + 1
    if gate_error:
        print(f"determinism gate FAILED: {gate_error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, sizes {json.dumps(workload.sizes)}")
    print(f"determinism gate (repro --threads 2 vs 1): {'FAIL' if gate_error else 'pass'}")
    for line in lines:
        print(line)
    print(f"error_rate = {failed / attempted:.6g} ratio  ({failed} of {attempted} ops failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
