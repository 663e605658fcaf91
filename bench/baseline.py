"""Run every workload on several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 [--out bench/BASELINE.json]

For each workload and end-to-end metric this reports the median over the
runs and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  One traced run per workload adds
the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOTES = [
    "free2step4 (dim 10) is not in ring: its cohomology ring did not finish in 10 minutes.",
    "H7 and filiform8 are not in ring: one op on them takes 3-12 s, too few per 20-s run for "
    "steady medians on a shared host; filiform7 and free2step3 run the same cup-table and "
    "projector code.",
    "Timings are reference seconds (bench/calibrate.py); run.py prints the raw figures too.",
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "text": lines[:-1]}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--out", default="", help="write the summary here as JSON")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = seed_range(args.seeds)

    summary = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "notes": NOTES,
        "workloads": {},
    }
    for workload in names:
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "sizes": json.loads(runs[0]["text"][0].split(" sizes ", 1)[1]),
            "end_to_end": {},
        }
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": median, "spread": (q3 - q1) / median,
                "bound": m["bound"], "values": values,
            }
            print(f"{workload:8s} {m['name']:13s} median {median:.5g} {m['unit']:4s} "
                  f"spread {(q3 - q1) / median:.3f} (bound {m['bound']})", flush=True)
        traced = run(workload, seeds[0], spec["run_seconds"], 1)["result"]["metrics"]
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced.items()}
        print(f"{workload:8s} trace.coverage {traced['trace.coverage']['value']:.3f} "
              f"trace.overhead {traced['trace.overhead']['value']:.3f}", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
