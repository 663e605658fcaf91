"""Smoke test of the benchmark: every workload at tiny sizes, traced and
untraced, passes its checks and prints every metric of BENCHMARK.json with
its unit.

    python3 bench/test_smoke.py        # or: python3 -m pytest bench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload, trace):
    result, text = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"{m['name']} = " in text and f" {m['unit']}" in text, m["name"]
    assert "error_rate = 0 ratio" in text


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
