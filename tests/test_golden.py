"""Pinned ``render_stable`` bytes of the exact-layer CLI reports.

The files under ``golden/`` were written by ``nilcoh`` before the exact
layer switched to reduction-based class coordinates and a lazy cup table;
representatives, cup values and invariants must not move.  The algebras are
saved under relative names so the echoed paths do not depend on the
machine.
"""

import json
import os

import pytest

from nilcoh import algebra
from nilcoh.algebra import save_algebra
from nilcoh.cli import main
from nilcoh.report import render_stable

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "cohomology-h3": ["cohomology", "--algebra", "h3.json"],
    "cohomology-free2step3": ["cohomology", "--algebra", "free2step3.json"],
    "compare-r3-h3": ["compare", "--algebra-a", "r3.json", "--algebra-b", "h3.json"],
}


def stable_report(argv) -> str:
    """Run one subcommand in the current directory; its render_stable text."""
    save_algebra(algebra.heisenberg3(), "h3.json")
    save_algebra(algebra.abelian(3), "r3.json")
    save_algebra(algebra.free_nilpotent_two_step(3), "free2step3.json")
    assert main(argv + ["--out", "report.json"], quiet=True) == 0
    with open("report.json", encoding="utf-8") as fh:
        return render_stable(json.load(fh))


@pytest.mark.parametrize("name", sorted(CASES))
def test_render_stable_bytes_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        assert stable_report(CASES[name]) == fh.read()
