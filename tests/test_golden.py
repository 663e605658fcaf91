"""Pinned ``render_stable`` bytes of CLI reports.

The cohomology and compare files under ``golden/`` were written by
``nilcoh`` before the exact layer switched to reduction-based class
coordinates and a lazy cup table; representatives, cup values and
invariants must not move.  The degree files were written before the degree
layer moved to one batched root finder; on abelian maps its Newton
iterates, roots and determinants are bit-identical to the old ones.  The
orbit and average files were written before acted and normalized maps
shared one evaluator; the orbit case runs translated maps (one per
basepoint) and the average case a non-abelian map with F(0) != 0.  The
asymdeg file and the H5 average were written before the group law was
built by Varadarajan's recursion instead of the Dynkin word sum; the H5
map is shifted too, so its product runs through the six-term central
coordinate.  Both average files were rewritten when the pullback minors
moved from one LU determinant per minor to Laplace expansion: 5 of 44 and
24 of 91 leaves moved, each value by at most 2.4e-15 relative, and standard
errors and values that were LU noise (at most 3.3e-18) became exact zeros,
so two H5 coefficients drop out.  The H5 average was rewritten again when
the frame differential stopped multiplying in the shift's translation
Jacobian: 5 of its leaves moved, by 1 or 2 ulp (at most 2.3e-16
relative).  The asymdeg, orbit and both average files were rewritten
when those subcommands dropped their no-op ``--threads`` flag: each lost
its ``params/threads`` leaf and nothing else.  The orbit file was rewritten
when the probe stopped shifting its translated maps by F(g)^-1, which
cancels in the ``coord2@0.5`` observable only up to rounding: 7 of its
leaves moved, all of that observable at basepoints 1 and 3, each by at
most 3e-16 relative.  The degree-z3 file was rewritten when the degree
engine's reported determinants moved from LAPACK's det to the closed form
a·d - b·c: its one moved leaf is ``results/min_jacobian_margin``,
2.0520054741529203 -> 2.052005474152921 (2.2e-16 relative), as LAPACK's
det is sign·exp(log|det|).  A failing case lists every moved, added
and removed leaf.  The algebras and maps are saved under relative names so
the echoed paths do not depend on the machine.
"""

import json
import math
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
    "degree-x-plus-sin": ["degree", "--map", "x-plus-sin.map.json", "--window", "R=10",
                          "--target", "0.5"],
    "degree-z3": ["degree", "--map", "z3.map.json", "--window", "R=2", "--target", "0.3,0.2",
                  "--grid", "8"],
    "orbit-f1": ["orbit", "--map", "f1.map.json", "--observables", "d12,d12sq,coord2@0.5",
                 "--radii", "4,8,16", "--basepoints=0,1,3", "--samples", "2000"],
    "average-h3-shifted": ["average", "--map", "h3-shifted.map.json", "--form", "e1^e3 - e2^e3",
                           "--radii", "4,8,16", "--samples", "2000"],
    "average-h5-shifted": ["average", "--map", "h5-shifted.map.json",
                           "--form", "e1^e2^e5 - e3^e4^e5", "--radii", "4,8,16",
                           "--samples", "2000"],
    "asymdeg-h3-doubling": ["asymdeg", "--map", "h3-doubling.map.json", "--radii", "4:2:5",
                            "--samples", "2000"],
}

MAPS = {
    "x-plus-sin.map.json": ("r1.json", "r1.json", ["x1 + sin(x1)"]),
    "z3.map.json": ("r2.json", "r2.json",
                    ["x1^3 - 3*x1*x2^2 + 0.1*x1", "3*x1^2*x2 - x2^3 + 0.1*x2"]),
    "f1.map.json": ("r1.json", "r2.json", ["x1", "sin(x1)"]),
    "h3-shifted.map.json": ("h3.json", "h3.json",
                            ["x1 + 0.3*sin(x2) + 1", "x2 - 0.5", "x3 + 0.2*x1^2 + 2"]),
    "h5-shifted.map.json": ("h5.json", "h5.json",
                            ["x1 + 0.3*sin(x2) + 1", "x2 - 0.5", "x3 + 0.2*x4^2",
                             "x4 + 0.1*sin(x1) + 0.5", "x5 + 0.2*x1*x3 + 2"]),
    "h3-doubling.map.json": ("h3.json", "h3.json", ["2*x1", "x2", "2*x3"]),
}


def golden_report(argv) -> dict:
    """Run one subcommand in the current directory; its whole report."""
    save_algebra(algebra.heisenberg3(), "h3.json")
    save_algebra(algebra.heisenberg5(), "h5.json")
    save_algebra(algebra.abelian(3), "r3.json")
    save_algebra(algebra.free_nilpotent_two_step(3), "free2step3.json")
    save_algebra(algebra.abelian(1), "r1.json")
    save_algebra(algebra.abelian(2), "r2.json")
    for name, (domain, codomain, components) in MAPS.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump({"domain": domain, "codomain": codomain, "components": components}, fh)
    assert main(argv + ["--out", "report.json"], quiet=True) == 0
    with open("report.json", encoding="utf-8") as fh:
        return json.load(fh)


def stable_report(argv) -> str:
    """Run one subcommand in the current directory; its render_stable text."""
    return render_stable(golden_report(argv))


def _leaves(obj, path=()):
    """(path, value) for every leaf of a JSON value; empty containers are leaves."""
    if isinstance(obj, dict) and obj:
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list) and obj:
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    else:
        yield path, obj


def leaf_diff(old_text: str, new_text: str) -> str:
    """Each moved JSON leaf as old -> new with its relative change, then the
    added and removed leaves."""
    old, new = dict(_leaves(json.loads(old_text))), dict(_leaves(json.loads(new_text)))

    def name(path):
        return "/".join(str(p) for p in path)

    lines = []
    for path, a in old.items():
        if path not in new or json.dumps(a) == json.dumps(new[path]):
            continue
        b = new[path]
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
        rel = f" (relative {abs(b - a) / abs(a):.2e})" if numeric and a != 0 else ""
        lines.append(f"moved {name(path)}: {a!r} -> {b!r}{rel}")
    lines += [f"added {name(p)}: {v!r}" for p, v in new.items() if p not in old]
    lines += [f"removed {name(p)}: {v!r}" for p, v in old.items() if p not in new]
    return "\n".join(lines) or "no leaf moved; the bytes differ in formatting only"


def test_leaf_diff_names_moved_added_and_removed_leaves():
    old = json.dumps({"a": {"x": 2.0, "y": [1, 2]}, "s": "same", "gone": 0.5})
    new = json.dumps({"a": {"x": 2.5, "y": [1]}, "s": "same", "new": {}})
    assert leaf_diff(old, new).splitlines() == [
        "moved a/x: 2.0 -> 2.5 (relative 2.50e-01)",
        "added new: {}",
        "removed a/y/1: 2",
        "removed gone: 0.5",
    ]
    assert leaf_diff(old, old.replace(" ", "")) == (
        "no leaf moved; the bytes differ in formatting only")


@pytest.mark.parametrize("name", sorted(CASES))
def test_render_stable_bytes_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        want = fh.read()
    got = stable_report(CASES[name])
    if got != want:
        pytest.fail(f"render_stable bytes of {name} moved:\n{leaf_diff(want, got)}",
                    pytrace=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_fields_and_wall_time(name, tmp_path, monkeypatch):
    # main times every command and builds its report: the fields are the
    # same for all of them, and the wall time is the one volatile field
    monkeypatch.chdir(tmp_path)
    rep = golden_report(CASES[name])
    assert set(rep) == {"command", "inputs", "params", "seed", "results", "warnings",
                        "volatile"}
    assert rep["command"] == CASES[name][0]
    assert list(rep["volatile"]) == ["wall_time_s"]
    wall = rep["volatile"]["wall_time_s"]
    assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0
