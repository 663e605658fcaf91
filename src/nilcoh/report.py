"""Structured, diffable run reports.

A report is a nested mapping rendered as JSON with sorted keys; floats use
shortest round-trip repr, so identical runs produce byte-identical
documents.  Reports are RFC 8259 JSON, which has no NaN or infinity:
``to_jsonable`` writes those floats as the strings "NaN", "Infinity" and
"-Infinity", and rendering refuses any other non-finite float.  Wall time
is recorded but lives under the 'volatile' key, which ``render_stable``
omits when comparing runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def to_jsonable(obj):
    """Normalize values for serialization: dataclasses to dicts, Fractions to
    'p/q' strings, tuples to lists, non-string dict keys to strings,
    non-finite floats to "NaN", "Infinity" or "-Infinity"."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return x
        return "NaN" if math.isnan(x) else "Infinity" if x > 0 else "-Infinity"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (tuple, list)):
        return ",".join(str(x) for x in k)
    return str(k)


def build_report(
    command: str,
    params: dict,
    results,
    inputs: dict | None = None,
    seed: int | None = None,
    warnings: list[str] | None = None,
    wall_time_s: float | None = None,
) -> dict:
    digests = {}
    for name, path in (inputs or {}).items():
        digests[name] = {"path": path, "sha256": file_digest(path)}
    return {
        "command": command,
        "inputs": digests,
        "params": to_jsonable(params),
        "seed": seed,
        "results": to_jsonable(results),
        "warnings": list(warnings or []),
        "volatile": {"wall_time_s": wall_time_s},
    }


def render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_stable(report: dict) -> str:
    """The deterministic portion: everything except the volatile section."""
    stable = {k: v for k, v in report.items() if k != "volatile"}
    return json.dumps(stable, sort_keys=True, indent=2, allow_nan=False) + "\n"
