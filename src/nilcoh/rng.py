"""Seeded, splittable randomness and the chunked Monte Carlo reduction.

Streams are counter-based (Philox) with keys derived from (seed, tags), so
every consumer draws from its own independent, reproducible stream.  Monte
Carlo sums are accumulated per fixed-size chunk and combined with Kahan
compensation in chunk order.  Evaluation is serial: a thread pool did not
pay on small hosts, and the fixed partition keeps sums bit-identical anyway.
"""

from __future__ import annotations

import hashlib
from numbers import Integral

import numpy as np

CHUNK = 8192


def stream(seed: int, *tags) -> np.random.Generator:
    """Independent generator for (seed, tags); stable across runs and platforms.
    A seed that is no integer is refused, and so is a bool, which Python
    counts as one: ``True`` would draw exactly as seed 1."""
    if isinstance(seed, bool) or not isinstance(seed, Integral):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    label = repr((int(seed),) + tags).encode()
    digest = hashlib.blake2b(label, digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunked_sums(evaluate, count: int) -> list[np.ndarray]:
    """Sum evaluate(start, stop) over [0, count) deterministically.

    ``evaluate`` returns a sequence of float arrays whose last axis is the
    sample axis; the returned list holds their sums over all samples.  The
    chunk size is the constant ``CHUNK``, so the partition (and therefore the
    float rounding) depends only on ``count``.
    """
    sums: list[np.ndarray] | None = None
    comps: list[np.ndarray] | None = None
    for start in range(0, count, CHUNK):
        part = evaluate(start, min(start + CHUNK, count))
        part_sums = [np.sum(np.asarray(p, dtype=float), axis=-1) for p in part]
        if sums is None:
            sums = part_sums
            comps = [np.zeros_like(s) for s in part_sums]
            continue
        for i, ps in enumerate(part_sums):
            y = ps - comps[i]
            t = sums[i] + y
            comps[i] = (t - sums[i]) - y
            sums[i] = t
    assert sums is not None
    return sums


def mean_and_stderr(total: np.ndarray, total_sq: np.ndarray, count: int):
    """Sample mean and standard error from sums of values and squares.

    The standard error does not change when every value is shifted by one
    constant; shift by an estimate of the mean, or the subtraction below
    cancels the variance away when the mean is large against the spread.
    Fewer than 2 samples are refused: one sample has no spread to estimate.
    """
    if count < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {count}")
    mean = total / count
    var = np.maximum((total_sq - count * mean * mean) / (count - 1), 0.0)
    return mean, np.sqrt(var / count)
