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


def _is_integer(value) -> bool:
    """The integer rule (module ``group``): an Integral but no bool, or True would run as 1."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_integer(name: str, value, least: int | None = None) -> None:
    """Refuse a value that breaks the integer rule or is below ``least``."""
    if not _is_integer(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


def stream(seed: int, *tags) -> np.random.Generator:
    """Independent generator for (seed, tags); stable across runs and platforms."""
    _check_integer("seed", seed)
    label = repr((int(seed),) + tags).encode()
    digest = hashlib.blake2b(label, digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunked_sums(evaluate, count: int) -> np.ndarray:
    """Sum evaluate(start, stop) over the chunks of [0, count) deterministically.

    ``evaluate`` hands back one float64 array of the chunk's partial sums
    (``group.cloud_mean`` stacks its three sums in one), and the array of
    their totals over all chunks is returned.  The chunk size is the
    constant ``CHUNK``, so the partition (and therefore the float rounding)
    depends only on ``count``.

    Chunks are combined with Kahan compensation in chunk order: four
    elementwise ufunc calls per chunk on the whole array, which give every
    entry the operations, and so the bits, of a sum kept on its own.  An
    array handed back is read before the next call, and the first one is
    copied, so ``evaluate`` may write every chunk's sums into one buffer.
    """
    _check_integer("sample count", count, 1)
    for start in range(0, count, CHUNK):
        part = evaluate(start, min(start + CHUNK, count))
        if not start:
            total, comp = part.copy(), np.zeros_like(part)
            continue
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


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
