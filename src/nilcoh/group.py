"""Balls, Haar sampling and Monte Carlo means on simply connected nilpotent
groups.

The group is identified with its algebra via exponential coordinates of
the first kind, and points travel as (dim, N) coordinate batches; Haar
measure is Lebesgue measure there.  Følner sets are
anisotropic coordinate boxes scaled by the filtration weights (equivalently,
balls of the max quasi-norm), which admit exact uniform sampling; the
rounded `quasiball` shape uses an even-exponent homogeneous gauge and
rejection from the bounding box.

Refusals: every public call checks its inputs before it samples, each
rule in one place, and names the parameter and the value (``ValueError`` or
``TypeError``).  Seeds, counts, dimensions, cohomology degrees, indices
and observable powers are integers and no bools (``rng._is_integer``),
numeric and exact layer alike; counts, dimensions and observable indices
are at least 1, degrees and class indices at least 0, and an observable's
indices, and the dimensions an expression was parsed for, are checked
against the map's (``ergodic._check_observables``).  Radii are finite and
positive (``_check_radius``, ``check_radii``), a degree window is a box
(``degree._box_window``), a ``tol`` finite and nonnegative
(``_check_tol``); a point of a dim-n group has n coordinates
(``_check_length``).  A single point that the user gives (a target,
basepoint or probe, a map's shift, or the point of ``evaluate``,
``differential`` or ``pullback_eval``) is also finite (``_check_point``),
and so is the F(0) that a normalization turns into a shift; the columns of
a (n, N) batch follow IEEE 754, and no pass over the samples checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import isfinite, lcm

import numpy as np

from . import rng
from .algebra import AlgebraError, LieAlgebra


def quasi_norm_batch(alg: LieAlgebra, coords: np.ndarray) -> np.ndarray:
    """max_i |c_i|^(1/w_i) for each column of a (dim, N) batch; it scales
    linearly under the dilations delta_r."""
    w = np.array(alg.weights, dtype=float)
    return np.max(np.abs(coords) ** (1.0 / w[:, None]), axis=0)


@dataclass(frozen=True)
class BallSpec:
    """Følner set specification: radius and shape ('box' or 'quasiball')."""

    radius: float
    shape: str = "box"

    def __post_init__(self):
        _check_radius(self.radius)
        if self.shape not in ("box", "quasiball"):
            raise ValueError(f"unknown ball shape {self.shape!r}")


def homogeneous_gauge_batch(alg: LieAlgebra, coords: np.ndarray) -> np.ndarray:
    """Smooth homogeneous gauge (sum_i |c_i|^(2M/w_i))^(1/2M), M = lcm of weights."""
    m = lcm(*alg.weights)
    w = np.array(alg.weights, dtype=float)
    return np.sum(np.abs(coords) ** (2.0 * m / w[:, None]), axis=0) ** (1.0 / (2 * m))


def _check_radius(radius: float, name: str = "ball radius") -> None:
    """Refuse a radius that is not finite and positive."""
    if not isfinite(radius):
        raise ValueError(f"{name} must be finite, got {radius}")
    if radius <= 0:
        raise ValueError(f"{name} must be positive, got {radius}")


def check_radii(radii) -> list[float]:
    """A radius schedule as floats; refused unless nonempty, finite,
    positive and strictly increasing."""
    radii = [float(r) for r in radii]
    for r in radii:
        _check_radius(r, "radii")
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radius schedule must be nonempty and strictly increasing, got {radii}")
    return radii


def _check_tol(tol: float) -> None:
    """Refuse a tolerance under which every comparison would pass or none."""
    if not (tol >= 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _check_length(name: str, length: int, dim: int) -> None:
    """Refuse a point or a batch with another coordinate count than ``dim``."""
    if length != dim:
        raise ValueError(f"{name}: a point of a dim-{dim} group has {dim} coordinates, got {length}")


def _check_point(name: str, point, dim: int) -> tuple[float, ...]:
    """A point that the user gives, as floats; refused unless finite with ``dim`` coordinates."""
    coords = tuple(float(c) for c in point)
    _check_length(f"{name} {coords}", len(coords), dim)
    for c in coords:
        if not isfinite(c):
            raise ValueError(f"{name} coordinates must be finite, got {c} in {coords}")
    return coords


def check_adapted(alg: LieAlgebra) -> LieAlgebra:
    """The algebra, refused unless its basis is adapted to the lower central
    series: for every m, as many basis vectors of weight >= m as dim g^m.

    The weights scale the Følner boxes and the degree windows.  In a basis
    where some g^m is not spanned by basis vectors (H3 in the basis
    e1, e2, e3 + e1 gets weights 1, 1, 1) the boxes are not Følner: left
    translation by (1, 0, 0) moves about a quarter of a box's samples out of
    it at R = 4, 16 and 64 alike, and every estimate on them would be
    silently wrong.
    """
    for m, dim in enumerate(alg.lcs, start=1):
        count = sum(w >= m for w in alg.weights)
        if count != dim:
            raise AlgebraError(
                f"basis is not adapted to the lower central series: {count} basis vector(s) "
                f"have weight >= {m} but dim g^{m} = {dim}; the numeric layer needs the number "
                f"of basis vectors of weight >= m to equal dim g^m for every m"
            )
    return alg


def box_volume(alg: LieAlgebra, radius: float) -> float:
    """Exact Haar volume of the weighted box: 2^n R^Q."""
    check_adapted(alg)
    _check_radius(radius)
    return 2.0 ** alg.dim * float(radius) ** alg.homogeneous_dimension


def sample_ball_coords(
    alg: LieAlgebra, spec: BallSpec, count: int, seed: int, tags: tuple = ()
) -> np.ndarray:
    """Uniform Haar samples as a (dim, count) float array, deterministic in seed.

    Box samples are drawn directly; quasiball samples by rejection from the
    bounding box (still exact, since Haar measure is Lebesgue measure here);
    the accepted columns are gathered with ``np.compress``, which took a
    (5, 4000) round from 51 to 21 µs against the boolean index ``a[:, mask]``.
    """
    rng._check_integer("sample count", count, 1)
    check_adapted(alg)
    gen = rng.stream(seed, "ball", spec.shape, float(spec.radius), tags)
    scale = np.array([float(spec.radius) ** w for w in alg.weights])[:, None]
    if spec.shape == "box":
        coords = gen.uniform(-1.0, 1.0, size=(alg.dim, count))
        coords *= scale
        return coords
    accepted = []
    have = 0
    while have < count:
        batch = gen.uniform(-1.0, 1.0, size=(alg.dim, max(count, 1024)))
        batch *= scale
        keep = np.compress(homogeneous_gauge_batch(alg, batch) <= spec.radius, batch, axis=1)
        accepted.append(keep)
        have += keep.shape[1]
    return np.concatenate(accepted, axis=1)[:, :count]


def cloud_mean(cloud: np.ndarray, values):
    """Monte Carlo mean and standard error of ``values`` over a sample cloud.

    ``values(coords)`` maps a (dim, n) slice of the cloud to an array whose
    last axis is the sample axis, each leading index its own estimate, or to
    an iterable of such arrays: row blocks of shape (rows, n), the same
    blocks in the same order for every slice, whose estimates are
    concatenated along the first axis.  Each block is reduced before the
    next one is drawn, so a block may reuse the memory of the one before
    it; an array is the one-block case.

    The slices are the fixed chunks of ``rng.chunked_sums``, so the result
    depends only on the cloud and ``values``.  The variance is summed on
    values shifted by the first chunk's mean, so a large mean does not
    cancel it away.  A cloud of fewer than 2 samples raises ``ValueError``.

    Once its sum is taken, a block is centred and squared in place, so
    ``values`` hands its blocks over to be overwritten, and no chunk touches
    memory of its own for them.  A block that is read-only, is not float64,
    or may share memory with the cloud is centred into a fresh float64
    array instead, so the cloud and such blocks are left as they are.

    Per chunk and block, the loop makes six numpy calls: three
    ``np.add.reduce`` over the sample axis (the total, the centred sum and
    the sum of squares), ``np.may_share_memory``, the centring subtraction
    and the square; ``rng.chunked_sums`` then adds the chunk in four
    elementwise calls.  The three sums are written into the rows of one
    (3, rows) array, which every chunk reuses, so there is one Kahan step
    per chunk, not one per sum, and nothing is concatenated after the
    first chunk.  Each rule keeps the bytes of per-block ``np.sum`` calls
    with ``keepdims``, each summed again over its length-1 axis by
    ``rng.chunked_sums``: ``np.add.reduce`` is the reduction ``np.sum``
    wraps, a sum over one entry is the entry itself (``np.add.reduce``
    never returns -0.0, so no zero sign is lost), and a Kahan step is
    elementwise.  The total is reduced in the block's dtype and then
    assigned into its row, so a float32 block is summed in float32, as
    ``np.sum`` sums it, and only then widened: reduced straight into the
    float64 rows it would be summed in float64.  The first chunk's shift
    stays ``np.mean``, whose float32 division is not ``total / n``.
    """
    shifts: list[np.ndarray] = []  # per block, its mean over the first chunk
    views: list[np.ndarray] = []  # per block, its columns of ``stack``
    stack = None  # the (3, rows) sums of a chunk: total, centred sum, sum of squares

    @wraps(values)  # chunk work is credited to the caller's module by tracers
    def evaluate(start: int, stop: int):
        nonlocal stack
        blocks = values(cloud[:, start:stop])
        parts = []
        for b, v in enumerate([blocks] if isinstance(blocks, np.ndarray) else blocks):
            if stack is None:  # the first chunk: chunks run serially, in order
                shifts.append(np.mean(v, axis=-1, keepdims=True))
                parts.append(part := np.empty((3,) + v.shape[:-1]))
            else:
                part = views[b]
            part[0] = np.add.reduce(v, axis=-1)
            own = v.flags.writeable and v.dtype == np.float64 and not np.may_share_memory(v, cloud)
            d = np.subtract(v, shifts[b], out=v if own else np.empty(v.shape))
            np.add.reduce(d, axis=-1, out=part[1, ...])
            np.add.reduce(np.square(d, out=d), axis=-1, out=part[2, ...])
        if stack is None:  # later chunks write into views of the first chunk's sums
            stack = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            views.extend([stack] if len(parts) == 1 else
                         np.split(stack, np.cumsum([p.shape[1] for p in parts[:-1]]), axis=1))
        return stack

    count = cloud.shape[1]
    total, total_d, total_dd = rng.chunked_sums(evaluate, count)
    _, stderr = rng.mean_and_stderr(total_d, total_dd, count)
    return total / count, stderr
