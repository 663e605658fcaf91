"""Topological degree, area-formula residuals, and asymptotic degree.

The local degree at a regular target is the sign sum of Jacobian
determinants over located preimages.  One engine serves ``local_degree``
(one target) and ``area_formula_check`` (a batch of targets per chunk):
damped Newton from a regular grid of starts on every (target, start)
column, on values and the coordinate Jacobian only (frames are unipotent,
so its determinant is that of the frame differential), then a greedy dedupe
in start order: a converged point strictly inside the window box is kept
unless it lies within ``DEDUPE_TOL`` (max-norm) of a root already kept.
Capture is heuristic, so every result carries the grid density and a
repeat-with-denser-grid stability flag; ``local_degree`` runs both grids
in one Newton batch, as columns never interact, and solves them in turn
only when an iterate leaves the map's domain.  For n <= 2 the Newton step
is the closed form adj(J)·r / det J (a division in 1-D); larger systems
go to LAPACK.  Every determinant here, Newton's, the reported ones of the
kept roots and the area check's signed-volume integrand, comes from one
rule (``_det``): the entry in 1-D, a·d - b·c in 2-D, LAPACK above.
numpy's det is sign·exp(log|det|) even for a 1x1 matrix, so it read
3.0000000000000004 for the derivative 3 of x -> 3x, and the area check of
that map failed its own 3-sigma test on a residual of 1 ulp.  In 1-D
the boundary margin is a search in the sorted boundary image, with the
same bits as the general minimum.  Near-singular targets are retried
with small perturbations (at most three, each within 1% of the window
radius), mirroring the regular-value definition of the degree for
non-regular targets.  The window is a box: a ``BallSpec`` of another
shape is refused (``_box_window``), as the scales, faces, inside test and
volume here are the box's.

``local_degree`` keeps its target-free set-up on the caller's map object,
in one ``algebra.DerivedCache`` slot (``_SetUp``), so the map and the
set-up are collected together: the normalized map, built by the first
call, and for the last (window radius, seed, grid density) key the sampled
boundary image, the window scales and the two start grids, read-only.  A
call with another key replaces them, so a map object holds one entry.  No
output bit moves: each kept array is a function of the map's fields and
its key alone (the boundary stream is keyed by the seed and the radius),
and every call reads it as a call that built it would.  The seed is
checked by the integer rule before the lookup, as 1.0 and True equal 1 as
keys, and every refusal comes in the order it had before.  The
``degree-perturb`` stream is opened only by a retry.  Repeated calls on
one map object gain, as 8 of the 9 ops of each ``degree`` benchmark cycle
make: on a shared 2-core host a warm call went from 2.14 to 1.68 ms, and
the benchmark's ``op_s_p50`` fell about 16% (10 of 10 paired runs).  A
map loaded fresh for each call (``nilcoh degree``) gains nothing.
``area_formula_check`` reads the same set-up under the same key, and starts
its Newton from the first grid.

The engine gathers columns with ``take`` or ``compress`` on index arrays
and scatters them one row at a time, never with 2-D boolean masks: on
numpy 2.4 at 8192 columns ``a[:, mask]`` takes 82-130 µs against about
7 µs for ``a.take(idx, axis=1)``, and in the area check's Newton that
bookkeeping had outgrown the line search's own map evaluations.

Newton's backtracking line search (Nocedal-Wright, *Numerical
Optimization*, 2nd ed., 3.1) tries the full step on every stepped column,
then, when they are few, all the smaller step lengths of the columns it
missed in one map evaluation, so it may evaluate trial points it never
accepts.  A ``local_degree`` call steps a few hundred columns of which a
handful miss, so the tape's per-call cost (about 30 µs at 64 columns)
outweighed its arithmetic: on the ``degree`` benchmark's first cycles this
cut the ``local_degree`` tape evaluations from 316-349 to 159-171 per
cycle, and a ``local_degree`` op by about 13%, with every output byte
unchanged.

Evaluation is serial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .algebra import DerivedCache
from .dsl import DomainError
from .forms import volume_form
from .group import BallSpec, _check_point, box_volume, check_adapted, cloud_mean, sample_ball_coords
from .maps import SmoothMap, differential_batch, evaluate_batch, jacobian_batch, normalize_to_y0
from .pullback import amenable_average

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 60
DEDUPE_TOL = 1e-6
BOUNDARY_MARGIN = 1e-6
SINGULAR_MARGIN = 1e-8
BOUNDARY_PER_FACE = 256  # boundary samples on each face of the window box


class BoundaryTooClose(ValueError):
    pass


class SingularTarget(ValueError):
    pass


@dataclass
class DegreeResult:
    value: int
    target: tuple
    requested_target: tuple
    window: BallSpec
    preimage_count: int
    min_jacobian_margin: float
    grid_density: int
    stable_under_refinement: bool
    retries: int
    preimages: list[tuple] = field(default_factory=list)


@dataclass
class AsymptoticDegreeTrace:
    radii: list[float]
    tau: list[float]
    ball_volumes: list[float]
    ratios: list[float]
    stderrs: list[float]
    verdict: str  # 'positive-asymptotic-degree' | 'inconclusive'
    warnings: list[str] = field(default_factory=list)


def _window_scales(m: SmoothMap, window: BallSpec) -> np.ndarray:
    return np.array([float(window.radius) ** w for w in check_adapted(m.domain).weights])


def _grid_starts(scales: np.ndarray, density: int) -> np.ndarray:
    n = len(scales)
    axes = [(2 * np.arange(density) + 1) / density - 1.0 for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh])
    return pts * scales[:, None]


def _box_window(window: BallSpec | float) -> BallSpec:
    """The window as a ``BallSpec``, refused unless its shape is a box: the
    scales, faces, inside test and volume of the degree engine are the
    box's, so a quasiball would be read as its bounding box."""
    window = window if isinstance(window, BallSpec) else BallSpec(float(window))
    if window.shape != "box":
        raise ValueError(f"the degree window must be a box, got shape {window.shape!r}")
    return window


def _boundary_cloud(m: SmoothMap, scales: np.ndarray, window: BallSpec, seed: int) -> np.ndarray:
    """Deterministic samples on the faces of the window box of ``scales``,
    mapped forward."""
    n = m.domain.dim
    gen = rng.stream(seed, "degree-boundary", float(window.radius))
    faces = []
    for i in range(n):
        pts = gen.uniform(-1.0, 1.0, size=(n, 2 * BOUNDARY_PER_FACE)) * scales[:, None]
        pts[i, :BOUNDARY_PER_FACE] = scales[i]
        pts[i, BOUNDARY_PER_FACE:] = -scales[i]
        faces.append(pts)
    boundary = np.concatenate(faces, axis=1)
    return evaluate_batch(m, boundary)


def _boundary_margin(boundary_vals: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Max-norm distance from each target column (n, T) to the boundary image.

    In 1-D the nearest boundary values are the neighbours of each target in
    the sorted image, so no (1, B, T) difference array is built; a NaN in
    the image makes every margin NaN, as the minimum over all of them would.
    Otherwise a running maximum over the coordinates fills one (B, T) array
    (max and min are exact and ``np.maximum`` keeps a NaN, so the bits are
    those of the maximum over an (n, B, T) stack).
    """
    if len(boundary_vals) == 1:
        edge, t = np.sort(boundary_vals[0]), targets[0]
        pos = np.searchsorted(edge, t)
        below = edge[np.maximum(pos - 1, 0)]
        above = edge[np.minimum(pos, edge.size - 1)]
        margin = np.minimum(np.abs(below - t), np.abs(above - t))
        return np.where(np.isnan(edge[-1]), np.nan, margin)
    dist = np.abs(boundary_vals[0][:, None] - targets[0])
    for edge, t in zip(boundary_vals[1:], targets[1:]):
        np.maximum(dist, np.abs(edge[:, None] - t), out=dist)
    return np.min(dist, axis=0)


def _det(mats: np.ndarray) -> np.ndarray:
    """Determinants of a (..., n, n) stack: the entry in 1-D, a·d - b·c in
    2-D and LAPACK above (module docstring)."""
    n = mats.shape[-1]
    if n == 1:
        return mats[..., 0, 0]
    if n == 2:
        return mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    return np.linalg.det(mats)


def _max_abs(r: np.ndarray) -> np.ndarray:
    """The max-norm of r over its first axis, NaN kept: |r| of the one row in
    1-D and ``np.maximum`` of the two rows' |r|, in place, in 2-D, with the
    bits of ``np.max(np.abs(r), axis=0)`` up to NaN payloads, which only
    ever meet comparisons."""
    if len(r) == 1:
        return np.abs(r[0])
    a = np.abs(r)
    if len(r) == 2:
        return np.maximum(a[0], a[1], out=a[0])
    return a.max(axis=0)


def _newton_roots(m: SmoothMap, starts: np.ndarray, targets: np.ndarray):
    """Damped Newton on every (start, target) column pair.

    ``starts`` is (n, S) and ``targets`` (n, S): one target per column.
    Returns (points, converged mask, coordinate Jacobians at the points).
    Each column's iterates depend on that column alone.  For n <= 2 the
    step is adj(J)·r / det J in closed form, with det J = ad - bc from
    ``_det`` in 2-D (Cramer's rule is forward stable for n = 2; Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002) and the
    residual over the derivative in 1-D; larger systems go to LAPACK.

    Every gather is ``take`` on an index array and every scatter one 1-D
    assignment per row: at 8192 columns on numpy 2.4, ``a[:, mask]`` took
    82-130 µs against about 7 µs for ``a.take(idx, axis=1)``, and
    ``a[:, idx] = v`` 18-89 µs against 11-33 µs for n row scatters.  The
    line search (``_line_search``) steps compact copies of the stepped
    columns and shrinks them with ``take``, so the full step gathers
    nothing, and they are freed before the next Jacobian.  The columns and
    accepted step lengths are those of a loop on boolean masks that tries
    one step length at a time, and so are the output bytes.  The line search
    may also evaluate trial points that loop never reaches; where one of
    them leaves the map's domain it falls back to that loop's batches, so a
    ``DomainError`` carries the same message and sample index.

    A round makes as few numpy calls as its arithmetic allows, as at a few
    hundred columns each call costs more than its work.  Every rule keeps
    the bytes, as each rounds the same operations in the same order:
    residual norms come from ``_max_abs``, whose NaN is the reduction's;
    index sets from ``mask.nonzero()[0]``, which ``np.flatnonzero`` wraps
    after a ravel; the residual and the 1-D step are written in place into
    the values and the gathered residual, and the 2-D Cramer step is one
    (2, k) array, [d·r0, a·r1] less [b·r1, c·r0], over det J.
    """
    n = len(starts)
    x = starts.copy()
    alive = np.ones(x.shape[1], dtype=bool)
    for iteration in range(NEWTON_MAX_ITER + 1):
        resid, jacs = jacobian_batch(m, x)
        resid -= targets  # the tape's fresh values
        rnorm = _max_abs(resid)
        idx = (alive & (rnorm > NEWTON_TOL)).nonzero()[0]
        # j is (n, n, k), each entry one contiguous row: jacs is a view of
        # a C-contiguous (n, n, S) array
        j = jacs.transpose(1, 2, 0).take(idx, axis=2)
        dets = _det(j.transpose(2, 0, 1))
        solvable = np.abs(dets) > 1e-300
        if not solvable.all():
            alive[idx.compress(~solvable)] = False
            ok = solvable.nonzero()[0]
            idx, dets, j = idx.take(ok), dets.take(ok), j.take(ok, axis=2)
        if iteration == NEWTON_MAX_ITER or idx.size == 0:
            break
        step = resid.take(idx, axis=1)
        if n == 1:
            step /= dets
        elif n == 2:  # rows a, b, c, d of j: [d, a]·r less [b, c]·[r1, r0]
            flat, r = j.reshape(4, -1), step
            step = flat[::-3] * r
            step -= flat[1:3] * r[::-1]
            step /= dets
        else:
            step = np.linalg.solve(j.transpose(2, 0, 1), step.T[:, :, None])[:, :, 0].T
        del resid, j  # not read again: freed before the line search evaluates
        alive[_line_search(m, x, targets, idx, rnorm.take(idx), step)] = False
    return x, rnorm <= NEWTON_TOL, jacs


_SMALLER_STEPS = (0.5, 0.25, 0.125, 0.0625, 0.03125)
_SMALLER = np.array(_SMALLER_STEPS)[:, None]  # (5, 1), against a (n, 1, k) step


def _line_search(m: SmoothMap, x, targets, idx, rs, step) -> np.ndarray:
    """Backtracking on the columns ``idx`` of x, whose residual norms are
    ``rs``: each takes the first of the step lengths 1, 1/2, ..., 1/32
    that lowers its residual norm, written into x in place.  Returns the
    columns no step length improved.  The search works on compact copies
    (points ``xs``, targets ``ts``) shrunk to the columns that missed.

    A round evaluates a group of step lengths on the remaining columns in
    one batch, step-length-major.  The schedule is the full step alone,
    then 1/2 ... 1/32 together; each column takes the first length of the
    group that improves it, in order.  A group whose batch would be larger
    than the batch before it, or that raises ``DomainError``, is split into
    single rounds, which evaluate exactly the batches of a one-length-at-a-
    time loop (so a genuine ``DomainError`` keeps its message and sample
    index).  The tape is elementwise and the norm test column by column, so
    the accepted points are those of that loop, bit for bit.  A single
    round's trial is xs - a·step (xs - step for the full step, as 1.0·s is
    s), and the group's comes from the module's (5, 1) array of lengths.

    The size rule (the k columns that miss the full step try the five
    smaller lengths together only when 5k is at most the number of columns
    just stepped) keeps the area check's Newton flat: its large miss sets
    gain little from fewer calls and pay for the points no column needs.
    Without it, an area op of the ``degree`` benchmark took 8-11% longer
    (median of paired runs, seeds 5 and 7), while ``local_degree``, whose
    few misses nearly always fit, was unchanged.
    """
    xs, ts = x.take(idx, axis=1), targets.take(idx, axis=1)
    rounds, last = [1.0, _SMALLER], idx.size
    while rounds:
        alpha = rounds.pop(0)
        k = idx.size
        single = alpha is not _SMALLER
        if single:
            trial = xs - step if alpha == 1.0 else xs - alpha * step
        elif len(_SMALLER) * k > last:
            rounds[:0] = _SMALLER_STEPS
            continue
        else:
            trial = (xs[:, None] - _SMALLER * step[:, None]).reshape(len(xs), -1)
        try:
            vals = evaluate_batch(m, trial)
        except DomainError:
            if single:
                raise
            rounds[:0] = _SMALLER_STEPS  # find the length that raises, in order
            continue
        last = trial.shape[1]
        if single:
            vals -= ts
            found = _max_abs(vals) < rs
            hit = src = found.nonzero()[0]
        else:
            vals = vals.reshape(len(vals), -1, k)
            vals -= ts[:, None]
            better = _max_abs(vals) < rs
            found = better.any(axis=0)
            hit = found.nonzero()[0]
            # each hit's column in trial; argmax over the short axis costs
            # about 120 µs at 8192 columns, so a single round does without it
            src = better.argmax(axis=0).take(hit) * k + hit
        cols = idx.take(hit)
        for row, moved in zip(x, trial):
            row[cols] = moved.take(src)
        miss = (~found).nonzero()[0]
        idx = idx.take(miss)
        if idx.size == 0:
            break
        xs, ts, rs, step = (xs.take(miss, axis=1), ts.take(miss, axis=1), rs.take(miss),
                            step.take(miss, axis=1))
    return idx


def _greedy_dedupe(points: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Keep mask of the greedy per-target dedupe of (n, T, S) points.

    ``candidates`` (T, S) marks the points that may be kept.  Each round keeps
    the first remaining candidate of every target and drops that target's
    candidates within ``DEDUPE_TOL`` of it: a point is kept exactly when no
    earlier kept root of its target lies that close.  The rows of a round are
    gathered with ``take`` and each root by its flat (target, start) index.
    """
    n, _, n_starts = points.shape
    flat = points.reshape(n, -1)
    keep = np.zeros(candidates.size, dtype=bool)
    pending = candidates.copy()
    rows = np.flatnonzero(pending.any(axis=1))
    while rows.size:
        live = pending.take(rows, axis=0)
        first = rows * n_starts + np.argmax(live, axis=1)
        keep[first] = True
        root = flat.take(first, axis=1)
        live &= np.max(np.abs(points.take(rows, axis=1) - root[:, :, None]), axis=0) > DEDUPE_TOL
        pending[rows] = live
        rows = rows.compress(live.any(axis=1))
    return keep.reshape(candidates.shape)


def _preimages(m: SmoothMap, targets: np.ndarray, scales: np.ndarray, grids: tuple):
    """Preimages inside the open window box of each target column (n, T),
    from each start grid (n, S) in ``grids`` (``_grid_starts``).

    Newton runs once on the start columns of all grids together; each grid
    is then deduped and counted on its own, exactly as if it had run alone.
    Returns per grid (degrees, singular, roots, dets): per target the sign
    sum of the Jacobian determinants and whether any is below
    ``SINGULAR_MARGIN``; per kept root, in target-then-start order, its
    coordinates (n, K) and its determinant.
    """
    count = targets.shape[1]
    points, converged, jacs = _newton_roots(
        m,
        np.concatenate([np.tile(g, (1, count)) for g in grids], axis=1),
        np.concatenate([np.repeat(targets, g.shape[1], axis=1) for g in grids], axis=1),
    )
    inside = converged & np.all(np.abs(points) < scales[:, None] * (1 - 1e-12), axis=0)
    out, stop = [], 0
    for grid in grids:
        n, n_starts = grid.shape
        part = slice(stop, stop + count * n_starts)
        stop = part.stop
        keep = _greedy_dedupe(
            points[:, part].reshape(n, count, n_starts), inside[part].reshape(count, n_starts)
        )
        cols = np.flatnonzero(keep)
        owner, dets = cols // n_starts, _det(jacs[part].take(cols, axis=0))
        degrees = np.bincount(owner, np.where(dets > 0, 1.0, -1.0), count)
        singular = np.bincount(owner, ~(np.abs(dets) >= SINGULAR_MARGIN), count) > 0
        out.append((degrees, singular, points[:, part].take(cols, axis=1), dets))
    return out


class _SetUp:
    """The target-free set-up of one map object, shared by both degree calls
    (module docstring): the normalized map, and the last key's read-only arrays."""

    def __init__(self, m: SmoothMap):
        self.map = normalize_to_y0(m)
        self.last = None  # (key, boundary image, scales, (grid, doubled grid))

    def arrays(self, window: BallSpec, seed: int, grid_density: int):
        """The boundary image, scales and start grids of the window box, the
        seed and the grid density, kept for the last key only."""
        key = (float(window.radius), int(seed), int(grid_density))
        last = self.last
        if last is None or last[0] != key:
            scales = _window_scales(self.map, window)
            grids = tuple(_grid_starts(scales, d) for d in (grid_density, 2 * grid_density))
            last = (key, _boundary_cloud(self.map, scales, window, seed), scales, grids)
            for a in (*last[1:3], *grids):
                a.flags.writeable = False
            self.last = last
        return last[1:]


_SET_UP = DerivedCache("degree_set_up")  # per map object: its _SetUp


def local_degree(
    m: SmoothMap,
    window: BallSpec | float,
    target,
    grid_density: int = 8,
    seed: int = 0,
) -> DegreeResult:
    """Signed preimage count of a regular target over the window box.

    A target with a NaN or infinite coordinate is refused: no preimage
    search can find it, and degree 0 would read as "stable".  A boundary
    image with a NaN, whose margin cannot be read, is refused like a target
    too close to it (``BoundaryTooClose``).  A window whose shape is not a
    box is refused (``_box_window``)."""
    rng._check_integer("grid density", grid_density, 1)
    set_up = _SET_UP.get(m) or _SET_UP.setdefault(m, _SetUp(m))
    m = set_up.map
    if m.domain.dim != m.codomain.dim:
        raise ValueError("degree needs equal domain and codomain dimensions")
    window = _box_window(window)
    requested = _check_point("target", target, m.codomain.dim)
    check_adapted(m.domain)  # a basis that is not adapted is refused before a bad seed
    rng._check_integer("seed", seed)  # before the lookup: 1.0 and True equal 1 as keys
    boundary_vals, scales, grids = set_up.arrays(window, seed, grid_density)
    gen = None  # the perturbation stream, opened by the first retry

    target_now = np.array(requested)
    for attempt in range(4):
        column = target_now[:, None]
        margin = float(_boundary_margin(boundary_vals, column)[0])
        if np.isnan(margin):
            raise BoundaryTooClose(
                f"the sampled boundary image is not finite: no margin of target {requested} "
                f"can be read"
            )
        if margin <= BOUNDARY_MARGIN:
            raise BoundaryTooClose(
                f"target {tuple(float(v) for v in target_now)} lies within {BOUNDARY_MARGIN:g} "
                f"of the sampled boundary image (margin {margin:.3e})"
            )
        try:
            first, refined = _preimages(m, column, scales, grids)
        except DomainError:
            # an iterate left the map's domain: solve the grids in turn, as
            # the denser one only runs, and so may only raise, when the
            # first finds no near-singular preimage
            (first,), refined = _preimages(m, column, scales, grids[:1]), None
        degree, singular, roots, dets = first
        if not singular[0]:
            if refined is None:
                (refined,) = _preimages(m, column, scales, grids[1:])
            degree2, _, _, dets2 = refined
            return DegreeResult(
                value=int(degree[0]),
                target=tuple(float(v) for v in target_now),
                requested_target=requested,
                window=window,
                preimage_count=len(dets),
                min_jacobian_margin=float(np.min(np.abs(dets), initial=np.inf)),
                grid_density=grid_density,
                stable_under_refinement=(degree[0], len(dets)) == (degree2[0], len(dets2)),
                retries=attempt,
                preimages=[tuple(float(v) for v in r) for r in roots.T],
            )
        # near-singular preimage: nudge the target within the same component
        if gen is None:
            gen = rng.stream(seed, "degree-perturb", float(window.radius))
        target_now = np.array(requested) + gen.uniform(-1.0, 1.0, size=len(requested)) * (
            0.01 * float(window.radius)
        )
    raise SingularTarget(
        f"all retries hit preimages with |det| < {SINGULAR_MARGIN:g} near target {requested}"
    )


def area_formula_check(
    m: SmoothMap,
    window: BallSpec | float,
    samples: int = 100000,
    seed: int = 0,
    grid_density: int = 8,
    threads: int = 1,
) -> dict:
    """Compare the signed volume integral with the degree integral.

    Left side: Monte Carlo of det(Df) over the window.  Right side: Monte
    Carlo of the local degree over the bounding box of the sampled boundary
    image f(∂B) (``image_box_volume``), which holds the degree's whole
    support: the degree is constant on each component of Rⁿ∖f(∂B) and 0 on
    the unbounded one, where every point outside the box lies.  In 1-D the
    box is exact, as each face is one point; in n-D it is the box of the
    sampled faces that set the boundary margin.  Targets too close to the
    sampled boundary image (every target, with no Newton batch run, when a
    NaN in the image leaves no margin to read), or landing on near-singular
    preimages, are skipped and counted; fewer than 2 counted targets are
    refused (ValueError), as one has no spread to estimate.
    ``threads`` is checked as a count and otherwise ignored (evaluation is
    serial), because the benchmark harness passes it.  A window whose shape
    is not a box is refused (``_box_window``).
    """
    rng._check_integer("grid density", grid_density, 1)
    rng._check_integer("threads", threads, 1)
    set_up = _SET_UP.get(m) or _SET_UP.setdefault(m, _SetUp(m))
    m = set_up.map
    if m.domain.dim != m.codomain.dim:
        raise ValueError("area formula needs equal dimensions")
    window = _box_window(window)
    check_adapted(m.domain)  # a basis that is not adapted is refused before a bad count
    vol_u = box_volume(m.domain, window.radius)

    cloud = sample_ball_coords(m.domain, window, samples, seed, tags=("area-lhs",))

    def dets(coords: np.ndarray) -> np.ndarray:
        mats = differential_batch(m, coords)
        d = _det(mats)
        return np.stack([d, np.abs(d)])

    (mean_det, mean_abs), (se_det, _) = cloud_mean(cloud, dets)
    lhs = float(mean_det) * vol_u
    lhs_se = float(se_det) * vol_u
    unsigned = float(mean_abs) * vol_u

    # after the cloud, which refused a bad count or seed (1.0 and True equal 1 as keys)
    boundary_vals, scales, grids = set_up.arrays(window, seed, grid_density)
    lo, hi = boundary_vals.min(axis=1), boundary_vals.max(axis=1)
    vol_box = float(np.prod(hi - lo))
    gen = rng.stream(seed, "area-rhs", float(window.radius))
    targets = gen.uniform(0.0, 1.0, size=(m.codomain.dim, samples)) * (hi - lo)[:, None] + lo[:, None]

    if np.isnan(boundary_vals).any():
        # every margin is NaN, no clearance: every target is skipped, and no Newton runs
        degs, singular = np.zeros(samples, int), np.zeros(samples, bool)
        near = np.ones(samples, bool)
    else:
        chunk = max(1, rng.CHUNK // grid_density ** m.domain.dim)
        parts = []
        for start in range(0, samples, chunk):
            t = targets[:, start : start + chunk]
            ((degrees, singular, _, _),) = _preimages(m, t, scales, grids[:1])
            near = ~(_boundary_margin(boundary_vals, t) > BOUNDARY_MARGIN)
            parts.append((degrees, singular, near))
        degs, singular, near = (np.concatenate(p) for p in zip(*parts))
    valid = ~near & ~singular

    n_valid = int(np.sum(valid))
    if n_valid < 2:
        raise ValueError(
            f"the degree integral needs at least 2 counted targets, got {n_valid} "
            f"({int(np.sum(near))} skipped at the boundary, "
            f"{int(np.sum(~valid & ~near))} singular, of {samples})"
        )
    mean_deg = float(np.mean(degs[valid]))
    se_deg = float(np.std(degs[valid], ddof=1) / np.sqrt(n_valid))
    rhs = mean_deg * vol_box
    rhs_se = se_deg * vol_box

    return {
        "window_radius": window.radius,
        "samples": samples,
        "signed_integral": lhs,
        "signed_integral_stderr": lhs_se,
        "unsigned_integral": unsigned,
        "degree_integral": rhs,
        "degree_integral_stderr": rhs_se,
        "residual": lhs - rhs,
        "combined_stderr": float(np.hypot(lhs_se, rhs_se)),
        "image_box_volume": vol_box,
        "targets_skipped_boundary": int(np.sum(near)),
        "targets_skipped_singular": int(np.sum(~valid & ~near)),
    }


def asymptotic_degree(
    m: SmoothMap,
    omega=None,
    radii=(4.0, 8.0, 16.0, 32.0, 64.0),
    samples: int = 20000,
    seed: int = 0,
    shape: str = "box",
) -> AsymptoticDegreeTrace:
    """Per-radius signed average of the pulled-back volume form.

    The ratio tau(R)/|B_R| is the plain ball average of the top pullback
    coefficient, read from ``amenable_average`` of omega, so on the same
    Følner boxes as the cohomology averages, and with its warnings.
    """
    if m.domain.dim != m.codomain.dim:
        raise ValueError("asymptotic degree needs equal dimensions")
    if omega is None:
        omega = volume_form(m.codomain)
    if omega.degree != m.codomain.dim:
        raise ValueError("omega must be a top-degree form on the codomain")
    est = amenable_average(m, omega, radii, samples, seed, shape)
    top = tuple(range(m.domain.dim))
    ratios = [value.coeffs.get(top, 0.0) for value in est.values]
    stderrs = [se[top] for se in est.mc_stderr]
    vols = [box_volume(m.domain, r) for r in est.radii]
    taus = [mean * vol for mean, vol in zip(ratios, vols)]
    positive = len(ratios) >= 2 and all(ratios[i] - 3.0 * stderrs[i] > 0.0 for i in (-2, -1))
    return AsymptoticDegreeTrace(
        radii=est.radii,
        tau=taus,
        ball_volumes=vols,
        ratios=ratios,
        stderrs=stderrs,
        verdict="positive-asymptotic-degree" if positive else "inconclusive",
        warnings=est.warnings,
    )


def qi_distortion_probe(
    m: SmoothMap, radius: float = 8.0, pairs: int = 2000, seed: int = 0
) -> dict:
    """Heuristic two-sided distortion of quasi-norm distances on random pairs.

    Reports quantiles of dist_H(f(x), f(y)) / dist_G(x, y); this is evidence
    about quasi-isometric behavior at one scale, never a certificate.
    """
    from .bch import group_law
    from .group import quasi_norm_batch

    dom_law = group_law(m.domain)
    cod_law = group_law(m.codomain)
    spec = BallSpec(radius)
    xs = sample_ball_coords(m.domain, spec, pairs, seed, tags=("qi-x",))
    ys = sample_ball_coords(m.domain, spec, pairs, seed, tags=("qi-y",))
    d_dom = quasi_norm_batch(m.domain, dom_law.multiply_batch(-xs, ys))
    fx = evaluate_batch(m, xs)
    fy = evaluate_batch(m, ys)
    d_cod = quasi_norm_batch(m.codomain, cod_law.multiply_batch(-fx, fy))
    keep = d_dom > 0.1
    if not keep.any():
        raise ValueError(
            f"no sampled pair is more than 0.1 apart at radius {radius} with {pairs} pairs"
        )
    ratio = d_cod[keep] / d_dom[keep]
    qs = np.quantile(ratio, [0.0, 0.05, 0.5, 0.95, 1.0])
    return {
        "radius": radius,
        "pairs": int(np.sum(keep)),
        "ratio_min": float(qs[0]),
        "ratio_p05": float(qs[1]),
        "ratio_median": float(qs[2]),
        "ratio_p95": float(qs[3]),
        "ratio_max": float(qs[4]),
    }
