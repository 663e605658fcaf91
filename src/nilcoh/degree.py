"""Topological degree, area-formula residuals, and asymptotic degree.

The local degree at a regular target is the sign sum of Jacobian
determinants over located preimages.  Preimages are found by damped Newton
iteration from a regular grid of starts; capture is therefore heuristic,
so every result carries the grid density and a repeat-with-denser-grid
stability flag.  Near-singular targets are retried with small perturbations
(at most three, each within 1% of the window radius), mirroring the
regular-value definition of the degree for non-regular targets.

The determinant of the frame differential equals the coordinate Jacobian
determinant (frames are unipotent), so orientation counts agree with the
coordinate picture.

Evaluation is serial; the public functions accept ``threads`` for
compatibility and ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .forms import volume_form
from .group import BallSpec, box_volume, cloud_mean, sample_ball_coords
from .maps import SmoothMap, differential_batch, evaluate_batch, normalize_to_y0
from .pullback import _averaged_coefficients, _check_radii

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 60
DEDUPE_TOL = 1e-6
BOUNDARY_MARGIN = 1e-6
SINGULAR_MARGIN = 1e-8


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


def _window_scales(m: SmoothMap, window: BallSpec) -> np.ndarray:
    return np.array([float(window.radius) ** w for w in m.domain.weights])


def _grid_starts(scales: np.ndarray, density: int) -> np.ndarray:
    n = len(scales)
    axes = [(2 * np.arange(density) + 1) / density - 1.0 for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh])
    return pts * scales[:, None]


def _boundary_cloud(m: SmoothMap, window: BallSpec, seed: int, per_face: int = 256) -> np.ndarray:
    """Deterministic samples on the faces of the window box, mapped forward."""
    scales = _window_scales(m, window)
    n = m.domain.dim
    gen = rng.stream(seed, "degree-boundary", float(window.radius))
    faces = []
    for i in range(n):
        pts = gen.uniform(-1.0, 1.0, size=(n, 2 * per_face)) * scales[:, None]
        pts[i, :per_face] = scales[i]
        pts[i, per_face:] = -scales[i]
        faces.append(pts)
    boundary = np.concatenate(faces, axis=1)
    return evaluate_batch(m, boundary)


def _newton_roots(m: SmoothMap, starts: np.ndarray, targets: np.ndarray):
    """Damped Newton on every (start, target) column pair.

    ``starts`` is (n, S) and ``targets`` (n, S): one target per column.
    Returns (points, converged mask, determinant at the points).
    """
    x = starts.copy()
    alive = np.ones(x.shape[1], dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        vals, mats = differential_batch(m, x)
        resid = vals - targets
        rnorm = np.max(np.abs(resid), axis=0)
        done = rnorm <= NEWTON_TOL
        active = alive & ~done
        if not np.any(active):
            break
        dets = np.linalg.det(mats[active])
        idx = np.flatnonzero(active)
        solvable = np.abs(dets) > 1e-300
        alive[idx[~solvable]] = False
        idx = idx[solvable]
        if idx.size == 0:
            break
        step = np.linalg.solve(mats[idx], resid[:, idx].T[:, :, None])[:, :, 0].T
        accepted = np.zeros(idx.size, dtype=bool)
        for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            trial = x[:, idx] - alpha * step
            tnorm = np.max(np.abs(evaluate_batch(m, trial) - targets[:, idx]), axis=0)
            better = ~accepted & (tnorm < rnorm[idx])
            x[:, idx[better]] = trial[:, better]
            accepted |= better
            if np.all(accepted):
                break
        alive[idx[~accepted]] = False
    vals, mats = differential_batch(m, x)
    converged = np.max(np.abs(vals - targets), axis=0) <= NEWTON_TOL
    return x, converged, np.linalg.det(mats)


def _collect_preimages(points: np.ndarray, converged: np.ndarray, dets: np.ndarray, scales: np.ndarray):
    """Dedupe converged points strictly inside the open window box."""
    inside = converged & np.all(np.abs(points) < scales[:, None] * (1 - 1e-12), axis=0)
    roots: list[np.ndarray] = []
    margins: list[float] = []
    for c in np.flatnonzero(inside):
        p = points[:, c]
        if any(np.max(np.abs(p - q)) <= DEDUPE_TOL for q in roots):
            continue
        roots.append(p)
        margins.append(float(dets[c]))
    return roots, margins


def local_degree(
    m: SmoothMap,
    window: BallSpec | float,
    target,
    grid_density: int = 8,
    seed: int = 0,
) -> DegreeResult:
    """Signed preimage count of a regular target over the window box."""
    m = normalize_to_y0(m)
    if m.domain.dim != m.codomain.dim:
        raise ValueError("degree needs equal domain and codomain dimensions")
    window = window if isinstance(window, BallSpec) else BallSpec(float(window))
    requested = tuple(float(c) for c in (target.coords if hasattr(target, "coords") else target))
    if len(requested) != m.codomain.dim:
        raise ValueError("target dimension mismatch")

    boundary_vals = _boundary_cloud(m, window, seed)
    scales = _window_scales(m, window)
    gen = rng.stream(seed, "degree-perturb", float(window.radius))

    target_now = np.array(requested)
    for attempt in range(4):
        margin = float(np.min(np.max(np.abs(boundary_vals - target_now[:, None]), axis=0)))
        if margin <= BOUNDARY_MARGIN:
            raise BoundaryTooClose(
                f"target {tuple(target_now)} lies within {BOUNDARY_MARGIN:g} of the sampled "
                f"boundary image (margin {margin:.3e})"
            )
        roots, margins = _find_roots(m, window, target_now, grid_density, scales)
        if all(abs(d) >= SINGULAR_MARGIN for d in margins):
            roots2, margins2 = _find_roots(m, window, target_now, 2 * grid_density, scales)
            deg = sum(1 if d > 0 else -1 for d in margins)
            deg2 = sum(1 if d > 0 else -1 for d in margins2)
            return DegreeResult(
                value=deg,
                target=tuple(float(v) for v in target_now),
                requested_target=requested,
                window=window,
                preimage_count=len(roots),
                min_jacobian_margin=min((abs(d) for d in margins), default=float("inf")),
                grid_density=grid_density,
                stable_under_refinement=(deg == deg2 and len(roots) == len(roots2)),
                retries=attempt,
                preimages=[tuple(float(v) for v in r) for r in roots],
            )
        # near-singular preimage: nudge the target within the same component
        target_now = np.array(requested) + gen.uniform(-1.0, 1.0, size=len(requested)) * (
            0.01 * float(window.radius)
        )
    raise SingularTarget(
        f"all retries hit preimages with |det| < {SINGULAR_MARGIN:g} near target {requested}"
    )


def _find_roots(m, window, target, grid_density, scales):
    starts = _grid_starts(scales, grid_density)
    targets = np.repeat(np.asarray(target, dtype=float)[:, None], starts.shape[1], axis=1)
    points, converged, dets = _newton_roots(m, starts, targets)
    return _collect_preimages(points, converged, dets, scales)


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
    Carlo of local_degree over the sampled bounding box of the image.
    Targets too close to the sampled boundary image, or landing on
    near-singular preimages, are skipped and counted.
    """
    m = normalize_to_y0(m)
    if m.domain.dim != m.codomain.dim:
        raise ValueError("area formula needs equal dimensions")
    window = window if isinstance(window, BallSpec) else BallSpec(float(window))
    scales = _window_scales(m, window)
    vol_u = box_volume(m.domain, window.radius)

    cloud = sample_ball_coords(m.domain, window, samples, seed, tags=("area-lhs",))

    def dets(coords: np.ndarray) -> np.ndarray:
        _, mats = differential_batch(m, coords)
        d = np.linalg.det(mats)
        return np.stack([d, np.abs(d)])

    (mean_det, mean_abs), (se_det, _) = cloud_mean(cloud, dets)
    lhs = float(mean_det) * vol_u
    lhs_se = float(se_det) * vol_u
    unsigned = float(mean_abs) * vol_u

    image = evaluate_batch(m, cloud)
    lo, hi = image.min(axis=1), image.max(axis=1)
    vol_box = float(np.prod(hi - lo))
    boundary_vals = _boundary_cloud(m, window, seed)

    gen = rng.stream(seed, "area-rhs", float(window.radius))
    targets = gen.uniform(0.0, 1.0, size=(m.codomain.dim, samples)) * (hi - lo)[:, None] + lo[:, None]

    starts = _grid_starts(scales, grid_density)
    n_starts = starts.shape[1]
    chunk = max(1, rng.CHUNK // max(1, n_starts))

    def degree_chunk(start, stop):
        t = targets[:, start:stop]
        count = stop - start
        near = (
            np.min(
                np.max(np.abs(boundary_vals[:, :, None] - t[:, None, :]), axis=0), axis=0
            )
            <= BOUNDARY_MARGIN
        )
        tiled_targets = np.repeat(t, n_starts, axis=1)
        tiled_starts = np.tile(starts, (1, count))
        points, converged, dets = _newton_roots(m, tiled_starts, tiled_targets)
        degs = np.zeros(count)
        valid = np.ones(count, dtype=bool)
        for k in range(count):
            if near[k]:
                valid[k] = False
                continue
            sl = slice(k * n_starts, (k + 1) * n_starts)
            roots, margins = _collect_preimages(
                points[:, sl], converged[sl], dets[sl], scales
            )
            if any(abs(d) < SINGULAR_MARGIN for d in margins):
                valid[k] = False
                continue
            degs[k] = sum(1 if d > 0 else -1 for d in margins)
        return degs, valid, near

    parts = [degree_chunk(s, min(s + chunk, samples)) for s in range(0, samples, chunk)]
    degs = np.concatenate([p[0] for p in parts])
    valid = np.concatenate([p[1] for p in parts])
    near = np.concatenate([p[2] for p in parts])

    n_valid = int(np.sum(valid))
    mean_deg = float(np.mean(degs[valid])) if n_valid else 0.0
    se_deg = (
        float(np.std(degs[valid], ddof=1) / np.sqrt(n_valid)) if n_valid > 1 else 0.0
    )
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
    threads: int = 1,
) -> AsymptoticDegreeTrace:
    """Per-radius signed average of the pulled-back volume form.

    The ratio tau(R)/|B_R| is the plain ball average of the top pullback
    coefficient, using the same Følner boxes as the cohomology averages.
    """
    m = normalize_to_y0(m)
    if m.domain.dim != m.codomain.dim:
        raise ValueError("asymptotic degree needs equal dimensions")
    if omega is None:
        omega = volume_form(m.codomain)
    if omega.degree != m.codomain.dim:
        raise ValueError("omega must be a top-degree form on the codomain")
    radii = _check_radii(radii)
    warnings: list[str] = []
    ratios, stderrs, taus, vols = [], [], [], []
    top = tuple(range(m.domain.dim))
    for r in radii:
        (coeffs,), _deriv = _averaged_coefficients(m, [omega], r, samples, seed, shape, warnings)
        mean, se = coeffs[top]
        vol = box_volume(m.domain, r)
        ratios.append(mean)
        stderrs.append(se)
        taus.append(mean * vol)
        vols.append(vol)
    positive = all(ratios[i] - 3.0 * stderrs[i] > 0.0 for i in (-2, -1)) if len(radii) >= 2 else False
    return AsymptoticDegreeTrace(
        radii=list(radii),
        tau=taus,
        ball_volumes=vols,
        ratios=ratios,
        stderrs=stderrs,
        verdict="positive-asymptotic-degree" if positive else "inconclusive",
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

    m = normalize_to_y0(m)
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
