"""Averaged pullbacks of left-invariant forms and the induced map on cohomology.

For a map psi and a left-invariant k-form omega on the codomain, the
pullback coefficient at a point g and a frame k-tuple lambda is the k x k
minor of the frame differential contracted with omega.  Averaging those
coefficients over growing Følner boxes estimates the limiting left-invariant
form; projecting the estimate onto cohomology classes (with the exact
rational projector applied numerically) assembles the induced map, and
comparing class products against averaged products probes the ring
homomorphism property.

One point cloud is drawn per (seed, radius) and shared by every coefficient,
so linearity of the estimator holds exactly; ``group.cloud_mean`` averages
over it.  Evaluation is serial and reruns are bit-identical.  The public
functions accept ``threads`` for compatibility and ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra
from .cohomology import CohomologyRing, cohomology
from .forms import KForm, basis_tuples, ce_differential, wedge
from .group import BallSpec, check_radii, cloud_mean, sample_ball_coords
from .maps import SmoothMap, differential_batch, normalize_to_y0, warn_once

DEFAULT_RADII = tuple(4.0 * 2 ** k for k in range(6))


@dataclass
class AverageEstimate:
    """Ball averages of one pulled-back form along a radius schedule."""

    radii: list[float]
    values: list[KForm]            # per-radius averaged form, float coefficients
    increments: list[float]        # max coefficient change between consecutive radii
    extrapolated: KForm            # the last value; no model extrapolation
    mc_stderr: list[dict]          # per-radius: lambda tuple -> standard error
    nonconvergent: bool
    derivative_bound: float = 0.0  # sampled sup of |frame differential| on the largest ball
    warnings: list[str] = field(default_factory=list)


@dataclass
class HomomorphismReport:
    """Induced-map matrices plus chain and multiplicativity residuals."""

    radii: list[float]
    matrices: dict[int, list[list[float]]]          # degree -> b_k(dom) x b_k(cod)
    chain_residuals: dict[int, float]               # degree -> |d(average)|_inf at final radius
    chain_residual_trace: dict[int, list[float]]    # degree -> per-radius residuals
    mult_residuals: dict[tuple[int, int, int, int], float]
    stderrs: dict[int, float]                       # degree -> max per-coefficient stderr
    thresholds: dict[str, float]
    derivative_bound: float = 0.0
    warnings: list[str] = field(default_factory=list)


def pullback_eval(m: SmoothMap, omega: KForm, lam: tuple[int, ...], g) -> float:
    """Pullback coefficient (psi* omega)(V_lam) at one point."""
    if omega.algebra is not m.codomain:
        raise ValueError("form must live on the codomain algebra")
    if len(lam) != omega.degree:
        raise ValueError("frame tuple length must equal the form degree")
    coords = np.array([float(c) for c in _coords(g)], dtype=float)[:, None]
    _, mats = differential_batch(m, coords)
    return float(_coefficient_rows(mats, [(omega, lam)])[0, 0])


def _coords(g):
    return g.coords if hasattr(g, "coords") else tuple(g)


def _coefficient_rows(mats: np.ndarray, pairs: list[tuple[KForm, tuple[int, ...]]]) -> np.ndarray:
    """Row r is omega on the pushed-forward frame columns lam, for
    (omega, lam) = pairs[r].

    ``mats`` is (N, m, n); each k x k minor is computed once and shared by
    every pair that needs it.
    """
    out = np.empty((len(pairs), mats.shape[0]))
    minors: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray] = {}
    for row, (omega, lam) in enumerate(pairs):
        if omega.degree == 0:
            out[row] = float(omega.coeffs.get((), 0.0))
            continue
        acc = np.zeros(mats.shape[0])
        for rows_idx, c in omega.coeffs.items():
            key = (rows_idx, lam)
            if key not in minors:
                minors[key] = np.linalg.det(mats[:, list(rows_idx), :][:, :, list(lam)])
            acc += float(c) * minors[key]
        out[row] = acc
    return out


def _averaged_coefficients(
    m: SmoothMap,
    omegas: list[KForm],
    radius: float,
    samples: int,
    seed: int,
    shape: str,
    warnings: list[str],
):
    """Ball-average every coefficient of every form in one pass over one cloud.

    Returns, per input form, a dict lambda -> (mean, stderr).
    """
    dom = m.domain
    cloud = sample_ball_coords(dom, BallSpec(radius, shape), samples, seed, tags=("avg",))
    degrees = sorted({w.degree for w in omegas})
    lambdas = {k: basis_tuples(dom.dim, k) for k in degrees}
    pairs = [(w, lam) for w in omegas for lam in lambdas[w.degree]]
    warn = warn_once(warnings)
    chunk_derivative_max: list[float] = []

    def coefficients(coords: np.ndarray) -> np.ndarray:
        _, mats = differential_batch(m, coords, warn)
        chunk_derivative_max.append(float(np.max(np.abs(mats))))
        return _coefficient_rows(mats, pairs)

    mean, stderr = cloud_mean(cloud, coefficients)

    out = []
    row = 0
    for w in omegas:
        entry = {}
        for lam in lambdas[w.degree]:
            entry[lam] = (float(mean[row]), float(stderr[row]))
            row += 1
        out.append(entry)
    return out, max(chunk_derivative_max, default=0.0)


def _form_of(dom: LieAlgebra, degree: int, coeff_map: dict) -> KForm:
    return KForm(dom, degree, {lam: v for lam, (v, _) in coeff_map.items() if v != 0.0})


def amenable_average(
    m: SmoothMap,
    omega: KForm,
    radii=DEFAULT_RADII,
    samples: int = 20000,
    seed: int = 0,
    shape: str = "box",
    threads: int = 1,
) -> AverageEstimate:
    """Ball averages of psi* omega over the radius schedule."""
    m = normalize_to_y0(m)
    radii = check_radii(radii)
    warnings: list[str] = []
    values: list[KForm] = []
    stderrs: list[dict] = []
    deriv_bound = 0.0
    for r in radii:
        (coeffs,), deriv = _averaged_coefficients(m, [omega], r, samples, seed, shape, warnings)
        deriv_bound = max(deriv_bound, deriv)
        values.append(_form_of(m.domain, omega.degree, coeffs))
        stderrs.append({lam: se for lam, (_, se) in coeffs.items()})
    increments = _increments(values)
    nonconv = _nonconvergent(increments, [max(s.values(), default=0.0) for s in stderrs])
    if nonconv:
        warnings.append("increments do not decrease monotonically; limit not trusted")
    return AverageEstimate(
        radii=list(radii),
        values=values,
        increments=increments,
        extrapolated=values[-1],
        mc_stderr=stderrs,
        nonconvergent=nonconv,
        derivative_bound=deriv_bound,
        warnings=warnings,
    )


def _increments(values: list[KForm]) -> list[float]:
    out = []
    for prev, cur in zip(values, values[1:]):
        keys = set(prev.coeffs) | set(cur.coeffs)
        out.append(
            max(
                (abs(float(cur.coeffs.get(k, 0.0)) - float(prev.coeffs.get(k, 0.0))) for k in keys),
                default=0.0,
            )
        )
    return out


def _nonconvergent(increments: list[float], max_se: list[float]) -> bool:
    for i in range(len(increments) - 1):
        slack = 3.0 * (max_se[i + 1] + max_se[i + 2]) + 1e-12
        if increments[i + 1] > increments[i] + slack:
            return True
    return False


def induced_cohomology_map(
    m: SmoothMap,
    radii=DEFAULT_RADII,
    samples: int = 20000,
    seed: int = 0,
    shape: str = "box",
    threads: int = 1,
    with_products: bool = False,
) -> HomomorphismReport:
    """Matrices of the induced map on cohomology, degree by degree.

    For every representative omega of H^k(codomain), the averaged pullback
    is projected onto H^k(domain).  The true limit is closed (pullback and
    averaging commute with d), so |d(average)| is reported as a residual.
    With ``with_products`` the multiplicativity residuals of
    ``homomorphism_check`` are included.
    """
    m = normalize_to_y0(m)
    radii = check_radii(radii)
    ring_dom = cohomology(m.domain)
    ring_cod = cohomology(m.codomain)
    n_dom, n_cod = m.domain.dim, m.codomain.dim
    warnings: list[str] = []

    reps: list[KForm] = []
    owners: list[tuple[int, int]] = []  # (degree, index within degree)
    for k in range(n_cod + 1):
        for i, w in enumerate(ring_cod.spaces[k].representatives):
            if k <= n_dom:
                reps.append(w)
                owners.append((k, i))

    products: list[KForm] = []
    product_keys: list[tuple[int, int, int, int]] = []
    if with_products:
        for (k, i) in owners:
            for (l, j) in owners:
                if k + l <= min(n_dom, n_cod) and k <= l:
                    products.append(wedge(ring_cod.spaces[k].representatives[i],
                                          ring_cod.spaces[l].representatives[j]))
                    product_keys.append((k, i, l, j))

    all_forms = reps + products
    per_radius = []
    deriv_bound = 0.0
    for r in radii:
        coeffs_at_r, deriv = _averaged_coefficients(m, all_forms, r, samples, seed, shape, warnings)
        deriv_bound = max(deriv_bound, deriv)
        per_radius.append(coeffs_at_r)

    chain_trace: dict[int, list[float]] = {k: [] for k in range(n_dom + 1)}
    for coeffs_at_r in per_radius:
        worst: dict[int, float] = {k: 0.0 for k in range(n_dom + 1)}
        for (k, _i), coeff in zip(owners, coeffs_at_r[: len(reps)]):
            avg = _form_of(m.domain, k, coeff)
            worst[k] = max(worst[k], ce_differential(avg).max_abs())
        for k, v in worst.items():
            chain_trace[k].append(v)

    final = per_radius[-1]
    matrices: dict[int, list[list[float]]] = {}
    stderrs: dict[int, float] = {}
    class_vectors: dict[tuple[int, int], list[float]] = {}
    for k in range(n_dom + 1):
        b_dom = ring_dom.spaces[k].betti
        cols = [i for (kk, i) in owners if kk == k]
        matrices[k] = [[0.0] * len(cols) for _ in range(b_dom)]
        stderrs[k] = 0.0
    for (k, i), coeff in zip(owners, final[: len(reps)]):
        avg = _form_of(m.domain, k, coeff)
        se = max((s for (_v, s) in coeff.values()), default=0.0)
        stderrs[k] = max(stderrs[k], se)
        vec = [float(v) for v, _s in (coeff.get(t, (0.0, 0.0)) for t in basis_tuples(n_dom, k))]
        coords = ring_dom.spaces[k].project_float(vec)
        class_vectors[(k, i)] = coords
        _projection_warning(ring_dom, k, vec, se, warnings)
        for a, c in enumerate(coords):
            matrices[k][a][i] = c

    mult_residuals: dict[tuple[int, int, int, int], float] = {}
    if with_products:
        for key, coeff in zip(product_keys, final[len(reps):]):
            k, i, l, j = key
            degree = k + l
            vec = [
                float(v)
                for v, _s in (coeff.get(t, (0.0, 0.0)) for t in basis_tuples(n_dom, degree))
            ]
            lhs = ring_dom.spaces[degree].project_float(vec)
            rhs = _cup_combination(ring_dom, k, l, class_vectors[(k, i)], class_vectors[(l, j)])
            if ring_dom.spaces[degree].betti == 0:
                mult_residuals[key] = 0.0
            else:
                mult_residuals[key] = max(abs(a - b) for a, b in zip(lhs, rhs))

    chain_final = {k: (trace[-1] if trace else 0.0) for k, trace in chain_trace.items()}
    return HomomorphismReport(
        radii=list(radii),
        matrices=matrices,
        chain_residuals=chain_final,
        chain_residual_trace=chain_trace,
        mult_residuals=mult_residuals,
        stderrs=stderrs,
        thresholds={"chain": 1e-3, "stderr_multiple": 3.0},
        derivative_bound=deriv_bound,
        warnings=warnings,
    )


def homomorphism_check(
    m: SmoothMap,
    radii=DEFAULT_RADII,
    samples: int = 20000,
    seed: int = 0,
    shape: str = "box",
    threads: int = 1,
) -> HomomorphismReport:
    """Induced map plus multiplicativity residuals:
    class(avg(w1 ^ w2)) versus class(avg w1) cup class(avg w2)."""
    return induced_cohomology_map(m, radii, samples, seed, shape=shape, with_products=True)


def _cup_combination(ring: CohomologyRing, k: int, l: int, vi, vj) -> list[float]:
    degree = k + l
    target = ring.spaces[degree].betti
    out = [0.0] * target
    for a, va in enumerate(vi):
        if va == 0.0:
            continue
        for b, vb in enumerate(vj):
            if vb == 0.0:
                continue
            for c, coeff in enumerate(ring.cup[(k, l, a, b)]):
                out[c] += va * vb * float(coeff)
    return out


def _projection_warning(ring_dom: CohomologyRing, k: int, vec, se: float, warnings: list[str]):
    space = ring_dom.spaces[k]
    if not space.closed_basis:
        resid = max((abs(v) for v in vec), default=0.0)
    else:
        a = np.array([[float(x) for x in col] for col in space.closed_basis], dtype=float).T
        v = np.array(vec, dtype=float)
        sol, *_ = np.linalg.lstsq(a, v, rcond=None)
        resid = float(np.max(np.abs(v - a @ sol))) if v.size else 0.0
    if resid > 10.0 * se and resid > 1e-12:
        warnings.append(
            f"projection warning: degree-{k} average has non-closed component "
            f"{resid:.3e} exceeding 10 x stderr ({se:.3e})"
        )


def exact_homomorphism_pullback(m: SmoothMap, omega: KForm) -> KForm:
    """Pullback through the constant frame differential at the identity.

    Valid when the map is a group homomorphism (the differential in
    left-invariant frames is then constant), giving a noise-free reference.
    """
    m = normalize_to_y0(m)
    coords = np.zeros((m.domain.dim, 1))
    _, mats = differential_batch(m, coords)
    lambdas = basis_tuples(m.domain.dim, omega.degree)
    values = _coefficient_rows(mats, [(omega, lam) for lam in lambdas])[:, 0]
    out = {lam: float(v) for lam, v in zip(lambdas, values) if v != 0.0}
    return KForm(m.domain, omega.degree, out)


def amenable_norm(
    m: SmoothMap,
    observable,
    radii=DEFAULT_RADII,
    samples: int = 20000,
    seed: int = 0,
    shape: str = "box",
    threads: int = 1,
) -> list[dict]:
    """Square root of the ball average of |observable on the orbit|^2.

    ``observable`` needs an ``evaluate_batch(map, coords) -> values`` method;
    see ergodic.Observable.  Returns one record per radius.
    """
    m = normalize_to_y0(m)
    radii = check_radii(radii)

    def squares(coords: np.ndarray) -> np.ndarray:
        vals = observable.evaluate_batch(m, coords)
        return vals * vals

    out = []
    for r in radii:
        cloud = sample_ball_coords(m.domain, BallSpec(r, shape), samples, seed, tags=("avg",))
        mean_sq, se_sq = cloud_mean(cloud, squares)
        value = float(np.sqrt(max(mean_sq, 0.0)))
        stderr = float(se_sq / (2.0 * value)) if value > 0 else float(np.sqrt(max(se_sq, 0.0)))
        out.append({"radius": r, "value": value, "stderr": stderr})
    return out
