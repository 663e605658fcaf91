"""Averaged pullbacks of left-invariant forms and the induced map on cohomology.

For a map psi and a left-invariant k-form omega on the codomain, the
pullback coefficient at a point g and a frame k-tuple lambda is the k x k
minor of the frame differential contracted with omega.  Averaging those
coefficients over growing Følner boxes estimates the limiting left-invariant
form; projecting the estimate onto cohomology classes (a float least-squares
fit onto the closed forms) assembles the induced map, and
comparing class products against averaged products probes the ring
homomorphism property.

Every coefficient of every form is a sum of k x k minors of the frame
differential D, that is of entries of its compound matrices (Cauchy-Binet;
Horn-Johnson, Matrix Analysis, 2nd ed., 0.8).  ``_plan_coefficient_rows``
decides once per set of coefficients which minors each degree needs and
builds them from degree 1 upward by Laplace expansion along the first row,
vectorized over the samples; on small integer matrices every minor is exact.
The plan reads the sparsity pattern of D (``maps.differential_pattern``):
a minor whose expansion has no term with a live entry and a live
complementary minor is zero at every point, so the plan leaves it out, and
with it every term that reads it.

One point cloud is drawn per (seed, radius) and shared by every coefficient,
so linearity of the estimator holds exactly; ``group.cloud_mean`` averages
over it.  ``_ball_averages`` drops the (form, lambda) pairs with no live
term, whose rows are zero (on the benchmark's H5 map 720 of 910), and
reports them as mean 0.0 with stderr 0.0, what summing their zero rows
gave.  It sorts the other pairs of one call by (degree, lambda) and cuts
them into blocks of at most ``_BLOCK_ITEMS`` floats per chunk of samples;
each block is planned once per call and reused at every radius and chunk,
and ``cloud_mean`` reduces a block before the next one is built, so memory
is bounded whatever the number of pairs.  Every row keeps its own per-chunk
sums, so the blocks move no bit.
Evaluation is serial and reruns are bit-identical.  The public functions
accept ``threads`` for compatibility and ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .algebra import LieAlgebra
from .cohomology import CohomologyRing, CohomologySpace, cohomology
from .forms import KForm, basis_tuples, ce_differential, sort_with_sign, wedge
from .group import BallSpec, check_radii, cloud_mean, sample_ball_coords
from .maps import (SmoothMap, differential_batch, differential_pattern, normalize_to_y0,
                   warn_once)

DEFAULT_RADII = tuple(4.0 * 2 ** k for k in range(6))
# floats per work array of _coefficient_rows: samples are taken in blocks that keep
# the arrays of one block (four of them) inside a core's cache
_WORK_ITEMS = 2 ** 15
# floats per row block of _ball_averages (pairs x chunk samples): bounds the
# memory of a ball average whatever the number of (form, lambda) pairs
_BLOCK_ITEMS = 2 ** 20


@dataclass
class AverageEstimate:
    """Ball averages of one pulled-back form along a radius schedule."""

    radii: list[float]
    values: list[KForm]            # per-radius averaged form, float coefficients
    increments: list[float]        # max coefficient change between consecutive radii
    extrapolated: KForm            # the last value; no model extrapolation
    mc_stderr: list[dict]          # per-radius: lambda tuple -> standard error
    nonconvergent: bool
    derivative_bound: float = 0.0  # max sampled |frame differential| entry over all radii
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
    derivative_bound: float = 0.0                   # max sampled |frame differential| entry over all radii
    warnings: list[str] = field(default_factory=list)


def pullback_eval(m: SmoothMap, omega: KForm, lam: tuple[int, ...], g) -> float:
    """Pullback coefficient (psi* omega)(V_lam) at one point."""
    _check_on_codomain(m, [omega])
    if len(lam) != omega.degree:
        raise ValueError("frame tuple length must equal the form degree")
    n = m.domain.dim
    if not all(isinstance(i, (int, np.integer)) and 0 <= i < n for i in lam):
        raise ValueError(f"frame indices must be integers in 0 .. {n - 1}, got {tuple(lam)}")
    coords = np.array([float(c) for c in g], dtype=float)[:, None]
    _, mats = differential_batch(m, coords)
    return float(_coefficient_rows(mats, [(omega, lam)])[0, 0])


def _check_on_codomain(m: SmoothMap, omegas) -> None:
    """Refuse forms of another algebra: their coefficient keys would index
    rows of the frame differential that do not exist."""
    if any(w.algebra is not m.codomain for w in omegas):
        raise ValueError("form must live on the codomain algebra")


def _coefficient_rows(mats: np.ndarray, pairs: list[tuple[KForm, tuple[int, ...]]]) -> np.ndarray:
    """Row r is omega on the pushed-forward frame columns lam, for
    (omega, lam) = pairs[r]; ``mats`` is (N, m, n) and the result (len(pairs), N).

    One-shot form of ``_plan_coefficient_rows``, with every entry of D live:
    it knows no map, so it prunes nothing.
    """
    out = np.empty((len(pairs), mats.shape[0]))
    _plan_coefficient_rows(pairs, np.ones(mats.shape[1:], dtype=bool))(_entries(mats), out)
    return out


def _entries(mats: np.ndarray) -> np.ndarray:
    """The (m * n, N) array whose row i * n + j holds D[i, j] of the (N, m, n)
    frame differentials D, each entry one contiguous N-vector: a view of the
    sample-last array behind ``differential_batch``'s matrices (a copy only
    for matrices stored sample-first)."""
    return mats.transpose(1, 2, 0).reshape(-1, mats.shape[0])


def _live_minors(pattern: np.ndarray):
    """``live(R, C)``: the positions j of the live terms of the first-row
    expansion of det D[R, C] under the (m, n) boolean ``pattern`` of the
    entries of D that can be nonzero, for increasing C.  A term is live when
    its entry D[R_0, C_j] and its complementary minor are; a minor is live
    when it has a live term, an entry when the pattern says so (then
    ``(0,)``).  A dead minor is exactly 0 wherever its dead entries are."""
    entry = pattern.tolist()
    memo: dict = {}

    def live(rows_idx: tuple, cols: tuple) -> tuple:
        if len(rows_idx) == 1:
            return (0,) if entry[rows_idx[0]][cols[0]] else ()
        got = memo.get((rows_idx, cols))
        if got is None:
            first, rest = entry[rows_idx[0]], rows_idx[1:]
            got = memo[rows_idx, cols] = tuple(
                j for j, c in enumerate(cols) if first[c] and live(rest, cols[:j] + cols[j + 1:]))
        return got

    return live


def _plan_coefficient_rows(pairs: list[tuple[KForm, tuple[int, ...]]], pattern: np.ndarray):
    """Plan ``_coefficient_rows`` for these pairs on (N, m, n) frame differentials
    D whose entries outside the (m, n) boolean ``pattern`` are zero, once;
    the returned ``rows(entries, out)`` applies the plan to the ``_entries``
    of one batch, writing the (len(pairs), N) rows into ``out``.

    Row r is sum_R c_R sign * det D[R, C] over the coefficients c_R of omega,
    where C is lam sorted and sign its permutation sign; a repeated frame index
    or a zero form gives 0.  Those minors are entries of the compound matrices
    of D, and each degree-d minor expands along its first row,

        det D[R, C] = sum_j (-1)^j D[R_0, C_j] det D[R_1.., C without C_j],

    so from the top degree down the plan lists only the live minors
    (``_live_minors``) some pair needs, directly or through a live term of a
    higher degree; a pair keeps only its terms on live minors, a minor only
    its live terms, and a pair with none is a row of zeros.  ``rows`` builds
    the minors from degree 1 (the entries themselves) upward, vectorized over
    blocks of samples, keeping two adjacent degrees alive: the minors of a
    degree are sorted by their number of live terms, so the t-th terms of
    all minors that have one are a prefix, and a term of odd j reads its
    entry negated, so that every term is added.  Each pair's terms are added
    in the order of ``omega.coeffs``.  The dropped terms are zeros, which
    move no sum but its sign of zero, and a row starts from +0.0, so the
    rows are those of the full expansion bit for bit, except where a NaN
    (0 * inf) sits at a dead entry and now stays out.  A minor's value does
    not depend on which other minors the plan holds, so any split of the
    pairs gives the same rows.
    """
    m, n = pattern.shape
    live = _live_minors(pattern)
    constants = []
    terms: list[list] = []  # degree -> [(row, cols, [(coefficient, R)])]
    for row, (omega, lam) in enumerate(pairs):
        sorted_lam = sort_with_sign(lam)
        if sorted_lam is None:
            continue
        cols, sign = sorted_lam
        kept = [(sign * float(c), r) for r, c in omega.coeffs.items() if not r or live(r, cols)]
        if not kept:
            continue
        if omega.degree == 0:  # the constant of a 0-form, () its key
            constants.append((row, kept[0][0]))
            continue
        terms += [[] for _ in range(omega.degree + 1 - len(terms))]
        terms[omega.degree].append((row, cols, kept))
    top = len(terms) - 1

    # degree -> (R, C) -> live terms, from the top down: pairs' minors first,
    # then the complementary minors of the live terms of the degree above
    need: list[dict] = [{} for _ in range(top + 1)]
    for d in range(top, 1, -1):
        for _, cols, kept in terms[d]:
            for _, r in kept:
                need[d].setdefault((r, cols), live(r, cols))
        if d > 2:
            for (r, c), js in need[d].items():
                for j in js:
                    sub = (r[1:], c[:j] + c[j + 1:])
                    need[d - 1].setdefault(sub, live(*sub))
    minors = [sorted(ks, key=lambda k, ks=ks: -len(ks[k])) for ks in need]
    position = [{k: i for i, k in enumerate(keys)} for keys in minors]

    def index(degree: int, rows_idx: tuple, cols: tuple) -> int:
        if degree == 1:  # an entry of D, a row of the (m * n, N) entry array
            return rows_idx[0] * n + cols[0]
        return position[degree][rows_idx, cols]

    expansions = {}  # degree -> [(signed first-row entries, complementary minors)] per term t
    for d in range(2, top + 1):
        expansions[d] = []
        for t in range(len(need[d][minors[d][0]])):  # the most live terms come first
            keys = [(r, c, need[d][r, c][t]) for r, c in minors[d] if len(need[d][r, c]) > t]
            expansions[d].append((
                np.array([r[0] * n + c[j] + (j % 2) * m * n for r, c, j in keys], dtype=np.intp),
                np.array([index(d - 1, r[1:], c[:j] + c[j + 1:]) for r, c, j in keys],
                         dtype=np.intp),
            ))

    rounds = {}  # degree -> t -> (pair rows, coefficients, minor indices) of t-th terms
    for d in range(1, top + 1):
        rounds[d] = []
        pair_terms = [(row, [(c, index(d, r, cols)) for c, r in kept])
                      for row, cols, kept in terms[d]]
        for t in range(max((len(p) for _, p in pair_terms), default=0)):
            row, coeff, idx = zip(*((r, *p[t]) for r, p in pair_terms if len(p) > t))
            rounds[d].append((np.array(row, dtype=np.intp), np.array(coeff)[:, None],
                              np.array(idx, dtype=np.intp)))
    width = max([len(e[0]) for es in expansions.values() for e in es]
                + [len(r[0]) for rs in rounds.values() for r in rs]
                + [2 * m * n] * (top > 1), default=1)  # the signed entries too
    block = max(1, _WORK_ITEMS // width)

    def rows(entries: np.ndarray, out: np.ndarray) -> None:
        count = entries.shape[1]
        out.fill(0.0)
        for row, value in constants:
            out[row] = value
        work = np.empty((4, width * min(block, count)))
        signed = np.empty((2 * m * n, min(block, count)) if top > 1 else (0, 0))

        def buffer(i: int, k: int, size: int) -> np.ndarray:
            return work[i, :k * size].reshape(k, size)

        # every index is in range by construction (the forms live on the
        # codomain, see _check_on_codomain); mode="clip" lets take
        # write straight into its out= buffer instead of through a copy
        for start in range(0, count, block):
            level = ents = entries[:, start:start + block]
            size = ents.shape[1]
            if top > 1:
                sents = signed[:, :size]
                sents[:m * n] = ents
                np.negative(ents, out=sents[m * n:])
            for d in range(1, top + 1):
                if d > 1:
                    prev, level = level, buffer(d % 2, len(minors[d]), size)
                    for t, (first, sub) in enumerate(expansions[d]):
                        k = len(first)
                        a = level if t == 0 else buffer(2, k, size)
                        sents.take(first, axis=0, out=a, mode="clip")
                        a *= prev.take(sub, axis=0, out=buffer(3, k, size), mode="clip")
                        if t:
                            level[:k] += a
                for row, coeff, idx in rounds[d]:
                    a = level.take(idx, axis=0, out=buffer(2, len(idx), size), mode="clip")
                    a *= coeff
                    out[row, start:start + size] += a

    return rows


def _ball_averages(
    m: SmoothMap,
    omegas: list[KForm],
    radii: list[float],
    samples: int,
    seed: int,
    shape: str,
    warnings: list[str],
):
    """Ball-average every coefficient of every form at every radius, in one
    pass over one cloud per radius, the pairs in blocks (module docstring).
    A pair with no term on a live minor of the map's ``differential_pattern``
    is a row of zeros and is not evaluated: it reads (0.0, 0.0).

    Returns, per radius and per input form, a dict lambda -> (mean, stderr),
    and the largest sampled |frame differential| entry over all radii.
    """
    _check_on_codomain(m, omegas)
    dom = m.domain
    pattern = differential_pattern(m)
    live = _live_minors(pattern)
    lambdas = {w.degree: basis_tuples(dom.dim, w.degree) for w in omegas}
    # the pairs the plans keep a term of (basis tuples are sorted)
    owners = [(f, lam) for f, w in enumerate(omegas) for lam in lambdas[w.degree]
              if any(not r or live(r, lam) for r in w.coeffs)]
    owners.sort(key=lambda o: (omegas[o[0]].degree, o[1]))  # pairs sharing minors side by side
    chunk = max(1, min(samples, rng.CHUNK))
    size = max(1, _BLOCK_ITEMS // chunk)
    blocks = [owners[i:i + size] for i in range(0, len(owners) or 1, size)]
    plans = [_plan_coefficient_rows([(omegas[f], lam) for f, lam in b], pattern) for b in blocks]
    row_buffer = np.empty(min(size, len(owners)) * chunk)
    warn = warn_once(warnings)
    chunk_derivative_max: list[float] = []

    def coefficients(coords: np.ndarray):
        _, mats = differential_batch(m, coords, warn)
        chunk_derivative_max.append(float(np.max(np.abs(mats))))
        entries = _entries(mats)
        count = entries.shape[1]
        for b, rows in zip(blocks, plans):
            out = row_buffer[:len(b) * count].reshape(len(b), count)
            rows(entries, out)
            yield out

    per_radius = []
    deriv_bound = 0.0
    for r in radii:
        cloud = sample_ball_coords(dom, BallSpec(r, shape), samples, seed, tags=("avg",))
        chunk_derivative_max.clear()
        mean, stderr = cloud_mean(cloud, coefficients)
        deriv_bound = max(deriv_bound, max(chunk_derivative_max, default=0.0))
        coeffs = [dict.fromkeys(lambdas[w.degree], (0.0, 0.0)) for w in omegas]
        for i, (f, lam) in enumerate(owners):
            coeffs[f][lam] = (float(mean[i]), float(stderr[i]))
        per_radius.append(coeffs)
    return per_radius, deriv_bound


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
    per_radius, deriv_bound = _ball_averages(m, [omega], radii, samples, seed, shape, warnings)
    for (coeffs,) in per_radius:
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
    per_radius, deriv_bound = _ball_averages(m, all_forms, radii, samples, seed, shape, warnings)

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
        se = max((s for (_v, s) in coeff.values()), default=0.0)
        stderrs[k] = max(stderrs[k], se)
        vec = [float(v) for v, _s in (coeff.get(t, (0.0, 0.0)) for t in basis_tuples(n_dom, k))]
        coords = ring_dom.spaces[k].project_float(vec)
        class_vectors[(k, i)] = coords
        _projection_warning(ring_dom.spaces[k], vec, se, warnings)
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


def _projection_warning(space: CohomologySpace, vec, se: float, warnings: list[str]):
    resid = space.closed_residual(vec)
    if resid > 10.0 * se and resid > 1e-12:
        warnings.append(
            f"projection warning: degree-{space.degree} average has non-closed component "
            f"{resid:.3e} exceeding 10 x stderr ({se:.3e})"
        )


def exact_homomorphism_pullback(m: SmoothMap, omega: KForm) -> KForm:
    """Pullback through the constant frame differential at the identity.

    Valid when the map is a group homomorphism (the differential in
    left-invariant frames is then constant), giving a noise-free reference.
    """
    _check_on_codomain(m, [omega])
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
