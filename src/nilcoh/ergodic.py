"""Orbit statistics for the right action of the domain group on maps.

The empirical measure at radius R integrates an observable A over the orbit
slice {map . g : g in B_R}.  Observables are either frame-derivative entries
at the identity, map coordinates at a probe point, or expressions over
derivative entries.  For the translated map, a derivative entry at the
identity is the entry of the base map's differential at g, so whole clouds
evaluate in one vectorized pass of ``maps.differential_batch``.  A
coordinate observable reads F(y)^-1 . F(y . p), in which a shift cancels,
so no statistic here normalizes the map; neither does ``amenable_norm``,
the root mean square of one observable over a ball.

The probe from a basepoint g averages the right translate x -> F(g . x):
it moves each chunk of the shared cloud to y = g . x and reads the
observables of the map itself there, with no shift F(g)^-1, so F may be
undefined at the origin and at the basepoints.

Ergodicity is never asserted: probes compare orbit averages started from
several basepoints and report 'consistent-with-ergodic',
'non-ergodic-evidence' or, where a limit, spread or stderr is not finite,
'inconclusive', against explicit thresholds.

Evaluation is serial.  Every statistic runs the sampling loop
``maps._ball_means``, which states the buffer policy, with one row writer
(``_observer``): each chunk writes the observables' rows in their order,
and computes the frame differential at the first observable that reads it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import dsl, rng
from .bch import group_law
from .group import _check_point, _check_tol, check_radii
from .maps import SmoothMap, _ball_means, differential_batch, evaluate_batch, warn_once
from .pullback import DEFAULT_RADII

DEFAULT_TOL = 1e-2


@dataclass(frozen=True)
class Observable:
    """A continuous function of the translated map, evaluated orbit-wise.

    kind 'derivative': entry (i, j) of the differential at the identity,
    i indexing the domain frame and j the codomain frame (1-based); kind
    'coordinate': codomain coordinate j of F(y)^-1 . F(y . p) at a point y
    and a probe point p; kind 'expression': any DSL expression over the
    symbols d11 .. d<n><m>.  An index the kind reads is refused below 1,
    and a ``power`` that is no integer; an index beyond the map's
    dimensions is refused by every statistic before it samples
    (``_check_observables``).  ``dims`` holds the (domain, codomain)
    dimensions an expression was parsed for, as its symbol d<i><j> reads
    entry (i - 1) * codomain_dim + (j - 1) of them; a statistic refuses it
    on a map of other dimensions.  Both are integers of at least 1.
    """

    name: str
    kind: str
    i: int = 0
    j: int = 0
    power: int = 1
    probe: tuple = ()
    expr: object = None
    dims: tuple | None = None
    tape: dsl.Tape | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for label in {"derivative": ("i", "j"), "coordinate": ("j",)}.get(self.kind, ()):
            rng._check_integer(f"observable index {label}", getattr(self, label), 1)
        rng._check_integer("observable power", self.power)
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(self.dims))
            if len(self.dims) != 2:
                raise ValueError(f"observable dims must be a (domain, codomain) pair, "
                                 f"got {self.dims!r}")
            for dim in self.dims:
                rng._check_integer("observable dims", dim, 1)
        stale = self.tape is None or self.tape.components[0] is not self.expr
        if self.expr is not None and stale:
            object.__setattr__(self, "tape", dsl.compile([self.expr]))

    def evaluate_batch(self, m: SmoothMap, coords: np.ndarray, warn=None) -> np.ndarray:
        """The observable at the (n, N) points ``coords``: one batch of its row writer."""
        return _observer(m, [self])(coords, None, np.empty((1, coords.shape[1])), warn)[0]


def _observer(m: SmoothMap, observables: list[Observable]):
    """The orbit statistics' row writer (``maps._ball_means``): row k is
    observables[k] at the chunk's points, written in order.  The frame
    differential is computed into ``jac`` (None allocates) at the first
    observable that reads it, so the warnings and the first ``DomainError``
    come in the observables' order."""

    def observe(coords: np.ndarray, jac, rows: np.ndarray, warn) -> np.ndarray:
        mats = None
        for row, obs in zip(rows, observables):
            if obs.kind == "coordinate":
                probe = np.array(obs.probe, dtype=float)
                at_g = evaluate_batch(m, coords, warn)
                at_moved = evaluate_batch(m, group_law(m.domain).multiply_batch(coords, probe), warn)
                row[...] = group_law(m.codomain).multiply_batch(-at_g, at_moved)[obs.j - 1]
                continue
            if mats is None:
                mats = differential_batch(m, coords, warn, out=jac)
            if obs.kind == "derivative":
                vals = mats[:, obs.j - 1, obs.i - 1]
                row[...] = vals ** obs.power if obs.power != 1 else vals
            else:
                env = [mats[:, j, i] for i in range(m.domain.dim) for j in range(m.codomain.dim)]
                dsl.evaluate(obs.tape, env, row[None], warn)
        return rows

    return observe


def derivative_entry(i: int, j: int, squared: bool = False) -> Observable:
    name = f"d{i}{j}sq" if squared else f"d{i}{j}"
    return Observable(name=name, kind="derivative", i=i, j=j, power=2 if squared else 1)


def parse_observable(text: str, domain_dim: int, codomain_dim: int) -> Observable:
    """Parse CLI observable syntax: dIJ, dIJsq, coordJ@p1:p2:..., or an
    expression over the dIJ symbols."""
    rng._check_integer("domain_dim", domain_dim, 1)
    rng._check_integer("codomain_dim", codomain_dim, 1)
    text = text.strip()
    m = re.fullmatch(r"d([1-9])([1-9])(sq)?", text)
    if m:
        i, j = int(m.group(1)), int(m.group(2))
        if i > domain_dim or j > codomain_dim:
            raise ValueError(f"observable {text!r}: index out of range")
        return derivative_entry(i, j, squared=bool(m.group(3)))
    m = re.fullmatch(r"coord([1-9][0-9]*)@(.+)", text)
    if m:
        j = int(m.group(1))
        if j > codomain_dim:
            raise ValueError(f"observable {text!r}: index out of range")
        probe = _check_point(f"observable {text!r}: probe", m.group(2).split(":"), domain_dim)
        return Observable(name=text, kind="coordinate", j=j, probe=probe)
    # from dimension 10 on, "dIJ" can be read two ways (d111 is d(11,1) or
    # d(1,11)); such symbols are left out, so the parser refuses them
    symbols = {
        (i, j): f"d{i}{j}" for i in range(1, domain_dim + 1) for j in range(1, codomain_dim + 1)
    }
    uses = Counter(symbols.values())
    names = {s: (i - 1) * codomain_dim + (j - 1) for (i, j), s in symbols.items() if uses[s] == 1}
    expr = dsl.parse(text, names=names)
    return Observable(name=text, kind="expression", expr=expr, dims=(domain_dim, codomain_dim))


def empirical_measure(
    m: SmoothMap,
    observables: list[Observable],
    radius: float,
    samples: int,
    seed: int,
    shape: str = "box",
    *,
    warnings: list[str] | None = None,
) -> list[dict]:
    """Monte Carlo estimate of each observable against the empirical measure
    mu_R of the orbit; returns {'name', 'mean', 'stderr'} per observable."""
    _check_observables(m, observables)
    sink = warnings if warnings is not None else []
    (measure,) = _orbit_means(m, observables, [radius], samples, seed, shape, [None], [sink])
    return measure


def _check_observables(m: SmoothMap, observables: list[Observable]) -> None:
    """Refuse an observable that reads beyond the map's dimensions: a
    derivative entry (i, j) needs i <= n_dom and j <= n_cod, a coordinate j
    needs j <= n_cod and a probe of the domain, an expression its symbols
    among the n_dom x n_cod entries, and one parsed for given dimensions
    (``Observable.dims``) those of the map, or it would read other entries.
    An empty list is refused too: it has no estimate to make."""
    if not observables:
        raise ValueError("no observables given: a statistic needs at least one")
    n_dom, n_cod = m.domain.dim, m.codomain.dim
    for obs in observables:
        reads = {"derivative": (("i", obs.i, n_dom, "domain"), ("j", obs.j, n_cod, "codomain")),
                 "coordinate": (("j", obs.j, n_cod, "codomain"),)}.get(obs.kind, ())
        for label, index, dim, side in reads:
            if index > dim:
                raise ValueError(f"observable {obs.name!r}: index {label} = {index} exceeds "
                                 f"the {side} dimension {dim}")
        if obs.kind == "coordinate":
            _check_point(f"observable {obs.name!r}: probe", obs.probe, n_dom)
        if obs.kind == "expression":
            beyond = [i for i in dsl.coordinate_indices(obs.expr) if i >= n_dom * n_cod]
            if beyond:
                raise ValueError(f"observable {obs.name!r}: entry {max(beyond) + 1} exceeds "
                                 f"the {n_dom} x {n_cod} entries of the differential")
            if obs.dims not in (None, (n_dom, n_cod)):
                raise ValueError(f"observable {obs.name!r} was parsed for a {obs.dims[0]} x "
                                 f"{obs.dims[1]} differential, but the map's is {n_dom} x {n_cod}")


def _orbit_means(m: SmoothMap, observables: list[Observable], radii, samples: int, seed: int,
                 shape: str, basepoints, sinks) -> list[list[dict]]:
    """The observables' records per radius and basepoint, in the order of
    ``maps._ball_means``, each basepoint's warnings kept once in its sink.
    The stream key (seed, shape, radius, 'orbit') holds no basepoint."""
    means = _ball_means(m, radii, shape, samples, seed, ("orbit",), len(observables),
                        _observer(m, observables), [warn_once(sink) for sink in sinks], basepoints)
    return [[{"name": obs.name, "mean": float(mean[k]), "stderr": float(stderr[k])}
             for k, obs in enumerate(observables)] for mean, stderr in means]


@dataclass
class OrbitTrace:
    observable: str
    radii: list[float]
    means: list[float]
    stderrs: list[float]
    increments: list[float]
    verdict: str            # 'stable' | 'undecided'
    limit: float


@dataclass
class ConvergenceReport:
    traces: list[OrbitTrace]
    tol: float
    warnings: list[str] = field(default_factory=list)

    def limits(self) -> dict[str, float]:
        return {t.observable: t.limit for t in self.traces}


def convergence_report(
    m: SmoothMap,
    observables: list[Observable],
    radii,
    samples: int,
    seed: int,
    shape: str = "box",
    *,
    tol: float = DEFAULT_TOL,
) -> ConvergenceReport:
    """Per-observable running means over the schedule with a stability verdict:
    'stable' when the last two increments sit below max(3 stderr, tol)."""
    (report,) = _convergence_reports(m, [None], observables, radii, samples, seed, shape, tol)
    return report


def _convergence_reports(m, basepoints, observables, radii, samples, seed, shape, tol):
    """One ``convergence_report`` per basepoint g, of the right translate
    x -> F(g . x); g None is the map itself.  Radii run on the outside, so
    each radius's cloud is drawn once for all basepoints and only one cloud
    is alive at a time; each basepoint keeps its warnings in radius order."""
    _check_observables(m, observables)
    _check_tol(tol)
    radii = check_radii(radii)
    warnings: list[list[str]] = [[] for _ in basepoints]
    rows = _orbit_means(m, observables, radii, samples, seed, shape, basepoints, warnings)
    return [_report(observables, radii, rows[b::len(basepoints)], tol, sink)
            for b, sink in enumerate(warnings)]


def _report(observables, radii, rows, tol, warnings) -> ConvergenceReport:
    traces = []
    for k, obs in enumerate(observables):
        means = [row[k]["mean"] for row in rows]
        ses = [row[k]["stderr"] for row in rows]
        incs = [abs(b - a) for a, b in zip(means, means[1:])]
        gate = max(3.0 * ses[-1], tol)
        tail = incs[-2:]
        verdict = "stable" if tail and all(i <= gate for i in tail) else "undecided"
        traces.append(
            OrbitTrace(
                observable=obs.name,
                radii=radii,
                means=means,
                stderrs=ses,
                increments=incs,
                verdict=verdict,
                limit=means[-1],
            )
        )
    return ConvergenceReport(traces=traces, tol=tol, warnings=warnings)


@dataclass
class ErgodicityProbe:
    basepoints: list[tuple]
    reports: list[ConvergenceReport]
    spreads: dict[str, float]
    tolerances: dict[str, float]
    verdict: str            # 'consistent-with-ergodic' | 'non-ergodic-evidence' | 'inconclusive'
    warnings: list[str] = field(default_factory=list)


def ergodicity_probe(
    m: SmoothMap,
    observables: list[Observable],
    basepoints,
    radii,
    samples: int,
    seed: int,
    shape: str = "box",
    *,
    tol: float = DEFAULT_TOL,
) -> ErgodicityProbe:
    """Compare orbit averages started from several basepoints.

    For an ergodic limit measure the averages agree for almost every start;
    a spread beyond max(3 sqrt(2) stderr, tol) is reported as evidence
    against ergodicity (never as a proof either way).  An observable whose
    limits, spread or stderrs are not all finite can be compared with no
    threshold: without such evidence from another observable, the verdict
    is 'inconclusive', and a warning names the observable.  Fewer than 2
    distinct basepoints compare nothing and are refused (ValueError).
    """
    pts = [_check_point("basepoint", (p,) if isinstance(p, Real) else p, m.domain.dim)
           for p in basepoints]
    if len(set(pts)) < 2:
        raise ValueError(f"the ergodicity probe needs at least 2 distinct basepoints, "
                         f"got {len(set(pts))} ({len(pts)} given)")
    reports = _convergence_reports(m, pts, observables, radii, samples, seed, shape, tol)
    spreads: dict[str, float] = {}
    tolerances: dict[str, float] = {}
    evidence = non_finite = False
    warnings = [w for rep in reports for w in rep.warnings]
    for k, obs in enumerate(observables):
        limits = [rep.traces[k].limit for rep in reports]
        ses = [rep.traces[k].stderrs[-1] for rep in reports]
        spreads[obs.name] = max(limits) - min(limits)
        tolerances[obs.name] = max(3.0 * np.sqrt(2.0) * max(ses), tol)
        if not np.all(np.isfinite(limits + ses + [spreads[obs.name]])):
            non_finite = True
            warnings.append(f"observable {obs.name}: a limit, spread or stderr is not finite, "
                            "so the basepoints cannot be compared")
        elif spreads[obs.name] > tolerances[obs.name]:
            evidence = True
    verdict = ("non-ergodic-evidence" if evidence
               else "inconclusive" if non_finite else "consistent-with-ergodic")
    return ErgodicityProbe(
        basepoints=pts,
        reports=reports,
        spreads=spreads,
        tolerances=tolerances,
        verdict=verdict,
        warnings=list(dict.fromkeys(warnings)),
    )


def amenable_norm(
    m: SmoothMap,
    observable: Observable,
    radii=DEFAULT_RADII,
    samples: int = 20000,
    seed: int = 0,
    shape: str = "box",
) -> list[dict]:
    """Square root of the ball average of |observable on the orbit|^2, for
    an ``Observable``, which is checked against the map before sampling as
    by every statistic here.  Returns one record per radius."""
    radii = check_radii(radii)
    _check_observables(m, [observable])

    observe = _observer(m, [observable])

    def squares(coords: np.ndarray, jac: np.ndarray, rows: np.ndarray, warn) -> np.ndarray:
        observe(coords, jac, rows, warn)
        return np.multiply(rows, rows, out=rows)

    out = []
    means = _ball_means(m, radii, shape, samples, seed, ("avg",), 1, squares, [None])
    for r, ((mean_sq,), (se_sq,)) in zip(radii, means):
        value = float(np.sqrt(max(mean_sq, 0.0)))
        stderr = float(se_sq / (2.0 * value)) if value > 0 else float(np.sqrt(max(se_sq, 0.0)))
        out.append({"radius": r, "value": value, "stderr": stderr})
    return out
