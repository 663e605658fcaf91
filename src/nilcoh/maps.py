"""Smooth maps between groups, given componentwise in exponential coordinates.

A map is a tuple of expressions F plus two optional constant points: a
``shift`` in the codomain and an ``action`` point in the domain.  Every
evaluation computes the one formula

    x -> shift . F(action . x)

with the group law on each side.  ``normalize_to_y0`` sets shift = F(0)^-1,
so the origin maps to the origin; ``act(m, g)`` sets action = g and
shift = F(g)^-1, the right-translated map x -> F(g)^-1 . F(g . x), so orbit
points cost one extra group multiplication per evaluation instead of a
symbolic rewrite.  The components compile once into one ``dsl.Tape`` that
the map carries; both constructions keep their parent's tape.

``differential`` returns the matrix of the derivative in the left-invariant
frames of both sides: column b holds the coefficients of the image of the
b-th domain frame field in the codomain frame.

Batches of matrices are stored sample-last, (m, n, N): the tape writes the
Jacobian that way, the frames and translation Jacobians multiply it through
the group law's sparse products (structural zeros skipped, abelian sides
free), and ``jacobian_batch`` and ``differential_batch`` return it as an
(N, m, n) view whose entries are contiguous N-vectors.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import dsl
from .algebra import LieAlgebra, algebra_from_dict, load_algebra
from .bch import IllConditionedFrame, group_law  # IllConditionedFrame is re-exported
from .group import GroupPoint


@dataclass(frozen=True)
class SmoothMap:
    domain: LieAlgebra
    codomain: LieAlgebra
    components: tuple
    shift: tuple | None = None
    action: tuple | None = None
    tape: dsl.Tape | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.components) != self.codomain.dim:
            raise ValueError(
                f"map has {len(self.components)} components, codomain needs {self.codomain.dim}"
            )
        for comp in self.components:
            bad = [i for i in dsl.coordinate_indices(comp) if i >= self.domain.dim]
            if bad:
                raise ValueError(
                    f"component uses coordinate x{max(bad) + 1} beyond domain dimension {self.domain.dim}"
                )
        if self.shift is not None and len(self.shift) != self.codomain.dim:
            raise ValueError("shift length does not match codomain dimension")
        if self.action is not None and len(self.action) != self.domain.dim:
            raise ValueError("action point length does not match domain dimension")
        if self.tape is None or self.tape.components is not self.components:
            object.__setattr__(self, "tape", dsl.compile(self.components))


def map_from_texts(domain: LieAlgebra, codomain: LieAlgebra, texts) -> SmoothMap:
    return SmoothMap(domain, codomain, tuple(dsl.parse(t) for t in texts))


def warn_once(sink: list[str]):
    """A ``warn`` callback for the evaluators below that appends each
    distinct message to ``sink`` once."""

    def warn(msg: str):
        if msg not in sink:
            sink.append(msg)

    return warn


def _evaluate(m: SmoothMap, coords: np.ndarray, warn=None, jets: bool = False):
    """x -> shift . F(action . x) on a (n, N) batch: the values (m, N), and with
    ``jets`` also the coordinate Jacobian, sample-last (m, n, N), else None.

    F runs on the map's tape.  The Jacobian is (T_shift @ J_F) @ T_action,
    where T_shift and T_action are the left-translation Jacobians of the
    group law and J_F comes from the tape in forward mode at the translated
    points; the products are the law's sparse ones, so an abelian side costs
    nothing.
    """
    if len(coords) != m.domain.dim:
        raise ValueError(
            f"points have {len(coords)} coordinates, the domain has dimension {m.domain.dim}"
        )
    moved = coords
    if m.action is not None:
        moved = group_law(m.domain).multiply_batch(np.array(m.action), coords)
    n, count = moved.shape
    values = np.empty((m.codomain.dim, count))
    jac = np.empty((m.codomain.dim, n, count)) if jets else None
    dsl.evaluate(m.tape, list(moved), values, warn, jac)
    if m.shift is not None:
        law = group_law(m.codomain)
        shift = np.array(m.shift)
        if jets:
            jac = law.translation_jacobian_batch(shift, values, jac)
        values = law.multiply_batch(shift, values)
    if jets and m.action is not None:
        jac = group_law(m.domain).translation_jacobian_batch(np.array(m.action), coords, jac,
                                                             left=False)
    return values, jac


def evaluate_batch(m: SmoothMap, coords: np.ndarray, warn=None) -> np.ndarray:
    """Map values on a (n, N) coordinate batch; returns (m, N)."""
    return _evaluate(m, np.asarray(coords, dtype=float), warn)[0]


def evaluate(m: SmoothMap, g, warn=None) -> GroupPoint:
    """Map value at a single point (GroupPoint or coordinate sequence)."""
    coords = np.array(tuple(g), dtype=float)[:, None]
    try:
        out = evaluate_batch(m, coords, warn)
    except dsl.DomainError as e:
        raise dsl.DomainError(e.base_message, coords=tuple(g)) from None
    return GroupPoint(m.codomain, tuple(float(v) for v in out[:, 0]))


def jacobian_batch(m: SmoothMap, coords: np.ndarray, warn=None):
    """Values and coordinate Jacobian d f_a / d x_b on a batch: (values (m, N),
    jacobians (N, m, n)); its determinant is that of the frame differential.
    The jacobians are a transposed view of a C-contiguous (m, n, N) array, so
    ``jacobians[:, a, b]`` is one contiguous N-vector."""
    values, jac = _evaluate(m, np.asarray(coords, dtype=float), warn, jets=True)
    return values, jac.transpose(2, 0, 1)


def differential_batch(m: SmoothMap, coords: np.ndarray, warn=None):
    """Frame-to-frame differential on a batch: (values (m, N), matrices (N, m, n)),
    the coordinate Jacobian between the domain frame and the inverse codomain
    frame, F_cod(f(x))^-1 @ J @ F_dom(x), as a transposed view of a
    C-contiguous (m, n, N) array like ``jacobian_batch``.

    The frame products are the group laws' sparse ones (``GroupLaw._product``):
    they skip the structural zeros of the frames and translation Jacobians,
    so an infinite Jacobian entry spreads only into the entries it enters,
    not as NaN (0 * inf) into the other entries of its row and column.
    """
    coords = np.asarray(coords, dtype=float)
    values, jac = _evaluate(m, coords, warn, jets=True)
    mats = group_law(m.codomain).inv_frame_batch(values, jac)
    mats = group_law(m.domain).frame_batch(coords, mats)
    return values, mats.transpose(2, 0, 1)


def differential(m: SmoothMap, g, warn=None) -> list[list[float]]:
    coords = np.array(tuple(g), dtype=float)[:, None]
    try:
        _, mats = differential_batch(m, coords, warn)
    except dsl.DomainError as e:
        raise dsl.DomainError(e.base_message, coords=tuple(g)) from None
    return [[float(x) for x in row] for row in mats[0]]


def normalize_to_y0(m: SmoothMap) -> SmoothMap:
    """Left-translate so the origin maps to the origin (idempotent)."""
    if m.action is not None:
        return m
    bare = replace(m, shift=None)
    at_origin = evaluate_batch(bare, np.zeros((m.domain.dim, 1)))[:, 0]
    if not np.any(at_origin):
        return bare
    return replace(m, shift=tuple(-v for v in at_origin))


def act(m: SmoothMap, g) -> SmoothMap:
    """Right action by a group element: the translated map x -> F(g)^-1 F(g x),
    stored as ``action = g`` and ``shift = F(g)^-1`` (F without any shift).

    Repeated actions collapse through the group law, so
    act(act(m, g1), g2) == act(m, g1 * g2) by construction.
    """
    coords = [float(c) for c in g]
    if m.action is not None:
        coords = [float(v) for v in group_law(m.domain).multiply(list(m.action), coords)]
    bare = replace(m, shift=None, action=None)
    at_g = evaluate_batch(bare, np.array(coords)[:, None])[:, 0]
    return replace(bare, shift=tuple(float(-v) for v in at_g), action=tuple(coords))


def is_group_homomorphism(m: SmoothMap, seed: int = 0, trials: int = 8, tol: float = 1e-9) -> bool:
    """Probe phi(g h) = phi(g) phi(h) on random pairs near the identity box."""
    from . import rng

    gen = rng.stream(seed, "homcheck")
    dom_law = group_law(m.domain)
    cod_law = group_law(m.codomain)
    mm = normalize_to_y0(m)
    for _ in range(trials):
        a = gen.uniform(-2.0, 2.0, size=m.domain.dim)
        b = gen.uniform(-2.0, 2.0, size=m.domain.dim)
        ab = np.array(dom_law.multiply(list(a), list(b)), dtype=float)
        lhs = evaluate_batch(mm, ab[:, None])[:, 0]
        fa = evaluate_batch(mm, a[:, None])[:, 0]
        fb = evaluate_batch(mm, b[:, None])[:, 0]
        rhs = np.array(cod_law.multiply(list(fa), list(fb)), dtype=float)
        if np.max(np.abs(lhs - rhs)) > tol:
            return False
    return True


# -- map files ----------------------------------------------------------------
#
# JSON record: {"domain": <algebra file path or inline record>,
#               "codomain": ..., "components": ["x1", "sin(x1)", ...]}


def load_map(path: str) -> SmoothMap:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    base = os.path.dirname(os.path.abspath(path))

    def resolve(spec, field):
        if isinstance(spec, str):
            ref = spec if os.path.isabs(spec) else os.path.join(base, spec)
            return load_algebra(ref)
        if isinstance(spec, dict):
            return algebra_from_dict(spec)
        raise ValueError(f"{path}: field {field!r} must be a file path or algebra record")

    try:
        domain = resolve(data["domain"], "domain")
        codomain = resolve(data["codomain"], "codomain")
        texts = data["components"]
    except KeyError as e:
        raise ValueError(f"{path}: missing field {e.args[0]!r}") from None
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError(f"{path}: 'components' must be a list of expression strings")
    return map_from_texts(domain, codomain, texts)


def save_map(m: SmoothMap, path: str, domain_ref: str | None = None, codomain_ref: str | None = None):
    from .algebra import algebra_to_dict

    record = {
        "domain": domain_ref if domain_ref else algebra_to_dict(m.domain),
        "codomain": codomain_ref if codomain_ref else algebra_to_dict(m.codomain),
        "components": [dsl.pretty(c) for c in m.components],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
