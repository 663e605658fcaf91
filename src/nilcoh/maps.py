"""Smooth maps between groups, given componentwise in exponential coordinates.

A map is a tuple of expressions F plus an optional constant ``shift`` s in
the codomain.  The map is

    x -> s . F(x)

with the codomain's group law.  ``normalize_to_y0`` sets s = F(0)^-1, so
the origin maps to the origin; only ``local_degree``,
``area_formula_check`` and ``is_group_homomorphism`` normalize, as they
compare values with a target, a bounding box or a product, and every other
call reads the differential or F(x)^-1 . F(y), in which a shift cancels.
A right translate x -> F(g . x) is no map of its own: its caller moves the
sample points to g . x (``ergodic``).  The components compile into one
``dsl.Tape`` that the map carries, whose generated code every map of the
same texts shares; a normalization keeps its parent's tape.
``_evaluate`` runs the tape at the points it is given.

``differential`` returns the matrix of the derivative in the left-invariant
frames of both sides: column b holds the coefficients of the image of the
b-th domain frame field in the codomain frame.  Left translations preserve
those frames, so the shift never reaches it:

    D(x) = F_cod(F(x))^-1 @ J_F(x) @ F_dom(x),

with J_F the tape's coordinate Jacobian.  ``differential_batch`` computes
exactly this, so the differential of ``normalize_to_y0(m)`` is that of m,
bit for bit.  The shift is applied only where values are read, by
``evaluate_batch`` and ``jacobian_batch``; ``jacobian_batch`` also
multiplies in the shift's translation Jacobian, as Newton needs the
coordinate Jacobian of the map itself.
``differential_batch`` returns the matrices alone, and of F(x) it reads
only the coordinates that the inverse codomain frame reads
(``GroupLaw.inv_frame_reads``: none on an abelian codomain, x1 and x2 on
H3).  Of the other components, the tape computes only the values that a
partial or a domain check reads (``dsl.evaluate``), so the sine of
(x1, sin x1), or of x3 + 0.2*sin(x1) on H3, is never evaluated for the
differential.

Batches of matrices are stored sample-last, (m, n, N): the tape writes the
Jacobian that way, the frames and the shift's translation Jacobian multiply
it in place through the group laws' sparse products (structural zeros
skipped, identity lines and abelian sides free), and ``jacobian_batch`` and
``differential_batch`` return that same buffer as an (N, m, n) view whose
entries are contiguous N-vectors.  The buffer is the one ``_evaluate``
allocated for this call, or the one the caller handed ``differential_batch``
as ``out`` to be overwritten, so no other array of the caller's is.

``differential_pattern`` runs the frame products on booleans: starting from
the coordinates each component reads, it gives the entries of the frame
differential that can be nonzero, so that ``pullback`` plans only the minors
that are not zero at every point.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import dsl
from .algebra import LieAlgebra, algebra_from_dict, load_algebra
from .bch import IllConditionedFrame, group_law  # IllConditionedFrame is re-exported
from .group import _check_count


@dataclass(frozen=True)
class SmoothMap:
    domain: LieAlgebra
    codomain: LieAlgebra
    components: tuple
    shift: tuple | None = None
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


def _evaluate(m: SmoothMap, coords: np.ndarray, warn=None, jets: bool = False, reads=None,
              out=None):
    """F on a (n, N) batch: the values F(x) (m, N) before the shift, and with
    ``jets`` the tape's Jacobian J_F(x) in forward mode, sample-last
    (m, n, N), else None.  ``reads``, in forward mode, are the coordinates
    of F(x) the caller reads (``dsl.evaluate``); the other rows are NaN.
    With ``out``, a pair of flat float64 buffers, both are written into
    the buffers' heads (jets only), else into arrays allocated here."""
    if len(coords) != m.domain.dim:
        raise ValueError(
            f"points have {len(coords)} coordinates, the domain has dimension {m.domain.dim}"
        )
    rows, (n, count) = m.codomain.dim, coords.shape
    if out is None:
        values = np.empty((rows, count))
        jac = np.empty((rows, n, count)) if jets else None
    else:
        values = out[0][:rows * count].reshape(rows, count)
        jac = out[1][:rows * n * count].reshape(rows, n, count)
    dsl.evaluate(m.tape, list(coords), values, warn, jac, reads)
    return values, jac


def _shifted(m: SmoothMap, values: np.ndarray) -> np.ndarray:
    """shift . values, or the values themselves for a map without a shift."""
    if m.shift is None:
        return values
    return group_law(m.codomain).multiply_batch(np.array(m.shift), values)


def evaluate_batch(m: SmoothMap, coords: np.ndarray, warn=None) -> np.ndarray:
    """Map values on a (n, N) coordinate batch; returns (m, N)."""
    return _shifted(m, _evaluate(m, np.asarray(coords, dtype=float), warn)[0])


def _at_point(batch, m: SmoothMap, g, warn=None, context: str = ""):
    """``batch`` (``evaluate_batch`` or ``differential_batch``) on the one
    column of the point g.  A ``DomainError`` of the sample names g after
    ``context``; one that no point causes (a constant that overflows)
    passes as it is."""
    point = tuple(float(c) for c in g)
    try:
        return batch(m, np.array(point)[:, None], warn)
    except dsl.DomainError as e:
        if e.sample_index is None:
            raise
        raise dsl.DomainError(context + e.base_message, coords=point) from None


def evaluate(m: SmoothMap, g, warn=None) -> tuple:
    """Map value at the point g, a coordinate sequence, as a tuple of the
    codomain's coordinates."""
    out = _at_point(evaluate_batch, m, g, warn)
    return tuple(float(v) for v in out[:, 0])


def jacobian_batch(m: SmoothMap, coords: np.ndarray, warn=None):
    """Values and coordinate Jacobian d f_a / d x_b on a batch: (values (m, N),
    jacobians (N, m, n)); its determinant is that of the frame differential.

    The Jacobian is T_shift @ J_F, with T_shift the left-translation
    Jacobian of the codomain's group law at F(x), multiplied in place on the
    tape's Jacobian through the law's sparse products, so an abelian
    codomain costs nothing.  The jacobians are a transposed view of that
    C-contiguous (m, n, N) array, so ``jacobians[:, a, b]`` is one
    contiguous N-vector."""
    values, jac = _evaluate(m, np.asarray(coords, dtype=float), warn, jets=True)
    if m.shift is not None:
        group_law(m.codomain).translation_jacobian_batch(np.array(m.shift), values, jac)
    return _shifted(m, values), jac.transpose(2, 0, 1)


def differential_batch(m: SmoothMap, coords: np.ndarray, warn=None, *, out=None) -> np.ndarray:
    """Frame-to-frame differential on a batch: the matrices (N, m, n)
    F_cod(F(x))^-1 @ J_F(x) @ F_dom(x) (module docstring), as a transposed
    view of the tape's C-contiguous (m, n, N) Jacobian, which the frame
    products overwrite, like ``jacobian_batch``.  The shift never enters
    it, and F(x) only through the coordinates that the inverse codomain
    frame reads (``GroupLaw.inv_frame_reads``), so of the other components
    the tape computes only the values their partials read.

    The frame products are the group laws' sparse ones (``GroupLaw._product``):
    they skip the structural zeros of the frames, so an infinite Jacobian
    entry spreads only into the entries it enters, not as NaN (0 * inf) into
    the other entries of its row and column.  An infinite inverse-frame
    entry meets the exact-zero Jacobian entries as 0, not NaN: on H3,
    x1 + exp(800*x2) at (0.3, 0.95, 0.2) has the third row [0.0, nan, 1.0],
    NaN only where inf and -inf are added.

    ``out``, if given, is a pair (values, jac) of flat float64 buffers of
    at least m * N and m * n * N floats: the run writes F(x) and the
    Jacobian into their heads instead of allocating, and the matrices
    returned are a view of ``jac``.  A caller that evaluates chunk after
    chunk passes one pair sized for its largest chunk, so no chunk maps
    fresh pages; the bytes are those of the allocating call.
    """
    cod = group_law(m.codomain)
    coords = np.asarray(coords, dtype=float)
    values, jac = _evaluate(m, coords, warn, jets=True, reads=cod.inv_frame_reads, out=out)
    cod.inv_frame_batch(values, jac)
    group_law(m.domain).frame_batch(coords, jac)
    return jac.transpose(2, 0, 1)


def differential_pattern(m: SmoothMap) -> np.ndarray:
    """The (m, n) boolean pattern of the entries of the frame differential
    that can be nonzero: the coordinates each component reads, carried
    through the same products as ``differential_batch`` (the inverse
    codomain frame on the left, the domain frame on the right).  The shift
    does not enter it.

    The tape carries no partial of a coordinate a component does not read:
    that Jacobian entry is exactly +0.0, also where the value overflows.
    Every product skips the structural zeros of its polynomial matrix and
    keeps a term 0 where an exact 0 meets an infinite entry, so an entry
    outside the pattern is exactly 0.0 (or -0.0) at every point.
    """
    pattern = np.zeros((m.codomain.dim, m.domain.dim), dtype=bool)
    for a, comp in enumerate(m.components):
        pattern[a, sorted(dsl.coordinate_indices(comp))] = True
    return (group_law(m.codomain).inv_frame_pattern.mask() @ pattern
            @ group_law(m.domain).frame_pattern.mask())


def differential(m: SmoothMap, g, warn=None) -> list[list[float]]:
    mats = _at_point(differential_batch, m, g, warn)
    return [[float(x) for x in row] for row in mats[0]]


def normalize_to_y0(m: SmoothMap) -> SmoothMap:
    """Left-translate so the origin maps to the origin (idempotent).  Where
    F is undefined at the origin, the ``DomainError`` names the origin and
    the normalization; an error of no point (a constant that overflows)
    passes as it is."""
    bare = replace(m, shift=None)
    at_origin = _at_point(evaluate_batch, bare, (0.0,) * m.domain.dim,
                          context="normalizing the map to F(0) = 0: ")[:, 0]
    if not np.any(at_origin):
        return bare
    return replace(m, shift=tuple(-v for v in at_origin))


def is_group_homomorphism(m: SmoothMap, seed: int = 0, trials: int = 8, tol: float = 1e-9) -> bool:
    """Probe phi(g h) = phi(g) phi(h) on random pairs near the identity box.
    Refuses a ``trials`` that is no integer of at least 1, and a ``tol`` that
    is NaN, infinite or negative, under which every map would pass."""
    from . import rng

    _check_count("trials", trials)
    if not (tol >= 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    gen = rng.stream(seed, "homcheck")
    dom_law = group_law(m.domain)
    cod_law = group_law(m.codomain)
    mm = normalize_to_y0(m)
    for _ in range(trials):
        a = gen.uniform(-2.0, 2.0, size=m.domain.dim)
        b = gen.uniform(-2.0, 2.0, size=m.domain.dim)
        lhs = evaluate_batch(mm, dom_law.multiply_batch(a, b))[:, 0]
        fa = evaluate_batch(mm, a[:, None])
        rhs = cod_law.multiply_batch(fa, evaluate_batch(mm, b[:, None]))[:, 0]
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
