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

``differential_batch`` runs one generated function per map tape, domain
dimension and pair of frames (``dsl.differential``), which writes D's
entries straight into the array it returns.  The function computes the
tape's values and partials, then the inverse-frame product and the frame
product entry by entry: each entry adds its terms in k order, skipping the
structural zeros of the frames, as the group laws' sparse products
(``dsl.product``) do, and a term of an exact-zero stack entry and a
non-finite frame entry is 0.0, not 0 * inf = NaN.  Of F(x) it computes
only the coordinates that the inverse frame's entries read (none on an
abelian codomain, F1 and F2 on H3), and of the other components the values
that a partial or a domain check reads, so the sine of (x1, sin x1), or of
x3 + 0.2*sin(x1) on H3, is never evaluated for the differential.  The
writer knows whether each term is a named array, a constant or an exact
zero, and leaves out only what round-to-nearest makes exact (IEEE
754-2019, 6.3, the sign of an exact zero sum), so D is byte for byte the
products', zero signs and NaN bits included:

- a factor that is the constant 1 multiplies nothing: 1 * v is v, NaN
  payload included;
- an exact-zero stack entry (a structural zero of J_F, or a zero that such
  terms add up to) times a frame entry is a signed zero Z, never NaN, by
  the exact-zero rule; its sign comes from the data, so it is computed
  where it is kept;
- c + Z is c for a nonzero constant c, and +0.0 + Z is +0.0;
- y + Z and y + 0.0 are y where y can never be -0.0, since a sum is -0.0
  only if both operands are.  Such a y is a sum with an operand that can
  never be -0.0; every frame entry is one, its tree being 0.0 + ... .  A
  product is never such a y: a tiny negative product underflows to -0.0.

Every other term keeps the products' op, operand order and masking test.

Batches of matrices are stored sample-last, (m, n, N): the tape writes the
Jacobian that way, the shift's translation Jacobian multiplies it in place
through the group law's sparse product, and ``jacobian_batch`` and
``differential_batch`` return an (N, m, n) view of that array whose
entries are contiguous N-vectors.  The array is allocated for the call, or
is the head of the buffer the caller handed ``differential_batch`` as
``out`` to be overwritten, so no other array of the caller's is.

``differential_pattern`` runs the frame products on booleans: starting from
the coordinates each component reads, it gives the entries of the frame
differential that can be nonzero, so that ``pullback`` plans only the minors
that are not zero at every point.  ``differential_constants`` gives the
entries that the generated function writes as a constant, the same float
at every point: a literal (the seed 1.0 of a coordinate's own partial, the
+0.0 of a partial of a coordinate not read) or a float bound from the
map's text, left as it is by the rules above (1 * v is v, c + Z is c).  On
the ``average`` benchmark maps D is 1.0 on its diagonal and 0.0 at every
dead entry, 6 of H3's 9 entries and 19 of H5's 25; ``pullback`` folds them
into its ops.  The pattern stays as it is: a constant entry it marks live
is still live.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import dsl, rng
from .algebra import LieAlgebra, algebra_from_dict, load_algebra
from .bch import IllConditionedFrame, group_law  # IllConditionedFrame is re-exported
from .group import _check_length, _check_point, _check_tol


@dataclass(frozen=True)
class SmoothMap:
    """x -> shift . F(x) for the components F (module docstring); a shift
    that is not a finite point of the codomain is refused."""

    domain: LieAlgebra
    codomain: LieAlgebra
    components: tuple
    shift: tuple | None = None
    tape: dsl.Tape | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_length("components", len(self.components), self.codomain.dim)
        for comp in self.components:
            bad = [i for i in dsl.coordinate_indices(comp) if i >= self.domain.dim]
            if bad:
                raise ValueError(
                    f"component uses coordinate x{max(bad) + 1} beyond domain dimension {self.domain.dim}"
                )
        if self.shift is not None:
            _check_point("shift", self.shift, self.codomain.dim)
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


def _points(m: SmoothMap, coords) -> np.ndarray:
    """A (n, N) batch of the domain's points as floats; refuses another n."""
    coords = np.asarray(coords, dtype=float)
    _check_length("coords", len(coords), m.domain.dim)
    return coords


def _evaluate(m: SmoothMap, coords: np.ndarray, warn=None, jets: bool = False):
    """F on a (n, N) batch: the values F(x) (m, N) before the shift, and with
    ``jets`` the tape's Jacobian J_F(x) in forward mode, sample-last
    (m, n, N), else None."""
    coords = _points(m, coords)
    rows, (n, count) = m.codomain.dim, coords.shape
    values = np.empty((rows, count))
    jac = np.empty((rows, n, count)) if jets else None
    dsl.evaluate(m.tape, list(coords), values, warn, jac)
    return values, jac


def _shifted(m: SmoothMap, values: np.ndarray) -> np.ndarray:
    """shift . values, or the values themselves for a map without a shift."""
    if m.shift is None:
        return values
    return group_law(m.codomain).multiply_batch(np.array(m.shift), values)


def evaluate_batch(m: SmoothMap, coords: np.ndarray, warn=None) -> np.ndarray:
    """Map values on a (n, N) coordinate batch; returns (m, N).  A batch of
    another n is refused; its coordinates follow IEEE 754 (module ``group``)."""
    return _shifted(m, _evaluate(m, coords, warn)[0])


def _at_point(batch, m: SmoothMap, g, warn=None, context: str = ""):
    """``batch`` (``evaluate_batch`` or ``differential_batch``) on the one
    column of the point g, refused unless a finite point of the domain.  A
    ``DomainError`` of the sample names g after ``context``; one that no
    point causes (a constant that overflows) passes as it is."""
    point = _check_point("g", g, m.domain.dim)
    try:
        return batch(m, np.array(point)[:, None], warn)
    except dsl.DomainError as e:
        if e.sample_index is None:
            raise
        raise dsl.DomainError(context + e.base_message, coords=point) from None


def evaluate(m: SmoothMap, g, warn=None) -> tuple:
    """Map value at the point g, a coordinate sequence, as a tuple of the
    codomain's coordinates; a g of another dimension or not finite is refused."""
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
    contiguous N-vector.  The batch is checked as by ``evaluate_batch``."""
    values, jac = _evaluate(m, coords, warn, jets=True)
    if m.shift is not None:
        group_law(m.codomain).translation_jacobian_batch(np.array(m.shift), values, jac)
    return _shifted(m, values), jac.transpose(2, 0, 1)


def differential_batch(m: SmoothMap, coords: np.ndarray, warn=None, *, out=None) -> np.ndarray:
    """Frame-to-frame differential on a batch: the matrices (N, m, n)
    F_cod(F(x))^-1 @ J_F(x) @ F_dom(x) (module docstring), as a transposed
    view of the C-contiguous (m, n, N) array that one generated function
    (``dsl.differential``) writes, entry by entry.  The shift never enters
    it, and F(x) only through the coordinates that the inverse codomain
    frame reads, so of the other components the function computes only the
    values their partials and domain checks read.  The batch is checked as
    by ``evaluate_batch``.

    Each entry adds its terms in k order, as the group laws' sparse
    products (``dsl.product``) do: structural zeros of the frames are
    skipped, so an infinite Jacobian entry spreads only into the entries it
    enters, not as NaN (0 * inf) into the other entries of its row and
    column.  An infinite inverse-frame entry meets the exact-zero Jacobian
    entries as 0, not NaN: on H3, x1 + exp(800*x2) at (0.3, 0.95, 0.2) has
    the third row [0.0, nan, 1.0], NaN only where inf and -inf are added.
    The function drops only terms whose omission moves no bit under
    round-to-nearest (module docstring), so D is byte for byte that of the
    products, zero signs and NaN bits included.

    ``out``, if given, is a flat float64 buffer of at least m * n * N
    floats: the matrices are written into its head instead of a new array,
    and returned as a view of it.  A caller that evaluates chunk after
    chunk passes one buffer sized for its largest chunk, so no chunk maps
    fresh pages; the bytes are those of the allocating call.
    """
    coords = _points(m, coords)
    shape = (m.codomain.dim, *coords.shape)
    jac = np.empty(shape) if out is None else out[:math.prod(shape)].reshape(shape)
    _differential_code(m)[0](list(coords), jac, warn)
    return jac.transpose(2, 0, 1)


def _differential_code(m: SmoothMap):
    """``dsl.differential`` of the map: its generated function and constants."""
    return dsl.differential(m.tape, m.domain.dim, group_law(m.codomain).inv_frame_pattern,
                            group_law(m.domain).frame_pattern)


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


def differential_constants(m: SmoothMap) -> dict[tuple[int, int], float]:
    """The entries (a, j) -> c of the frame differential that
    ``differential_batch`` writes as the constant c at every point: a
    literal 1.0 or 0.0 of the tape's partials, or a float of the map's text,
    carried through the frame products by the rules of the module docstring
    (a structural zero of the pattern is one such entry where the products
    leave it a literal).  The shift does not enter them."""
    return _differential_code(m)[1]


def differential(m: SmoothMap, g, warn=None) -> list[list[float]]:
    """The frame differential at the point g, refused as by ``evaluate``."""
    mats = _at_point(differential_batch, m, g, warn)
    return [[float(x) for x in row] for row in mats[0]]


def normalize_to_y0(m: SmoothMap) -> SmoothMap:
    """Left-translate so the origin maps to the origin (idempotent).  Where
    F is undefined at the origin, the ``DomainError`` names the origin and
    the normalization; an error of no point (a constant that overflows)
    passes as it is.  An F(0) that is not finite is refused as a shift is
    (``SmoothMap``), naming F(0) and the normalization."""
    context = "normalizing the map to F(0) = 0: "
    bare = replace(m, shift=None)
    at_origin = _at_point(evaluate_batch, bare, (0.0,) * m.domain.dim, context=context)[:, 0]
    _check_point(context + "F(0)", at_origin, m.codomain.dim)
    if not np.any(at_origin):
        return bare
    return replace(m, shift=tuple(-v for v in at_origin))


def is_group_homomorphism(m: SmoothMap, seed: int = 0, trials: int = 8, tol: float = 1e-9) -> bool:
    """Probe phi(g h) = phi(g) phi(h) on random pairs near the identity box."""
    rng._check_integer("trials", trials, 1)
    _check_tol(tol)
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
        if not np.max(np.abs(lhs - rhs)) <= tol:  # a NaN difference is no agreement
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
    loaded: dict[str, LieAlgebra] = {}  # one algebra per file: a self-map's sides are one

    def resolve(spec, field):
        if isinstance(spec, str):
            ref = os.path.normpath(spec if os.path.isabs(spec) else os.path.join(base, spec))
            if ref not in loaded:
                loaded[ref] = load_algebra(ref)
            return loaded[ref]
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
