"""Group multiplication in exponential coordinates of the first kind.

For a nilpotent algebra the Baker-Campbell-Hausdorff series truncates at
the nilpotency class, so the product ``log(exp x . exp y)`` is a polynomial
in the coordinates with rational coefficients.  We compute it once per
algebra by Varadarajan's recursion for its homogeneous parts Z_m
(GTM 102, 1984, section 2.15), which costs a number of brackets polynomial
in the class:

    Z_1 = x + y
    (m+1) Z_{m+1} = 1/2 [x - y, Z_m]
                    + sum_{p>=1, 2p<=m} B_{2p}/(2p)!  T_{2p}(m)

where B_{2p} are the Bernoulli numbers and T_j(k) sums the nested brackets
[Z_{k_1}, [..., [Z_{k_j}, x + y]...]] over k_1 + ... + k_j = k; it is kept
as a table, T_j(k) = sum_a [Z_a, T_{j-1}(k - a)].  From the product
polynomial we derive, also exactly: the translation Jacobian d(a.y)/dy, the
left-invariant frame F(x) (its value at y = 0), and the inverse frame by
substitution.  L_{x^-1} undoes L_x and x^-1 = -x in exponential
coordinates, so F(x)^-1 = d(L_{x^-1})_x is the translation Jacobian at
(a, y) = (-x, x): each term c a^alpha y^beta becomes
(-1)^|alpha| c x^(alpha+beta).  One exact product then checks that the
inverse frame times the frame is the identity; corrupt data, whose
truncated series is no group law, fails it and raises
``IllConditionedFrame``.

Evaluation is generic: exact on Fractions, vectorized on numpy arrays.
The matrices are sparse: H3's frame has 5 nonzero entries of 9, most of
them the constant 1, and every matrix of an abelian group is the identity.
So each law records once, from the polynomials, where the nonzero entries
and the constant 1s of its translation Jacobian, frame and inverse frame
lie (``SparsePattern``), and the numeric layer never evaluates them into
dense stacks: ``GroupLaw._product`` multiplies a sample-last stack of
matrices (a, b, N) by one of them, on either side, adding each entry's
terms in k order, skipping the zeros and the multiplications by 1.

Term order is the float summation order: ``Poly.eval_float`` adds a
polynomial's terms in dict order, so the order in which the exact kernels
build ``terms`` fixes the bits of every numeric group-law evaluation, and it
must not change.  A sum (``+``, ``-`` and the accumulation of the bracket,
all through ``exactlinalg._axpy``) keeps the left operand's terms in place,
appends new keys in the right operand's order and drops a term the moment
it cancels.  A product, and the inverse frame's substitution, keep each key
where it first appears and drop the terms that cancel only at the end, so a
term that is zero on the way and comes back keeps its first position.
``scale`` and ``diff`` map terms one to one, in order.  Each term is
evaluated as its coefficient times its coordinates in index order, a power
x^e with e >= 2 by products (``jets.powers``).  No kernel builds a zero Fraction
per term, and a sum with a coefficient of +-1 adds or subtracts without a
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial
from operator import add

import numpy as np

from .algebra import DerivedCache, LieAlgebra
from .exactlinalg import ONE, _axpy
from .jets import powers

ExpKey = tuple[int, ...]


class IllConditionedFrame(ValueError):
    """The inverse frame read off the product polynomial does not invert the
    frame; valid nilpotent group data always passes, so the algebra is
    corrupt."""


class Poly:
    """Sparse multivariate polynomial with Fraction coefficients.

    ``terms`` never holds a zero; each operation builds a new dict, in the
    order stated in the module docstring.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[ExpKey, Fraction] | None = None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _of(cls, nvars: int, terms: dict[ExpKey, Fraction]) -> "Poly":
        """A Poly on a dict that holds no zero, taken as it is."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        key = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {key: Fraction(1)})

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        _axpy(terms, ONE, other.terms)
        return Poly._of(self.nvars, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        _axpy(terms, -ONE, other.terms)
        return Poly._of(self.nvars, terms)

    def __mul__(self, other: "Poly") -> "Poly":
        terms: dict[ExpKey, Fraction] = {}
        get = terms.get
        summed = False
        right = list(other.terms.items())
        for ka, va in self.terms.items():
            for kb, vb in right:
                key = tuple(map(add, ka, kb))
                s = get(key)
                if s is None:
                    terms[key] = va * vb
                else:
                    terms[key] = s + va * vb
                    summed = True
        if summed:  # only a sum can be zero; it kept its first position until here
            terms = {k: v for k, v in terms.items() if v}
        return Poly._of(self.nvars, terms)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly(self.nvars)
        return Poly._of(self.nvars, {k: c * v for k, v in self.terms.items()})

    def diff(self, index: int) -> "Poly":
        # k -> k - e_index is one to one, so no two terms meet
        terms = {}
        for k, v in self.terms.items():
            e = k[index]
            if e:
                terms[k[:index] + (e - 1,) + k[index + 1 :]] = v if e == 1 else v * e
        return Poly._of(self.nvars, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def eval_exact(self, vals):
        """Exact evaluation; vals may be Fractions or ints."""
        total = Fraction(0)
        for k, c in self.terms.items():
            term = c
            for i, e in enumerate(k):
                if e:
                    term *= Fraction(vals[i]) ** e
            total += term
        return total

    def eval_float(self, vals):
        """Evaluation on floats or numpy arrays."""
        total = 0.0
        for k, c in self.terms.items():
            term = float(c)
            for i, e in enumerate(k):
                if e == 1:
                    term = term * vals[i]
                elif e:
                    term = term * powers(vals[i], e)[1]
            total = total + term
        return total

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"


def _evaluator(vals: list):
    """Polynomial evaluation at vals: exact when every value is rational."""
    if all(isinstance(v, (int, Fraction)) for v in vals):
        return lambda p: p.eval_exact(vals)
    return lambda p: p.eval_float(vals)


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def _poly_vec_bracket(alg: LieAlgebra, u: list[Poly], v: list[Poly]) -> list[Poly]:
    out: list[dict[ExpKey, Fraction]] = [{} for _ in range(alg.dim)]
    for (i, j), comps in alg.structure.items():
        w = (u[i] * v[j] - u[j] * v[i]).terms
        if w:
            for k, c in comps.items():
                _axpy(out[k], c, w)
    nvars = u[0].nvars
    return [Poly._of(nvars, terms) for terms in out]


def _bernoulli(count: int) -> list[Fraction]:
    """B_0 .. B_count, exact (B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, count + 1):
        b.append(-sum((comb(m + 1, k) * b[k] for k in range(m)), Fraction(0)) / (m + 1))
    return b


def bch_product_polys(alg: LieAlgebra) -> list[Poly]:
    """Coordinates of x·y as polynomials in (x_1..x_n, y_1..y_n)."""
    n = alg.dim
    nvars = 2 * n
    x = [Poly.variable(nvars, i) for i in range(n)]
    y = [Poly.variable(nvars, n + i) for i in range(n)]
    cls = alg.nilpotency_class
    bern = _bernoulli(cls)

    def add(u: list[Poly], v: list[Poly]) -> list[Poly]:
        return [a + b for a, b in zip(u, v)]

    def scale(u: list[Poly], c) -> list[Poly]:
        return [a.scale(c) for a in u]

    half_diff = scale([a - b for a, b in zip(x, y)], Fraction(1, 2))
    z = {1: add(x, y)}                      # z[m] = Z_m
    t = {(0, 0): z[1]}                      # t[j, k] = T_j(k)
    for m in range(1, cls):
        for j in range(1, m + 1):
            acc = [Poly(nvars) for _ in range(n)]
            for a in range(1, m + 1):
                if (j - 1, m - a) in t:
                    acc = add(acc, _poly_vec_bracket(alg, z[a], t[j - 1, m - a]))
            t[j, m] = acc
        nxt = _poly_vec_bracket(alg, half_diff, z[m])
        for p in range(2, m + 1, 2):
            nxt = add(nxt, scale(t[p, m], bern[p] / factorial(p)))
        z[m + 1] = scale(nxt, Fraction(1, m + 1))

    out = z[1]
    for m in range(2, cls + 1):
        out = add(out, z[m])
    return out


def _poly_mat_mul(a: list[list[Poly]], b: list[list[Poly]]) -> list[list[Poly]]:
    """a @ b; each entry adds its nonzero products a[i][k] * b[k][j] in k order."""
    n = len(a)
    nvars = a[0][0].nvars
    out = []
    for row in a:
        out_row = []
        for j in range(n):
            acc: dict[ExpKey, Fraction] = {}
            for k in range(n):
                if row[k].terms and b[k][j].terms:
                    _axpy(acc, ONE, (row[k] * b[k][j]).terms)
            out_row.append(Poly._of(nvars, acc))
        out.append(out_row)
    return out


def _inverse_substitution(p: Poly, n: int) -> Poly:
    """p(a, y) at (a, y) = (-x, x), a polynomial in x: c a^alpha y^beta goes
    to (-1)^|alpha| c x^(alpha+beta).  Terms that meet are summed where the
    first of them appeared, and the zeros are dropped at the end."""
    terms: dict[ExpKey, Fraction] = {}
    get = terms.get
    summed = False
    for k, v in p.terms.items():
        key = tuple(map(add, k[:n], k[n:]))
        c = -v if sum(k[:n]) & 1 else v
        s = get(key)
        if s is None:
            terms[key] = c
        else:
            terms[key] = s + c
            summed = True
    if summed:
        terms = {k: v for k, v in terms.items() if v}
    return Poly._of(n, terms)


@dataclass(frozen=True)
class SparsePattern:
    """The nonzero entries of a square polynomial matrix P, read off its
    polynomials: ``rows[i]`` lists (k, p) for every nonzero P[i, k] and
    ``cols[j]`` every nonzero P[k, j], both in k order, with p None where the
    entry is the constant 1."""

    rows: tuple
    cols: tuple
    identity: bool

    @classmethod
    def of(cls, polys: list[list[Poly]]) -> "SparsePattern":
        one = {(0,) * polys[0][0].nvars: Fraction(1)}
        entry = [[None if p.terms == one else p for p in row] for row in polys]
        n = len(polys)
        rows = tuple(tuple((k, entry[i][k]) for k in range(n) if not polys[i][k].is_zero())
                     for i in range(n))
        cols = tuple(tuple((k, entry[k][j]) for k in range(n) if not polys[k][j].is_zero())
                     for j in range(n))
        return cls(rows, cols, all(r == ((i, None),) for i, r in enumerate(rows)))

    def mask(self) -> np.ndarray:
        """The boolean (n, n) matrix of the nonzero entries."""
        out = np.zeros((len(self.rows),) * 2, dtype=bool)
        for i, terms in enumerate(self.rows):
            out[i, [k for k, _ in terms]] = True
        return out


@dataclass(frozen=True, eq=False)
class GroupLaw:
    """Cached polynomial data for one algebra's simply connected group."""

    algebra: LieAlgebra
    product: list[Poly]              # 2n vars: coordinates of x·y
    trans_jac: list[list[Poly]]      # 2n vars: d(x·y)_i / d y_j
    frame: list[list[Poly]]          # n vars:  trans_jac at y = 0
    inv_frame: list[list[Poly]]      # n vars:  exact inverse of frame

    # the sparsity of each matrix, read once per law on first numeric use
    @cached_property
    def trans_pattern(self) -> SparsePattern:
        return SparsePattern.of(self.trans_jac)

    @cached_property
    def frame_pattern(self) -> SparsePattern:
        return SparsePattern.of(self.frame)

    @cached_property
    def inv_frame_pattern(self) -> SparsePattern:
        return SparsePattern.of(self.inv_frame)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def _check_length(self, length: int) -> None:
        if length != self.algebra.dim:
            raise ValueError(f"a point of a dim-{self.algebra.dim} group has "
                             f"{self.algebra.dim} coordinates, got {length}")

    # -- exact paths --------------------------------------------------------

    def multiply(self, a, b):
        """Product of two coordinate sequences; exact on rationals."""
        a, b = list(a), list(b)
        self._check_length(len(a))
        self._check_length(len(b))
        ev = _evaluator(a + b)
        return [ev(p) for p in self.product]

    def frame_at(self, a):
        """Left-invariant frame matrix at a point (columns = frame fields)."""
        a = list(a)
        self._check_length(len(a))
        ev = _evaluator(a)
        return [[ev(p) for p in row] for row in self.frame]

    def translation_jacobian(self, a, b):
        """d(a·y)/dy at y = b, exact on rationals."""
        a, b = list(a), list(b)
        self._check_length(len(a))
        self._check_length(len(b))
        ev = _evaluator(a + b)
        return [[ev(p) for p in row] for row in self.trans_jac]

    # -- vectorized paths -----------------------------------------------------

    def multiply_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of coordinate batches shaped (n, N); (n,) inputs broadcast."""
        a = _as_batch(a)
        b = _as_batch(b)
        self._check_length(a.shape[0])
        self._check_length(b.shape[0])
        a, b = np.broadcast_arrays(a, b)
        vals = list(a) + list(b)
        out = np.empty(a.shape, dtype=float)
        for i, p in enumerate(self.product):
            out[i] = p.eval_float(vals)
        return out

    def _product(self, pattern: SparsePattern, vals: list, stack: np.ndarray, left: bool):
        """P(vals) @ stack (``left``) or stack @ P(vals) for the polynomial matrix
        P of ``pattern`` and a sample-last stack (a, b, N) of matrices.

        Each entry of the result adds its terms in k order, skipping the
        structural zeros of P and the multiplications by its constant 1s; each
        nonzero entry of P is evaluated once, and an identity P returns
        ``stack`` itself.  A new result is C-contiguous.
        """
        if pattern.identity:
            return stack
        lines = pattern.rows if left else pattern.cols
        a, b, count = stack.shape
        out = np.empty((len(lines), b, count) if left else (a, len(lines), count))
        for i, terms in enumerate(lines):
            target = out[i] if left else out[:, i]
            if not terms:
                target.fill(0.0)
            for t, (k, p) in enumerate(terms):
                s = stack[k] if left else stack[:, k]
                term = s if p is None else s * p.eval_float(vals)
                if t:
                    target += term
                else:
                    target[...] = term
        return out

    def frame_batch(self, coords: np.ndarray, stack: np.ndarray) -> np.ndarray:
        """stack @ F(x) for the frames F at a coordinate batch (n, N) and a
        sample-last stack (a, n, N); see ``_product``."""
        return self._product(self.frame_pattern, list(_as_batch(coords)), stack, left=False)

    def inv_frame_batch(self, coords: np.ndarray, stack: np.ndarray) -> np.ndarray:
        """F(x)^-1 @ stack for the inverse frames at a coordinate batch (n, N)
        and a sample-last stack (n, b, N); see ``_product``."""
        return self._product(self.inv_frame_pattern, list(_as_batch(coords)), stack, left=True)

    def translation_jacobian_batch(self, a, b, stack: np.ndarray, left: bool = True) -> np.ndarray:
        """d(a·y)/dy at y = b times a sample-last stack, on the left or on the
        right; (n,) points broadcast against (n, N) batches.  See ``_product``."""
        a, b = np.broadcast_arrays(_as_batch(a), _as_batch(b))
        return self._product(self.trans_pattern, list(a) + list(b), stack, left)

    def dilate(self, r, coords):
        """Homogeneous dilation: coordinate i scales by r**weight_i."""
        w = self.algebra.weights
        return [c * r ** w[i] for i, c in enumerate(coords)]


_LAW_CACHE = DerivedCache("group_law")


def group_law(alg: LieAlgebra) -> GroupLaw:
    law = _LAW_CACHE.get(alg)
    if law is not None:
        return law
    n = alg.dim
    product = bch_product_polys(alg)
    trans = [[product[i].diff(n + j) for j in range(n)] for i in range(n)]
    # frame: the y-free terms of trans_jac, as polynomials in x alone
    frame = [[Poly._of(n, {k[:n]: v for k, v in p.terms.items() if not any(k[n:])}) for p in row]
             for row in trans]

    inv = [[_inverse_substitution(p, n) for p in row] for row in trans]
    one = {(0,) * n: ONE}
    for i, row in enumerate(_poly_mat_mul(inv, frame)):
        for j, p in enumerate(row):
            if p.terms != (one if i == j else {}):
                raise IllConditionedFrame(
                    f"inverse frame times frame is not the identity at ({i + 1}, {j + 1}): "
                    "corrupt algebra data")

    law = GroupLaw(algebra=alg, product=product, trans_jac=trans, frame=frame, inv_frame=inv)
    _LAW_CACHE[alg] = law
    return law
