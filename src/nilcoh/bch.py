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
as a table, T_j(k) = sum_a [Z_a, T_{j-1}(k - a)].  No Z reads T_j(c - 1) for
odd j, so those entries are not built, and a bracket skips each
structure pair whose two products both have a zero factor.  The
Bernoulli numbers are computed once per class.  From the product
polynomial we derive, also exactly: the translation Jacobian d(a.y)/dy, the
left-invariant frame F(x) (its value at y = 0), and the inverse frame by
substitution.  L_{x^-1} undoes L_x and x^-1 = -x in exponential
coordinates, so F(x)^-1 = d(L_{x^-1})_x is the translation Jacobian at
(a, y) = (-x, x): each term c a^alpha y^beta becomes
(-1)^|alpha| c x^(alpha+beta).  One exact product then checks that the
inverse frame times the frame is the identity; corrupt data, whose
truncated series is no group law, fails it and raises
``IllConditionedFrame``.

All of this runs in integers: a polynomial under construction is a dict
from a packed monomial (variable i's exponent in bits [i w, (i + 1) w) of
one int, w set by the class) to an int numerator, over one denominator,
reduced by their gcd after every operation (``exactlinalg._reduced``, as
the echelon's rows are).  The law keeps these pairs, and each of its
``product``, ``trans_jac``, ``frame`` and ``inv_frame`` becomes ``Poly``
objects, exponent tuples to Fractions, on its first read: the exact
pipeline (validation, ``group_law``, ``cohomology``, ``ring_invariants``)
converts nothing, and a numeric caller converts only what it reads.

Evaluation is exact on ints and Fractions, and otherwise the DSL's: each
float polynomial runs as a tape of generated code (``Poly.tree``,
``dsl.evaluate``), compiled on first numeric use.  The matrices are
sparse: H3's frame has 5 nonzero entries of 9, most of them the constant 1,
and every matrix of an abelian group is the identity.  So each law records
once where the nonzero entries and the constant 1s of its translation
Jacobian, frame and inverse frame lie, with one tape of the other entries
(``SparsePattern``), and ``GroupLaw._product`` multiplies a sample-last
stack of matrices (a, b, N) by one of them in place, on either side,
skipping the zeros, the multiplications by 1 and the identity lines: a
product by an identity pattern runs no tape.  The frame differential of a
map multiplies by the frames' patterns in generated code instead
(``dsl.differential``), entry by entry under the same rules.

Term order is the float summation order: a polynomial's tree adds its terms
to 0.0 in dict order, so the kernels' term order fixes the bits of every
numeric group-law evaluation.  A sum (``_add``: one denominator, then the
echelon's accumulation ``exactlinalg._addmul``) keeps the left operand's
terms in place, appends new keys in the right operand's order and drops a
term the moment it cancels.  A product and the substitution (``_collect``)
keep each key where it first appears and drop the zeros at the end, so a
term that is zero on the way and comes back keeps its first position.
Scaling (``_add`` to zero) and ``_diff`` map terms one to one, in order,
and a sum onto zero with c = 1 is the reduced operand itself.  Each entry
of the identity check adds its products with ``_addmul``, in k order, onto
one dict over their common denominator (``_mat_mul``): scaling moves no
key, so it holds the keys of the chain of sums in the same order.  A numerator is zero exactly when its Fraction
is, so every dict is that of Fraction arithmetic, item for item.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, isfinite, lcm

import numpy as np

from . import dsl
from .algebra import DerivedCache, LieAlgebra
from .exactlinalg import _addmul, _reduced
from .group import _check_length


class IllConditionedFrame(ValueError):
    """The inverse frame read off the product polynomial does not invert the
    frame; valid nilpotent group data always passes, so the algebra is
    corrupt."""


class Poly:
    """Sparse multivariate polynomial: ``terms`` maps an exponent tuple to a
    nonzero Fraction, in the order stated in the module docstring."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple, Fraction] | None = None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _of(cls, nvars: int, terms: dict[tuple, Fraction]) -> "Poly":
        """A Poly on a dict that holds no zero, taken as it is."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

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

    def tree(self):
        """The DSL tree 0.0 + each term in dict order, a term its coefficient
        times its coordinates in index order, x^e as ``Pow`` for e >= 2."""
        total = dsl.Num(0.0)
        for k, c in self.terms.items():
            term = dsl.Num(float(c))
            for i, e in enumerate(k):
                if e:
                    x = dsl.Coord(i, f"x{i + 1}")
                    term = dsl.Bin("*", term, x if e == 1 else dsl.Pow(x, e))
            total = dsl.Bin("+", total, term)
        return total


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


# -- the integer kernel: (terms, den) pairs, see the module docstring --------

_ZERO = ({}, 1)


def _add(p: tuple, c, q: tuple) -> tuple:
    """p + c q for a rational c; on p = _ZERO it scales q term by term, and
    returns q itself for c = 1 (every kernel pair is reduced)."""
    (a, da), (b, db) = p, q
    if not b or not c:
        return p
    if not a and c == 1:
        return q
    den = lcm(da, db * c.denominator)
    fa, fb = den // da, c.numerator * (den // (db * c.denominator))
    terms = dict(a) if fa == 1 else {k: v * fa for k, v in a.items()}
    _addmul(terms, fb, b)
    return _reduced(terms, den)


def _collect(pairs, den: int) -> tuple:
    """(key, numerator) pairs over den, summed where each key first appears."""
    terms: dict = {}
    get = terms.get
    summed = False
    for key, v in pairs:
        s = get(key)
        if s is None:
            terms[key] = v
        else:
            terms[key] = s + v
            summed = True
    if summed:  # only a sum can be zero; it kept its first position until here
        terms = {k: v for k, v in terms.items() if v}
    return _reduced(terms, den)


def _mul(p: tuple, q: tuple) -> tuple:
    (a, da), (b, db) = p, q
    if len(a) == 1:  # k -> ka + k is one to one: no key meets another
        (ka, va), = a.items()
        return _reduced({ka + k: va * v for k, v in b.items()}, da * db)
    right = b.items()
    return _collect(((ka + kb, va * vb) for ka, va in a.items() for kb, vb in right), da * db)


def _diff(p: tuple, shift: int, mask: int) -> tuple:
    """d/dv for the variable v at bit ``shift``; k -> k - e_v is one to one."""
    unit = 1 << shift
    return _reduced({k - unit: v * e for k, v in p[0].items() if (e := (k >> shift) & mask)}, p[1])


def _substitute(p: tuple, n: int, width: int) -> tuple:
    """p(a, y) at (a, y) = (-x, x): c a^alpha y^beta -> (-1)^|alpha| c x^(alpha+beta)."""
    bits = n * width
    low = (1 << bits) - 1
    odd = low // ((1 << width) - 1)  # the low bit of each of a's exponents
    return _collect((((k & low) + (k >> bits), -v if (k & odd).bit_count() & 1 else v)
                     for k, v in p[0].items()), p[1])


def _bracket(alg: LieAlgebra, u: list, v: list) -> list:
    out = [_ZERO] * alg.dim
    for (i, j), comps in alg.structure.items():
        if (not u[i][0] or not v[j][0]) and (not u[j][0] or not v[i][0]):
            continue  # both products are zero
        w = _add(_mul(u[i], v[j]), -1, _mul(u[j], v[i]))
        if w[0]:
            for k, c in comps.items():
                out[k] = _add(out[k], c, w)
    return out


def _mat_mul(a: list, b: list) -> list:
    """a @ b; each entry adds its nonzero products a[i][k] b[k][j] in k order
    into one dict over their common denominator.  That dict holds the keys
    of a chain of ``_add``s, in the same order: scaling moves no key, and a
    numerator is zero exactly when its Fraction is."""
    out = []
    for row in a:
        line = []
        for j in range(len(b[0])):
            products = [_mul(entry, b[k][j]) for k, entry in enumerate(row)
                        if entry[0] and b[k][j][0]]
            den = lcm(*[d for _, d in products])
            terms: dict = {}
            for t, d in products:
                _addmul(terms, den // d, t)
            line.append(_reduced(terms, den))
        out.append(line)
    return out


def _converter(width: int):
    """convert(polys, nvars): the Polys of kernel polynomials in nvars
    variables, each exponent tuple and Fraction built once per converter."""
    mask = (1 << width) - 1
    keys: dict = {}     # nvars -> packed monomial -> exponent tuple
    values: dict = {}   # den -> numerator -> Fraction

    def convert(polys: list, nvars: int) -> list[Poly]:
        shifts = range(0, nvars * width, width)
        tuples = keys.setdefault(nvars, {})
        out = []
        for terms, den in polys:
            fractions = values.setdefault(den, {})
            mapped = {}
            for k, v in terms.items():
                if (key := tuples.get(k)) is None:
                    key = tuples[k] = tuple([(k >> s) & mask for s in shifts])
                if (c := fractions.get(v)) is None:
                    c = fractions[v] = Fraction(v, den)
                mapped[key] = c
            out.append(Poly._of(nvars, mapped))
        return out

    return convert


@cache
def _bernoulli(count: int) -> tuple[Fraction, ...]:
    """B_0 .. B_count, exact (B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, count + 1):
        b.append(-sum((comb(m + 1, k) * b[k] for k in range(m)), Fraction(0)) / (m + 1))
    return tuple(b)


def _product(alg: LieAlgebra, width: int) -> list:
    """Coordinates of x·y as kernel polynomials in (x_1..x_n, y_1..y_n)."""
    n = alg.dim
    cls = alg.nilpotency_class
    bern = _bernoulli(cls)
    xy = [({1 << (width * i): 1}, 1) for i in range(2 * n)]
    x, y = xy[:n], xy[n:]

    half_diff = [_add(_add(_ZERO, Fraction(1, 2), a), Fraction(-1, 2), b) for a, b in zip(x, y)]
    z = {1: [_add(a, 1, b) for a, b in zip(x, y)]}   # z[m] = Z_m
    t = {(0, 0): z[1]}                               # t[j, m] = T_j(m)
    for m in range(1, cls):
        for j in range(1, m + 1) if m < cls - 1 else range(2, m + 1, 2):  # odd T_j(c - 1): unread
            acc = [_ZERO] * n
            for a in range(1, m + 1):
                if (j - 1, m - a) in t:
                    br = _bracket(alg, z[a], t[j - 1, m - a])
                    acc = [_add(u, 1, v) for u, v in zip(acc, br)]
            t[j, m] = acc
        nxt = _bracket(alg, half_diff, z[m])
        for p in range(2, m + 1, 2):
            c = bern[p] / factorial(p)
            nxt = [_add(u, c, v) for u, v in zip(nxt, t[p, m])]
        c = Fraction(1, m + 1)
        z[m + 1] = [_add(_ZERO, c, u) for u in nxt]

    out = z[1]
    for m in range(2, cls + 1):
        out = [_add(u, 1, v) for u, v in zip(out, z[m])]
    return out


@dataclass(frozen=True)
class SparsePattern:
    """The nonzero entries of a square polynomial matrix P, read off its
    polynomials: ``rows[i]`` lists (k, e) for every nonzero P[i, k] and
    ``cols[j]`` every nonzero P[k, j], both in k order, with e None where the
    entry is the constant 1, else its output of ``tape`` (row-major order)."""

    rows: tuple
    cols: tuple
    tape: dsl.Tape

    @classmethod
    def of(cls, polys: list[list[Poly]]) -> "SparsePattern":
        one = {(0,) * polys[0][0].nvars: Fraction(1)}
        n = len(polys)
        live = [(i, k) for i in range(n) for k in range(n) if polys[i][k].terms not in ({}, one)]
        entry = {ik: e for e, ik in enumerate(live)}
        rows = tuple(tuple((k, entry.get((i, k))) for k in range(n) if polys[i][k].terms)
                     for i in range(n))
        cols = tuple(tuple((k, entry.get((k, j))) for k in range(n) if polys[k][j].terms)
                     for j in range(n))
        return cls(rows, cols, dsl.compile(polys[i][k].tree() for i, k in live))

    def mask(self) -> np.ndarray:
        """The boolean (n, n) matrix of the nonzero entries."""
        out = np.zeros((len(self.rows),) * 2, dtype=bool)
        for i, terms in enumerate(self.rows):
            out[i, [k for k, _ in terms]] = True
        return out


@dataclass(frozen=True, eq=False)
class GroupLaw:
    """Cached polynomial data for one algebra's simply connected group; its
    four polynomial fields become ``Poly``s on first read."""

    algebra: LieAlgebra
    _pairs: tuple = field(repr=False)       # the four fields below as kernel pairs
    _convert: Callable = field(repr=False)  # the law's one ``_converter``

    @cached_property
    def product(self) -> list[Poly]:
        """2n vars: coordinates of x·y."""
        return self._convert(self._pairs[0], 2 * self.algebra.dim)

    @cached_property
    def trans_jac(self) -> list[list[Poly]]:
        """2n vars: d(x·y)_i / d y_j."""
        return [self._convert(row, 2 * self.algebra.dim) for row in self._pairs[1]]

    @cached_property
    def frame(self) -> list[list[Poly]]:
        """n vars: trans_jac at y = 0."""
        return [self._convert(row, self.algebra.dim) for row in self._pairs[2]]

    @cached_property
    def inv_frame(self) -> list[list[Poly]]:
        """n vars: the exact inverse of frame."""
        return [self._convert(row, self.algebra.dim) for row in self._pairs[3]]

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

    # -- exact paths --------------------------------------------------------

    def multiply(self, a, b):
        """Product of two coordinate sequences; exact on ints and Fractions."""
        a, b = list(a), list(b)
        _check_length("a", len(a), self.algebra.dim)
        _check_length("b", len(b), self.algebra.dim)
        if all(isinstance(v, (int, Fraction)) for v in a + b):
            return [p.eval_exact(a + b) for p in self.product]
        return self.multiply_batch(a, b)[:, 0].tolist()

    # -- vectorized paths -----------------------------------------------------

    @cached_property
    def product_tape(self) -> dsl.Tape:
        return dsl.compile([p.tree() for p in self.product])

    def multiply_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of coordinate batches shaped (n, N); an (n,) or (n, 1)
        operand broadcasts inside the tape's elementwise ops, so each entry
        comes from the same scalars in the same order as from a broadcast
        copy.  Batches whose widths do not broadcast are refused with
        numpy's ``ValueError``, which names both shapes."""
        a, b = _as_batch(a), _as_batch(b)
        _check_length("a", a.shape[0], self.algebra.dim)
        _check_length("b", b.shape[0], self.algebra.dim)
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
        dsl.evaluate(self.product_tape, list(a) + list(b), out)
        return out

    def _product(self, pattern: SparsePattern, vals: list, stack: np.ndarray, left: bool):
        """P(vals) @ stack (``left``) or stack @ P(vals) for the polynomial matrix
        P of ``pattern`` and a sample-last stack (n, b, N) or (a, n, N) of
        matrices, computed in place: ``stack`` is overwritten with the result
        and returned.

        The pattern's tape evaluates each entry of P that is not the constant
        1 once per call, into a list; an identity P runs no tape.  Each result
        line adds its terms in k order, skipping the structural zeros of P and
        the multiplications by its constant 1s.  A line of P that is the
        identity line leaves its line of ``stack`` as it is.  Every other line
        is computed from the unmodified stack into a temporary, and the
        temporaries are written back only after the last line, so no line
        reads a value already overwritten, in whatever order the lines of P
        read each other.  P is invertible, so no line of it is empty.

        Where an evaluated entry of P is infinite or NaN, a term whose stack
        entry is exactly 0.0 is 0.0, not 0 * inf = NaN: the rule of a call's
        partials in the DSL (``dsl._Writer.call``).  Terms of finite entries
        keep their bits.  The test is the dot product v . v, finite only if
        every value is and cheaper than ``np.isfinite(v).all()``; a square
        that overflows only takes the masking path, which changes nothing
        there.

        It serves the dense public products: ``frame_batch``,
        ``inv_frame_batch`` and ``translation_jacobian_batch``, the last for
        the shift of ``maps.jacobian_batch`` and so Newton's.  The frame
        differential of ``maps.differential_batch`` runs the same rules
        entry by entry in generated code (``dsl.differential``), with these
        products as its reference in the tests.
        """
        if not pattern.tape.components:
            return stack
        entries = [None] * len(pattern.tape.components)
        dsl.evaluate(pattern.tape, vals, entries)
        view = stack if left else stack.swapaxes(0, 1)  # view[k] is line k
        done = []
        for i, terms in enumerate(pattern.rows if left else pattern.cols):
            if terms == ((i, None),):
                continue
            for t, (k, e) in enumerate(terms):
                s = view[k]
                if e is None:
                    term = s if t else s.copy()
                else:
                    v = entries[e]
                    term = s * v
                    if not isfinite(v.dot(v)):  # an exact 0 stays 0, not 0 * inf = NaN
                        term[(s == 0.0) & ~np.isfinite(v)] = 0.0
                if t:
                    line += term
                else:
                    line = term
            done.append((i, line))
        for i, line in done:
            view[i] = line
        return stack

    def frame_batch(self, coords: np.ndarray, stack: np.ndarray) -> np.ndarray:
        """stack @ F(x) for the frames F at a coordinate batch (n, N) and a
        sample-last stack (a, n, N), written over ``stack``, which is returned
        (unchanged for an identity frame); see ``_product``."""
        return self._product(self.frame_pattern, list(_as_batch(coords)), stack, left=False)

    def inv_frame_batch(self, coords: np.ndarray, stack: np.ndarray) -> np.ndarray:
        """F(x)^-1 @ stack for the inverse frames at a coordinate batch (n, N)
        and a sample-last stack (n, b, N), written over ``stack``, which is
        returned (unchanged for an identity frame); see ``_product``."""
        return self._product(self.inv_frame_pattern, list(_as_batch(coords)), stack, left=True)

    def translation_jacobian_batch(self, a, b, stack: np.ndarray) -> np.ndarray:
        """d(a·y)/dy at y = b times a sample-last stack, on the left, written
        over ``stack``, which is returned (unchanged for an abelian law); (n,)
        points broadcast against (n, N) batches.  See ``_product``."""
        a, b = np.broadcast_arrays(_as_batch(a), _as_batch(b))
        return self._product(self.trans_pattern, list(a) + list(b), stack, left=True)


_LAW_CACHE = DerivedCache("group_law")


def group_law(alg: LieAlgebra) -> GroupLaw:
    law = _LAW_CACHE.get(alg)
    if law is not None:
        return law
    n = alg.dim
    # the product has degree <= c and inv @ frame <= 2c - 2: exponents stay below 2c
    width = (2 * alg.nilpotency_class).bit_length()
    mask = (1 << width) - 1
    product = _product(alg, width)
    trans = [[_diff(p, width * (n + j), mask) for j in range(n)] for p in product]
    # frame: the y-free terms of trans_jac, whose keys are those of x alone
    frame = [[_reduced({k: v for k, v in p[0].items() if not k >> (width * n)}, p[1])
              for p in row] for row in trans]

    inv = [[_substitute(p, n, width) for p in row] for row in trans]
    for i, row in enumerate(_mat_mul(inv, frame)):
        for j, p in enumerate(row):
            if p != (({0: 1}, 1) if i == j else _ZERO):
                raise IllConditionedFrame(
                    f"inverse frame times frame is not the identity at ({i + 1}, {j + 1}): "
                    "corrupt algebra data")

    law = GroupLaw(alg, (product, trans, frame, inv), _converter(width))
    _LAW_CACHE[alg] = law
    return law
