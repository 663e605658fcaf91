"""Exterior cochains on a Lie algebra and the Chevalley-Eilenberg differential.

A k-form is stored sparsely on the lexicographic basis of strictly
increasing index tuples, with the determinant normalization: the wedge of
basis covectors ``e_I* ^ e_J*`` has coefficient 1 (the alternation
projector times the (m+n)!/(m!n!) factor collapses to a shuffle sign).

Coefficients may be exact ``Fraction``s (all algebraic paths) or floats
(Monte Carlo averages); the operations are generic over both.

The differential d_k is built in one place, as sparse rows of int
numerators over one denominator straight from the algebra's integer table
of structure constants (``LieAlgebra._integer_structure``, which the
bracket reads too), once per algebra and degree: ``cohomology`` eliminates
those integer rows, and ``ce_differential`` applies them as Fractions to a
form's coefficients, rational or float.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import exactlinalg as xl
from .algebra import DerivedCache, LieAlgebra
from .rng import _is_integer

Index = tuple[int, ...]


def sort_with_sign(indices: tuple[int, ...]) -> tuple[Index, int] | None:
    """Sort an index tuple, returning (sorted_tuple, permutation_sign);
    None if any index repeats."""
    idx = list(indices)
    sign = 1
    # insertion sort; counts inversions exactly
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return tuple(idx), sign


def basis_tuples(dim: int, degree: int) -> list[Index]:
    """All strictly increasing index tuples, lexicographically ordered."""
    return list(combinations(range(dim), degree))


@dataclass(frozen=True)
class KForm:
    """A degree-k alternating form; ``coeffs`` maps increasing tuples to
    nonzero coefficients and is never mutated after construction."""

    algebra: LieAlgebra
    degree: int
    coeffs: dict[Index, object]

    def __post_init__(self):
        n = self.algebra.dim
        if self.degree < 0:
            raise ValueError("form degree must be >= 0")
        if self.degree > n and self.coeffs:
            raise ValueError(f"nonzero form of degree {self.degree} on dim-{n} algebra")
        for key in self.coeffs:
            if len(key) != self.degree or not all(_is_integer(i) and 0 <= i < n for i in key):
                raise ValueError(f"bad index tuple {key} for degree {self.degree}")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"index tuple {key} is not strictly increasing")

    def __call__(self, indices: tuple[int, ...]):
        """Evaluate on a basis tuple in any order (0 on repeats)."""
        ss = sort_with_sign(indices)
        if ss is None:
            return 0
        key, sign = ss
        c = self.coeffs.get(key)
        return 0 if c is None else sign * c

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "KForm") -> "KForm":
        if other.algebra is not self.algebra or other.degree != self.degree:
            raise ValueError("can only add forms of the same degree on the same algebra")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return KForm(self.algebra, self.degree, _drop_zeros(out))

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scale(-1)

    def scale(self, a) -> "KForm":
        if not a:
            return KForm(self.algebra, self.degree, {})
        return KForm(self.algebra, self.degree, {k: a * c for k, c in self.coeffs.items()})

    def vector(self) -> list:
        """Dense coefficient vector over the lexicographic tuple basis."""
        tuples = basis_tuples(self.algebra.dim, self.degree)
        return [self.coeffs.get(t, Fraction(0)) for t in tuples]

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = self.algebra.basis_names
        terms = []
        for key in sorted(self.coeffs):
            mono = "^".join(f"{names[i]}*" for i in key) if key else "1"
            terms.append(f"({self.coeffs[key]})·{mono}")
        return " + ".join(terms)


def _drop_zeros(coeffs: dict) -> dict:
    return {k: c for k, c in coeffs.items() if c}


def unit_form(alg: LieAlgebra):
    """The constant 0-form 1."""
    return KForm(alg, 0, {(): Fraction(1)})


def basis_covector(alg: LieAlgebra, i: int) -> KForm:
    return KForm(alg, 1, {(i,): Fraction(1)})


def basis_form(alg: LieAlgebra, indices: Index) -> KForm:
    ss = sort_with_sign(indices)
    if ss is None:
        return KForm(alg, len(indices), {})
    key, sign = ss
    return KForm(alg, len(indices), {key: Fraction(sign)})


def volume_form(alg: LieAlgebra) -> KForm:
    return basis_form(alg, tuple(range(alg.dim)))


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; graded commutative, determinant-normalized."""
    if a.algebra is not b.algebra:
        raise ValueError("wedge requires forms on the same algebra")
    degree = a.degree + b.degree
    if degree > a.algebra.dim:
        return KForm(a.algebra, degree, {})
    return KForm(a.algebra, degree, _wedge_coeffs(a.coeffs, b.coeffs))


def _wedge_coeffs(a: dict, b: dict) -> dict:
    """The coefficients of a ^ b from those of a and b, no zero kept.

    Keys appear in the order of their first term; a coefficient that cancels
    keeps its place until the zeros are dropped at the end."""
    out: dict[Index, object] = {}
    get = out.get
    for left, ca in a.items():
        lset = set(left)
        for right, cb in b.items():
            if not lset.isdisjoint(right):
                continue
            key, sign = sort_with_sign(left + right)
            term = ca * cb if sign > 0 else -(ca * cb)
            s = get(key)
            out[key] = term if s is None else s + term
    return _drop_zeros(out)


def parse_form(text: str, alg: LieAlgebra) -> KForm:
    """Parse a form expression over the algebra's basis covector names.

    ``^`` and ``*`` both wedge (scalars are 0-forms, so scalar multiples work
    out), ``/`` divides by a scalar, ``+``/``-`` add; numeric literals are
    exact (decimals become exact rationals).  Example: "e1^e2 - 1/2*e3^e4".
    The constant "1" is the unit 0-form.
    """
    from . import dsl

    tokens = dsl.tokenize(text)
    by_name = {name: i for i, name in enumerate(alg.basis_names)}
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        if tok is not None:
            pos += 1
        return tok

    def expect_op(op):
        tok = take()
        if tok is None or tok.kind != "op" or tok.text != op:
            where = tok.pos if tok is not None else len(text) + 1
            raise dsl.ParseError(f"expected {op!r}", where, (op,))

    def parse_sum():
        node = parse_product()
        while True:
            tok = peek()
            if tok is None or tok.kind != "op" or tok.text not in ("+", "-"):
                return node
            take()
            rhs = parse_product()
            node = node + (rhs if tok.text == "+" else rhs.scale(-1))

    def parse_product():
        node = parse_atom()
        while True:
            tok = peek()
            if tok is None or tok.kind != "op" or tok.text not in ("^", "*", "/"):
                return node
            take()
            rhs = parse_atom()
            if tok.text == "/":
                if rhs.degree != 0:
                    raise dsl.ParseError("can only divide by a scalar", tok.pos)
                c = rhs.coeffs.get((), Fraction(0))
                if not c:
                    raise dsl.ParseError("division by zero", tok.pos)
                node = node.scale(Fraction(1) / c)
            else:
                node = wedge(node, rhs)

    def parse_atom():
        tok = take()
        if tok is None:
            raise dsl.ParseError("unexpected end of input", len(text) + 1, ("form",))
        if tok.kind == "op" and tok.text == "-":
            return parse_atom().scale(-1)
        if tok.kind == "op" and tok.text == "+":
            return parse_atom()
        if tok.kind == "op" and tok.text == "(":
            inner = parse_sum()
            expect_op(")")
            return inner
        if tok.kind == "number":
            return KForm(alg, 0, {(): Fraction(tok.text)})
        if tok.kind == "ident":
            if tok.text not in by_name:
                raise dsl.UnknownSymbolError(
                    f"unknown basis covector {tok.text!r}", tok.pos
                )
            return basis_covector(alg, by_name[tok.text])
        raise dsl.ParseError(f"unexpected {tok.text!r}", tok.pos, ("form",))

    result = parse_sum()
    tok = peek()
    if tok is not None:
        raise dsl.ParseError(f"unexpected {tok.text!r}", tok.pos)
    return result


_ROWS_CACHE = DerivedCache("differential_rows")


def _differential_rows(alg: LieAlgebra, k: int) -> dict[Index, xl.Sparse]:
    """Sparse d_k by rows: {(k+1)-tuple T: {k-tuple S: (d e_S*)(e_T)}}.

    Built on first request and kept per algebra and degree; callers share
    the dicts and must not mutate them.
    """
    by_degree = _ROWS_CACHE.setdefault(alg, {})
    rows = by_degree.get(k)
    if rows is None:
        rows = by_degree[k] = _build_differential_rows(alg, k)
    return rows


def _build_differential_rows(alg: LieAlgebra, k: int) -> dict[Index, xl.Sparse]:
    """The rows of ``_differential_rows``: those of
    ``_integer_differential_rows`` as Fractions, item for item."""
    rows, den = _integer_differential_rows(alg, k)
    return {target: xl._fractions(row, den) for target, row in rows.items()}


def _integer_differential_rows(alg: LieAlgebra, k: int) -> tuple[dict[Index, dict], int]:
    """d_k by rows as int numerators over one denominator, that of the
    algebra's integer table (``LieAlgebra._integer_structure``), in one
    sweep over the (k+1)-tuples: each pair a < b of T with a nonzero bracket [e_{T_a}, e_{T_b}] = sum_m c_m e_m
    adds (-1)^(a+b) c_m, times the sign that sorts (m,) + rest, at
    S = sorted((m,) + rest), where rest is T without T_a and T_b.  Only
    nonzero entries and rows are kept; as in ``wedge``, an entry that
    cancels keeps its place until the zeros of its row are dropped.
    ``cohomology`` eliminates these rows; each call builds them anew.
    """
    structure, den = alg._integer_structure
    rows: dict[Index, dict] = {}
    for target in basis_tuples(alg.dim, k + 1):
        row: dict = {}
        get = row.get
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                comps = structure.get((target[a], target[b]))
                if not comps:
                    continue
                rest = target[:a] + target[a + 1 : b] + target[b + 1 :]
                odd = (a + b) & 1
                for m, c in comps.items():
                    # (m,) + rest sorts by moving m past the i entries below it
                    i = bisect_left(rest, m)
                    if i < len(rest) and rest[i] == m:
                        continue
                    key = rest[:i] + (m,) + rest[i:]
                    term = -c if (i + odd) & 1 else c
                    s = get(key)
                    row[key] = term if s is None else s + term
        row = {key: c for key, c in row.items() if c}
        if row:
            rows[target] = row
    return rows, den


def ce_differential(f: KForm) -> KForm:
    """Chevalley-Eilenberg differential with trivial coefficients:

        df(X_1, ..., X_{k+1}) = sum_{a<b} (-1)^{a+b} f([X_a, X_b], ..., ^a, ..., ^b, ...)

    The rows of d_k applied to the coefficients: exact for rational forms,
    applied coefficient-wise to float forms.  The rows are built once per
    algebra and degree (``_differential_rows``) and shared with
    ``cohomology``.
    """
    out: dict[Index, object] = {}
    for target, row in _differential_rows(f.algebra, f.degree).items():
        total = 0
        for key, c in row.items():
            val = f.coeffs.get(key)
            if val:
                total = total + c * val
        if total:
            out[target] = total
    return KForm(f.algebra, f.degree + 1, out)
