"""Exact linear algebra over the rationals.

Vectors handed in and out are sparse dicts from a key (a column index or a
form-basis tuple) to a nonzero ``fractions.Fraction``, the exact layer's one
vector format.
Everything here is deterministic: a row's pivot is its smallest key, never
chosen by magnitude, so repeated runs (and cohomology bases) reproduce.

``Echelon`` is the one elimination routine: it keeps the reduced row echelon
form of a growing set of sparse vectors, which makes the rank, the kernel,
the pivot columns, span membership and coordinates over the inserted vectors
(an inverse, for the rows of an invertible matrix) all fall out of one
elimination.  Callers use it directly.

Inside ``Echelon`` a vector is a pair (terms, den): a dict from the same
keys to nonzero int numerators over one positive int denominator, reduced
by a single ``math.gcd`` over the vector after each operation (``_reduced``,
shared with the group law's kernel in ``bch``), so an elimination runs
without a gcd per entry (cf. Bareiss, Math. Comp. 22, 1968).  Every row,
tag, residual and kernel vector is such a pair, and Fractions are built
only where a result is handed out: ``reduce``'s residual and tag,
``kernel``'s vectors and the read-only ``rows`` and ``tags`` views.  The
library's own callers pass pairs straight through the pair methods
``_reduce``, ``_insert`` and ``_kernel``: ``cohomology`` eliminates d_k's
integer rows and builds Fractions only for representatives, the closed
basis and cup entries handed out; the cup pairings insert the cup table's
pairs, ``pullback`` reads them as floats, and the lower central series
inserts and probes its brackets as pairs.  ``insert`` and ``reduce`` take
only Fraction entries, and refuse any other by method and key: float
vectors are projected by least squares (``CohomologySpace.project_float``),
never eliminated.  An echelon that has never been given a tag holds only
empty tags and skips their arithmetic.

One accumulation serves the whole exact layer: ``_addmul`` adds a multiple
of one numerator dict to another, for the echelon, the bracket and the
Jacobi check in ``algebra`` and the group law's integer kernel
(``bch._add``).  Dict order is part of the result: the rows, tags and
residuals are the same dicts, in the same order, on every run.
``_addmul`` drops an entry the moment it cancels and appends new keys in
the order of the vector it adds, so a key that cancels and comes back goes
to the end.  Bringing two numerator dicts to one denominator scales values
in place and moves no key, and a numerator is zero exactly when its
Fraction is, so every pair holds the keys of Fraction arithmetic, in the
same order.  A pivot of 1 is not rescaled.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

Sparse = dict  # ordered key (column index, form-basis tuple) -> nonzero Fraction
Pair = tuple   # (ordered key -> nonzero int, positive int denominator), reduced

ZERO = Fraction(0)


class Echelon:
    """Reduced row echelon form of a growing set of sparse rational vectors.

    ``rows`` maps each pivot column to its row: the pivot is the row's
    smallest key, with coefficient 1, and no other row has an entry in that
    column.  That form is unique, so whatever order vectors are inserted in,
    ``rows`` is the RREF of their span, ``len(rows)`` its rank, and
    ``kernel`` the right nullspace of the matrix they are the rows of, one
    vector per free column as in the usual RREF construction.

    Each row also carries a *tag*: a sparse combination of the tags given to
    the inserted vectors, equal to the row as they combine the vectors.
    Reducing a vector of the span then yields its coordinates over the
    tagged vectors (untagged vectors contribute no coordinate).

    ``rows`` and ``tags`` are read-only views that build each Fraction dict
    when it is read; the pairs behind them are kept in ``_rows`` and ``_tags``.
    """

    def __init__(self):
        self._rows: dict = {}  # pivot -> (terms, den), terms[pivot] == den
        self._tags: dict = {}  # pivot -> (terms, den)
        self._tagged = False  # until a tag is given, every tag is empty
        self.rows = _Fractions(self._rows)
        self.tags = _Fractions(self._tags)

    def reduce(self, v: Sparse) -> tuple[Sparse, Sparse]:
        """(residual, tag): v minus a combination of the rows, and that
        combination as a combination of tags.  The residual has no entry in a
        pivot column, and it is empty exactly when v lies in the span.

        v takes Fraction entries only; TypeError names the first other."""
        residual, tag = self._reduce(*_exact(v, "Echelon.reduce", "vector"))
        return _fractions(*residual), _fractions(*tag)

    def insert(self, v: Sparse, tag: Sparse | None = None) -> bool:
        """Add v (tagged ``tag``) unless it lies in the span; True if added.

        Both take Fraction entries only; TypeError names the first other."""
        return self._insert(*_exact(v, "Echelon.insert", "vector"),
                            _exact(tag, "Echelon.insert", "tag") if tag else None)

    def kernel(self, columns) -> list[Sparse]:
        """Basis of the vectors x with row . x = 0 for every row: one per
        non-pivot column f of ``columns``, in their order, with x[f] = 1."""
        return [_fractions(*pair) for pair in self._kernel(columns)]

    # -- the same on (terms, den) pairs --------------------------------------

    def _reduce(self, terms: dict, den: int) -> tuple[Pair, Pair]:
        """``reduce`` of the pair (terms, den), left as it is; the residual
        and the tag come as pairs."""
        rows = self._rows
        # rows vanish on each other's pivots, so v's own entries there are
        # the coefficients, whatever the order of elimination
        hits = [(p, c) for p, c in terms.items() if p in rows]
        out = dict(terms)
        if not hits:
            return _reduced(out, den), ({}, 1)
        # v - sum (c/den) row/d over den * lcm(d), and the tag likewise
        m = lcm(*[rows[p][1] for p, _ in hits])
        if m != 1:
            for key in out:
                out[key] *= m
        for p, c in hits:
            row, d = rows[p]
            _addmul(out, -c * (m // d), row)
        if not self._tagged:
            return _reduced(out, den * m), ({}, 1)
        tags = self._tags
        m_tag = lcm(*[tags[p][1] for p, _ in hits])
        tag: dict = {}
        for p, c in hits:
            t, dt = tags[p]
            _addmul(tag, c * (m_tag // dt), t)
        return _reduced(out, den * m), _reduced(tag, den * m_tag)

    def _insert(self, terms: dict, den: int, tag: Pair | None = None) -> bool:
        """``insert`` of the pair (terms, den), tagged by the pair ``tag``."""
        (row, d), (used, du) = self._reduce(terms, den)
        if not row:
            return False
        # the row's tag: tag - used
        if tag is None:
            row_tag, dt = {key: -x for key, x in used.items()}, du
        else:
            self._tagged = True
            given, dg = tag
            dt = lcm(dg, du)
            row_tag = {key: x * (dt // dg) for key, x in given.items()}
            _addmul(row_tag, -(dt // du), used)
        pivot = min(row)
        lead = row[pivot]
        if lead != d:  # scale the row and its tag by d / lead, so the pivot is 1
            if lead < 0:
                row = {key: -x for key, x in row.items()}
                lead, d = -lead, -d
            row_tag = {key: x * d for key, x in row_tag.items()}
            row, d = _reduced(row, lead)
            dt *= lead
        row_tag, dt = _reduced(row_tag, dt)
        rows, tags = self._rows, self._tags
        for p, (other, do) in [(p, pair) for p, pair in rows.items() if pivot in pair[0]]:
            # other/do - (c/do) row/d = (d other - c row) / (do d)
            c = other[pivot]
            if d != 1:
                for key in other:
                    other[key] *= d
            _addmul(other, -c, row)
            rows[p] = _reduced(other, do * d)
            if row_tag:
                # t/dto - (c/do) row_tag/dt over lcm(dto, do dt)
                t, dto = tags[p]
                common = lcm(dto, do * dt)
                if common != dto:
                    for key in t:
                        t[key] *= common // dto
                _addmul(t, -c * (common // (do * dt)), row_tag)
                tags[p] = _reduced(t, common)
        rows[pivot] = (row, d)
        tags[pivot] = (row_tag, dt)
        return True

    def _kernel(self, columns) -> list[Pair]:
        """``kernel`` as pairs."""
        basis = []
        rows = self._rows
        for free in columns:
            if free in rows:
                continue
            hits = [(p, row[free], d) for p, (row, d) in rows.items() if free in row]
            den = lcm(*[d for _, _, d in hits])
            v = {free: den}
            for p, c, d in hits:
                v[p] = -c * (den // d)
            basis.append(_reduced(v, den))
        return basis


class _Fractions(Mapping):
    """Read-only view of a dict of pairs, each read as a Fraction dict."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: dict):
        self._pairs = pairs

    def __getitem__(self, key) -> Sparse:
        return _fractions(*self._pairs[key])

    def __contains__(self, key) -> bool:
        return key in self._pairs

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)


def _reduced(terms: dict, den: int) -> Pair:
    """(terms, den) divided by the gcd of den and every numerator."""
    g = 1 if den == 1 else gcd(den, *terms.values())
    return (terms, den) if g == 1 else ({k: v // g for k, v in terms.items()}, den // g)


def _exact(v: Sparse, method: str, what: str) -> Pair:
    """The pair of a {key: Fraction} vector, zeros dropped, in its order;
    TypeError naming ``method``, the argument ``what`` and the first entry
    that is not a Fraction."""
    den = 1
    for key, x in v.items():
        if type(x) is not Fraction:
            raise TypeError(f"{method} takes Fraction entries: {what} entry {key!r} is "
                            f"{type(x).__name__} {x!r}")
        if (d := x.denominator) != 1:
            den = lcm(den, d)
    if den == 1:
        return {key: x.numerator for key, x in v.items() if x}, 1
    return {key: x.numerator * (den // x.denominator) for key, x in v.items() if x}, den


def _fractions(terms: dict, den: int) -> Sparse:
    """The Fraction dict of a pair, in its order."""
    if den == 1:
        return {key: Fraction(x) for key, x in terms.items()}
    return {key: Fraction(x, den) for key, x in terms.items()}


def _addmul(y: dict, a: int, x: dict) -> None:
    """y += a * x in place, for numerator dicts over one denominator and a
    nonzero int a.  An entry that cancels is deleted at once; a new key goes
    to the end of y, in x's order."""
    get = y.get
    for key, xv in x.items():
        s = get(key)
        if s is None:
            y[key] = a * xv
        elif s := s + a * xv:
            y[key] = s
        else:
            del y[key]
