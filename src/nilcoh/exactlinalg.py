"""Exact linear algebra over the rationals.

The exact layer hands vectors out as sparse dicts from a key (a column
index or a form-basis tuple) to a nonzero ``fractions.Fraction``, its one
vector format.  Inside, a vector is a pair (terms, den): a dict from the
same keys to nonzero int numerators over one positive int denominator,
reduced by a single ``math.gcd`` over the vector after each operation
(``_reduced``, shared with the group law's kernel in ``bch``), so an
elimination runs without a gcd per entry (cf. Bareiss, Math. Comp. 22,
1968).  ``_exact`` and ``_fractions`` convert between the two at the edge
where a vector is taken in or handed out; ``_exact`` takes Fraction entries
only and refuses any other by method and key (``LieAlgebra.bracket``,
``CohomologySpace.project``).
Everything here is deterministic: a row's pivot is its smallest key, never
chosen by magnitude, so repeated runs (and cohomology bases) reproduce.

``Echelon`` is the one elimination routine: it keeps the reduced row echelon
form of a growing set of sparse vectors, which makes the rank, the kernel,
the pivot columns, span membership and coordinates over the inserted vectors
(an inverse, for the rows of an invertible matrix) all fall out of one
elimination.  Its one interface is on pairs: ``insert``, ``reduce`` and
``kernel`` take and give pairs, and ``rows`` and ``tags`` hold them.
``cohomology`` eliminates d_k's integer rows and keeps the representatives,
the coboundaries and the cup entries as pairs, building Fractions only when
``representatives``, ``closed_basis`` or a cup entry is first read; the cup
pairings insert the cup table's pairs, and the lower central series inserts
and probes its brackets as pairs.  Float vectors are projected by
least squares (``CohomologySpace.project_float``), never eliminated.  An
echelon that has never been given a tag holds only empty tags and skips
their arithmetic.

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

from fractions import Fraction
from math import gcd, lcm

Sparse = dict  # ordered key (column index, form-basis tuple) -> nonzero Fraction
Pair = tuple   # (ordered key -> nonzero int, positive int denominator), reduced

ZERO = Fraction(0)


class Echelon:
    """Reduced row echelon form of a growing set of sparse rational vectors,
    each given as a pair (terms, den).

    ``rows`` maps each pivot column to its row, a pair: the pivot is the
    row's smallest key, with coefficient 1, and no other row has an entry in
    that column.  That form is unique, so whatever order vectors are
    inserted in, ``rows`` is the RREF of their span, ``len(rows)`` its rank,
    and ``kernel`` the right nullspace of the matrix they are the rows of,
    one vector per free column as in the usual RREF construction.

    Each row also carries a *tag* in ``tags``, a pair: a sparse combination
    of the tags given to the inserted vectors, equal to the row as they
    combine the vectors.  Reducing a vector of the span then yields its
    coordinates over the tagged vectors (untagged vectors contribute no
    coordinate).  ``rows`` and ``tags`` are read, never written, by callers.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot -> (terms, den), terms[pivot] == den
        self.tags: dict = {}  # pivot -> (terms, den)
        self._tagged = False  # until a tag is given, every tag is empty

    def reduce(self, terms: dict, den: int) -> tuple[Pair, Pair]:
        """(residual, tag) of the vector terms / den, left as it is: the
        vector minus a combination of the rows, and that combination as a
        combination of tags, both pairs.  The residual has no entry in a
        pivot column, and it is empty exactly when the vector lies in the
        span."""
        rows = self.rows
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
        tags = self.tags
        m_tag = lcm(*[tags[p][1] for p, _ in hits])
        tag: dict = {}
        for p, c in hits:
            t, dt = tags[p]
            _addmul(tag, c * (m_tag // dt), t)
        return _reduced(out, den * m), _reduced(tag, den * m_tag)

    def insert(self, terms: dict, den: int, tag: Pair | None = None) -> bool:
        """Add the vector terms / den, tagged by the pair ``tag``, unless it
        lies in the span; True if added."""
        (row, d), (used, du) = self.reduce(terms, den)
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
        rows, tags = self.rows, self.tags
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

    def kernel(self, columns) -> list[Pair]:
        """Basis of the vectors x with row . x = 0 for every row, as pairs:
        one per non-pivot column f of ``columns``, in their order, with
        x[f] = 1."""
        basis = []
        rows = self.rows
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
