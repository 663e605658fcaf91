"""Exact linear algebra over the rationals.

Vectors are sparse dicts from a key (a column index or a form-basis tuple)
to a nonzero ``fractions.Fraction``, the exact layer's one vector format.
Everything here is deterministic: a row's pivot is its smallest key, never
chosen by magnitude, so repeated runs (and cohomology bases) reproduce.

``Echelon`` is the one elimination routine: it keeps the reduced row echelon
form of a growing set of sparse vectors, which makes the rank, the kernel,
the pivot columns, span membership and coordinates over the inserted vectors
(an inverse, for the rows of an invertible matrix) all fall out of one
elimination.  Callers use it directly.

Dict order is part of the result: the rows, tags and residuals are the same
dicts, in the same order, on every run.  Every accumulation goes through
``_axpy``, which drops an entry the moment it cancels and appends new keys
in the order of the vector it adds, so a key that cancels and comes back
goes to the end; the group law's integer kernel (``bch._add``) sums by the
same rule.  A coefficient of +-1 adds or subtracts without a
multiplication, and a pivot of 1 is not rescaled: on the ``ring``
benchmark's pipelines, 99% of the entries ``_axpy`` adds on canonical
bases, and 76% on their dense twins, come with a coefficient of +-1, and
55% of the new rows have a pivot of 1.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

Sparse = dict  # ordered key (column index, form-basis tuple) -> nonzero Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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
    """

    def __init__(self):
        self.rows: dict = {}
        self.tags: dict = {}

    def reduce(self, v: Sparse) -> tuple[Sparse, Sparse]:
        """(residual, tag): v minus a combination of the rows, and that
        combination as a combination of tags.  The residual has no entry in a
        pivot column, and it is empty exactly when v lies in the span."""
        out = {key: x for key, x in v.items() if x}
        tag: Sparse = {}
        rows, tags = self.rows, self.tags
        # rows vanish on each other's pivots, so v's own entries there are
        # the coefficients, whatever the order of elimination
        for p, c in [(p, c) for p, c in out.items() if p in rows]:
            _axpy(out, -c, rows[p])
            _axpy(tag, c, tags[p])
        return out, tag

    def insert(self, v: Sparse, tag: Sparse | None = None) -> bool:
        """Add v (tagged ``tag``) unless it lies in the span; True if added.

        A row whose pivot entry is the Fraction 1 is stored unscaled, which
        leaves its Fraction and float entries exactly as scaling would; an
        int entry, outside the vector format, stays an int."""
        residual, used = self.reduce(v)
        if not residual:
            return False
        row_tag = dict(tag or {})
        _axpy(row_tag, -ONE, used)
        pivot = min(residual)
        row = residual
        lead = residual[pivot]
        if type(lead) is not Fraction or lead != 1:
            scale = ONE / lead
            row = {key: x * scale for key, x in residual.items()}
            row_tag = {key: x * scale for key, x in row_tag.items()}
        tags = self.tags
        for p, other in [(p, other) for p, other in self.rows.items() if pivot in other]:
            c = -other[pivot]
            _axpy(other, c, row)
            _axpy(tags[p], c, row_tag)
        self.rows[pivot] = row
        self.tags[pivot] = row_tag
        return True

    def kernel(self, columns) -> list[Sparse]:
        """Basis of the vectors x with row . x = 0 for every row: one per
        non-pivot column f of ``columns``, in their order, with x[f] = 1."""
        basis = []
        for free in columns:
            if free in self.rows:
                continue
            v = {free: ONE}
            for p, row in self.rows.items():
                if free in row:
                    v[p] = -row[free]
            basis.append(v)
        return basis


def _axpy(y: Sparse, a, x: Sparse) -> None:
    """y += a * x in place, for a nonzero a and an x that holds no zero.

    An entry that cancels is deleted at once; a new key goes to the end of
    y, in x's order.  A Fraction a of 1 or -1 adds or subtracts x's values
    as they are; any other a (a float or an int, from ``reduce`` of such a
    vector) multiplies them first.
    """
    if not x:
        return
    negate = type(a) is Fraction and a == -1
    if not negate and (type(a) is not Fraction or a != 1):
        x = {key: a * xv for key, xv in x.items()}
    combine = sub if negate else add
    get = y.get
    for key, xv in x.items():
        s = get(key)
        if s is None:
            y[key] = -xv if negate else xv
        elif s := combine(s, xv):
            y[key] = s
        else:
            del y[key]
