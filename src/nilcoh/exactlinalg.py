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
"""

from __future__ import annotations

from fractions import Fraction

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
        # rows vanish on each other's pivots, so v's own entries there are
        # the coefficients, whatever the order of elimination
        for p, c in [(p, c) for p, c in out.items() if p in self.rows]:
            _axpy(out, -c, self.rows[p])
            _axpy(tag, c, self.tags[p])
        return out, tag

    def insert(self, v: Sparse, tag: Sparse | None = None) -> bool:
        """Add v (tagged ``tag``) unless it lies in the span; True if added."""
        residual, used = self.reduce(v)
        if not residual:
            return False
        row_tag = dict(tag or {})
        _axpy(row_tag, -ONE, used)
        pivot = min(residual)
        scale = ONE / residual[pivot]
        row = {key: x * scale for key, x in residual.items()}
        row_tag = {key: x * scale for key, x in row_tag.items()}
        for p, other in self.rows.items():
            c = other.get(pivot)
            if c:
                _axpy(other, -c, row)
                _axpy(self.tags[p], -c, row_tag)
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
                c = row.get(free)
                if c:
                    v[p] = -c
            basis.append(v)
        return basis


def _axpy(y: Sparse, a: Fraction, x: Sparse) -> None:
    """y += a * x in place, dropping entries that cancel."""
    for key, xv in x.items():
        s = y.get(key, ZERO) + a * xv
        if s:
            y[key] = s
        else:
            y.pop(key, None)
