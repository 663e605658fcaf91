"""Cohomology of the Chevalley-Eilenberg complex, with cup products.

Everything but the float projection is exact rational linear algebra.  It
runs on ``exactlinalg``'s integer pairs (a dict of int numerators over one
denominator), the one format ``Echelon`` takes, gives and holds.  Each
space keeps its representatives and coboundaries as those pairs and builds
the ``{key: Fraction}`` dicts of ``representatives`` and ``closed_basis``
on first read, as the cup table does its entries.  Each degree k is
eliminated once: d_k comes as integer rows from ``forms`` (the rows
``ce_differential`` applies, as Fractions), and its reduced row echelon form
gives both ker d_k (one basis vector per free column, over the
lexicographic wedge basis) and the pivot columns whose images span the
coboundaries of degree k+1.  Representatives are chosen deterministically:
an incremental echelon takes the coboundaries first, then the cocycles in
kernel order, and a cocycle becomes a representative exactly when it is
independent modulo what came before.  Its terms are kept in basis order,
the order pullback sums them in.

Class coordinates come by reduction: each echelon row records its
combination of the columns of A = [representatives | coboundaries], so
reducing a closed form yields its sparse coordinates in the representative
basis exactly; dense lists are built only where they are handed out.
``project`` takes Fraction coefficients only and refuses a float form,
whose one path is the least-squares ``project_float``.  Two
things are computed only when first asked for, then kept: A in floats with
its pseudo-inverse, the one least-squares operator that Monte Carlo averages
of nearly-closed float forms need, and each entry of the cup table, which
reduces the wedge of two representatives' integer pairs with no form built
(a zero wedge, most entries on larger algebras, is not reduced) and is kept
as a pair: the cup pairings insert it as it is, and ``pullback`` reads its
coefficients as floats.

Cup pairing ranks use the weights when the basis is graded (c_ij^k != 0
only where w_k = w_i + w_j, ``LieAlgebra.is_graded``).  Then d_k preserves
weight, each representative lies in one weight, and a cup product's class
lies in the sum of its factors' weights.  So the pairing H^k x H^l ->
H^{k+l} splits into one block per target weight: pairs whose target
weight holds no class are zero and skipped, each block stops at the number
of classes of its weight, and the rank is the sum of the block ranks.  On
a basis that is not graded every class has weight 0, and all pairs go
through one echelon.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exactlinalg as xl
from . import rng
from .algebra import DerivedCache, LieAlgebra
from .forms import KForm, _integer_differential_rows, _wedge_coeffs, basis_tuples


class DegreeOverflow(ValueError):
    """Cup product requested beyond the top degree."""


@dataclass(frozen=True)
class CohomologySpace:
    """Degree-k cohomology data of ``algebra``: Betti number, representative
    forms, and the closed subspace ker d_k, whose echelon reduces closed
    forms to class coordinates."""

    algebra: LieAlgebra = field(repr=False)
    degree: int
    betti: int
    rep_pairs: tuple[xl.Pair, ...]  # the representatives, keys in basis order
    coboundary_pairs: tuple[xl.Pair, ...]  # with rep_pairs, spanning ker d_k
    echelon: xl.Echelon = field(repr=False, compare=False)  # pair rows tagged by rep coordinates

    @cached_property
    def representatives(self) -> tuple[KForm, ...]:
        """The representative forms, with Fraction coefficients."""
        return tuple(KForm(self.algebra, self.degree, xl._fractions(*p)) for p in self.rep_pairs)

    @cached_property
    def closed_basis(self) -> list[xl.Sparse]:
        """Sparse columns spanning ker d_k: representatives then coboundaries."""
        return ([rep.coeffs for rep in self.representatives]
                + [xl._fractions(*p) for p in self.coboundary_pairs])

    def _coordinates(self, form: KForm) -> xl.Sparse:
        """Sparse class coordinates {representative index: Fraction} of a
        closed form with Fraction coefficients."""
        if form.algebra is not self.algebra:
            raise ValueError(f"form lives on another algebra than this degree-{self.degree} space")
        if form.degree != self.degree:
            self._not_closed(form.degree)
        try:
            pair = xl._exact(form.coeffs, "CohomologySpace.project", "form")
        except TypeError as e:
            raise TypeError(f"{e}; project_float projects float coefficient vectors") from None
        return xl._fractions(*self._reduce(*pair))

    def _reduce(self, terms: dict, den: int) -> xl.Pair:
        """Class coordinates, as a pair, of the closed form of this degree
        with coefficients terms / den."""
        residual, coords = self.echelon.reduce(terms, den)
        if residual[0]:
            self._not_closed(self.degree)
        return coords

    def _not_closed(self, degree: int):
        raise ValueError(f"form of degree {degree} is not a closed degree-{self.degree} form")

    def _dense(self, coords: xl.Sparse) -> list[Fraction]:
        return [coords.get(i, xl.ZERO) for i in range(self.betti)]

    def project(self, form: KForm) -> list[Fraction]:
        """Exact class coordinates of a closed form with Fraction coefficients.

        Raises ValueError unless it is a closed degree-k form of this algebra,
        and TypeError for a float form: ``project_float`` projects those."""
        return self._dense(self._coordinates(form))

    @cached_property
    def _least_squares(self) -> tuple[np.ndarray, np.ndarray]:
        """A = [reps | coboundaries] as a C(n,k) x dim ker d_k float matrix, and
        its pseudo-inverse.  A has full column rank, so A^+ = (A^T A)^{-1} A^T
        and A^+ v holds the coordinates of the closed vector nearest to v
        (Golub-Van Loan, Matrix Computations, 4th ed., 5.5).  ker d_k is never
        0 (b_k >= 1 for nilpotent algebras), so A has at least one column."""
        basis = basis_tuples(self.algebra.dim, self.degree)
        a = np.array([[float(col.get(t, 0)) for t in basis] for col in self.closed_basis]).T
        return a, np.linalg.pinv(a)

    def _fit(self, vec) -> tuple[np.ndarray, np.ndarray]:
        """(v, A^+ v) for a dense float coefficient vector v of degree k."""
        a, pinv = self._least_squares
        v = np.asarray(vec, dtype=float)
        if v.shape != (a.shape[0],):
            raise ValueError(
                f"a degree-{self.degree} coefficient vector has C(n, {self.degree}) = "
                f"{a.shape[0]} entries, got shape {v.shape}"
            )
        return v, pinv @ v

    def project_float(self, vec) -> list[float]:
        """Class coordinates of the closed form nearest to a dense float
        coefficient vector: exact coordinates (up to rounding) for closed
        vectors, and Monte Carlo noise off ker d is discarded, not amplified."""
        _, coords = self._fit(vec)
        return coords[: self.betti].tolist()

    def closed_residual(self, vec) -> float:
        """max |v - A A^+ v|: the size of the part of v off ker d_k."""
        return self._class_fit(vec)[1]

    def _class_fit(self, vec) -> tuple[list[float], float]:
        """``project_float`` and ``closed_residual`` of one vector from one
        fit: the class coordinates and max |v - A A^+ v|, both read from the
        one A^+ v."""
        v, coords = self._fit(vec)
        return (coords[: self.betti].tolist(),
                float(np.max(np.abs(v - self._least_squares[0] @ coords))))


class CupTable(Mapping):
    """Read-only cup table: ``(k, l, i, j)`` -> class coordinates of
    rep_i^k ^ rep_j^l in degree k+l, for k + l <= n, i < b_k and j < b_l.

    An entry is computed when first requested, then kept; iterating the
    table computes every entry.
    """

    def __init__(self, spaces: tuple[CohomologySpace, ...]):
        self._spaces = spaces
        self._values: dict[tuple[int, int, int, int], xl.Pair] = {}

    def _pair(self, key) -> xl.Pair:
        """Class coordinates of the entry at ``key`` as a (terms, den) pair,
        kept once computed."""
        value = self._values.get(key)
        if value is None:
            if key not in self:
                raise KeyError(key)
            k, l, i, j = key
            a, da = self._spaces[k].rep_pairs[i]
            b, db = self._spaces[l].rep_pairs[j]
            wedge = _wedge_coeffs(a, b)
            # a zero wedge has no coordinates: nothing to reduce
            value = self._spaces[k + l]._reduce(wedge, da * db) if wedge else ({}, 1)
            self._values[key] = value
        return value

    def _coordinates(self, key) -> xl.Sparse:
        """Sparse class coordinates {representative index: Fraction} of the
        entry at ``key``."""
        return xl._fractions(*self._pair(key))

    def __getitem__(self, key) -> list[Fraction]:
        coords = self._coordinates(key)  # first, so a bad key raises KeyError
        return self._spaces[key[0] + key[1]]._dense(coords)

    def __contains__(self, key) -> bool:
        if not (isinstance(key, tuple) and len(key) == 4):
            return False
        k, l, i, j = key
        return (
            0 <= k
            and 0 <= l
            and k + l < len(self._spaces)
            and 0 <= i < self._spaces[k].betti
            and 0 <= j < self._spaces[l].betti
        )

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        top = len(self._spaces)
        for k in range(top):
            for l in range(top - k):
                for i in range(self._spaces[k].betti):
                    for j in range(self._spaces[l].betti):
                        yield (k, l, i, j)

    def __len__(self) -> int:
        top = len(self._spaces)
        return sum(
            self._spaces[k].betti * self._spaces[l].betti
            for k in range(top)
            for l in range(top - k)
        )


@dataclass(frozen=True)
class CohomologyRing:
    algebra: LieAlgebra
    spaces: tuple[CohomologySpace, ...]
    cup: CupTable

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(s.betti for s in self.spaces)

    @cached_property
    def _weights(self) -> tuple[tuple[int, ...], ...]:
        """Per degree, the weight of each representative.  On a graded basis
        d_k preserves weight, so its echelon rows, kernel vectors and so the
        representatives each lie in one weight, the sum of the weights of
        any of its keys, read from its pair.  On any other basis every class
        gets weight 0."""
        if not self.algebra.is_graded:
            return tuple((0,) * space.betti for space in self.spaces)
        w = self.algebra.weights
        return tuple(tuple(sum(w[i] for i in next(iter(terms))) for terms, _ in space.rep_pairs)
                     for space in self.spaces)

    def space(self, k: int) -> CohomologySpace:
        """The degree-k space; ValueError for a degree outside 0 .. dim."""
        if not 0 <= k < len(self.spaces):
            raise ValueError(
                f"cohomology degree must be in 0 .. {len(self.spaces) - 1}, got {k}")
        return self.spaces[k]


_RING_CACHE = DerivedCache("cohomology")


def cohomology(alg: LieAlgebra) -> CohomologyRing:
    """Betti numbers, representatives, class coordinates and the cup table."""
    ring = _RING_CACHE.get(alg)
    if ring is not None:
        return ring

    n = alg.dim
    spaces = []
    coboundaries: list[dict] = []  # images of d_{k-1}'s pivot columns, over den
    for k in range(n + 1):
        basis = basis_tuples(n, k)
        rows, den = _integer_differential_rows(alg, k)  # empty at the top degree
        d_k = xl.Echelon()
        for row in rows.values():
            d_k.insert(row, den)
        cocycles = d_k.kernel(basis)
        next_coboundaries: dict = {s: {} for s in sorted(d_k.rows)}  # in rows order
        for t, row in rows.items():
            for s, c in row.items():
                if s in next_coboundaries:
                    next_coboundaries[s][t] = c

        closed = xl.Echelon()
        for z in coboundaries:
            closed.insert(z, den)
        reps: list[xl.Pair] = []
        for z, dz in cocycles:
            if closed.insert(z, dz, ({len(reps): 1}, 1)):
                reps.append(({t: z[t] for t in sorted(z)}, dz))

        spaces.append(CohomologySpace(algebra=alg, degree=k, betti=len(reps), rep_pairs=tuple(reps),
                                      coboundary_pairs=tuple((z, den) for z in coboundaries),
                                      echelon=closed))
        coboundaries = list(next_coboundaries.values())

    spaces = tuple(spaces)
    ring = CohomologyRing(algebra=alg, spaces=spaces, cup=CupTable(spaces))
    _RING_CACHE[alg] = ring
    return ring


def _check_degrees(k: int, l: int) -> None:
    """Refuse degrees that break the integer rule or are negative."""
    for name, degree in (("k", k), ("l", l)):
        rng._check_integer(f"cohomology degree {name}", degree, 0)


def cup_class(ring: CohomologyRing, k: int, i: int, l: int, j: int) -> list[Fraction]:
    """Coordinates of [rep_i^k ^ rep_j^l] in degree k+l; IndexError for a
    representative index beyond the Betti number."""
    _check_degrees(k, l)
    for name, index in (("i", i), ("j", j)):
        rng._check_integer(f"representative index {name}", index, 0)
    n = ring.algebra.dim
    if k + l > n:
        raise DegreeOverflow(f"degree {k}+{l} exceeds top degree {n}")
    for name, index, degree in (("i", i, k), ("j", j, l)):
        if index >= ring.spaces[degree].betti:
            raise IndexError(f"representative index {name} = {index} out of range: "
                             f"b_{degree} = {ring.spaces[degree].betti}")
    return ring.cup[(k, l, i, j)]


def cup_pairing_rank(ring: CohomologyRing, k: int, l: int) -> int:
    """Rank of the bilinear cup pairing H^k x H^l -> H^{k+l}.

    The unit class pairs H^l onto itself, so k = 0 gives b_l and l = 0
    gives b_k.  On a graded basis the pairing splits into one block per
    target weight (the wedge adds weights, and a class of weight w reduces
    to representatives of weight w): a pair whose target weight holds no
    class of degree k+l is zero, each block is eliminated on its own and
    stops once it has the rank of its weight's classes, and the rank is the
    sum of the block ranks.  On any other basis every class has weight 0,
    so all pairs form one block.
    """
    _check_degrees(k, l)
    n = ring.algebra.dim
    if k + l > n:
        return 0
    if k == 0 or l == 0:  # 1 ^ rep_j = rep_j
        return ring.spaces[l if k == 0 else k].betti
    target = ring.spaces[k + l].betti
    weights = ring._weights
    room = dict(Counter(weights[k + l]))  # per weight, the rank its block can still gain
    blocks: defaultdict[int, xl.Echelon] = defaultdict(xl.Echelon)
    rank = 0
    for i, wi in enumerate(weights[k]):
        for j, wj in enumerate(weights[l]):
            w = wi + wj
            if not room.get(w):  # no class of weight w, or its block is full
                continue
            coords, den = ring.cup._pair((k, l, i, j))
            if coords and blocks[w].insert(coords, den):  # a zero class adds no rank
                room[w] -= 1
                rank += 1
                if rank == target:  # the rank cannot exceed the target Betti number
                    return rank
    return rank


def ring_invariants(ring: CohomologyRing) -> dict:
    """Basis-independent signature: Betti vector plus cup pairing ranks."""
    n = ring.algebra.dim
    pair_ranks = {(k, l): cup_pairing_rank(ring, k, l)
                  for k in range(n + 1) for l in range(k, n + 1 - k)}
    return {"betti": ring.betti, "cup_ranks": pair_ranks}


def compare_rings(ring_a: CohomologyRing, ring_b: CohomologyRing) -> dict:
    """Verdict 'distinguished' or 'indistinguishable-by-these-invariants',
    with the first differing invariant when distinguished."""
    sig_a = ring_invariants(ring_a)
    sig_b = ring_invariants(ring_b)
    if sig_a["betti"] != sig_b["betti"]:
        return {
            "verdict": "distinguished",
            "reason": "betti",
            "a": sig_a,
            "b": sig_b,
        }
    if sig_a["cup_ranks"] != sig_b["cup_ranks"]:
        keys = sorted(
            set(sig_a["cup_ranks"]) | set(sig_b["cup_ranks"]),
        )
        diff = next(
            k for k in keys if sig_a["cup_ranks"].get(k) != sig_b["cup_ranks"].get(k)
        )
        return {
            "verdict": "distinguished",
            "reason": f"cup_rank{diff}",
            "a": sig_a,
            "b": sig_b,
        }
    return {
        "verdict": "indistinguishable-by-these-invariants",
        "a": sig_a,
        "b": sig_b,
    }
