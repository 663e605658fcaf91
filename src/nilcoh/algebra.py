"""Nilpotent Lie algebras with exact rational structure constants.

A ``LieAlgebra`` stores the bracket table ``[e_i, e_j] = sum_k c[i,j,k] e_k``
for ``i < j`` (antisymmetry is implicit) and is validated on construction:
the Jacobi identity is checked exactly and the lower central series must
reach zero.  Both run on the one exact bracket: the table as int numerators
over the lcm of its denominators (``LieAlgebra._integer_structure``, the
same table ``forms`` builds d_k from), accumulated by
``exactlinalg._addmul``.  ``LieAlgebra.bracket`` takes and returns sparse
vectors ``{basis index: Fraction}`` and builds Fractions only for its
result.  Indices are 0-based internally; the file format is 1-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import exactlinalg as xl
from . import rng


class AlgebraError(ValueError):
    """Invalid Lie algebra input."""


class JacobiViolation(AlgebraError):
    def __init__(self, triple: tuple[int, int, int], residual: list[Fraction]):
        self.triple = triple
        self.residual = residual
        pretty = ", ".join(str(x) for x in residual)
        super().__init__(
            f"Jacobi identity fails on basis triple {tuple(i + 1 for i in triple)}: "
            f"residual ({pretty})"
        )


class NotNilpotent(AlgebraError):
    def __init__(self, stable_dim: int):
        self.stable_dim = stable_dim
        super().__init__(
            f"lower central series stabilizes at dimension {stable_dim} > 0"
        )


def _as_fraction(x) -> Fraction:
    """An exact rational from a Fraction, an int or a string such as "-2/3";
    AlgebraError for anything else, a bool, "1/0", "nan" or "inf" included."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise AlgebraError(f"structure constant {x!r} is not an exact rational")


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """A validated nilpotent Lie algebra over the rationals.

    Instances compare and hash by identity.  Derived data (group law,
    cohomology ring) is memoized on the instance itself through
    ``DerivedCache``, so it lives exactly as long as the algebra.

    ``structure`` maps ``(i, j)`` with ``i < j`` to a dict ``{k: c_ijk}``;
    missing pairs bracket to zero.  ``lcs`` lists the dimensions of the
    lower central series ``g = g^1 >= g^2 >= ...`` down to 0, and
    ``weights[i]`` is the filtration depth of basis direction i (used for
    homogeneous dilations and quasi-norm balls).
    """

    dim: int
    basis_names: tuple[str, ...]
    structure: dict[tuple[int, int], dict[int, Fraction]]
    lcs: tuple[int, ...] = field(default=())
    weights: tuple[int, ...] = field(default=())

    def bracket(self, u: dict[int, Fraction], v: dict[int, Fraction]) -> dict[int, Fraction]:
        """Bracket of two sparse vectors ``{basis index: Fraction}``, exactly:
        coefficients that cancel are dropped, and a zero input coefficient
        adds nothing.  TypeError names the first entry that is not a Fraction."""
        (a, da), (b, db) = (xl._exact(x, "LieAlgebra.bracket", name)
                            for x, name in ((u, "u"), (v, "v")))
        return xl._fractions(self._bracket_into({}, a, b), da * db * self._integer_structure[1])

    @cached_property
    def _integer_structure(self) -> tuple[dict[tuple[int, int], dict[int, int]], int]:
        """(table, den): ``structure`` with each constant c_ij^k as the int
        numerator c_ij^k * den, den the lcm of the constants' denominators,
        in the same order."""
        den = lcm(*[c.denominator for comps in self.structure.values() for c in comps.values()])
        table = {pair: {k: c.numerator * (den // c.denominator) for k, c in comps.items()}
                 for pair, comps in self.structure.items()}
        return table, den

    def _bracket_into(self, out: dict, u: dict, v: dict) -> dict:
        """out += [u, v] on int numerators, returning out: u and v over any
        denominators du and dv, out over du * dv * den (``_integer_structure``).
        Terms add in the order of u, v and each [e_i, e_j]."""
        table = self._integer_structure[0]
        for i, a in u.items():
            for j, b in v.items():
                if i < j:
                    if w := table.get((i, j)):
                        xl._addmul(out, a * b, w)
                elif i > j and (w := table.get((j, i))):
                    xl._addmul(out, -a * b, w)
        return out

    @property
    def nilpotency_class(self) -> int:
        return len(self.lcs) - 1

    @property
    def homogeneous_dimension(self) -> int:
        return sum(self.weights)

    @property
    def is_graded(self) -> bool:
        """True when the basis grades the algebra by ``weights``: c_ij^k != 0
        only where w_k = w_i + w_j.  The canonical bases of the Heisenberg,
        filiform and free 2-step algebras are graded; a generic change of
        basis is not."""
        w = self.weights
        return len(w) == self.dim and all(
            w[k] == w[i] + w[j] for (i, j), comps in self.structure.items() for k in comps)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, class={self.nilpotency_class})"


class DerivedCache:
    """Memo of one kind of derived data, kept in a per-instance slot of each
    algebra or map (written with ``object.__setattr__``, as both classes are
    frozen; the slot is no dataclass field, so it enters no comparison).

    A module-level dict keyed by algebra or map would pin every one ever
    passed in; this cache lets the object and its derived data be collected
    together.  Supports ``obj in cache``, ``cache.get(obj)``,
    ``cache[obj] = value`` and ``cache.setdefault(obj, value)``.
    """

    def __init__(self, name: str):
        self._slot = "_derived_" + name

    def __contains__(self, obj) -> bool:
        return self._slot in vars(obj)

    def get(self, obj):
        return vars(obj).get(self._slot)

    def __setitem__(self, obj, value) -> None:
        object.__setattr__(obj, self._slot, value)

    def setdefault(self, obj, value):
        """The value in ``obj``'s slot, storing ``value`` there first if the
        slot is empty."""
        return vars(obj).setdefault(self._slot, value)


def validate_algebra(
    structure: dict[tuple[int, int], dict[int, Fraction]],
    dim: int,
    basis_names: tuple[str, ...] | None = None,
) -> LieAlgebra:
    """Build a LieAlgebra, verifying Jacobi and nilpotency exactly.

    Raises JacobiViolation or NotNilpotent, and AlgebraError on malformed
    input (bad indices, dim < 1, non-rational coefficients).
    """
    rng._check_integer("dim", dim)
    if dim < 1:
        raise AlgebraError(f"dimension must be >= 1, got {dim!r}")
    if basis_names is None:
        basis_names = tuple(f"e{i + 1}" for i in range(dim))
    if len(basis_names) != dim:
        raise AlgebraError("basis_names length does not match dim")

    clean: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), comps in structure.items():
        if not (0 <= i < j < dim):
            raise AlgebraError(f"bracket pair ({i + 1}, {j + 1}) out of range or not i < j")
        entry = {}
        for k, c in comps.items():
            if not 0 <= k < dim:
                raise AlgebraError(f"bracket target index {k + 1} out of range")
            cf = _as_fraction(c)
            if cf:
                entry[k] = cf
        if entry:
            clean[(i, j)] = entry

    alg = LieAlgebra(dim=dim, basis_names=basis_names, structure=clean)

    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] over den^2,
    # the last as -[[e_i, e_k], e_j], on the table's rows over den
    table, den = alg._integer_structure
    den2 = den * den
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                res: dict[int, int] = {}
                for a, b, c, sign in ((i, j, k, 1), (j, k, i, 1), (i, k, j, -1)):
                    if w := table.get((a, b)):
                        alg._bracket_into(res, w, {c: sign})
                if res:
                    raise JacobiViolation(
                        (i, j, k), [Fraction(res.get(m, 0), den2) for m in range(dim)])

    lcs, weights = _lower_central_series(alg)
    if lcs[-1] != 0:
        raise NotNilpotent(lcs[-1])

    object.__setattr__(alg, "lcs", tuple(lcs))
    object.__setattr__(alg, "weights", tuple(weights))
    return alg


def _lower_central_series(alg: LieAlgebra) -> tuple[list[int], list[int]]:
    """Dimensions of g^1 >= g^2 >= ... >= 0 and basis-direction weights.

    The series must strictly decrease until it hits zero; otherwise the
    algebra is not nilpotent and the caller raises.  weights[i] is the
    largest m with e_i in g^m (1 for every direction of a graded basis's
    first layer, etc.).
    """
    dim, den = alg.dim, alg._integer_structure[1]
    layer = [({i: 1}, 1) for i in range(dim)]  # (terms, den) pairs
    dims = [dim]
    weights = [1] * dim
    depth = 1
    while True:
        nxt = [xl._reduced(w, d * den) for i in range(dim) for v, d in layer
               if (w := alg._bracket_into({}, {i: 1}, v))]
        span = xl.Echelon()
        basis = [w for w in nxt if span.insert(*w)]
        d = len(basis)
        dims.append(d)
        if d == 0:
            break
        if d >= dims[-2]:
            # bracketing stopped shrinking the series: not nilpotent
            break
        depth += 1
        for i in range(dim):
            if not span.reduce({i: 1}, 1)[0][0]:  # e_i lies in g^depth
                weights[i] = depth
        layer = basis
        if depth > dim:
            break
    return dims, weights


# -- file format -------------------------------------------------------------
#
# JSON record: {"dim": n, "basis": [...names...],
#               "brackets": [[i, j, [[k, "p/q"], ...]], ...]}
# with 1-based indices, i < j, and rationals given as strings.


def _is_index(x) -> bool:
    """A JSON integer: an int, and not a bool (JSON true is not 1 here)."""
    return isinstance(x, int) and not isinstance(x, bool)


def algebra_from_dict(data: dict) -> LieAlgebra:
    if not isinstance(data, dict):
        raise AlgebraError("algebra record must be a mapping")
    dim = data.get("dim")
    if not _is_index(dim):
        raise AlgebraError(f"algebra record needs an integer 'dim' field, got {dim!r}")
    names = data.get("basis")
    if names is not None:
        if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
            raise AlgebraError(f"'basis' must be a list of names, got {names!r}")
        if len(names) != dim:
            raise AlgebraError(f"'basis' has {len(names)} names, 'dim' is {dim}")
        if len(set(names)) != dim:
            repeated = next(x for x in names if names.count(x) > 1)
            raise AlgebraError(f"'basis' repeats the name {repeated!r}")
        names = tuple(names)
    structure: dict[tuple[int, int], dict[int, Fraction]] = {}
    seen = set()
    brackets = data.get("brackets", [])
    if not isinstance(brackets, (list, tuple)):
        raise AlgebraError(f"'brackets' must be a list of [i, j, components], got {brackets!r}")
    for entry in brackets:
        try:
            i, j, comps = entry
        except (TypeError, ValueError):
            raise AlgebraError(f"malformed bracket entry {entry!r}") from None
        if not (_is_index(i) and _is_index(j)):
            raise AlgebraError(f"bracket pair ({i!r}, {j!r}) needs integer indices")
        if not 1 <= i < j <= dim:
            raise AlgebraError(f"bracket pair ({i}, {j}) out of range or not i < j")
        if (i, j) in seen:
            raise AlgebraError(f"duplicate bracket entry for pair ({i}, {j})")
        seen.add((i, j))
        if not isinstance(comps, (list, tuple)):
            raise AlgebraError(
                f"bracket components {comps!r} of pair ({i}, {j}) must be a list of [k, c]")
        target = {}
        for comp in comps:
            if not (isinstance(comp, (list, tuple)) and len(comp) == 2):
                raise AlgebraError(f"malformed bracket component {comp!r} in pair ({i}, {j})")
            k, c = comp
            if not _is_index(k):
                raise AlgebraError(
                    f"bracket target index {k!r} is not an integer, in pair ({i}, {j})")
            if not 1 <= k <= dim:
                raise AlgebraError(f"bracket target index {k} out of range in pair ({i}, {j})")
            if k - 1 in target:
                raise AlgebraError(f"duplicate bracket target index {k} in pair ({i}, {j})")
            try:
                target[k - 1] = _as_fraction(c)
            except AlgebraError as e:
                raise AlgebraError(f"{e}, in pair ({i}, {j})") from None
        structure[(i - 1, j - 1)] = target
    return validate_algebra(structure, dim, names)


def algebra_to_dict(alg: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(alg.structure):
        comps = [[k + 1, str(c)] for k, c in sorted(alg.structure[(i, j)].items())]
        brackets.append([i + 1, j + 1, comps])
    return {"dim": alg.dim, "basis": list(alg.basis_names), "brackets": brackets}


def load_algebra(path: str) -> LieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise AlgebraError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    try:
        return algebra_from_dict(data)
    except AlgebraError as e:
        raise AlgebraError(f"{path}: {e}") from None


def save_algebra(alg: LieAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(alg), fh, indent=2)
        fh.write("\n")


# -- standard examples -------------------------------------------------------


def abelian(dim: int) -> LieAlgebra:
    """R^n with the zero bracket."""
    return validate_algebra({}, dim)


def heisenberg3() -> LieAlgebra:
    """The 3-dimensional Heisenberg algebra: [e1, e2] = e3."""
    return validate_algebra({(0, 1): {2: Fraction(1)}}, 3)


def heisenberg5() -> LieAlgebra:
    """The 5-dimensional Heisenberg algebra: [e1, e2] = [e3, e4] = e5."""
    return validate_algebra({(0, 1): {4: Fraction(1)}, (2, 3): {4: Fraction(1)}}, 5)


def filiform(dim: int) -> LieAlgebra:
    """Filiform algebra of maximal class: [e1, e_k] = e_{k+1} for 2 <= k < dim."""
    rng._check_integer("dim", dim, 1)
    structure = {(0, k): {k + 1: Fraction(1)} for k in range(1, dim - 1)}
    return validate_algebra(structure, dim)


def free_nilpotent_two_step(generators: int = 3) -> LieAlgebra:
    """Free 2-step algebra on the given generators; brackets of generators are
    independent central directions (dim = g + C(g, 2))."""
    rng._check_integer("generators", generators, 1)
    g = generators
    structure = {}
    extra = g
    for i in range(g):
        for j in range(i + 1, g):
            structure[(i, j)] = {extra: Fraction(1)}
            extra += 1
    return validate_algebra(structure, extra)

