"""Averaged pullbacks of left-invariant forms and the induced map on cohomology.

For a map psi and a left-invariant k-form omega on the codomain, the
pullback coefficient at a point g and a frame k-tuple lambda is the k x k
minor of the frame differential contracted with omega.  Averaging those
coefficients over growing Følner boxes estimates the limiting left-invariant
form; projecting the estimate onto cohomology classes (a float least-squares
fit onto the closed forms) assembles the induced map, and
comparing class products against averaged products probes the ring
homomorphism property.

A left translation of the codomain changes no pullback, (L_s o psi)* omega
= psi* L_s* omega = psi* omega, and ``maps.differential_batch`` computes the
frame differential as F_cod(F(x))^-1 J_F(x) F_dom(x), without the shift.
So the averages here take the map as it is and never normalize it, and
neither does ``amenable_norm``: its observable reads the differential or
F(x)^-1 . F(x . p), in which a shift cancels.

Every coefficient of every form is a sum of k x k minors of the frame
differential D, that is of entries of its compound matrices (Cauchy-Binet;
Horn-Johnson, Matrix Analysis, 2nd ed., 0.8).  ``_plan_coefficient_rows``
decides once per set of coefficients which minors each degree needs and
writes one straight-line Python function of numpy ops for them with the
DSL's code writer (``dsl.Code``), which shares it with every plan of equal
op sequences: each minor is one sample vector, built from degree 2
upward by Laplace expansion along the first row; on small integer
matrices every minor is exact.
The plan reads the sparsity pattern of D (``maps.differential_pattern``):
a minor whose expansion has no term with a live entry and a live
complementary minor is zero at every point, so the plan leaves it out, and
with it every term that reads it.  It also reads the entries of D that the
map's generated function writes as constants
(``maps.differential_constants``: on the ``average`` maps, 6 of H3's 9
entries and 19 of H5's 25 are the literal 1.0 or 0.0), and folds them into
its ops by the only two rules that round-to-nearest makes exact: 1 * v is
v, NaN payload included, and an op on two constants gives at every sample
the float that the same op gives once on Python floats (IEEE 754-2019,
5.1: each op is correctly rounded, so its result depends only on its
operands).  Every other op stays as it was, with its operands in their
order, so a folded plan gives every row the bits of the unfolded one and
only runs fewer ops (``_Minors``).

One point cloud is drawn per (seed, radius) and shared by every coefficient,
so linearity of the estimator holds exactly; ``group.cloud_mean`` averages
over it.  ``_average_plan`` builds each (form, lambda) pair's row recipe
(``_recipe``: its terms on live minors), drops the pairs with
none, whose rows are zero (on the benchmark's H5 map 720 of 910), and
points them at one zero slot after the last row, which reads mean 0.0 with
stderr 0.0, what summing their zero rows gave.  It keys the other recipes
up to sign, negating every coefficient when the first is negative:
graded commutativity (1 ^ w = w, w_j ^ w_i = +-w_i ^ w_j) leaves 63
distinct keys of the 190 live H5 pairs.  It then evaluates one row per
folded op sequence up to sign (``_Minors.row``): where D has constant
entries, rows of different keys fold to one op sequence or to its
negation, and a row may fold to a constant, written as ``out[row] = c``.
On the benchmark maps the 63 keys of H5 leave 14 rows, and the 11 of H3
leave 4: the constant 1.0, D01, D21 - D01 * D20 and D20 up to sign.
A pair with the row's op sequence reads the row's (mean, stderr), a
negated one (0.0 - mean, stderr): rows start from +0.0 and rounding is
symmetric in sign, so the negated row's sums are the negated sums, an
exact zero stays +0.0 (where -mean would give -0.0), and its stderr is
the same.  Those reads are two gathers over the pairs, one for the means
and one for the stderrs, and a masked subtraction, so the averages stay in
one format: per form, a dense float64 mean and stderr vector over
``basis_tuples``, which ``induced_cohomology_map`` projects as they are and
``amenable_average`` turns into ``KForm``s and dicts only where it returns
them.  The rows are sorted by the (degree, lambda) of their first key and
cut into blocks of at most ``_BLOCK_ITEMS``
floats per chunk of samples, each planned by ``_plan_coefficient_rows``;
``_ball_averages`` reuses the plan at every radius and chunk, and
``cloud_mean`` reduces a block before the next one is evaluated, so memory
is bounded whatever the number of pairs.  Every row keeps its own
per-chunk sums, so the blocks move no bit.  The chunk loop touches only
memory the call already owns: ``_ball_averages`` allocates one buffer,
sized for one chunk, for the frame differential
(``differential_batch``'s ``out``) and the rows of the largest block;
every chunk at every radius writes into it, and ``cloud_mean`` centres and
squares each block in place.  A short-lived chunk-sized array would be
mapped afresh on every chunk, since glibc hands a freed heap top above its
trim threshold back to the kernel, and every page mapped again costs a
fault (about 2.4 µs per 4 KB page on the reference host).

``amenable_average`` (and through it ``degree.asymptotic_degree``) averages
its caller's form and plans on every call.  ``induced_cohomology_map``
averages the codomain ring's representatives and their products, so
everything it builds before sampling (those forms, the wedge products and
the plan) depends only on the codomain algebra, the domain's dimension,
the map's differential pattern and constants and the chunk size:
``_induced_setup`` builds it once per such key and keeps it with the codomain algebra
(``algebra.DerivedCache``), and a warm call only samples, evaluates and
projects.  The plans hold no state between calls, so a warm call gives
the bytes of a cold one.

Evaluation is serial and reruns are bit-identical.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import dsl, rng
from .algebra import DerivedCache, LieAlgebra
from .cohomology import CohomologyRing, cohomology
from .forms import KForm, basis_tuples, ce_differential, sort_with_sign, wedge
from .group import BallSpec, check_radii, cloud_mean, sample_ball_coords
from .maps import (SmoothMap, _at_point, differential_batch, differential_constants,
                   differential_pattern, warn_once)

DEFAULT_RADII = tuple(4.0 * 2 ** k for k in range(6))
# floats of the sample vectors alive at once in a plan's generated code
# (_plan_coefficient_rows): samples are taken in blocks that keep the live
# minors of one block within this bound, whatever the number of minors
_WORK_ITEMS = 2 ** 18
# floats per row block of _ball_averages (pairs x chunk samples): bounds the
# memory of a ball average whatever the number of (form, lambda) pairs
_BLOCK_ITEMS = 2 ** 20


@dataclass
class AverageEstimate:
    """Ball averages of one pulled-back form along a radius schedule."""

    radii: list[float]
    values: list[KForm]            # per-radius averaged form, float coefficients
    increments: list[float]        # max coefficient change between consecutive radii
    extrapolated: KForm            # the last value; no model extrapolation
    mc_stderr: list[dict]          # per-radius: lambda tuple -> standard error
    nonconvergent: bool
    derivative_bound: float = 0.0  # max sampled |frame differential| entry, or NaN
    warnings: list[str] = field(default_factory=list)


@dataclass
class HomomorphismReport:
    """Induced-map matrices plus chain and multiplicativity residuals."""

    radii: list[float]
    matrices: dict[int, list[list[float]]]          # degree -> b_k(dom) x b_k(cod)
    chain_residuals: dict[int, float]               # degree -> |d(average)|_inf at final radius
    chain_residual_trace: dict[int, list[float]]    # degree -> per-radius residuals
    mult_residuals: dict[tuple[int, int, int, int], float]
    stderrs: dict[int, float]                       # degree -> max per-coefficient stderr
    thresholds: dict[str, float]
    derivative_bound: float = 0.0                   # max sampled |frame differential| entry, or NaN
    warnings: list[str] = field(default_factory=list)


def pullback_eval(m: SmoothMap, omega: KForm, lam: tuple[int, ...], g) -> float:
    """Pullback coefficient (psi* omega)(V_lam) at one point g, refused as by ``evaluate``."""
    _check_on_codomain(m, [omega])
    if len(lam) != omega.degree:
        raise ValueError("frame tuple length must equal the form degree")
    n = m.domain.dim
    if not all(rng._is_integer(i) and 0 <= i < n for i in lam):
        raise ValueError(f"frame indices must be integers in 0 .. {n - 1}, got {tuple(lam)}")
    mats = _at_point(differential_batch, m, g)
    return float(_coefficient_rows(mats, [(omega, lam)])[0, 0])


def _check_on_codomain(m: SmoothMap, omegas) -> None:
    """Refuse forms of another algebra: their coefficient keys would index
    rows of the frame differential that do not exist."""
    if any(w.algebra is not m.codomain for w in omegas):
        raise ValueError("form must live on the codomain algebra")


def _coefficient_rows(mats: np.ndarray, pairs: list[tuple[KForm, tuple[int, ...]]]) -> np.ndarray:
    """Row r is omega on the pushed-forward frame columns lam, for
    (omega, lam) = pairs[r]; ``mats`` is (N, m, n) and the result (len(pairs), N).

    One-shot form of ``_plan_coefficient_rows``, with every entry of D live
    and none constant: it knows no map, so it prunes and folds nothing.  The
    plan's code is shared (``dsl.Code``), so a call on the pairs of an
    earlier one compiles nothing.
    """
    out = np.empty((len(pairs), mats.shape[0]))
    pattern = np.ones(mats.shape[1:], dtype=bool)
    live = _live_minors(pattern)
    sorted_lams = [sort_with_sign(lam) for _, lam in pairs]  # None for a repeated index
    recipes = [s and _recipe(omega, *s, live) for (omega, _), s in zip(pairs, sorted_lams)]
    _plan_coefficient_rows(recipes, pattern)(_entries(mats), out)
    return out


def _entries(mats: np.ndarray) -> np.ndarray:
    """The (m * n, N) array whose row i * n + j holds D[i, j] of the (N, m, n)
    frame differentials D, each entry one contiguous N-vector: a view of the
    sample-last array behind ``differential_batch``'s matrices (a copy only
    for matrices stored sample-first)."""
    return mats.transpose(1, 2, 0).reshape(-1, mats.shape[0])


def _constants(m: SmoothMap) -> dict[int, float]:
    """``maps.differential_constants`` by ``_entries`` row: a * n + j -> c."""
    n = m.domain.dim
    return {a * n + j: c for (a, j), c in differential_constants(m).items()}


_OPS = {"+": "_add", "-": "_subtract", "*": "_multiply"}  # op -> its numpy function's name
_TEMP = re.compile(r"\bm\d+\b")  # the temporaries of the rows' generated code


def _live_minors(pattern: np.ndarray, constants: dict[int, float] | None = None) -> _Minors:
    """The minors of D under the (m, n) boolean ``pattern`` of the entries
    that can be nonzero and the entries ``constants`` (``_entries`` row ->
    float) that are the same at every point, as a ``_Minors``."""
    return _Minors(pattern, constants or {})


class _Minors:
    """The minors of D under a pattern and constants (``_live_minors``).

    Called as ``live(R, C)``, it gives the positions j of the live terms of
    the first-row expansion of det D[R, C], for increasing C.  A term is
    live when its entry D[R_0, C_j] and its complementary minor are; a minor
    is live when it has a live term, an entry when the pattern says so
    (then ``(0,)``).  A dead minor is exactly 0 wherever its dead entries
    are.

    ``minor`` and ``row`` fold the constants into the ops the plan runs
    (``_plan_coefficient_rows``): each value is a node, numbered in
    ``nodes`` as ``("e", i)`` for a variable entry, ``("c", repr)`` for a
    constant and ``(op, a, b)`` for an op on two nodes, so equal op
    sequences are one node.  ``op`` folds by the two rules that
    round-to-nearest makes exact: 1 * v is v, NaN payload included, and an
    op on two constants is the same done once on Python floats.
    """

    def __init__(self, pattern: np.ndarray, constants: dict[int, float]):
        self.entry = pattern.tolist()
        self.n = pattern.shape[1]
        self.constants = constants
        self.nodes: list[tuple] = []
        self.values: list[float | None] = []  # per node: its float where it is a constant
        self.ids: dict[tuple, int] = {}
        self.terms: dict = {}  # (R, C) -> live terms
        self.minors: dict = {}  # (R, C) -> (node, sign)

    def __call__(self, rows_idx: tuple, cols: tuple) -> tuple:
        if len(rows_idx) == 1:
            return (0,) if self.entry[rows_idx[0]][cols[0]] else ()
        got = self.terms.get((rows_idx, cols))
        if got is None:
            first, rest = self.entry[rows_idx[0]], rows_idx[1:]
            got = self.terms[rows_idx, cols] = tuple(
                j for j, c in enumerate(cols) if first[c] and self(rest, cols[:j] + cols[j + 1:]))
        return got

    def node(self, key: tuple, value: float | None = None) -> int:
        got = self.ids.get(key)
        if got is None:
            got = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
            self.values.append(value)
        return got

    def const(self, value: float) -> int:
        return self.node(("c", repr(value)), value)

    def leaf(self, i: int) -> int:
        """The node of entry i of the ``_entries`` array."""
        c = self.constants.get(i)
        return self.node(("e", i)) if c is None else self.const(c)

    def op(self, op: str, a: int, b: int) -> int:
        x, y = self.values[a], self.values[b]
        if x is not None and y is not None:
            return self.const(x * y if op == "*" else x + y if op == "+" else x - y)
        if op == "*" and (x == 1.0 or y == 1.0):
            return b if x == 1.0 else a
        return self.node((op, a, b))

    def minor(self, rows_idx: tuple, cols: tuple) -> tuple[int, int]:
        """(node, sign) of the live minor det D[R, C]: the vector the plan
        builds for it holds sign * det (``_plan_coefficient_rows``)."""
        if len(rows_idx) == 1:
            return self.leaf(rows_idx[0] * self.n + cols[0]), 1
        got = self.minors.get((rows_idx, cols))
        if got is None:
            for t, j in enumerate(self(rows_idx, cols)):
                sub, s = self.minor(rows_idx[1:], cols[:j] + cols[j + 1:])
                product = self.op("*", self.leaf(rows_idx[0] * self.n + cols[j]), sub)
                s *= (-1) ** j  # the term is s * product
                if t == 0:
                    value, sign = product, s
                else:
                    value = self.op("+" if s == sign else "-", value, product)
            got = self.minors[rows_idx, cols] = (value, sign)
        return got

    def row(self, recipe) -> int:
        """The node of a ``_recipe``'s row: 0.0 + its first term, then its
        other terms added in order, a coefficient of +-1 without the
        product; a 0-form's constant, +0.0 for None."""
        if recipe is None:
            return self.const(0.0)
        cols, kept = recipe
        if not cols:
            return self.const(kept[0][0])
        value = None
        for c, r in kept:
            vector, sign = self.minor(r, cols)
            c = c * sign  # the term is c * the vector
            if c == 1.0 or c == -1.0:
                start = self.const(0.0) if value is None else value
                value = self.op("+" if c > 0 else "-", start, vector)
            elif value is None:  # 0.0 + term, as term + 0.0: a zero term gives +0.0
                value = self.op("+", self.op("*", vector, self.const(c)), self.const(0.0))
            else:
                value = self.op("+", value, self.op("*", vector, self.const(c)))
        return value

    def graph(self, roots: list[int]) -> tuple[tuple, tuple]:
        """The nodes the roots read, numbered in the post order of a walk
        from the roots in turn, and the roots by those numbers: a key that
        depends only on the op sequences."""
        local: dict[int, int] = {}
        nodes: list[tuple] = []
        for root in roots:
            stack = [root]
            while stack:
                x = stack[-1]
                if x in local:
                    stack.pop()
                    continue
                key = self.nodes[x]
                if key[0] in _OPS:
                    todo = [y for y in key[1:] if y not in local]
                    if todo:
                        stack += reversed(todo)
                        continue
                    key = (key[0], local[key[1]], local[key[2]])
                local[x] = len(nodes)
                nodes.append(key)
                stack.pop()
        return tuple(nodes), tuple(local[r] for r in roots)


def _recipe(omega: KForm, cols: tuple[int, ...], sign: int, live):
    """The recipe of the row of omega on the frame columns C = ``cols``
    (increasing), times ``sign``: ``(C, kept)`` with ``kept`` the terms
    ``(sign * c_R, R)`` of omega, in ``omega.coeffs`` order, whose minor
    det D[R, C] is live under ``live`` (``_live_minors``); the constant of
    a 0-form (R = C = ()) is always kept.  None for a row of zeros: a zero
    form or no live term."""
    kept = tuple((sign * float(c), r) for r, c in omega.coeffs.items() if not r or live(r, cols))
    return (cols, kept) if kept else None


def _plan_coefficient_rows(recipes: list, pattern: np.ndarray,
                           constants: dict[int, float] | None = None) -> _Rows:
    """Plan the rows of these ``_recipe``s on (N, m, n) frame differentials
    D whose entries outside the (m, n) boolean ``pattern`` are zero and whose
    entries ``constants`` (``_entries`` row -> float) are those floats,
    once; the returned ``rows(entries, out)`` applies the plan to the
    ``_entries`` of one batch, writing the (len(recipes), N) rows into
    ``out``.

    The row of (omega, lam) is sum_R c_R sign * det D[R, C] over the
    coefficients c_R of omega, where C is lam sorted and sign its
    permutation sign.  Those minors are entries of the compound matrices
    of D, and each degree-d minor expands along its first row,

        det D[R, C] = sum_j (-1)^j D[R_0, C_j] det D[R_1.., C without C_j],

    so the plan holds only the live minors (``_live_minors``) some recipe
    needs, directly or through a live term of a higher degree; a recipe
    keeps only its terms on live minors, a minor only its live terms, and a
    None recipe is a row of zeros.  Each live minor is one sample vector,
    built from its live terms in order, and each recipe's row is 0.0 + its
    first term, then its other terms added in their order, that of
    ``omega.coeffs`` (a 0-form's row is its constant, a None recipe's
    +0.0).  The full expansion adds every term, a term of odd j through its
    entry negated; the code writes a minor's first live term as the bare
    product, so its vector holds det or -det, and subtracts each later
    term, or each term a row reads, where the signs of j and of the vectors
    it reads say so, with a recipe's coefficient negated on a -det vector.
    That moves no bit: rounding is symmetric in sign, so (-a) * b = -(a *
    b) = a * (-b) and x + (-y) = x - y, and a sum of negated terms is the
    negated sum, but for the sign of an exact zero (x + (-x) is +0.0) and
    of a NaN.  No zero's sign reaches a row, which starts as 0.0 + term
    (+0.0 for a zero term) and adds the rest (y + 0.0 = y - 0.0 = y, and
    +0.0 stays +0.0); the sign of a NaN is the one bit the rows may change.
    A coefficient of +-1 is added or subtracted without the product, as
    x * 1 = x.  The dropped terms are zeros, which move no sum but its sign
    of zero, so the rows are those of the full expansion bit for bit,
    except where a NaN (0 * inf) sits at a dead entry and now stays out.

    The constant entries are folded into those ops (``_Minors``): 1 * v is
    v, NaN payload included, and an op on two constants gives at every
    sample the float that Python's op gives once, so a folded op moves no
    bit.  A term with the entry 1 is its complementary minor, a minor whose
    ops all fold is a constant, and so is a row, written as ``out[row] =
    c``; on the frame differentials of the ``average`` maps, whose D has
    1.0 on its diagonal, many minors and rows fold to 1.0 or to copies of
    one another.  Every op sequence is one node, computed once whatever
    the number of minors and rows that read it.

    The plan is one generated function of numpy ops (``_generate_rows``),
    shared by every plan of equal op sequences (``dsl.Code``).  A minor's
    value does not depend on which other minors the plan holds, so any
    split of the recipes gives the same rows, and every op is elementwise,
    so any split of the samples does too: ``rows`` runs the code on blocks
    of samples that keep the live minors within ``_WORK_ITEMS`` floats.
    """
    minors = _live_minors(pattern, constants)
    nodes, roots = minors.graph([minors.row(r) for r in recipes])
    # each constant by its repr: unlike ==, it tells 0.0 from -0.0
    key = ("rows", nodes, roots)
    got = dsl._RUNS.get(key)
    if got is None:
        got = dsl._RUNS.setdefault(key, _generate_rows(nodes, roots))
    run, width = got
    return _Rows(run, max(1, _WORK_ITEMS // width))


@dataclass(frozen=True)
class _Rows:
    """A plan of ``_plan_coefficient_rows``: its generated code and the
    samples per block that keep the code's live minors within
    ``_WORK_ITEMS`` floats."""

    run: Callable  # run(entries, out) on one block of samples
    block: int

    def __call__(self, entries: np.ndarray, out: np.ndarray) -> None:
        block = self.block
        for start in range(0, entries.shape[1], block):
            self.run(entries[:, start:start + block], out[:, start:start + block])


def _generate_rows(nodes: tuple, roots: tuple) -> tuple[Callable, int]:
    """The function run(entries, out) of ``_plan_coefficient_rows`` and its
    width, written with ``dsl.Code`` from ``_Minors.graph``: one line per op
    node, in the graph's order, each temporary deleted after its last use.

    A row's op is written into ``out[row]``, and so is each op before it
    that nothing else reads, in place; a minor's op takes over the array of
    the op before it where nothing else reads that one; and a product that
    only the right side of one op reads is written into that op's line."""
    uses = [0] * len(nodes)
    right = set()  # nodes read as the right operand of an op
    for key in nodes:
        if key[0] in _OPS:
            uses[key[1]] += 1
            uses[key[2]] += 1
            right.add(key[2])
    target: dict[int, int] = {}  # node -> the row whose array holds it
    for row, x in enumerate(roots):
        if nodes[x][0] in _OPS:
            target.setdefault(x, row)
    for x, row in list(target.items()):
        a = nodes[x][1]
        while nodes[a][0] in _OPS and uses[a] == 1 and a not in target:
            target[a] = row
            a = nodes[a][1]

    code = dsl.Code({"_add": np.add, "_subtract": np.subtract, "_multiply": np.multiply})
    line = partial(code.line, root=True)  # the graph holds only nodes some row reads
    head, names = [], []
    inline = set()
    for x, key in enumerate(nodes):
        kind = key[0]
        if kind == "e":
            names.append(f"e{key[1]}")
            head.append(f"e{key[1]} = entries[{key[1]}]")
            continue
        if kind == "c":  # +0.0, which every row starts from, as a literal
            names.append("0.0" if key[1] == "0.0" else code.bind(float(key[1])))
            continue
        op, a, b = key
        reads = tuple(_TEMP.findall(f"{names[a]} {names[b]}"))
        if op == "*" and uses[x] == 1 and x in right and x not in target and b not in inline:
            inline.add(x)
            names.append(f"{names[a]} * {names[b]}")
        elif x in target:
            o = f"o{target[x]}"
            if target.get(a) == target[x]:
                line(f"{o} {op}= {names[b]}", (), reads)
            else:
                head.append(f"{o} = out[{target[x]}]")
                line(f"{_OPS[op]}({names[a]}, {names[b]}, out={o})", (), reads)
            names.append(o)
        elif nodes[a][0] in _OPS and uses[a] == 1 and a not in target:
            line(f"{names[a]} {op}= {names[b]}", (), reads)
            names.append(names[a])
        else:
            name, right_side = f"m{x}", names[b]
            if op == "*" and b in inline:
                right_side = f"({right_side})"
            line(f"{name} = {names[a]} {op} {right_side}", (name,), reads)
            names.append(name)
    for row, x in enumerate(roots):
        if target.get(x) != row:  # a constant row, or one that another row holds
            line(f"out[{row}] = {names[x]}")
    return code.build("entries, out", head, "<pullback rows>")


@dataclass(frozen=True)
class _AveragePlan:
    """The call-invariant half of ``_ball_averages``: what it evaluates for
    one list of forms on one differential pattern, constants and chunk size."""

    rows: np.ndarray  # per (form, lambda) pair: its distinct row, or the zero slot after the last
    negated: np.ndarray  # per pair: whether it reads its row's mean negated
    forms: list[slice]  # per form: its pairs, lambdas in basis_tuples order
    blocks: list[tuple[int, Callable]]  # (rows, their _plan_coefficient_rows) per block
    width: int  # rows of the largest block
    variable: list[int]  # the _entries rows of D that are not constant
    bound: float  # the largest |c| of D's constants (NaN if one is NaN), -inf for none


def _chunk(samples: int) -> int:
    """Samples per chunk of a ``samples``-point ball average (``rng.CHUNK`` at most)."""
    rng._check_integer("sample count", samples, 1)
    return max(1, min(samples, rng.CHUNK))


def _average_plan(omegas: list[KForm], pattern: np.ndarray, constants: dict[int, float],
                  chunk: int) -> _AveragePlan:
    """Plan ``_ball_averages`` of every coefficient of these codomain forms
    on maps with the (m, n) differential ``pattern`` and ``constants``
    (``_entries`` row -> float): the pairs with a live term, keyed by
    ``_recipe`` up to sign, one row per folded op sequence up to sign
    (``_Minors.row``), the rows sorted by the (degree, lambda) of their
    first recipe and cut into blocks of at most ``_BLOCK_ITEMS`` floats per
    ``chunk`` of samples, each block planned by ``_plan_coefficient_rows``."""
    minors = _live_minors(pattern, constants)
    keys, negated, forms = [], [], []  # per pair: recipe up to sign (None for a zero row), sign
    for w in omegas:
        start = len(keys)
        for lam in basis_tuples(pattern.shape[1], w.degree):
            recipe = _recipe(w, lam, 1, minors)  # basis tuples are increasing
            negate = recipe is not None and recipe[1][0][0] < 0
            if negate:
                recipe = _negated(recipe)
            keys.append(recipe)
            negated.append(negate)
        forms.append(slice(start, len(keys)))
    recipes = sorted(dict.fromkeys(k for k in keys if k is not None),
                     key=lambda k: (len(k[0]), k[0]))  # rows sharing minors side by side
    rows: list = []  # per distinct row: its first recipe
    slot: dict[int, int] = {}  # per row's node: its index in rows
    read = {}  # per recipe: (its row, whether it reads the row negated)
    for recipe in recipes:
        node = minors.row(recipe)
        if node not in slot and minors.row(_negated(recipe)) in slot:
            read[recipe] = (slot[minors.row(_negated(recipe))], True)
            continue
        if node not in slot:
            slot[node] = len(rows)
            rows.append(recipe)
        read[recipe] = (slot[node], False)
    size = max(1, _BLOCK_ITEMS // chunk)
    blocks = [rows[i:i + size] for i in range(0, len(rows) or 1, size)]
    reads = [(len(rows), False) if k is None else read[k] for k in keys]
    return _AveragePlan(
        rows=np.array([row for row, _ in reads], dtype=np.intp),
        negated=np.array([a != b for a, (_, b) in zip(negated, reads)], dtype=bool),
        forms=forms,
        blocks=[(len(b), _plan_coefficient_rows(b, pattern, constants)) for b in blocks],
        width=min(size, len(rows)),
        variable=[i for i in range(pattern.size) if i not in constants],
        bound=float(np.max(np.abs(list(constants.values())), initial=-math.inf)),
    )


def _negated(recipe):
    """The recipe with every coefficient negated."""
    cols, kept = recipe
    return cols, tuple((-c, r) for c, r in kept)


def _ball_averages(
    m: SmoothMap,
    omegas: list[KForm],
    radii: list[float],
    samples: int,
    seed: int,
    shape: str,
    warnings: list[str],
    plan: _AveragePlan | None = None,
):
    """Ball-average every coefficient of every form at every radius, in one
    pass over one cloud per radius, the rows in blocks (module docstring).
    ``plan`` is ``_average_plan`` of these forms on the map's
    ``differential_pattern``, constants and ``_chunk(samples)``, built here
    when not given.  A pair with no term on a live minor of the pattern is a row of
    zeros and is not evaluated: it reads the zero slot, (0.0, 0.0).  The
    other pairs are keyed by their ``_recipe`` up to sign, and one row per
    key is evaluated: a pair whose recipe is the key's reads its
    (mean, stderr), a negated one (0.0 - mean, stderr).  Keys whose rows
    fold to one op sequence, up to sign, share one row.

    One buffer, sized for a chunk, holds the frame differential
    (``differential_batch``'s ``out``) and the rows, for every chunk at
    every radius (module docstring); a chunk's derivative bound is
    ``_abs_max`` of its D's variable entries and of its constants.

    Returns, per radius and per input form, a (mean, stderr) pair of float64
    arrays over ``basis_tuples(n_dom, degree)``, and the largest sampled
    |frame differential| entry over all radii: NaN if any chunk's bound is.
    """
    _check_on_codomain(m, omegas)
    chunk = _chunk(samples)
    if plan is None:
        plan = _average_plan(omegas, differential_pattern(m), _constants(m), chunk)
    # one block, not one per array: glibc's trim threshold is twice the largest
    # mmapped block freed so far, and with three blocks the H5 op of the
    # `average` benchmark trimmed the heap the H3 ops had grown, which the
    # next H3 op faulted back in (about 690 pages) in most processes
    jac, row_buffer = np.split(np.empty((m.codomain.dim * m.domain.dim + plan.width) * chunk),
                               [m.codomain.dim * m.domain.dim * chunk])
    warn = warn_once(warnings)
    chunk_bounds: list[float] = []

    def coefficients(coords: np.ndarray):
        entries = _entries(differential_batch(m, coords, warn, out=jac))
        chunk_bounds.append(_abs_max(entries, plan.variable, plan.bound))
        count = entries.shape[1]
        for size, rows in plan.blocks:
            out = row_buffer[:size * count].reshape(size, count)
            rows(entries, out)
            yield out

    per_radius = []
    for r in radii:
        cloud = sample_ball_coords(m.domain, BallSpec(r, shape), samples, seed, tags=("avg",))
        mean, stderr = cloud_mean(cloud, coefficients)
        mean = np.append(mean, 0.0)[plan.rows]
        # 0.0 - mean is what the negated row averages to, +0.0 for a zero mean
        np.subtract(0.0, mean, out=mean, where=plan.negated)
        stderr = np.append(stderr, 0.0)[plan.rows]
        per_radius.append([(mean[s], stderr[s]) for s in plan.forms])
    # np.max, not Python's max, which drops a NaN bound that is not first
    return per_radius, float(np.max(chunk_bounds, initial=0.0))


def _abs_max(a: np.ndarray, rows, bound: float = -math.inf) -> float:
    """The largest of ``bound`` and |a[i]| over the ``rows`` i of ``a``:
    ``np.max(np.abs(a[rows]))`` without the |a| temporary, as max(max g,
    -min g) over the gathered rows g, one max and one min for all of them,
    and ``bound`` the largest |c| of the rows left out, each the constant
    c.  Max and min are exact, so the value is that of a max per row.  A
    NaN entry makes both ends NaN (and np.maximum, unlike Python's max,
    keeps it), an infinite entry of either sign gives inf, and + 0.0 turns
    the -0.0 that -min g reads on all-zero rows into +0.0."""
    if len(rows):
        g = a[rows]
        bound = np.maximum(bound, np.maximum(g.max(), -g.min()))
    return float(bound) + 0.0


def _form_of(dom: LieAlgebra, degree: int, mean: np.ndarray) -> KForm:
    """The form with these coefficients over ``basis_tuples``, zeros left out."""
    lambdas = basis_tuples(dom.dim, degree)
    return KForm(dom, degree, {lam: v for lam, v in zip(lambdas, mean.tolist()) if v != 0.0})


def amenable_average(
    m: SmoothMap,
    omega: KForm,
    radii=DEFAULT_RADII,
    samples: int = 20000,
    seed: int = 0,
    shape: str = "box",
) -> AverageEstimate:
    """Ball averages of psi* omega over the radius schedule."""
    radii = check_radii(radii)
    warnings: list[str] = []
    per_radius, deriv_bound = _ball_averages(m, [omega], radii, samples, seed, shape, warnings)
    lambdas = basis_tuples(m.domain.dim, omega.degree)
    values = [_form_of(m.domain, omega.degree, mean) for ((mean, _),) in per_radius]
    stderrs = [dict(zip(lambdas, se.tolist())) for ((_, se),) in per_radius]
    # numpy's maxima keep a NaN, which Python's max drops unless it comes first
    increments = [float(np.max(np.abs(cur - prev), initial=0.0))
                  for ((prev, _),), ((cur, _),) in zip(per_radius, per_radius[1:])]
    nonconv = _nonconvergent(increments, [float(np.max(se, initial=0.0)) for ((_, se),) in per_radius])
    if nonconv:
        warnings.append("increments do not decrease monotonically; limit not trusted")
    return AverageEstimate(
        radii=list(radii),
        values=values,
        increments=increments,
        extrapolated=values[-1],
        mc_stderr=stderrs,
        nonconvergent=nonconv,
        derivative_bound=deriv_bound,
        warnings=warnings,
    )


def _nonconvergent(increments: list[float], max_se: list[float]) -> bool:
    """Whether an increment grows by more than 3 stderrs of its two radii,
    or an increment or a stderr maximum is NaN: a comparison with NaN is
    False, so increments [nan, nan] read as convergent."""
    if any(math.isnan(v) for v in increments + max_se):
        return True
    for i in range(len(increments) - 1):
        slack = 3.0 * (max_se[i + 1] + max_se[i + 2]) + 1e-12
        if increments[i + 1] > increments[i] + slack:
            return True
    return False


_SETUP_CACHE = DerivedCache("induced_setup")  # per codomain algebra: key -> _induced_setup


def _induced_setup(m: SmoothMap, with_products: bool, chunk: int):
    """The call-invariant part of ``induced_cohomology_map``, computed once
    per codomain algebra and key, then shared: ``(owners, product_keys,
    forms, plan)`` with ``owners`` the (degree, index) of each codomain
    representative of degree at most the domain's dimension, ``product_keys``
    the (k, i, l, j) of each wedge product of two of them (with
    ``with_products``), ``forms`` the representatives then the products, and
    ``plan`` their ``_average_plan``.  All of it depends only on the
    codomain's ring, the domain's dimension and the map's
    ``differential_pattern`` and constants, and the plan on the chunk size
    and ``_BLOCK_ITEMS``, which is why the key holds those and nothing else,
    each constant by its repr (the H3 doubling and the identity have one
    pattern and different constants)."""
    pattern, constants = differential_pattern(m), _constants(m)
    n_dom = m.domain.dim
    key = (n_dom, with_products, pattern.tobytes(), pattern.shape,
           tuple((i, repr(c)) for i, c in sorted(constants.items())), chunk, _BLOCK_ITEMS // chunk)
    setups = _SETUP_CACHE.setdefault(m.codomain, {})
    setup = setups.get(key)
    if setup is None:
        ring_cod = cohomology(m.codomain)
        reps: list[KForm] = []
        owners: list[tuple[int, int]] = []  # (degree, index within degree)
        for k in range(min(n_dom, m.codomain.dim) + 1):
            for i, w in enumerate(ring_cod.spaces[k].representatives):
                reps.append(w)
                owners.append((k, i))
        products: list[KForm] = []
        product_keys: list[tuple[int, int, int, int]] = []
        if with_products:
            for (k, i) in owners:
                for (l, j) in owners:
                    if k + l <= min(n_dom, m.codomain.dim) and k <= l:
                        products.append(wedge(ring_cod.spaces[k].representatives[i],
                                              ring_cod.spaces[l].representatives[j]))
                        product_keys.append((k, i, l, j))
        forms = reps + products
        setup = setups[key] = (owners, product_keys, forms,
                               _average_plan(forms, pattern, constants, chunk))
    return setup


def induced_cohomology_map(
    m: SmoothMap,
    radii=DEFAULT_RADII,
    samples: int = 20000,
    seed: int = 0,
    shape: str = "box",
    *,
    with_products: bool = False,
) -> HomomorphismReport:
    """Matrices of the induced map on cohomology, degree by degree.

    For every representative omega of H^k(codomain), the averaged pullback
    is projected onto H^k(domain).  The true limit is closed (pullback and
    averaging commute with d), so |d(average)| is reported as a residual.
    With ``with_products`` the multiplicativity residuals of
    ``homomorphism_check`` are included.
    """
    radii = check_radii(radii)
    ring_dom = cohomology(m.domain)
    n_dom = m.domain.dim
    warnings: list[str] = []
    owners, product_keys, all_forms, plan = _induced_setup(m, with_products, _chunk(samples))
    per_radius, deriv_bound = _ball_averages(m, all_forms, radii, samples, seed, shape, warnings,
                                             plan)

    # every maximum below is numpy's, which keeps a NaN that Python's max drops
    chain_trace: dict[int, list[float]] = {k: [] for k in range(n_dom + 1)}
    for averages in per_radius:
        d_coeffs: dict[int, list[float]] = {k: [] for k in range(n_dom + 1)}
        for (k, _i), (mean, _se) in zip(owners, averages):
            d_coeffs[k] += ce_differential(_form_of(m.domain, k, mean)).coeffs.values()
        for k, v in d_coeffs.items():
            chain_trace[k].append(float(np.max(np.abs(v), initial=0.0)))

    final = per_radius[-1]
    matrices: dict[int, list[list[float]]] = {}
    owner_stderrs: dict[int, list[float]] = {}
    class_vectors: dict[tuple[int, int], list[float]] = {}
    for k in range(n_dom + 1):
        b_dom = ring_dom.spaces[k].betti
        cols = [i for (kk, i) in owners if kk == k]
        matrices[k] = [[0.0] * len(cols) for _ in range(b_dom)]
        owner_stderrs[k] = []
    for (k, i), (mean, se) in zip(owners, final):
        se = float(se.max(initial=0.0))
        owner_stderrs[k].append(se)
        coords, resid = ring_dom.spaces[k]._class_fit(mean)  # one fit for both
        class_vectors[(k, i)] = coords
        _projection_warning(k, resid, se, warnings)
        for a, c in enumerate(coords):
            matrices[k][a][i] = c

    stderrs = {k: float(np.max(v, initial=0.0)) for k, v in owner_stderrs.items()}

    mult_residuals: dict[tuple[int, int, int, int], float] = {}
    if with_products:
        lhs, rhs, starts = [], [], []
        for (k, i, l, j), (mean, _se) in zip(product_keys, final[len(owners):]):
            starts.append(len(lhs))
            lhs += ring_dom.spaces[k + l].project_float(mean)
            rhs += _cup_combination(ring_dom, k, l, class_vectors[(k, i)], class_vectors[(l, j)])
        # one maximum per product: every degree of a nilpotent group has a class
        worst = np.maximum.reduceat(np.abs(np.subtract(lhs, rhs)), starts)
        mult_residuals = dict(zip(product_keys, worst.tolist()))

    chain_final = {k: (trace[-1] if trace else 0.0) for k, trace in chain_trace.items()}
    # NaN passes every comparison unwarned, so the non-finite results are named here
    for k in range(n_dom + 1):
        if not np.isfinite([*(v for row in matrices[k] for v in row), stderrs[k],
                            chain_final[k]]).all():
            warnings.append(f"degree {k}: a matrix entry, the stderr maximum or the chain "
                            "residual is not finite, so the induced map there cannot be read")
    unread = [key for key, r in mult_residuals.items() if not math.isfinite(r)]
    if unread:
        warnings.append(f"products {', '.join(map(str, unread))} (k, i, l, j): the "
                        "multiplicativity residual is not finite, so the cup product "
                        "cannot be compared there")
    return HomomorphismReport(
        radii=list(radii),
        matrices=matrices,
        chain_residuals=chain_final,
        chain_residual_trace=chain_trace,
        mult_residuals=mult_residuals,
        stderrs=stderrs,
        thresholds={"chain": 1e-3, "stderr_multiple": 3.0},
        derivative_bound=deriv_bound,
        warnings=warnings,
    )


def homomorphism_check(
    m: SmoothMap,
    radii=DEFAULT_RADII,
    samples: int = 20000,
    seed: int = 0,
    shape: str = "box",
    threads: int = 1,
) -> HomomorphismReport:
    """Induced map plus multiplicativity residuals:
    class(avg(w1 ^ w2)) versus class(avg w1) cup class(avg w2).

    ``threads`` is checked as a count and otherwise ignored (evaluation is
    serial), because the benchmark harness passes it."""
    rng._check_integer("threads", threads, 1)
    return induced_cohomology_map(m, radii, samples, seed, shape=shape, with_products=True)


def _cup_combination(ring: CohomologyRing, k: int, l: int, vi, vj) -> list[float]:
    """Class coordinates of (sum_a vi[a] rep_a^k) cup (sum_b vj[b] rep_b^l),
    summed over the cup table's sparse entries.  Skipping its zero
    coefficients moves no bit: out[c] starts at +0.0, so no sum makes it
    -0.0, and adding +-0.0 leaves any other value as it is.  The one
    exception is a non-finite vi[a] * vj[b]: its product with a zero
    coefficient, a NaN, is no longer added.  Each coefficient is read from
    the entry's (terms, den) pair as num / den, the correctly rounded
    quotient, which is float(Fraction(num, den)) bit for bit."""
    out = [0.0] * ring.spaces[k + l].betti
    for a, va in enumerate(vi):
        if va == 0.0:
            continue
        for b, vb in enumerate(vj):
            if vb == 0.0:
                continue
            terms, den = ring.cup._pair((k, l, a, b))
            for c, num in terms.items():
                out[c] += va * vb * (num / den)
    return out


def _projection_warning(degree: int, resid: float, se: float, warnings: list[str]):
    """Warn where a degree-``degree`` average's non-closed part, ``resid``
    (``CohomologySpace.closed_residual``), exceeds 10 stderrs."""
    if resid > 10.0 * se and resid > 1e-12:
        warnings.append(
            f"projection warning: degree-{degree} average has non-closed component "
            f"{resid:.3e} exceeding 10 x stderr ({se:.3e})"
        )


def exact_homomorphism_pullback(m: SmoothMap, omega: KForm) -> KForm:
    """Pullback through the constant frame differential at the identity.

    Valid when the map is a group homomorphism (the differential in
    left-invariant frames is then constant), giving a noise-free reference.
    """
    _check_on_codomain(m, [omega])
    mats = _at_point(differential_batch, m, (0.0,) * m.domain.dim)
    lambdas = basis_tuples(m.domain.dim, omega.degree)
    values = _coefficient_rows(mats, [(omega, lam) for lam in lambdas])[:, 0]
    out = {lam: float(v) for lam, v in zip(lambdas, values) if v != 0.0}
    return KForm(m.domain, omega.degree, out)


def amenable_norm(
    m: SmoothMap,
    observable,
    radii=DEFAULT_RADII,
    samples: int = 20000,
    seed: int = 0,
    shape: str = "box",
) -> list[dict]:
    """Square root of the ball average of |observable on the orbit|^2.

    ``observable`` needs an ``evaluate_batch(map, coords) -> values`` method;
    see ergodic.Observable.  Returns one record per radius.
    """
    radii = check_radii(radii)

    def squares(coords: np.ndarray) -> np.ndarray:
        vals = observable.evaluate_batch(m, coords)
        return vals * vals

    out = []
    for r in radii:
        cloud = sample_ball_coords(m.domain, BallSpec(r, shape), samples, seed, tags=("avg",))
        mean_sq, se_sq = cloud_mean(cloud, squares)
        value = float(np.sqrt(max(mean_sq, 0.0)))
        stderr = float(se_sq / (2.0 * value)) if value > 0 else float(np.sqrt(max(se_sq, 0.0)))
        out.append({"radius": r, "value": value, "stderr": stderr})
    return out
