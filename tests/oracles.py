"""Independent brute-force oracles used to cross-check the package.

Everything here is written against the definitions, not against the package
internals: forms are evaluated through explicit permutation signs (sympy),
differential matrices are assembled tuple by tuple, and ranks come from
sympy's exact rational elimination.
"""

import itertools
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import numpy as np
import sympy


def perm_sign(seq) -> int:
    """Permutation sign via explicit transposition count (None on repeats)."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    order = sorted(range(len(seq)), key=lambda i: seq[i])
    visited = [False] * len(seq)
    for start in range(len(seq)):
        if visited[start]:
            continue
        length = 0
        i = start
        while not visited[i]:
            visited[i] = True
            i = order[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def eval_on_tuple(coeffs: dict, indices) -> Fraction:
    """Evaluate a form given on sorted tuples at an arbitrary index tuple."""
    sign = perm_sign(indices)
    if sign == 0:
        return Fraction(0)
    return sign * coeffs.get(tuple(sorted(indices)), Fraction(0))


def bracket_coeffs(alg, i: int, j: int) -> dict:
    if i == j:
        return {}
    if i < j:
        return dict(alg.structure.get((i, j), {}))
    return {k: -c for k, c in alg.structure.get((j, i), {}).items()}


def naive_lower_central_series(alg) -> tuple:
    """(lcs, weights) from the definition g^1 = g, g^{m+1} = [g, g^m]: each
    g^{m+1} is spanned by the brackets [e_i, b] over the basis vectors e_i
    and a spanning set b of g^m, with independent vectors picked by sympy's
    row reduction.  weights[i] is the largest m with e_i in g^m, by rank."""
    n = alg.dim

    def span_basis(vectors):
        if not vectors:
            return []
        _, pivots = sympy.Matrix(vectors).T.rref()
        return [vectors[p] for p in pivots]

    def bracket_with_basis(i, b):
        out = [sympy.Integer(0)] * n
        for j, bj in enumerate(b):
            for k, c in bracket_coeffs(alg, i, j).items():
                out[k] += bj * sympy.Rational(c.numerator, c.denominator)
        return out

    unit = [[sympy.Integer(int(i == j)) for j in range(n)] for i in range(n)]
    layers = [unit]
    while layers[-1]:
        nxt = span_basis([bracket_with_basis(i, b) for i in range(n) for b in layers[-1]])
        assert len(nxt) < len(layers[-1]), "the series stopped shrinking: not nilpotent"
        layers.append(nxt)
    lcs = tuple(len(layer) for layer in layers)
    weights = tuple(
        max(m + 1 for m, layer in enumerate(layers)
            if layer and sympy.Matrix(layer + [unit[i]]).rank() == len(layer))
        for i in range(n)
    )
    return lcs, weights


def naive_differential_matrix(alg, k: int):
    """Matrix of the trivial-coefficient differential in degree k, assembled
    entry by entry from the alternating-sum definition."""
    n = alg.dim
    dom = list(combinations(range(n), k))
    cod = list(combinations(range(n), k + 1))
    mat = sympy.zeros(len(cod), len(dom))
    for col, src in enumerate(dom):
        coeffs = {src: Fraction(1)}
        for row, tgt in enumerate(cod):
            total = Fraction(0)
            for a in range(k + 1):
                for b in range(a + 1, k + 1):
                    rest = tuple(tgt[c] for c in range(k + 1) if c not in (a, b))
                    for m, cval in bracket_coeffs(alg, tgt[a], tgt[b]).items():
                        total += (-1) ** (a + b) * cval * eval_on_tuple(coeffs, (m,) + rest)
            if total:
                mat[row, col] = sympy.Rational(total.numerator, total.denominator)
    return mat


def naive_betti(alg) -> tuple:
    """Betti numbers from exact ranks: b_k = C(n,k) - rank d_k - rank d_{k-1}."""
    n = alg.dim
    mats = [naive_differential_matrix(alg, k) for k in range(n + 1)]
    ranks = [m.rank() for m in mats]
    out = []
    for k in range(n + 1):
        dim_k = sympy.binomial(n, k)
        rank_dk = ranks[k] if k < n else 0
        rank_prev = ranks[k - 1] if k > 0 else 0
        out.append(int(dim_k) - rank_dk - rank_prev)
    return tuple(out)


def cup_pairing_rank(ring, k: int, l: int) -> int:
    """``cohomology.cup_pairing_rank`` as it was before the pairing split by
    weight: every pair (i, j) in order through one echelon, stopping only
    at the target Betti number, with no unit or weight shortcut."""
    from nilcoh.exactlinalg import Echelon

    n = ring.algebra.dim
    if k + l > n:
        return 0
    bk, bl = ring.spaces[k].betti, ring.spaces[l].betti
    target = ring.spaces[k + l].betti
    if bk == 0 or bl == 0 or target == 0:
        return 0
    span = Echelon()
    rank = 0
    for i in range(bk):
        for j in range(bl):
            rank += span.insert(ring.cup._coordinates((k, l, i, j)))
            if rank == target:
                return rank
    return rank


def exact_det(rows) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col + 1, n):
                a[r][c] -= f * a[col][c]
    return det


def alternation_wedge_eval(a_coeffs: dict, m: int, b_coeffs: dict, n: int, indices) -> Fraction:
    """(a ^ b)(indices) from the alternation definition:
    (m+n)!/(m!n!) * A(a x b), with A the signed average over permutations."""
    import math

    k = m + n
    assert len(indices) == k
    total = Fraction(0)
    for sigma in permutations(range(k)):
        sign = perm_sign(sigma)
        left = tuple(indices[sigma[i]] for i in range(m))
        right = tuple(indices[sigma[i]] for i in range(m, k))
        total += sign * eval_on_tuple(a_coeffs, left) * eval_on_tuple(b_coeffs, right)
    factor = Fraction(math.factorial(m + n), math.factorial(m) * math.factorial(n))
    return factor * total / math.factorial(k)


def random_rational_form(alg, degree: int, rng, density: float = 0.6):
    """Random sparse exact-rational form for property tests."""
    from nilcoh.forms import KForm

    coeffs = {}
    for key in combinations(range(alg.dim), degree):
        if rng.random() <= density:
            num = rng.randint(-9, 9)
            if num:
                coeffs[key] = Fraction(num, rng.randint(1, 7))
    return KForm(alg, degree, coeffs)


def dense_twin(alg, rng):
    """The same algebra in the basis f_i = e_i + sum_{j>i} c_ij e_j with
    c_ij = +-1 drawn from rng: [f_a, f_b] is expanded in the e basis and
    solved back into f coordinates by forward substitution."""
    from nilcoh.algebra import validate_algebra

    n = alg.dim
    p = [[Fraction(int(i == j)) if j <= i else Fraction(rng.choice((-1, 1))) for j in range(n)]
         for i in range(n)]
    structure = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = [Fraction(0)] * n
            for i in range(n):
                for j in range(n):
                    for k, c in bracket_coeffs(alg, i, j).items():
                        v[k] += p[a][i] * p[b][j] * c
            x = []
            for j in range(n):
                x.append(v[j] - sum((x[i] * p[i][j] for i in range(j)), Fraction(0)))
            comps = {k: c for k, c in enumerate(x) if c}
            if comps:
                structure[(a, b)] = comps
    return validate_algebra(structure, n)


def _dynkin_words(max_weight: int):
    """Yield (coefficient, word) pairs of the Dynkin expansion of
    log(exp x exp y) up to max_weight; word entries are 0 for x, 1 for y.

        z = sum_{m>=1} (-1)^{m-1}/m  sum  [x^{r_1} y^{s_1} ... x^{r_m} y^{s_m}]
                                          / ((sum_i r_i + s_i) prod_i r_i! s_i!)

    with left-nested commutators of the word; words whose last two letters
    agree have a zero bracket and are skipped.
    """

    def rec(seq: list, weight: int):
        if seq:
            yield list(seq), weight
        for w in range(1, max_weight - weight + 1):
            for r in range(w + 1):
                seq.append((r, w - r))
                yield from rec(seq, weight + w)
                seq.pop()

    for seq, weight in rec([], 0):
        word: list[int] = []
        denom = weight
        for r, s in seq:
            word.extend([0] * r + [1] * s)
            denom *= factorial(r) * factorial(s)
        if len(word) >= 2 and word[-1] == word[-2]:
            continue
        yield Fraction((-1) ** (len(seq) - 1), len(seq)) / denom, tuple(word)


def dynkin_product_polys(alg) -> list:
    """Coordinates of x·y as term dicts in (x_1..x_n, y_1..y_n), summed word
    by word over the Dynkin expansion on the ``naive_poly_*`` kernels; the
    bracket of two polynomial vectors runs over every ordered basis pair."""
    n = alg.dim
    nvars = 2 * n
    letters = [[{tuple(int(j == i + n * side) for j in range(nvars)): Fraction(1)}
                for i in range(n)] for side in (0, 1)]

    def bracket(u, v):
        out = [{} for _ in range(n)]
        for i in range(n):
            for j in range(n):
                coeffs = bracket_coeffs(alg, i, j)
                if coeffs:
                    prod = naive_poly_mul(u[i], v[j])
                    for k, c in coeffs.items():
                        out[k] = naive_poly_add(out[k], naive_poly_scale(prod, c))
        return out

    nested = {}
    for word in sorted({w for _, w in _dynkin_words(alg.nilpotency_class)}, key=len):
        nested[word] = letters[word[0]] if len(word) == 1 else bracket(letters[word[0]], nested[word[1:]])
    out = [{} for _ in range(n)]
    for coeff, word in _dynkin_words(alg.nilpotency_class):
        out = [naive_poly_add(o, naive_poly_scale(p, coeff)) for o, p in zip(out, nested[word])]
    return out


def naive_preimages(points, converged, dets, scales, tol):
    """Greedy dedupe of one target's Newton points, start by start: a
    converged point strictly inside the window box is kept unless it lies
    within ``tol`` (max-norm) of a point already kept.  Returns the kept
    points and their determinants, in start order."""
    inside = converged & np.all(np.abs(points) < scales[:, None] * (1 - 1e-12), axis=0)
    roots, margins = [], []
    for c in np.flatnonzero(inside):
        p = points[:, c]
        if any(np.max(np.abs(p - q)) <= tol for q in roots):
            continue
        roots.append(p)
        margins.append(float(dets[c]))
    return roots, margins


def powers(x, k: int):
    """(x^(k-1), x^k) for an integer k >= 2, by products: the runtime
    reference of the multiplication chain the DSL's generated code writes
    out (``nilcoh.jets.powers``).

    x^(k-1) is built by left-to-right binary powering (square, then multiply
    by x on each set bit of k-1) and x^k is x^(k-1)·x.  x^2 is x·x, which is
    what numpy's ``x**2`` computes.  Each x^j carries at most j-1 roundings,
    so x^k is within a relative γ_{k-1} = (k-1)u / (1 - (k-1)u) of the exact
    power away from underflow (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, Lemma 3.1).
    """
    below = x
    for bit in bin(k - 1)[3:]:
        below = below * below
        if bit == "1":
            below = below * x
    return below, below * x


class Jet:
    """Dense forward-mode first derivatives: the reference for the DSL's
    generated code.

    A ``Jet`` carries a value and its partials with respect to all n input
    coordinates: values are numpy sample batches, partials (n,) + value.shape,
    and the partials of a coordinate the value does not read are ±0.0, or
    NaN where 0 * inf entered them.  Arithmetic implements the exact
    differentiation rules with the same ops the generated code runs, so the
    values agree bit for bit, and so do the partials of the coordinates a
    value reads, up to the ±0.0 and 0 * inf terms the generated code leaves
    out.  A quotient's value is a/b, bit for bit the float evaluation; its
    partials are built from 1/b.  Integer powers k >= 2 are ``powers``,
    x^(k-1)·x, with partials (k·x^(k-1))·partials.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = partials

    @classmethod
    def seed(cls, values, index: int, count: int) -> "Jet":
        """Input coordinate jet: d/dx_index = 1."""
        values = np.asarray(values, dtype=float)
        partials = np.zeros((count,) + values.shape)
        partials[index] = 1.0
        return cls(values, partials)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value, self.partials + other.partials)
        return Jet(self.value + other, self.partials)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.partials)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value - other.value, self.partials - other.partials)
        return Jet(self.value - other, self.partials)

    def __rsub__(self, other):
        return Jet(other - self.value, -self.partials)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.value * other.value,
                self.partials * other.value + other.partials * self.value,
            )
        return Jet(self.value * other, self.partials * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            inv = 1.0 / other.value
            return Jet(
                self.value / other.value,
                (self.partials - other.partials * (self.value * inv)) * inv,
            )
        return Jet(self.value / other, self.partials / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        return Jet(other / self.value, -self.partials * (other * inv * inv))

    def __pow__(self, k):
        if k == 0:
            return Jet(np.ones_like(np.asarray(self.value, dtype=float)), np.zeros_like(self.partials))
        if k >= 2:
            below, value = powers(self.value, k)
            return Jet(value, (k * below) * self.partials)
        return Jet(self.value ** k, (k * self.value ** (k - 1)) * self.partials)

    def unary(self, f, df) -> "Jet":
        d = df(self.value)
        out = d * self.partials
        if not np.isfinite(d).all():  # an exact 0 partial of u stays 0, not inf * 0 = NaN
            out[(self.partials == 0.0) & ~np.isfinite(d)] = 0.0
        return Jet(f(self.value), out)


def value_of(x):
    return x.value if isinstance(x, Jet) else x


WALK_UNARY = {
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda v: -np.sin(v)),
    "exp": (np.exp, np.exp),
    "log": (np.log, lambda v: 1.0 / v),
    "sqrt": (np.sqrt, lambda v: 0.5 / np.sqrt(v)),
    "abs": (np.abs, np.sign),
    "tanh": (np.tanh, lambda v: 1.0 - np.tanh(v) ** 2),
}


def product_power(x, j: int):
    """x^j for j >= 1 as the tape builds it: x^j = (x^(j/2))^2 for even j
    and x^(j-1)·x for odd j (binary powering from the leading bit)."""
    if j == 1:
        return x
    if j % 2:
        return product_power(x, j - 1) * x
    half = product_power(x, j // 2)
    return half * half


def walk(expr, env: list, warn=None):
    """Reference evaluator for DSL tapes: a recursive walk of one tree over
    floats, numpy arrays or ``Jet``s, with each node's domain check or kink
    warning right after its arguments are evaluated.  An array raised to
    k >= 2 is x^(k-1)·x by ``product_power``, as on the tape; constants and
    jets use ``**``."""
    from nilcoh.dsl import KINK_TOLERANCE, Bin, Call, Coord, DomainError, Neg, Num, PiConst, Pow

    def first_bad(mask):
        mask = np.asarray(mask)
        return None if mask.ndim == 0 else int(np.argmax(mask))

    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, PiConst):
        return np.pi
    if isinstance(expr, Coord):
        if expr.index >= len(env):
            raise DomainError(f"coordinate {expr.name} exceeds domain dimension {len(env)}")
        return env[expr.index]
    if isinstance(expr, Neg):
        return -walk(expr.arg, env, warn)
    if isinstance(expr, Bin):
        left = walk(expr.left, env, warn)
        right = walk(expr.right, env, warn)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        bad = np.equal(value_of(right), 0.0)
        if np.any(bad):
            raise DomainError("division by zero", first_bad(bad))
        return left / right
    if isinstance(expr, Pow):
        base = walk(expr.base, env, warn)
        if expr.exponent < 0:
            bad = np.equal(value_of(base), 0.0)
            if np.any(bad):
                raise DomainError("zero raised to a negative power", first_bad(bad))
        if isinstance(base, np.ndarray) and expr.exponent >= 2:
            return product_power(base, expr.exponent - 1) * base
        return base ** expr.exponent
    if isinstance(expr, Call):
        arg = walk(expr.arg, env, warn)
        raw = value_of(arg)
        if expr.fn == "log":
            bad = np.less_equal(raw, 0.0)
            if np.any(bad):
                raise DomainError("log of a nonpositive value", first_bad(bad))
        elif expr.fn == "sqrt":
            bad = np.less(raw, 0.0)
            if np.any(bad):
                raise DomainError("sqrt of a negative value", first_bad(bad))
        elif expr.fn == "abs" and warn is not None:
            near = np.less_equal(np.abs(raw), KINK_TOLERANCE)
            if np.any(near):
                count = int(np.sum(near)) if np.asarray(near).ndim else 1
                warn(f"abs evaluated within {KINK_TOLERANCE:g} of its kink ({count} sample(s))")
        f, df = WALK_UNARY[expr.fn]
        if isinstance(arg, Jet):
            return arg.unary(f, df)
        return f(arg)
    raise TypeError(f"not an expression node: {expr!r}")


def dense_newton_roots(m, starts, targets):
    """Damped Newton on the general batched forms in every dimension: the
    solvability guard on ``np.linalg.det`` and the step from
    ``np.linalg.solve``.  Returns (points, converged mask, Jacobians)."""
    from nilcoh.degree import NEWTON_MAX_ITER, NEWTON_TOL
    from nilcoh.maps import evaluate_batch, jacobian_batch

    x = starts.copy()
    alive = np.ones(x.shape[1], dtype=bool)
    for iteration in range(NEWTON_MAX_ITER + 1):
        vals, jacs = jacobian_batch(m, x)
        resid = vals - targets
        rnorm = np.max(np.abs(resid), axis=0)
        idx = np.flatnonzero(alive & (rnorm > NEWTON_TOL))
        solvable = np.abs(np.linalg.det(jacs[idx])) > 1e-300
        alive[idx[~solvable]] = False
        idx = idx[solvable]
        if iteration == NEWTON_MAX_ITER or idx.size == 0:
            break
        step = np.linalg.solve(jacs[idx], resid[:, idx].T[:, :, None])[:, :, 0].T
        for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            trial = x[:, idx] - alpha * step
            better = np.max(np.abs(evaluate_batch(m, trial) - targets[:, idx]), axis=0) < rnorm[idx]
            x[:, idx[better]] = trial[:, better]
            idx, step = idx[~better], step[:, ~better]
            if idx.size == 0:
                break
        alive[idx] = False
    return x, rnorm <= NEWTON_TOL, jacs


def masked_newton_roots(m, starts, targets):
    """The degree engine's damped Newton as it read with 2-D boolean masks:
    the closed-form step for n <= 2, LAPACK above, every gather ``a[:, mask]``
    or ``a[:, idx]`` and every scatter ``x[:, idx[better]] = ...``.  Returns
    (points, converged mask, Jacobians)."""
    from nilcoh.degree import NEWTON_MAX_ITER, NEWTON_TOL
    from nilcoh.maps import evaluate_batch, jacobian_batch

    n = len(starts)
    x = starts.copy()
    alive = np.ones(x.shape[1], dtype=bool)
    for iteration in range(NEWTON_MAX_ITER + 1):
        vals, jacs = jacobian_batch(m, x)
        resid = vals - targets
        rnorm = np.max(np.abs(resid), axis=0)
        idx = np.flatnonzero(alive & (rnorm > NEWTON_TOL))
        if n <= 2:
            j = jacs[idx].transpose(1, 2, 0)
            dets = j[0, 0] if n == 1 else j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        else:
            dets = np.linalg.det(jacs[idx])
        solvable = np.abs(dets) > 1e-300
        alive[idx[~solvable]] = False
        idx = idx[solvable]
        if iteration == NEWTON_MAX_ITER or idx.size == 0:
            break
        r = resid[:, idx]
        if n == 1:
            step = r / dets[solvable]
        elif n == 2:
            (a, b), (c, d) = j[:, :, solvable]
            step = np.stack([d * r[0] - b * r[1], a * r[1] - c * r[0]]) / dets[solvable]
        else:
            step = np.linalg.solve(jacs[idx], r.T[:, :, None])[:, :, 0].T
        for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            trial = x[:, idx] - alpha * step
            better = np.max(np.abs(evaluate_batch(m, trial) - targets[:, idx]), axis=0) < rnorm[idx]
            x[:, idx[better]] = trial[:, better]
            idx, step = idx[~better], step[:, ~better]
            if idx.size == 0:
                break
        alive[idx] = False
    return x, rnorm <= NEWTON_TOL, jacs


def live_minors(pattern):
    """``live(R, C)``: the positions j of the live terms of the first-row
    expansion of det D[R, C] under the (m, n) boolean ``pattern`` of the
    entries of D that can be nonzero; a term is live when its entry and its
    complementary minor are, an entry when the pattern says so (then
    ``(0,)``)."""
    entry = pattern.tolist()
    memo: dict = {}

    def live(rows_idx: tuple, cols: tuple) -> tuple:
        if len(rows_idx) == 1:
            return (0,) if entry[rows_idx[0]][cols[0]] else ()
        got = memo.get((rows_idx, cols))
        if got is None:
            first, rest = entry[rows_idx[0]], rows_idx[1:]
            got = memo[rows_idx, cols] = tuple(
                j for j, c in enumerate(cols) if first[c] and live(rest, cols[:j] + cols[j + 1:]))
        return got

    return live


GATHER_ITEMS = 2 ** 15  # floats per work array of ``gather_coefficient_rows``


def gather_coefficient_rows(recipes: list, pattern):
    """The reference for ``pullback._plan_coefficient_rows``: the same rows,
    ``rows(entries, out)`` on the (m * n, N) ``pullback._entries`` array,
    from a vectorized gather interpreter over blocks of samples.  Minors are
    built from degree 1 upward by the same first-row expansion, keeping two
    degrees alive: the minors of a degree are sorted by their number of live
    terms, so the t-th terms of all minors that have one are a prefix, and a
    term of odd j reads its entry from a negated copy of the entries, so
    that every term is added; each recipe's terms are added in order into
    a row that starts from +0.0 (or a 0-form's constant)."""
    m, n = pattern.shape
    live = live_minors(pattern)
    constants = []
    terms: list[list] = []  # degree -> [(row, cols, [(coefficient, R)])]
    for row, recipe in enumerate(recipes):
        if recipe is None:
            continue
        cols, kept = recipe
        if not cols:
            constants.append((row, kept[0][0]))
            continue
        terms += [[] for _ in range(len(cols) + 1 - len(terms))]
        terms[len(cols)].append((row, cols, kept))
    top = len(terms) - 1

    need: list[dict] = [{} for _ in range(top + 1)]
    for d in range(top, 1, -1):
        for _, cols, kept in terms[d]:
            for _, r in kept:
                need[d].setdefault((r, cols), live(r, cols))
        if d > 2:
            for (r, c), js in need[d].items():
                for j in js:
                    sub = (r[1:], c[:j] + c[j + 1:])
                    need[d - 1].setdefault(sub, live(*sub))
    minors = [sorted(ks, key=lambda k, ks=ks: -len(ks[k])) for ks in need]
    position = [{k: i for i, k in enumerate(keys)} for keys in minors]

    def index(degree: int, rows_idx: tuple, cols: tuple) -> int:
        if degree == 1:
            return rows_idx[0] * n + cols[0]
        return position[degree][rows_idx, cols]

    expansions = {}  # degree -> [(signed first-row entries, complementary minors)] per term t
    for d in range(2, top + 1):
        expansions[d] = []
        for t in range(len(need[d][minors[d][0]])):
            keys = [(r, c, need[d][r, c][t]) for r, c in minors[d] if len(need[d][r, c]) > t]
            expansions[d].append((
                np.array([r[0] * n + c[j] + (j % 2) * m * n for r, c, j in keys], dtype=np.intp),
                np.array([index(d - 1, r[1:], c[:j] + c[j + 1:]) for r, c, j in keys],
                         dtype=np.intp),
            ))

    rounds = {}  # degree -> t -> (pair rows, coefficients, minor indices) of t-th terms
    for d in range(1, top + 1):
        rounds[d] = []
        pair_terms = [(row, [(c, index(d, r, cols)) for c, r in kept])
                      for row, cols, kept in terms[d]]
        for t in range(max((len(p) for _, p in pair_terms), default=0)):
            row, coeff, idx = zip(*((r, *p[t]) for r, p in pair_terms if len(p) > t))
            rounds[d].append((np.array(row, dtype=np.intp), np.array(coeff)[:, None],
                              np.array(idx, dtype=np.intp)))
    width = max([len(e[0]) for es in expansions.values() for e in es]
                + [len(r[0]) for rs in rounds.values() for r in rs]
                + [2 * m * n] * (top > 1), default=1)
    block = max(1, GATHER_ITEMS // width)

    def rows(entries, out) -> None:
        count = entries.shape[1]
        out.fill(0.0)
        for row, value in constants:
            out[row] = value
        work = np.empty((4, width * min(block, count)))
        signed = np.empty((2 * m * n, min(block, count)) if top > 1 else (0, 0))

        def buffer(i: int, k: int, size: int):
            return work[i, :k * size].reshape(k, size)

        for start in range(0, count, block):
            level = ents = entries[:, start:start + block]
            size = ents.shape[1]
            if top > 1:
                sents = signed[:, :size]
                sents[:m * n] = ents
                np.negative(ents, out=sents[m * n:])
            for d in range(1, top + 1):
                if d > 1:
                    prev, level = level, buffer(d % 2, len(minors[d]), size)
                    for t, (first, sub) in enumerate(expansions[d]):
                        k = len(first)
                        a = level if t == 0 else buffer(2, k, size)
                        sents.take(first, axis=0, out=a, mode="clip")
                        a *= prev.take(sub, axis=0, out=buffer(3, k, size), mode="clip")
                        if t:
                            level[:k] += a
                for row, coeff, idx in rounds[d]:
                    a = level.take(idx, axis=0, out=buffer(2, len(idx), size), mode="clip")
                    a *= coeff
                    out[row, start:start + size] += a

    return rows


def coefficient_rows(mats, pairs):
    """Row r is omega on the frame columns lam for (omega, lam) = pairs[r],
    on the (N, m, n) matrices ``mats``: the full first-row expansion of
    every minor (every entry live) by ``gather_coefficient_rows``."""
    count, m, n = mats.shape
    recipes = []
    for omega, lam in pairs:
        sign = perm_sign(lam)
        kept = tuple((sign * float(c), r) for r, c in omega.coeffs.items())
        recipes.append((tuple(sorted(lam)), kept) if sign and kept else None)
    out = np.empty((len(pairs), count))
    entries = np.ascontiguousarray(mats.transpose(1, 2, 0)).reshape(m * n, count)
    gather_coefficient_rows(recipes, np.ones((m, n), dtype=bool))(entries, out)
    return out


def whole_array_averages(m, omegas, radius, samples, seed, shape):
    """Ball averages with every (form, lambda) row of a chunk held at once:
    the coefficient rows, v - shift and its square as whole (pairs x chunk)
    arrays.  The parity oracle of the blocked ``pullback._ball_averages``;
    returns, per form, a dict lambda -> (mean, stderr)."""
    from nilcoh import rng
    from nilcoh.forms import basis_tuples
    from nilcoh.group import BallSpec, sample_ball_coords
    from nilcoh.maps import differential_batch

    cloud = sample_ball_coords(m.domain, BallSpec(radius, shape), samples, seed, tags=("avg",))
    lambdas = {w.degree: basis_tuples(m.domain.dim, w.degree) for w in omegas}
    pairs = [(w, lam) for w in omegas for lam in lambdas[w.degree]]
    shift = None

    def evaluate(start, stop):
        nonlocal shift
        mats = differential_batch(m, cloud[:, start:stop])
        v = coefficient_rows(mats, pairs)
        if shift is None:
            shift = np.mean(v, axis=-1, keepdims=True)
        d = v - shift
        sum_d = np.sum(d, axis=-1, keepdims=True)
        return [v, sum_d, np.square(d, out=d)]

    count = cloud.shape[1]
    total, total_d, total_dd = reference_chunked_sums(evaluate, count, rng.CHUNK)
    _, stderr = rng.mean_and_stderr(total_d, total_dd, count)
    mean = total / count
    rows = iter(range(len(pairs)))
    return [{lam: (float(mean[r]), float(stderr[r])) for lam, r in zip(lambdas[w.degree], rows)}
            for w in omegas]


def reference_chunked_sums(evaluate, count: int, chunk: int) -> list:
    """``rng.chunked_sums`` as it was before the stacked sums: ``evaluate``
    returns a sequence of arrays whose last axis is the sample axis, each is
    summed with ``np.sum``, and each sum has its own Kahan compensation."""
    sums = comps = None
    for start in range(0, count, chunk):
        part = evaluate(start, min(start + chunk, count))
        part_sums = [np.sum(np.asarray(p, dtype=float), axis=-1) for p in part]
        if sums is None:
            sums = part_sums
            comps = [np.zeros_like(s) for s in part_sums]
            continue
        for i, ps in enumerate(part_sums):
            y = ps - comps[i]
            t = sums[i] + y
            comps[i] = (t - sums[i]) - y
            sums[i] = t
    return sums


def reference_cloud_mean(cloud, values):
    """``group.cloud_mean`` as it was before the stacked sums: per chunk and
    block, three ``np.sum`` calls with ``keepdims``, the blocks' sums
    concatenated per chunk into three arrays, and ``reference_chunked_sums``
    over them.  The reference of the lean loop, byte for byte."""
    from nilcoh import rng

    shifts = []

    def evaluate(start, stop):
        blocks = values(cloud[:, start:stop])
        sums = []
        for b, v in enumerate([blocks] if isinstance(blocks, np.ndarray) else blocks):
            if b == len(shifts):
                shifts.append(np.mean(v, axis=-1, keepdims=True))
            total = np.sum(v, axis=-1, keepdims=True)
            own = v.flags.writeable and v.dtype == np.float64 and not np.may_share_memory(v, cloud)
            d = np.subtract(v, shifts[b], out=v if own else np.empty(v.shape))
            sums.append((total, np.sum(d, axis=-1, keepdims=True),
                         np.sum(np.square(d, out=d), axis=-1, keepdims=True)))
        return [np.concatenate(s) for s in zip(*sums)]

    count = cloud.shape[1]
    total, total_d, total_dd = reference_chunked_sums(evaluate, count, rng.CHUNK)
    _, stderr = rng.mean_and_stderr(total_d, total_dd, count)
    return total / count, stderr


CLOUD_MEAN_COUNTS = (5000, 12000, 20000)  # 1, 2 and 3 chunks, the last one ragged


def cloud_mean_cases() -> dict:
    """Seeded inputs of ``group.cloud_mean``: name -> (cloud, values) on the
    H3 box of radius 3, at each of ``CLOUD_MEAN_COUNTS`` samples.  The
    values are a 1-D array; seven rows in three blocks that reuse one
    buffer; blocks that ``cloud_mean`` does not own (a view of the cloud, a
    read-only block, a float32 block); rows holding +-0, +-inf and NaN
    (signed-zero rows, a row with inf at many samples, and rows with inf,
    with inf and -inf, whose sum is NaN, and with NaN at a few samples, so
    that they reach some chunks and not others); and rows with a 1e8 offset."""
    from nilcoh import algebra
    from nilcoh.group import BallSpec, sample_ball_coords

    def one_d(coords):
        return np.sin(coords[0]) + 2.0 * coords[1]

    def row_blocks(coords):
        whole = np.stack([np.sin(k * coords[0]) + coords[1] * k + 1e3 * (k % 3)
                          for k in range(7)])
        buffer = np.empty(3 * coords.shape[1])
        for start in range(0, 7, 3):
            part = whole[start:start + 3]
            out = buffer[:part.size].reshape(part.shape)
            out[...] = part
            yield out

    def cloud_view(coords):
        return coords[1:]

    def read_only(coords):
        v = np.stack([np.sin(coords[0]) + 2.0 * coords[1], coords[2] ** 2])
        v.flags.writeable = False
        return v

    def float32(coords):
        return np.stack([np.sin(coords[0]) + 2.0 * coords[1], coords[2] ** 2]).astype(np.float32)

    def specials(coords):
        x, y, z = coords
        return np.stack([np.zeros_like(x), np.full_like(x, -0.0), np.where(x < 0.0, -0.0, y),
                         np.where(x > 2.9, np.inf, -0.0), np.where(x > 2.999, np.inf, y),
                         np.where(x > 2.999, np.inf, np.where(y < -2.999, -np.inf, y)),
                         np.where(z > 8.99, np.nan, x)])

    def offset(coords):
        return np.stack([1e8 + 0.001 * np.sin(coords[0]), -1e8 + coords[1]])

    h3 = algebra.heisenberg3()
    inputs = {"1-d": one_d, "row-blocks": row_blocks, "cloud-view": cloud_view,
              "read-only": read_only, "float32": float32, "specials": specials,
              "offset": offset}
    return {f"{name}-{count}": (sample_ball_coords(h3, BallSpec(3.0), count, seed=4), values)
            for count in CLOUD_MEAN_COUNTS for name, values in inputs.items()}


def eval_float(p, vals):
    """A ``Poly`` on floats or numpy arrays, as the group law evaluated it
    before its polynomials ran as DSL tapes: 0.0 plus each term in dict
    order, each term its coefficient times its coordinates in index order,
    x^e for e >= 2 by ``powers``.  The reference of ``Poly.tree`` and of
    every numeric group-law evaluation."""
    total = 0.0
    for k, c in p.terms.items():
        term = float(c)
        for i, e in enumerate(k):
            if e == 1:
                term = term * vals[i]
            elif e:
                term = term * powers(vals[i], e)[1]
        total = total + term
    return total


EDGE_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 1e-310, -1e-310)


def edge_points(n: int, gen, count: int = 2000) -> np.ndarray:
    """A (n, N) batch of points with edge coordinates (``EDGE_VALUES``):
    the whole grid for n <= 3; else ``count`` points drawn from the grid
    and, for each coordinate, each edge value at 8 seeded points in
    [-4, 4]^n."""
    values = np.array(EDGE_VALUES)
    if n <= 3:
        return np.array(list(itertools.product(values, repeat=n))).T.copy()
    grid = gen.choice(values, size=(n, count))
    single = gen.uniform(-4.0, 4.0, size=(n, n, len(values), 8))
    for i in range(n):
        single[i, i] = values[:, None]
    single = single.reshape(n, n, -1).transpose(1, 0, 2).reshape(n, -1)
    return np.concatenate([grid, single], axis=1)


def fused_differential_maps() -> list:
    """(name, map) pairs on which ``differential_batch``'s generated function
    is held to the frame products of a full tape run: the ``average``
    benchmark's H3 and H5 map shapes, the H3 doubling, a map on H3 in a
    basis whose frame diagonal is 1 + x2/2, one on a non-graded dense twin
    of filiform6, one on filiform7, an abelian one, and two on H3 whose
    components overflow (exp(800*x2) in x1, exp(800*x1) in x3)."""
    from conftest import skewed_heisenberg3
    from nilcoh import algebra
    from nilcoh.maps import map_from_texts

    h3, h5, skew = algebra.heisenberg3(), algebra.heisenberg5(), skewed_heisenberg3()
    twin = dense_twin(algebra.filiform(6), np.random.default_rng(1))
    fil7, r3 = algebra.filiform(7), algebra.abelian(3)

    def bent(n):
        texts = [f"x{i + 1}" for i in range(n)]
        texts[0] = "x1 + 0.3*sin(x2)"
        texts[1] = "x2 + 0.1*x1^2"
        texts[-1] += " + 0.2*x1*x2"
        return texts

    return [(name, map_from_texts(alg, alg, texts)) for name, alg, texts in (
        ("average-h3", h3, ["x1 + 0.3141*sin(x2)", "x2", "x3 + 0.2718*x1^2"]),
        ("average-h5", h5, ["x1 + 0.3141*sin(x2)", "x2", "x3 + 0.1414*x4^2", "x4",
                            "x5 + 0.1732*x1*x3"]),
        ("h3-doubling", h3, ["2*x1", "x2", "2*x3"]),
        ("skewed-h3", skew, bent(3)),
        ("dense-filiform6", twin, bent(6)),
        ("filiform7", fil7, ["x1 + 0.3*sin(x2)"] + [f"x{i + 1}" for i in range(1, 7)]),
        ("abelian", r3, ["x1 + sin(x2)", "x2*x3", "x3 - x1^3"]),
        ("h3-overflow-x2", h3, ["x1 + exp(800*x2)", "x2", "x3"]),
        ("h3-overflow-x1", h3, ["x1", "x2", "x3 + exp(800*x1)"]))]


def dense_poly_matrix(polys, vals, count: int) -> np.ndarray:
    """Every entry of a polynomial matrix evaluated at vals into a dense
    (count, n, n) stack, zeros and ones included."""
    n = len(polys)
    out = np.empty((count, n, n), dtype=float)
    for i in range(n):
        for j in range(n):
            out[:, i, j] = eval_float(polys[i][j], vals)
    return out


def stacked_differential(m, coords):
    """Values (m, N), coordinate Jacobians (N, m, n) and frame differentials
    (N, m, n) the dense way: the tape's Jacobian copied sample-first, the
    frames and the shift's translation Jacobian as dense stacks of every
    entry, and the products as stacked ``@``, T_shift @ J and
    (F_cod^-1 @ J) @ F_dom.  The parity oracle of the sparse frame products
    in ``maps``."""
    from nilcoh import dsl
    from nilcoh.bch import group_law

    coords = np.asarray(coords, dtype=float)
    dom, cod = group_law(m.domain), group_law(m.codomain)
    count = coords.shape[1]

    def translation(law, a, b):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float)[:, None], b)
        return dense_poly_matrix(law.trans_jac, list(a) + list(b), count)

    values = np.empty((m.codomain.dim, count))
    sample_last = np.empty((m.codomain.dim, m.domain.dim, count))
    dsl.evaluate(m.tape, list(coords), values, None, sample_last)
    jac = np.ascontiguousarray(sample_last.transpose(2, 0, 1))
    if m.shift is not None:
        jac = translation(cod, m.shift, values) @ jac
        values = cod.multiply_batch(np.array(m.shift), values)
    frames = dense_poly_matrix(dom.frame, list(coords), count)
    inv_frames = dense_poly_matrix(cod.inv_frame, list(values), count)
    return values, jac, inv_frames @ jac @ frames


# -- reference exact kernels -------------------------------------------------
#
# The exact kernels as first written: every term accumulates through
# ``dict.get(key, Fraction(0)) + ...``, and zeros are dropped where the
# original code dropped them.  The kernels in ``nilcoh`` must return the same
# dicts, item for item: the same keys, values and types, in the same order
# (``Poly.tree`` sums terms in dict order).  Terms are plain dicts here;
# ``naive_poly_*`` end with ``Poly.__init__``'s zero filter.


def ordered_items(d: dict) -> list:
    """(key, type, value) of each item, in dict order."""
    return [(k, type(v), v) for k, v in d.items()]


def _naive_poly(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v}


def naive_poly_add(a: dict, b: dict) -> dict:
    terms = dict(a)
    for k, v in b.items():
        terms[k] = terms.get(k, Fraction(0)) + v
    return _naive_poly(terms)


def naive_poly_sub(a: dict, b: dict) -> dict:
    terms = dict(a)
    for k, v in b.items():
        terms[k] = terms.get(k, Fraction(0)) - v
    return _naive_poly(terms)


def naive_poly_mul(a: dict, b: dict) -> dict:
    terms = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            terms[key] = terms.get(key, Fraction(0)) + va * vb
    return _naive_poly(terms)


def naive_poly_scale(a: dict, c) -> dict:
    c = Fraction(c)
    if not c:
        return {}
    return _naive_poly({k: c * v for k, v in a.items()})


def naive_poly_diff(a: dict, index: int) -> dict:
    terms = {}
    for k, v in a.items():
        e = k[index]
        if e:
            key = k[:index] + (e - 1,) + k[index + 1:]
            terms[key] = terms.get(key, Fraction(0)) + v * e
    return _naive_poly(terms)


def naive_axpy(y: dict, a, x: dict) -> None:
    """y += a * x in place, dropping entries that cancel."""
    for key, xv in x.items():
        s = y.get(key, Fraction(0)) + a * xv
        if s:
            y[key] = s
        else:
            y.pop(key, None)


def naive_bracket(alg, u: dict, v: dict) -> dict:
    """[u, v] of sparse {index: Fraction} vectors in Fraction arithmetic:
    a * b * [e_i, e_j] added by ``naive_axpy`` for each pair of nonzero
    coefficients, in the order of u, then v."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            if a and b:
                naive_axpy(out, a * b, bracket_coeffs(alg, i, j))
    return out


def naive_jacobi_residual(alg, i: int, j: int, k: int) -> list:
    """Dense [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], on
    ``naive_bracket``; ``alg`` needs only ``dim`` and ``structure``, so an
    unvalidated table can be probed."""
    res = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        inner = naive_bracket(alg, {a: Fraction(1)}, {b: Fraction(1)})
        naive_axpy(res, Fraction(1), naive_bracket(alg, inner, {c: Fraction(1)}))
    return [res.get(m, Fraction(0)) for m in range(alg.dim)]


def _naive_sort_with_sign(indices):
    idx = list(indices)
    sign = 1
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


def naive_wedge_coeffs(a: dict, b: dict) -> dict:
    """The coefficients of a ^ b for forms given by their coefficient dicts
    (the degree check against the algebra's dimension left to the caller)."""
    out = {}
    for left, ca in a.items():
        lset = set(left)
        for right, cb in b.items():
            if lset.intersection(right):
                continue
            key, sign = _naive_sort_with_sign(left + right)
            out[key] = out.get(key, 0) + sign * (ca * cb)
    return {k: c for k, c in out.items() if c}


def naive_differential_rows(alg, k: int) -> dict:
    """d_k by rows, {(k+1)-tuple: {k-tuple: coefficient}}."""
    rows = {}
    for target in combinations(range(alg.dim), k + 1):
        row = {}
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                comps = bracket_coeffs(alg, target[a], target[b])
                if not comps:
                    continue
                rest = target[:a] + target[a + 1:b] + target[b + 1:]
                sign = (-1) ** (a + b)
                for m, c in comps.items():
                    ss = _naive_sort_with_sign((m,) + rest)
                    if ss is None:
                        continue
                    key, perm = ss
                    row[key] = row.get(key, Fraction(0)) + sign * perm * c
        row = {key: c for key, c in row.items() if c}
        if row:
            rows[target] = row
    return rows


class NaiveEchelon:
    """``exactlinalg.Echelon``'s reduce, insert and kernel on ``naive_axpy``."""

    def __init__(self):
        self.rows = {}
        self.tags = {}

    def reduce(self, v: dict):
        out = {key: x for key, x in v.items() if x}
        tag = {}
        for p, c in [(p, c) for p, c in out.items() if p in self.rows]:
            naive_axpy(out, -c, self.rows[p])
            naive_axpy(tag, c, self.tags[p])
        return out, tag

    def insert(self, v: dict, tag=None) -> bool:
        residual, used = self.reduce(v)
        if not residual:
            return False
        row_tag = dict(tag or {})
        naive_axpy(row_tag, -Fraction(1), used)
        pivot = min(residual)
        scale = Fraction(1) / residual[pivot]
        row = {key: x * scale for key, x in residual.items()}
        row_tag = {key: x * scale for key, x in row_tag.items()}
        for p, other in self.rows.items():
            c = other.get(pivot)
            if c:
                naive_axpy(other, -c, row)
                naive_axpy(self.tags[p], -c, row_tag)
        self.rows[pivot] = row
        self.tags[pivot] = row_tag
        return True

    def kernel(self, columns) -> list:
        basis = []
        for free in columns:
            if free in self.rows:
                continue
            v = {free: Fraction(1)}
            for p, row in self.rows.items():
                c = row.get(free)
                if c:
                    v[p] = -c
            basis.append(v)
        return basis


def naive_cohomology(alg) -> list:
    """Per degree, (representatives' coefficient dicts, closed echelon,
    closed basis) as ``cohomology.cohomology`` builds them, on
    ``naive_differential_rows`` and ``NaiveEchelon``: d_k's kernel in basis
    order, the closed echelon fed d_{k-1}'s pivot columns, then the cocycles
    tagged by their index among the representatives."""
    n = alg.dim
    out = []
    coboundaries = []
    for k in range(n + 1):
        rows = naive_differential_rows(alg, k)
        d_k = NaiveEchelon()
        for row in rows.values():
            d_k.insert(dict(row))
        columns = {s: {t: row[s] for t, row in rows.items() if s in row} for s in sorted(d_k.rows)}
        closed = NaiveEchelon()
        for z in coboundaries:
            closed.insert(dict(z))
        reps = []
        for z in d_k.kernel(list(combinations(range(n), k))):
            if closed.insert(z, {len(reps): Fraction(1)}):
                reps.append({t: z[t] for t in sorted(z)})
        out.append((reps, closed, reps + coboundaries))
        coboundaries = list(columns.values())
    return out


def naive_cup_entry(spaces, k: int, l: int, i: int, j: int) -> list:
    """Dense class coordinates of rep_i^k ^ rep_j^l over ``naive_cohomology``'s spaces."""
    (left, *_), (right, *_), (reps, closed, _) = spaces[k], spaces[l], spaces[k + l]
    wedge = naive_wedge_coeffs(left[i], right[j])
    residual, coords = closed.reduce(wedge)
    assert not residual
    return [coords.get(c, Fraction(0)) for c in range(len(reps))]


def naive_group_law_terms(alg) -> tuple:
    """(product, trans_jac, frame, inv_frame) of ``bch.group_law`` as term
    dicts, built by the same sequence of polynomial operations (Varadarajan's
    recursion, then the substitution (a, y) = (-x, x) into trans_jac) on the
    reference kernels above."""
    from math import comb

    n = alg.dim
    nvars = 2 * n
    one = Fraction(1)

    def variable(i, count):
        return {tuple(int(j == i) for j in range(count)): one}

    def add(u, v):
        return [naive_poly_add(a, b) for a, b in zip(u, v)]

    def scale(u, c):
        return [naive_poly_scale(a, c) for a in u]

    def bracket(u, v):
        out = [{} for _ in range(n)]
        for (i, j), comps in alg.structure.items():
            w = naive_poly_sub(naive_poly_mul(u[i], v[j]), naive_poly_mul(u[j], v[i]))
            if not w:
                continue
            for k, c in comps.items():
                out[k] = naive_poly_add(out[k], naive_poly_scale(w, c))
        return out

    cls = alg.nilpotency_class
    bern = [one]
    for m in range(1, cls + 1):
        bern.append(-sum((comb(m + 1, k) * bern[k] for k in range(m)), Fraction(0)) / (m + 1))
    x = [variable(i, nvars) for i in range(n)]
    y = [variable(n + i, nvars) for i in range(n)]
    half_diff = scale([naive_poly_sub(a, b) for a, b in zip(x, y)], Fraction(1, 2))
    z = {1: add(x, y)}
    t = {(0, 0): z[1]}
    for m in range(1, cls):
        for j in range(1, m + 1):
            acc = [{} for _ in range(n)]
            for a in range(1, m + 1):
                if (j - 1, m - a) in t:
                    acc = add(acc, bracket(z[a], t[j - 1, m - a]))
            t[j, m] = acc
        nxt = bracket(half_diff, z[m])
        for p in range(2, m + 1, 2):
            nxt = add(nxt, scale(t[p, m], bern[p] / factorial(p)))
        z[m + 1] = scale(nxt, Fraction(1, m + 1))
    product = z[1]
    for m in range(2, cls + 1):
        product = add(product, z[m])

    trans = [[naive_poly_diff(product[i], n + j) for j in range(n)] for i in range(n)]
    frame = [[_naive_poly({k[:n]: v for k, v in p.items() if not any(k[n:])}) for p in row]
             for row in trans]

    def substitute(p):
        terms = {}
        for k, v in p.items():
            key = tuple(a + b for a, b in zip(k[:n], k[n:]))
            terms[key] = terms.get(key, Fraction(0)) + (-1) ** sum(k[:n]) * v
        return _naive_poly(terms)

    inv = [[substitute(p) for p in row] for row in trans]
    return product, trans, frame, inv


def neumann_inverse_frame(frame: list) -> list:
    """The inverse of a unipotent frame given by term dicts, as the
    alternating Neumann series I - N + N^2 - ... of N = frame - I, which
    terminates because N is nilpotent: the value reference for the inverse
    frame, whose term order it does not fix."""
    n = len(frame)
    one = Fraction(1)

    def mat_mul(a, b):
        out = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = {}
                for k in range(n):
                    if a[i][k] and b[k][j]:
                        acc = naive_poly_add(acc, naive_poly_mul(a[i][k], b[k][j]))
                out[i][j] = acc
        return out

    ident = [[{(0,) * n: one} if i == j else {} for j in range(n)] for i in range(n)]
    nil = [[naive_poly_sub(frame[i][j], ident[i][j]) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in ident]
    power = [row[:] for row in ident]
    sign = -1
    for _ in range(n):
        power = mat_mul(power, nil)
        if not any(p for row in power for p in row):
            return inv
        inv = [[naive_poly_add(inv[i][j], naive_poly_scale(power[i][j], sign)) for j in range(n)]
               for i in range(n)]
        sign = -sign
    raise ValueError("frame - I is not nilpotent")
