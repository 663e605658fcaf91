"""Forward-mode first derivatives.

A ``Jet`` carries a value and its partials with respect to a fixed list of
input coordinates.  Values may be scalars or numpy sample batches; partials
have shape ``(n_inputs,) + value.shape``.  Arithmetic implements the exact
differentiation rules, so jets can flow through expression trees and the
polynomial group law alike.  A quotient's value is a/b, bit for bit the
float evaluation; its partials are built from 1/b.

Integer powers k >= 2, of jets and of numpy arrays alike, are products
(``powers``), because numpy's ``pow`` is far slower than the
multiplications it replaces: x**3 on 8192 floats of both signs takes
about 520 µs against 7 µs for x*x*x (numpy 2.4, 2-core Xeon).  A jet's
value is x^(k-1)·x, bit for bit the array power, and its partials are
(k·x^(k-1))·partials.

The ``d_*`` methods are the partials rules of a sum, a difference, a
negation and a unary call alone, bit for bit the operators' partials.
``dsl.evaluate`` runs them, and stores Jet(None, partials), for a term
that reaches an unread output through +, - and negation alone: activity
analysis (Griewank-Walther, *Evaluating Derivatives*, 2nd ed., 2008).  The
rules of a sum and a negation read no value, so only their operands may be
such jets; a call's rule reads its argument's value, which is computed.
"""

from __future__ import annotations

import numpy as np


class Jet:
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
        if not isinstance(k, int):
            raise TypeError("jet exponent must be an integer")
        if k == 0:
            return Jet(np.ones_like(np.asarray(self.value, dtype=float)), np.zeros_like(self.partials))
        if k >= 2:
            below, value = powers(self.value, k)
            return Jet(value, (k * below) * self.partials)
        return Jet(self.value ** k, (k * self.value ** (k - 1)) * self.partials)

    def unary(self, f, df) -> "Jet":
        return Jet(f(self.value), self.d_unary(df))

    # -- partials rules: the operators' partials without their value, the
    # same expressions in the same order; an operand may be a constant.
    # The arithmetic operators do not call them: one more call per op made
    # jacobian_batch of z^3 + a·z 4-8% slower on 64 columns (2-core Xeon).

    def d_neg(self):
        return -self.partials

    @staticmethod
    def d_add(a, b):
        if not isinstance(b, Jet):
            return a.partials
        if not isinstance(a, Jet):
            return b.partials
        return a.partials + b.partials

    @staticmethod
    def d_sub(a, b):
        if not isinstance(b, Jet):
            return a.partials
        if not isinstance(a, Jet):
            return -b.partials
        return a.partials - b.partials

    def d_unary(self, df):
        d = df(self.value)
        out = d * self.partials
        if not np.isfinite(d).all():  # an exact 0 partial of u stays 0, not inf * 0 = NaN
            out[(self.partials == 0.0) & ~np.isfinite(d)] = 0.0
        return out


def powers(x, k: int):
    """(x^(k-1), x^k) for an integer k >= 2, by products.

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


def value_of(x):
    return x.value if isinstance(x, Jet) else x
