"""Integer powers by products.

Integer powers k >= 2 of numpy arrays are products (``powers``), because
numpy's ``pow`` is far slower than the multiplications it replaces: x**3
on 8192 floats of both signs takes about 520 µs against 7 µs for x*x*x
(numpy 2.4, 2-core Xeon).  The DSL's generated code (``dsl``) and the
group law's float polynomials (``bch``) both raise by ``powers``; in
forward mode the DSL keeps x^(k-1) for the partial k·x^(k-1).
"""

from __future__ import annotations


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
