import os
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from nilcoh import algebra, dsl


# nonzero rationals with +-1 drawn often, for the exact kernels' unit and
# general paths
COEFFS = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                   st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)))


def corpus() -> dict:
    """The standard algebra corpus used across the suite."""
    return {
        "abelian1": algebra.abelian(1),
        "abelian2": algebra.abelian(2),
        "abelian3": algebra.abelian(3),
        "abelian4": algebra.abelian(4),
        "abelian5": algebra.abelian(5),
        "heisenberg3": algebra.heisenberg3(),
        "heisenberg5": algebra.heisenberg5(),
        "filiform4": algebra.filiform(4),
        "free2step3": algebra.free_nilpotent_two_step(3),
    }


def skewed_heisenberg3():
    """H3 in the basis f1 = e1, f2 = e2, f3 = e3 + e1, which is not adapted to
    the lower central series: [f1, f2] = f3 - f1 and [f2, f3] = f1 - f3, so
    g^2 is spanned by f3 - f1 and no basis vector lies in it."""
    return algebra.algebra_from_dict(
        {"dim": 3, "brackets": [[1, 2, [[3, 1], [1, -1]]], [2, 3, [[1, 1], [3, -1]]]]}
    )


def rational_filiform5():
    """filiform5 in a rescaled basis: [f1, f2] = 3/4 f3, [f1, f3] = -2/3 f4,
    [f1, f4] = 5/2 f5, so the group law's coefficients mix the Bernoulli
    denominators with those of the structure constants."""
    return algebra.validate_algebra(
        {(0, 1): {2: Fraction(3, 4)}, (0, 2): {3: Fraction(-2, 3)}, (0, 3): {4: Fraction(5, 2)}}, 5)


@pytest.fixture(scope="session")
def algebras() -> dict:
    return corpus()


@pytest.fixture
def value_calls(monkeypatch):
    """Counts of the value calls of each DSL function, in code generated
    from now on (a fresh table of generated functions)."""
    calls = dict.fromkeys(dsl.FUNCTIONS, 0)

    def counted(fn, f):
        def g(v):
            calls[fn] += 1
            return f(v)
        return g

    for fn, (f, df) in list(dsl._UNARY.items()):
        monkeypatch.setitem(dsl._UNARY, fn, (counted(fn, f), df))
    monkeypatch.setattr(dsl, "_RUNS", {})
    return calls
