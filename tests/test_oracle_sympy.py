"""Differential tests of the polynomial core against sympy.

sympy shares no code with qfe, so agreement on gcd, division and
rational-function reduction cross-checks the integer division routine that
all three run on.  sympy is a test-only dependency: without it these tests
are skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe.poly import Polynomial, gcd
from qfe.ratfunc import RationalFunction

sympy = pytest.importorskip("sympy")

q = sympy.Symbol("q")

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polynomials = st.lists(coefficients, max_size=6).map(Polynomial)
nonzero_polynomials = polynomials.filter(bool)


def to_sympy(p: Polynomial) -> "sympy.Poly":
    terms = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(terms or [0], q, domain="QQ")


def from_sympy(p: "sympy.Poly") -> Polynomial:
    return Polynomial(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


@given(nonzero_polynomials, polynomials, polynomials)
@settings(max_examples=80, deadline=None)
def test_gcd(common, x, y):
    # A shared factor makes a nontrivial gcd likely.
    a, b = common * x, common * y
    if a.is_zero and b.is_zero:
        return
    assert gcd(a, b) == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)).monic())


@given(polynomials, nonzero_polynomials)
@settings(max_examples=80, deadline=None)
def test_divmod(a, b):
    quot, rem = sympy.div(to_sympy(a), to_sympy(b))
    assert divmod(a, b) == (from_sympy(quot), from_sympy(rem))


@given(nonzero_polynomials, polynomials, nonzero_polynomials)
@settings(max_examples=80, deadline=None)
def test_reduction(common, x, y):
    a, b = common * x, common * y
    f = RationalFunction(a, b)
    num, den = sympy.fraction(sympy.cancel(to_sympy(a).as_expr() / to_sympy(b).as_expr()))
    num, den = sympy.Poly(num, q, domain="QQ"), sympy.Poly(den, q, domain="QQ")
    assert f.num == from_sympy(num.quo_ground(den.LC()))
    assert f.den == from_sympy(den.monic())
