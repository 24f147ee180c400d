"""Differential tests of the polynomial core and the cyclotomic layer
against sympy.

sympy shares no code with qfe, so agreement on gcd, division and
rational-function reduction cross-checks the integer division routine that
all three run on, and agreement on cyclotomic polynomials and factor lists
cross-checks the expansion every closed form goes through.  Standard forms
of parsed expressions are checked against sympy's cancellation.  sympy is a
test-only dependency: without it these tests are skipped.
"""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfe.cyclo import NonCyclotomicFactor, cyclo_factor, cyclotomic
from qfe.expressions import eval_expr, parse_expr
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


def test_cyclotomic():
    # Highly composite and prime-power indices, far beyond 300.
    for k in [*range(1, 301), 2310, 5040, 30030, 65536]:
        assert cyclotomic(k) == from_sympy(sympy.cyclotomic_poly(k, q, polys=True)), k


def test_cyclo_factor_matches_factor_list():
    index = {
        tuple(sympy.cyclotomic_poly(d, q, polys=True).all_coeffs()): d for d in range(1, 101)
    }
    rng = random.Random(2003)
    cases = []
    for _ in range(60):
        product = sympy.Poly(rng.choice([1, -1, 3, Fraction(-1, 2)]), q, domain="QQ")
        qpower = rng.randint(0, 2)
        product *= sympy.Poly(q**qpower, q)
        for d in rng.sample(range(1, 31), rng.randint(1, 3)):
            product *= sympy.cyclotomic_poly(d, q, polys=True) ** rng.randint(1, 2)
        # A monic integer cofactor, nonzero at 0; it may or may not hold
        # cyclotomic factors of its own.
        cofactor = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
        cofactor[-1] = cofactor[-1] or 2
        if rng.random() < 0.8:
            product *= sympy.Poly(cofactor, q)
        cases.append((product, qpower))
    # Non-monic integer cofactors 2q^2 - 1 and 3q + 1: the residual is their
    # monic associate, with every cyclotomic factor divided out.
    for unit, qpower, indices, cofactors in (
        (1, 0, [1], [[2, 0, -1]]),
        (Fraction(-1, 2), 1, [6, 6], [[3, 1]]),
        (3, 0, [5, 2], [[2, 0, -1], [3, 1]]),
    ):
        product = sympy.Poly(unit, q, domain="QQ") * sympy.Poly(q**qpower, q)
        for d in indices:
            product *= sympy.cyclotomic_poly(d, q, polys=True)
        for cofactor in cofactors:
            product *= sympy.Poly(cofactor, q)
        cases.append((product, qpower))
    for product, qpower in cases:
        unit, factors = sympy.factor_list(product)
        expected: dict[int, int] = {}
        residual = sympy.Poly(1, q)
        for factor, m in factors:
            factor = factor.monic()
            key = tuple(factor.all_coeffs())
            if key == (1, 0):  # the factor q
                assert m == qpower
            elif key in index:
                expected[index[key]] = m
            else:
                residual *= factor**m
        p = from_sympy(product)
        if residual.degree() > 0:
            with pytest.raises(NonCyclotomicFactor) as exc:
                cyclo_factor(p)
            assert exc.value.residual == from_sympy(residual)
        else:
            fact = cyclo_factor(p)
            assert fact.factors == expected
            assert fact.qpower == qpower
            assert fact.unit == p.leading


def expressions():
    """Pairs (expression text, the same expression in sympy)."""
    atoms = st.one_of(
        st.integers(0, 9).map(lambda k: (str(k), sympy.Integer(k))),
        st.just(("q", q)),
        st.tuples(st.integers(1, 4), st.integers(1, 3)).map(
            lambda nr: (f"qint({nr[0]}, {nr[1]})", sum(q ** (nr[1] * i) for i in range(nr[0])))
        ),
    )
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

    def extend(children):
        binary = st.tuples(children, st.sampled_from(sorted(ops)), children).map(
            lambda t: (f"({t[0][0]}) {t[1]} ({t[2][0]})", ops[t[1]](t[0][1], t[2][1]))
        )
        power = st.tuples(children, st.integers(-2, 3)).map(
            lambda t: (f"({t[0][0]})^({t[1]})", t[0][1] ** t[1])
        )
        return binary | power

    return st.recursive(atoms, extend, max_leaves=8)


@given(expressions())
@settings(max_examples=80, deadline=None)
def test_standard_form(case):
    text, expr = case
    try:
        value = eval_expr(parse_expr(text))
    except ZeroDivisionError:
        assume(False)
    assume(not value.is_zero)
    form = value.standard_form()
    num, den = (sympy.Poly(part, q, domain="QQ") for part in sympy.fraction(sympy.cancel(expr)))
    # The lowest powers of q in the coprime num and den give the shift.
    a, b = num.monoms()[-1][0], den.monoms()[-1][0]
    scale = num.LC() / den.LC()
    assert form.scale == Fraction(int(scale.p), int(scale.q))
    assert form.shift == a - b
    assert form.num == from_sympy(num.exquo(sympy.Poly(q**a, q, domain="QQ")).monic())
    assert form.den == from_sympy(den.exquo(sympy.Poly(q**b, q, domain="QQ")).monic())
