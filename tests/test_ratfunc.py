import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe.poly import ONE, ZERO, Polynomial, quantum_integer
from qfe.ratfunc import RationalFunction, StandardForm

from helpers import random_rational_function, substitute


def P(*coeffs):
    return Polynomial(coeffs)


def RF(num, den=ONE):
    return RationalFunction(num, den)


rngs = st.integers(0, 10**9).map(random.Random)
rational_functions = rngs.map(random_rational_function)
nonzero_rfs = rational_functions.filter(bool)


class TestConstruction:
    def test_common_factor_cancels(self):
        assert RF(P(-1, 0, 1), P(-1, 1)) == RF(P(1, 1))

    def test_cube_split(self):
        assert RF(P(1, 0, 0, 1), P(1, 1)) == RF(P(1, -1, 1))

    def test_scalar_denominator_folds(self):
        f = RF(P(2, 2), P(4))
        assert f.den == ONE
        assert f.num == P(Fraction(1, 2), Fraction(1, 2))
        # multiply back: num * 4 == (2q + 2) * den
        assert f.num * P(4) == P(2, 2) * f.den

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RF(P(1), ZERO)

    def test_zero_is_canonical(self):
        f = RF(ZERO, P(1, 2, 3))
        assert f.is_zero
        assert f.den == ONE

    def test_denominator_monic(self):
        f = RF(P(1), P(0, 2))
        assert f.den.is_monic
        assert f == RF(P(Fraction(1, 2)), P(0, 1))


class TestFieldOps:
    def test_quantum_ratio(self):
        # [2]_{q^3} / [2]_q = 1 - q + q^2
        assert RF(quantum_integer(2, 3)) / RF(quantum_integer(2)) == RF(P(1, -1, 1))

    def test_pow_zero(self):
        assert random_rational_function(random.Random(3)) ** 0 == RF(ONE)
        assert RationalFunction.zero() ** 0 == RF(ONE)

    def test_pow_negative(self):
        assert RF(P(1, 1)) ** -1 == RF(ONE, P(1, 1))
        with pytest.raises(ZeroDivisionError):
            RationalFunction.zero() ** -1

    def test_division_by_zero_function(self):
        with pytest.raises(ZeroDivisionError):
            RF(P(1)) / RationalFunction.zero()

    def test_add_sub(self):
        half = RF(P(1), P(2))
        assert half + half == RF(ONE)
        assert RF(P(0, 1)) + RF(ONE, P(0, 1)) == RF(P(1, 0, 1), P(0, 1))
        assert half - half == RationalFunction.zero()

    @given(nonzero_rfs, st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=40)
    def test_pow_additive(self, a, s, t):
        assert a ** (s + t) == a**s * a**t

    @given(rational_functions, rational_functions, rational_functions)
    @settings(max_examples=40)
    def test_mul_commutative_associative(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


class TestComposePower:
    def test_simple(self):
        assert RF(P(1, 1)).compose_power(2) == RF(P(1, 0, 1))

    def test_identity(self):
        f = random_rational_function(random.Random(11))
        assert f.compose_power(1) == f

    def test_against_substitution(self):
        f = RF(P(1, -1, 1))
        expected = substitute(f.num, Polynomial.monomial(2))
        assert f.compose_power(2) == RF(expected)
        assert f.compose_power(2) == RF(P(1, 0, -1, 0, 1))

    @given(rational_functions, rational_functions, st.integers(1, 5))
    @settings(max_examples=40)
    def test_distributes_over_mul(self, a, b, m):
        assert (a * b).compose_power(m) == a.compose_power(m) * b.compose_power(m)


class TestStandardForm:
    def test_scale_shift_split(self):
        f = RF(P(0, 0, 0, 2, 2), P(0, 4))
        form = f.standard_form()
        assert form.scale == Fraction(1, 2)
        assert form.shift == 2
        assert form.num == P(1, 1)
        assert form.den == ONE
        assert form.value() == f

    def test_one(self):
        form = RF(ONE).standard_form()
        assert form == StandardForm(Fraction(1), 0, ONE, ONE)

    def test_quantum_five_ratio(self):
        f = RF(quantum_integer(5, 3)) / RF(quantum_integer(5))
        form = f.standard_form()
        h5 = P(1, -1, 0, 1, -1, 1, 0, -1, 1)
        assert form.scale == 1
        assert form.shift == 0
        assert form.num == h5
        assert form.den == ONE
        assert form.value() == RF(h5)

    def test_zero_has_no_form(self):
        with pytest.raises(ValueError):
            RationalFunction.zero().standard_form()

    def test_value_simple_cases(self):
        assert StandardForm(Fraction(1), 0, ONE, ONE).value() == RF(ONE)
        assert StandardForm(Fraction(1), -1, ONE, ONE).value() == RF(ONE, P(0, 1))

    def test_value_matches_cross_multiplication(self):
        form = StandardForm(Fraction(1, 2), 2, P(1, 1), ONE)
        f = form.value()
        # equality with (2q^4 + 2q^3) / (4q) by cross-multiplication
        assert f.num * P(0, 4) == P(0, 0, 0, 2, 2) * f.den

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            StandardForm(Fraction(0), 0, ONE, ONE)
        with pytest.raises(ValueError):
            StandardForm(Fraction(1), 0, P(1, 2), ONE)  # not monic
        with pytest.raises(ValueError):
            StandardForm(Fraction(1), 0, P(0, 1), ONE)  # zero constant term
        with pytest.raises(ValueError):
            StandardForm(Fraction(1), 0, P(1, 1), P(1, 1))  # shared factor

    def test_degree_difference(self):
        form = RF(quantum_integer(4), quantum_integer(2)).standard_form()
        assert form.degree_difference == 2

    @given(nonzero_rfs)
    @settings(max_examples=60)
    def test_round_trip(self, f):
        form = f.standard_form()
        assert form.value() == f
        assert form.num.is_monic and form.den.is_monic
        assert form.num.constant_term and form.den.constant_term

    @given(nonzero_rfs)
    @settings(max_examples=30)
    def test_uniqueness_of_representation(self, f):
        # the split is reproducible and rebuilding from the parts is stable
        form = f.standard_form()
        assert form.value().standard_form() == form


MIXED_RF = RF(P(1, 1), P(0, 0, 1))  # (q + 1) / q**2
MIXED_P = P(0, 1)  # q


@pytest.mark.parametrize(
    "op, expected",
    [
        (lambda: MIXED_RF + 1, RF(P(1, 1, 1), P(0, 0, 1))),
        (lambda: 1 - MIXED_RF, RF(P(-1, -1, 1), P(0, 0, 1))),
        (lambda: 1 / MIXED_RF, RF(P(0, 0, 1), P(1, 1))),
        (lambda: Fraction(1, 2) - MIXED_RF, RF(P(-1, -1, Fraction(1, 2)), P(0, 0, 1))),
        (lambda: MIXED_P - MIXED_RF, RF(P(-1, -1, 0, 1), P(0, 0, 1))),
        (lambda: MIXED_P / MIXED_RF, RF(P(0, 0, 0, 1), P(1, 1))),
        (lambda: 1 - MIXED_P, RF(P(1, -1))),
    ],
    ids=["rf+1", "1-rf", "1/rf", "half-rf", "p-rf", "p/rf", "1-p"],
)
def test_mixed_type_operators(op, expected):
    assert op() == expected


def test_mixed_type_operator_rejects_strings():
    with pytest.raises(TypeError):
        MIXED_RF + "q"


def test_reflected_division_by_the_zero_function():
    with pytest.raises(ZeroDivisionError):
        1 / RationalFunction.zero()


def test_repr():
    assert repr(RF(P(1, 1), P(-1, 1))) == "RationalFunction('(q + 1)/(q - 1)')"
