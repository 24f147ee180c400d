import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe.poly import NEG_INFINITY, ONE, Q, ZERO, Polynomial, gcd, quantum_integer

from helpers import moebius_brute, substitute

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polynomials = st.lists(coefficients, max_size=6).map(Polynomial)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero)


def P(*coeffs):
    return Polynomial(coeffs)


class TestArithmetic:
    def test_mul_cyclotomic_split(self):
        # (1+q)(1-q+q^2) = 1+q^3
        assert P(1, 1) * P(1, -1, 1) == P(1, 0, 0, 1)

    def test_add_zero_identity(self):
        p = P(2, Fraction(1, 2), -3)
        assert p + ZERO == p
        assert ZERO + p == p

    def test_mul_geometric_telescope(self):
        # (q-1)(1+q+q^2+q^3) = q^4 - 1
        assert P(-1, 1) * P(1, 1, 1, 1) == P(-1, 0, 0, 0, 1)

    def test_sub(self):
        assert P(1, 2) - P(1, 1) == P(0, 1)
        assert P(1, 1) - P(1, 1) == ZERO

    def test_scalar_coercion(self):
        assert P(1, 1) + 1 == P(2, 1)
        assert 2 * P(1, 1) == P(2, 2)
        assert P(1, 1) * Fraction(1, 2) == P(Fraction(1, 2), Fraction(1, 2))

    def test_pow(self):
        assert P(1, 1) ** 0 == ONE
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        with pytest.raises(ValueError):
            P(1, 1) ** -1


class TestDivmod:
    def test_exact_split(self):
        # (q^3+1) / (q+1) = q^2 - q + 1
        quot, rem = divmod(P(1, 0, 0, 1), P(1, 1))
        assert quot == P(1, -1, 1)
        assert rem == ZERO

    def test_divide_by_one(self):
        a = P(3, Fraction(-1, 2), 0, 5)
        assert divmod(a, ONE) == (a, ZERO)

    def test_quantum_cofactor(self):
        # (q^5 - 1) / [5]_q = q - 1
        quot, rem = divmod(P(-1, 0, 0, 0, 0, 1), quantum_integer(5))
        assert quot == P(-1, 1)
        assert rem == ZERO

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(1, 1), ZERO)

    @given(polynomials, nonzero_polynomials)
    def test_round_trip(self, a, b):
        quot, rem = divmod(a, b)
        assert a == b * quot + rem
        assert rem.degree < b.degree


class TestGcd:
    def test_common_root_at_one(self):
        assert gcd(P(-1, 0, 1), P(-1, 0, 0, 1)) == P(-1, 1)

    def test_brute_force_oracle(self):
        # cross-check by trial division: q - 1 divides both, cofactors coprime
        a, b = P(-1, 0, 1), P(-1, 0, 0, 1)
        g = P(-1, 1)
        qa, ra = divmod(a, g)
        qb, rb = divmod(b, g)
        assert ra == ZERO and rb == ZERO
        # q+1 and [3]_q share no root: resultant-free check at small rationals
        assert all(qa(x) != 0 or qb(x) != 0 for x in (-1, 1, 2, Fraction(1, 2)))

    def test_gcd_with_zero(self):
        p = P(2, 4)
        assert gcd(p, ZERO) == p.monic() == P(Fraction(1, 2), 1)
        assert gcd(ZERO, p) == p.monic()

    def test_coprime(self):
        assert gcd(P(1, -1, 1), P(1, 1)) == ONE

    def test_gcd_zero_zero_undefined(self):
        with pytest.raises(ValueError):
            gcd(ZERO, ZERO)

    @given(nonzero_polynomials, nonzero_polynomials)
    @settings(max_examples=50)
    def test_divides_both(self, a, b):
        g = gcd(a, b)
        assert g.is_monic
        assert a % g == ZERO
        assert b % g == ZERO


class TestComposePower:
    def test_basic_substitution(self):
        assert P(1, 1).compose_power(3) == P(1, 0, 0, 1)

    def test_identity(self):
        p = P(1, Fraction(1, 3), 2)
        assert p.compose_power(1) == p

    def test_power_difference(self):
        # (q^2 - 1) at q -> q^3 gives q^6 - 1
        assert P(-1, 0, 1).compose_power(3) == P(-1, 0, 0, 0, 0, 0, 1)

    def test_degree_scales(self):
        p = P(1, 2, 3)
        assert p.compose_power(4).degree == 4 * p.degree

    @given(polynomials, st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=60)
    def test_composition_law(self, p, m, n):
        assert p.compose_power(m).compose_power(n) == p.compose_power(m * n)

    @given(polynomials, st.integers(1, 5))
    @settings(max_examples=40)
    def test_against_horner_substitution(self, p, m):
        assert p.compose_power(m) == substitute(p, Polynomial.monomial(m))


class TestEvaluation:
    def test_quantum_integer_at_one(self):
        assert quantum_integer(7)(1) == 7

    def test_constant_term(self):
        p = P(Fraction(5, 3), 2, 7)
        assert p(0) == Fraction(5, 3)

    def test_degree_eight_generator_at_one(self):
        coeffs = [1, -1, 0, 1, -1, 1, 0, -1, 1]
        # independent route: plain sum of the coefficients
        assert Polynomial(coeffs)(1) == sum(coeffs)
        assert Polynomial(coeffs)(1) == 1

    @given(polynomials, polynomials, coefficients)
    @settings(max_examples=60)
    def test_ring_homomorphism(self, a, b, x):
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


class TestQuantumInteger:
    def test_four(self):
        assert quantum_integer(4) == P(1, 1, 1, 1)

    def test_one_is_empty_sum(self):
        for r in (1, 2, 5):
            assert quantum_integer(1, r) == ONE

    def test_dilated_two(self):
        assert quantum_integer(2, 3) == P(1, 0, 0, 1)

    def test_shape(self):
        p = quantum_integer(6, 4)
        assert p.degree == 4 * 5
        assert all(c in (0, 1) for c in p.coeffs)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantum_integer(0)
        with pytest.raises(ValueError):
            quantum_integer(3, 0)

    def test_geometric_identity_up_to_200(self):
        # (q-1) * [k]_q == q^k - 1
        q_minus_one = P(-1, 1)
        for k in range(1, 201):
            assert q_minus_one * quantum_integer(k) == Polynomial.monomial(k) - ONE


class TestCanonicalForm:
    def test_zero_is_empty(self):
        assert P(0, 0, 0) == ZERO
        assert ZERO.coeffs == ()

    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)

    def test_zero_degree_sentinel(self):
        assert ZERO.degree == NEG_INFINITY
        assert ZERO.degree < -(10**9)
        assert max(ZERO.degree, P(5).degree) == 0

    def test_monic(self):
        assert P(2, 4).monic() == P(Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            ZERO.monic()

    def test_shift(self):
        assert P(1, 1).shift(2) == P(0, 0, 1, 1)
        assert P(0, 0, 1, 1).shift(-2) == P(1, 1)
        with pytest.raises(ValueError):
            P(1, 1).shift(-1)

    def test_valuation(self):
        assert P(0, 0, 3).valuation() == 2
        assert Q.valuation() == 1
        with pytest.raises(ValueError):
            ZERO.valuation()

    def test_str_round_readable(self):
        assert str(P(1, -1, 1)) == "q^2 - q + 1"
        assert str(ZERO) == "0"
        assert str(P(Fraction(3, 2), 0, -2)) == "-2*q^2 + 3/2"

    def test_hashable_and_equal(self):
        assert hash(P(1, 2)) == hash(P(1, 2))
        assert P(1) == 1
        assert P(0) == 0


@given(polynomials, nonzero_polynomials, coefficients)
def test_results_are_canonical(a, b, c):
    # Equal values must have equal stored forms, whichever operation built them.
    for result in (a + b, a - b, a * b, a.scaled(c), b.monic(), a // b, a % b):
        rebuilt = Polynomial(result.coeffs)
        assert result == rebuilt
        assert hash(result) == hash(rebuilt)


def test_exactness_no_floats():
    rng = random.Random(7)
    total = ONE
    for _ in range(30):
        total = total * Polynomial([Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)])
    assert all(isinstance(c, Fraction) for c in total.coeffs)


def test_moebius_brute_is_sane():
    assert [moebius_brute(k) for k in (1, 2, 3, 4, 6, 12, 30)] == [1, -1, -1, 0, 1, 0, -1]


def test_str_prints_coefficients_past_the_digit_limit():
    # str() of an int refuses past 4300 digits by default; printing must not.
    big = 3**9000
    assert str(Polynomial((1, big))) == f"{Decimal(big)}*q + 1"
    assert str(Polynomial((Fraction(-1, 7**6000), 0, 1))) == f"q^2 - 1/{Decimal(7**6000)}"
