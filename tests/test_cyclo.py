import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qfe.cyclo
import qfe.poly
from qfe.arith import divisors, euler_phi, factorize, moebius
from qfe.cyclo import (
    CyclotomicFactorization,
    MultisetQuotient,
    NonCyclotomicFactor,
    as_multiset_quotient,
    cyclo_factor,
    cyclotomic,
    q_power_minus_one,
)
from qfe.poly import ONE, ZERO, Polynomial, quantum_integer
from qfe.ratfunc import RationalFunction
from qfe.structure import closed_form

from helpers import (
    cyclo_factor_by_scan,
    cyclotomic_by_moebius,
    moebius_brute,
    multiset_value_by_two_products,
    power_product,
    random_multiset_pair,
    random_structure_data,
)

ROOT = Path(__file__).resolve().parents[1]


def P(*coeffs):
    return Polynomial(coeffs)


class TestMoebius:
    def test_one(self):
        assert moebius(1) == 1

    def test_square(self):
        assert moebius(4) == 0

    def test_two_primes(self):
        assert moebius(6) == 1

    def test_against_brute_force(self):
        for k in range(1, 80):
            assert moebius(k) == moebius_brute(k)

    def test_divisor_sum_identity(self):
        for k in range(1, 501):
            total = sum(moebius(d) for d in divisors(k))
            assert total == (1 if k == 1 else 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            moebius(0)


class TestCyclotomic:
    def test_first(self):
        assert cyclotomic(1) == P(-1, 1)

    def test_sixth(self):
        assert cyclotomic(6) == P(1, -1, 1)
        assert cyclotomic(6) == cyclotomic_by_moebius(6)

    def test_fourth(self):
        assert cyclotomic(4) == P(1, 0, 1)
        assert cyclotomic(4) == cyclotomic_by_moebius(4)

    def test_moebius_product_oracle(self):
        for k in range(1, 40):
            assert cyclotomic(k) == cyclotomic_by_moebius(k)

    def test_monic_integer_of_totient_degree(self):
        for k in range(1, 60):
            p = cyclotomic(k)
            assert p.is_monic
            assert p.degree == euler_phi(k)
            assert all(c.denominator == 1 for c in p.coeffs)

    def test_divisor_product_identity(self):
        for k in range(1, 101):
            product = ONE
            for d in divisors(k):
                product = product * cyclotomic(d)
            assert product == q_power_minus_one(k)


def test_cyclotomic_cache_concurrent_smoke():
    import threading

    results = []

    def worker(seed):
        rng = random.Random(seed)
        ks = rng.sample(range(1, 40), 39)
        results.append({k: cyclotomic(k) for k in ks})

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for table in results:
        for k, value in table.items():
            assert value == cyclotomic_by_moebius(k)


def test_expansions_run_no_division_or_power(monkeypatch):
    """cyclotomic, closed_form and CyclotomicFactorization.value expand
    through the q**j - 1 kernel alone: no polynomial division, no power."""
    calls: Counter[str] = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    count(qfe.poly, "_int_divmod")
    count(qfe.cyclo, "_int_divmod")
    count(Polynomial, "__divmod__")
    count(Polynomial, "__pow__")
    for k in range(1, 201):
        cyclotomic.__wrapped__(k)
    rng = random.Random(61)
    for _ in range(20):
        sd = random_structure_data(rng)
        for n in range(1, 31):
            closed_form(sd, n)
    CyclotomicFactorization(Fraction(-3, 2), 2, {1: 2, 6: 1, 12: 3, 30: 1}).value()
    assert calls == Counter()


class TestQPowerMinusOne:
    def test_first(self):
        assert q_power_minus_one(1) == P(-1, 1)

    def test_sixth(self):
        assert q_power_minus_one(6) == P(-1, 0, 0, 0, 0, 0, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            q_power_minus_one(0)


class TestCycloFactor:
    def test_cube_plus_one(self):
        fact = cyclo_factor(P(1, 0, 0, 1))
        assert fact == CyclotomicFactorization(Fraction(1), 0, {2: 1, 6: 1})
        assert cyclotomic(2) * cyclotomic(6) == P(1, 0, 0, 1)

    def test_q_power_times_linear(self):
        fact = cyclo_factor(P(-1, 1).shift(5))
        assert fact.unit == 1
        assert fact.qpower == 5
        assert fact.factors == {1: 1}

    def test_non_cyclotomic_residual(self):
        with pytest.raises(NonCyclotomicFactor) as exc:
            cyclo_factor(P(-2, 0, 1))
        assert exc.value.residual == P(-2, 0, 1)

    def test_partial_extraction_reports_residual(self):
        with pytest.raises(NonCyclotomicFactor) as exc:
            cyclo_factor(P(-1, 1) * P(-2, 0, 1))
        assert exc.value.residual == P(-2, 0, 1)

    def test_fractional_coefficients_fail_fast(self):
        with pytest.raises(NonCyclotomicFactor) as exc:
            cyclo_factor(P(Fraction(-1, 2), 1))
        assert exc.value.residual == P(Fraction(-1, 2), 1)

    def test_constant(self):
        assert cyclo_factor(P(Fraction(3, 4))) == CyclotomicFactorization(
            Fraction(3, 4), 0, {}
        )

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cyclo_factor(ZERO)

    def test_unit_and_multiplicity(self):
        p = cyclotomic(3) ** 2 * cyclotomic(12) * Fraction(5, 2)
        fact = cyclo_factor(p)
        assert fact.unit == Fraction(5, 2)
        assert fact.qpower == 0
        assert fact.factors == {3: 2, 12: 1}
        assert fact.value() == p

    def test_round_trip_random_products(self):
        rng = random.Random(20260809)
        for _ in range(40):
            factors = {
                d: rng.randint(1, 3) for d in rng.sample(range(1, 16), rng.randint(0, 4))
            }
            built = CyclotomicFactorization(
                unit=Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3])),
                qpower=rng.randint(0, 4),
                factors=factors,
            )
            assert cyclo_factor(built.value()) == built

    def test_random_non_cyclotomic_inputs_fail(self):
        rng = random.Random(5)
        for _ in range(15):
            stray = P(rng.choice([2, 3, -2]), rng.choice([1, 3]), 1)  # no unit-circle roots
            if not any(stray(x) == 0 for x in (1, -1)):
                with pytest.raises(NonCyclotomicFactor):
                    cyclo_factor(cyclotomic(rng.randint(1, 8)) * stray)

    @staticmethod
    def screened(monkeypatch, p):
        """The d whose Phi_d(x) the scan of p computes, in order."""
        screened = []
        at = qfe.cyclo._cyclotomic_at

        def counted(x, d, primes):
            screened.append(d)
            return at(x, d, primes)

        monkeypatch.setattr(qfe.cyclo, "_cyclotomic_at", counted)
        with pytest.raises(NonCyclotomicFactor):
            cyclo_factor(p)
        return screened

    def test_candidates_screened_are_bounded_by_totient_lemma(self, monkeypatch):
        # [65]_q + 1 has all 65 terms and no cyclotomic factor, so the walk
        # screens every candidate: the d with phi(d) <= 64, all of them
        # below 64 * bitlen(2 * 64**2) = 896, and none of the other integers.
        screened = self.screened(monkeypatch, quantum_integer(65) + ONE)
        assert 0 < len(screened) <= 896
        assert screened == [d for d in range(1, 897) if euler_phi(d) <= 64]

    def test_sparse_candidates_are_manns_set(self, monkeypatch):
        # q^64 - q - 1 has three terms and exponent differences 1, 63 and 64,
        # so the scan screens the divisors of 6, 6 * 63 and 6 * 64 within the
        # same bounds, and nothing else.
        screened = self.screened(monkeypatch, Polynomial.monomial(64) - P(1, 1))
        mann = {d for n in (6, 6 * 63, 6 * 64) for d in divisors(n) if euler_phi(d) <= 64}
        assert screened == sorted(d for d in mann if d <= 896)
        assert len(screened) < len([d for d in range(1, 897) if euler_phi(d) <= 64]) / 4


def test_totient_lemma_bounds_scan():
    """Every d <= 2n^2 with phi(d) <= n has d <= n * bitlen(2n^2), n <= 200."""
    limit = 2 * 200**2
    phi = list(range(limit + 1))  # a totient sieve that shares no code with qfe
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    for n in range(1, 201):
        reachable = [d for d in range(1, 2 * n * n + 1) if phi[d] <= n]
        assert max(reachable) <= n * (2 * n * n).bit_length(), n


def test_candidates_are_the_small_totients():
    """For deg <= 200 the enumeration is [d <= deg * bitlen(2 deg^2) :
    phi(d) <= deg] in order, with phi(d) and the primes of d."""
    limit = 200 * (2 * 200**2).bit_length()
    table = [(d, euler_phi(d), tuple(factorize(d))) for d in range(1, limit + 1)]
    for deg in range(201):
        bound = deg * (2 * deg * deg).bit_length()
        expected = [row for row in table[:bound] if row[1] <= deg]
        assert list(qfe.cyclo._candidates(deg)) == expected, deg


def test_cyclotomic_at_matches_polynomial_value():
    for d in range(1, 121):
        primes = tuple(factorize(d))
        for x in (2, 3, 7):
            assert qfe.cyclo._cyclotomic_at(x, d, primes) == cyclotomic(d)(x), (d, x)


class TestMultisetQuotient:
    def test_from_sixth_cyclotomic(self):
        mq = as_multiset_quotient(cyclotomic(6), ONE)
        assert mq.num == {1: 1, 6: 1}
        assert mq.den == {2: 1, 3: 1}
        # expand (q-1)(q^6-1) / ((q^2-1)(q^3-1)) independently and reduce
        expanded = RationalFunction(power_product({1: 1, 6: 1}), power_product({2: 1, 3: 1}))
        assert expanded == RationalFunction(cyclotomic(6))

    def test_empty_convention(self):
        mq = as_multiset_quotient(ONE, ONE)
        assert mq.num == {} and mq.den == {}
        assert mq.value() == RationalFunction(ONE)

    def test_quantum_integer_pair(self):
        mq = as_multiset_quotient(quantum_integer(5), ONE)
        assert mq.num == {5: 1}
        assert mq.den == {1: 1}
        expanded = RationalFunction(q_power_minus_one(5), q_power_minus_one(1))
        assert expanded == RationalFunction(quantum_integer(5))

    def test_conversion_failure_certifies(self):
        with pytest.raises(NonCyclotomicFactor):
            as_multiset_quotient(P(-2, 1), ONE)

    def test_rejects_non_monic_input(self):
        with pytest.raises(ValueError):
            as_multiset_quotient(P(2, 2), ONE)
        with pytest.raises(ValueError):
            as_multiset_quotient(P(0, 1), ONE)
        # Both parts are checked before either is read: a body that is no
        # cyclotomic product must not turn this into NonCyclotomicFactor.
        with pytest.raises(ValueError, match="monic"):
            as_multiset_quotient(P(-4, 2), ONE)
        with pytest.raises(ValueError, match="monic"):
            as_multiset_quotient(P(0, -2, 1), ONE)

    def test_value_simple(self):
        assert MultisetQuotient({2: 1}, {1: 1}).value() == RationalFunction(P(1, 1))

    def test_value_against_plain_products(self):
        rng = random.Random(99)
        for _ in range(25):
            mq = random_multiset_pair(rng, max_index=10, max_mult=2)
            plain = RationalFunction(power_product(mq.num), power_product(mq.den))
            assert mq.value() == plain

    def test_dilate(self):
        mq = MultisetQuotient({2: 1}, {1: 1})
        assert mq.dilate(3) == MultisetQuotient({6: 1}, {3: 1})
        assert mq.dilate(1) == mq

    def test_dilate_matches_composition(self):
        rng = random.Random(4)
        for _ in range(20):
            mq = random_multiset_pair(rng, max_index=8, max_mult=2)
            d = rng.randint(1, 4)
            assert mq.dilate(d).value() == mq.value().compose_power(d)

    def test_disjointness_required(self):
        with pytest.raises(ValueError):
            MultisetQuotient({2: 1}, {2: 1})
        with pytest.raises(ValueError):
            MultisetQuotient({0: 1}, {})
        with pytest.raises(ValueError):
            MultisetQuotient({2: 0}, {})

    def test_round_trip_random(self):
        rng = random.Random(31337)
        for _ in range(60):
            mq = random_multiset_pair(rng, max_index=18)
            value = mq.value()
            back = as_multiset_quotient(value.num, value.den)
            assert back == mq

    def test_uniqueness_distinct_pairs_distinct_values(self):
        rng = random.Random(8)
        for _ in range(40):
            a = random_multiset_pair(rng, max_index=10, max_mult=2)
            b = random_multiset_pair(rng, max_index=10, max_mult=2)
            if a != b:
                assert a.value() != b.value()

    def test_output_disjoint(self):
        rng = random.Random(12)
        for _ in range(30):
            mq = random_multiset_pair(rng, max_index=14)
            value = mq.value()
            back = as_multiset_quotient(value.num, value.den)
            assert not (set(back.num) & set(back.den))


LEHMER = P(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def factor_outcome(factor, p):
    """(unit, qpower, factors in scan order) or the residual of a rejection."""
    try:
        fact = factor(p)
    except NonCyclotomicFactor as exc:
        return ("residual", exc.residual)
    return (fact.unit, fact.qpower, list(fact.factors.items()))


def random_factor_input(rng):
    """unit * q**a * Phi_1**e1 * Phi_2**e2 * prod Phi_d**m * cofactor, where the
    cofactor is 1, a non-monic integer polynomial, a non-cyclotomic monic one,
    or one with fractional coefficients."""
    factors = {d: rng.randint(1, 3) for d in rng.sample(range(3, 25), rng.randint(0, 3))}
    factors.update({d: e for d in (1, 2) if (e := rng.randint(0, 3))})
    built = CyclotomicFactorization(
        unit=Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3])),
        qpower=rng.choice([0, 0, 1, 3]),
        factors=factors,
    )
    cofactor = rng.choice([
        ONE,
        ONE,
        ONE,
        P(rng.choice([-3, -2, 2, 3]), *[rng.randint(-3, 3) for _ in range(rng.randint(0, 3))], 2),
        P(-1, -1, 1),
        P(1, *[rng.randint(-2, 2) for _ in range(rng.randint(1, 4))], 1),
        P(Fraction(1, 2), 0, 1),
    ])
    return built.value() * cofactor


def test_screened_factorization_matches_unscreened_scan():
    rng = random.Random(909)
    for _ in range(500):
        p = random_factor_input(rng)
        assert factor_outcome(cyclo_factor, p) == factor_outcome(cyclo_factor_by_scan, p), p


def test_trial_divisions_only_for_true_factors(monkeypatch):
    """A product of cyclotomics is read off its power series, with no trial
    division and no screen; a stubborn input is rejected with no division."""
    divisions = []
    exact_div = qfe.cyclo._exact_int_div
    screened = []
    at = qfe.cyclo._cyclotomic_at

    def counted(a, b):
        divisions.append(b)
        return exact_div(a, b)

    def counted_at(x, d, primes):
        screened.append(d)
        return at(x, d, primes)

    monkeypatch.setattr(qfe.cyclo, "_exact_int_div", counted)
    monkeypatch.setattr(qfe.cyclo, "_cyclotomic_at", counted_at)
    rng = random.Random(77)
    for _ in range(100):
        factors = {d: rng.randint(1, 3) for d in rng.sample(range(1, 40), rng.randint(0, 5))}
        built = CyclotomicFactorization(Fraction(rng.choice([-2, 1, 3])), rng.randint(0, 2), factors)
        divisions.clear()
        screened.clear()
        assert cyclo_factor(built.value()) == built
        assert divisions == [] and screened == []
    for stubborn in (Polynomial.monomial(64) - P(1, 1), LEHMER.compose_power(4)):
        divisions.clear()
        with pytest.raises(NonCyclotomicFactor):
            cyclo_factor(stubborn)
        assert divisions == []


def outcome_and_divisions(p):
    """factor_outcome(cyclo_factor, p) and the number of trial divisions it ran."""
    divisions = []
    exact_div = qfe.cyclo._exact_int_div

    def counted(a, b):
        divisions.append(b)
        return exact_div(a, b)

    with mock.patch.object(qfe.cyclo, "_exact_int_div", counted):
        return factor_outcome(cyclo_factor, p), len(divisions)


def assert_read_is_the_scan_table(p):
    """The read of p's body is the signed q**k - 1 table of the scan's net
    Phi_d exponents, zeros dropped: the table that decompose peels."""
    body = qfe.poly._int_primitive(p._ints[p.valuation():])
    table = qfe.cyclo._moebius_table(cyclo_factor_by_scan(p).factors)
    assert qfe.cyclo._read_exponents(body) == {k: a for k, a in table.items() if a}


units = st.sampled_from([Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-5)])
qpowers = st.integers(0, 3)


@given(units, qpowers, st.dictionaries(st.integers(1, 200), st.integers(1, 3), max_size=3))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_read_agrees_with_scan_on_cyclotomic_products(unit, qpower, factors):
    p = CyclotomicFactorization(unit, qpower, factors).value()
    expected = (unit, qpower, sorted(factors.items()))
    assert outcome_and_divisions(p) == (expected, 0)
    assert factor_outcome(cyclo_factor_by_scan, p) == expected
    assert_read_is_the_scan_table(p)


@given(
    units,
    qpowers,
    st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 24)), min_size=1, max_size=3),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_read_completes_the_high_factor_of_dilated_quantum_integers(unit, qpower, terms):
    """[p]_{q**r} = (1 - q**(r*p)) / (1 - q**r) has its top index r*p above
    its degree r*(p - 1), so the read never sees it in the series."""
    p = Polynomial([unit]).shift(qpower)
    for prime, r in terms:
        p = p * quantum_integer(prime, r)
    outcome, divisions = outcome_and_divisions(p)
    assert outcome == factor_outcome(cyclo_factor_by_scan, p)
    assert outcome[0] == unit and divisions == 0
    assert_read_is_the_scan_table(p)


@given(st.integers(1, 200))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_read_agrees_with_scan_on_sparse_binomials(degree):
    p = Polynomial.monomial(degree) + ONE
    outcome, divisions = outcome_and_divisions(p)
    assert outcome == factor_outcome(cyclo_factor_by_scan, p)
    assert divisions == 0
    assert_read_is_the_scan_table(p)


@given(st.integers(1, 8), st.sampled_from([None, 1, 2, 3, 6, 10, 12, 30]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_palindromic_non_cyclotomic_falls_back_to_the_scan(k, d):
    """LEHMER(q**k), times Phi_d or not, is palindromic with f(0) = 1 but no
    product of cyclotomics: the read certifies nothing and the scan reports
    the residual."""
    p = LEHMER.compose_power(k) * (cyclotomic(d) if d else ONE)
    assert qfe.cyclo._read_exponents(list(qfe.poly._int_primitive(p._ints))) is None
    outcome = factor_outcome(cyclo_factor, p)
    assert outcome == factor_outcome(cyclo_factor_by_scan, p)
    assert outcome == ("residual", LEHMER.compose_power(k))


@given(
    st.one_of(st.just(LEHMER), st.integers(3, 9).map(lambda n: Polynomial.monomial(n) - P(1, 1))),
    st.integers(1, 5),
    st.sampled_from([None, 1, 2, 3, 4, 6, 10]),
    st.booleans(),
    st.sampled_from([1, -1, 3]),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_residual_of_a_dilation_is_the_dilated_residual(base, k, d, dilate_cofactor, unit):
    """base(q**k) times Phi_d, itself dilated by k or not: the scan runs on
    the undilated F, and its residual, dilated back, is the scan's residual
    of the whole polynomial."""
    cofactor = cyclotomic(d) if d else ONE
    p = (base.compose_power(k) * cofactor.compose_power(k if dilate_cofactor else 1)).scaled(unit)
    outcome = factor_outcome(cyclo_factor, p)
    assert outcome == factor_outcome(cyclo_factor_by_scan, p)
    assert outcome[0] == "residual"


def takes_manns_set(p):
    """Whether the scan of p, were it to run, would screen Mann's set: the
    dispatch that ``_residual`` makes on F, where p's body is F(q**step)."""
    body = qfe.poly._int_primitive(p._ints[p.valuation():])
    f = body[:: qfe.cyclo._step(body)]
    return qfe.cyclo._mann_candidates(f, len(f) - 1) is not None


def sparse_polynomial(draw, terms, top):
    """A polynomial with a nonzero constant term and terms - 1 more terms of
    exponent <= top, coefficients in +-{1, 2, 3}."""
    exponents = [0] + draw(st.lists(st.integers(1, top), min_size=terms - 1, max_size=terms - 1, unique=True))
    coeffs = [0] * (max(exponents) + 1)
    for e in exponents:
        coeffs[e] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return Polynomial(coeffs)


binomials = st.builds(lambda k, s: Polynomial.monomial(k) + P(s), st.integers(1, 30), st.sampled_from([1, -1]))


@st.composite
def dispatched_inputs(draw):
    """("mann", p) with p sparse for its degree, times at most one q**k +- 1
    or Phi_d of at most three terms, or ("walk", p) with five or six terms
    below degree 50, times at most one q**k +- 1 or Phi_d, d <= 30."""
    side = draw(st.sampled_from(["mann", "walk"]))
    if side == "mann":
        p = sparse_polynomial(draw, draw(st.integers(2, 3)), 300)
        small = st.sampled_from([1, 2, 3, 4, 6]).map(cyclotomic)
    else:
        p = sparse_polynomial(draw, draw(st.integers(5, 6)), 50)
        small = st.integers(1, 30).map(cyclotomic)
    for factor in draw(st.lists(st.one_of(binomials, small), max_size=1)):
        p = p * factor
    return side, p


@given(dispatched_inputs(), units)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_sparse_scan_agrees_with_trial_division(side_and_p, unit):
    """On sparse inputs, with and without a cyclotomic cofactor, on both
    sides of the dispatch, cyclo_factor has the factors of trial division
    by every candidate, or the same residual (the body over those factors)."""
    side, p = side_and_p
    assume(takes_manns_set(p) == (side == "mann"))
    p = p.scaled(unit)
    assert factor_outcome(cyclo_factor, p) == factor_outcome(cyclo_factor_by_scan, p)


@st.composite
def sparse_with_cyclotomic_factors(draw):
    """Sparse polynomials, some of them products of q**a +- 1."""
    if draw(st.booleans()):
        return sparse_polynomial(draw, draw(st.integers(2, 7)), 100)
    p = ONE
    for factor in draw(st.lists(binomials, min_size=1, max_size=3)):
        p = p * factor
    return p


@given(sparse_with_cyclotomic_factors())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_manns_set_holds_every_cyclotomic_divisor(p):
    """Mann's theorem: if Phi_d divides a t-term f, d divides N_t times a
    difference of two exponents of f, N_t the product of the primes <= t.
    The set is built here from plain divisor lists, and ``_mann_candidates``,
    when it lists one, lists it within the bounds in increasing d."""
    ints = list(p._ints)
    deg = len(ints) - 1
    support = [e for e, c in enumerate(ints) if c]
    n_t = 1
    for k in range(2, len(support) + 1):
        if factorize(k) == {k: 1}:
            n_t *= k
    mann = {d for i, a in enumerate(support) for b in support[i + 1 :] for d in divisors(n_t * (b - a))}
    bound = deg * (2 * deg * deg).bit_length()
    small = [d for d in range(1, bound + 1) if euler_phi(d) <= deg]
    dividing = {d for d in small if not qfe.poly._int_divmod(ints, cyclotomic(d)._ints)[1]}
    assert dividing <= mann
    listed = qfe.cyclo._mann_candidates(ints, deg)
    if listed is not None:
        assert listed == [(d, euler_phi(d), tuple(factorize(d))) for d in small if d in mann]


def test_read_stops_on_a_power_sum_at_a_zero_coefficient():
    """This palindrome has f(0) = 1, yet the power sums of its would-be
    roots of unity pass the degree at a zero coefficient of the series,
    which ends the read there; the scan then finds no Phi_d in it."""
    p = P(1, 2, 1, -1, 0, 1, 0, -1, 1, 2, 1)
    assert qfe.cyclo._inverse_euler(list(p._ints), 11, 10) is None
    assert qfe.cyclo._read_exponents(list(p._ints)) is None
    outcome = factor_outcome(cyclo_factor, p)
    assert outcome == factor_outcome(cyclo_factor_by_scan, p)
    assert outcome == ("residual", p)


signed_tables = st.dictionaries(st.integers(1, 200), st.integers(-3, 3), max_size=6)


@given(signed_tables, signed_tables)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_net_and_moebius_table_are_inverse(table, exponents):
    """_net takes a signed table of q**j - 1 exponents to the net Phi_d
    exponents, and _moebius_table takes them back, up to zero entries."""

    def nonzero(t):
        return {k: v for k, v in t.items() if v}

    assert nonzero(qfe.cyclo._moebius_table(qfe.cyclo._net(table))) == nonzero(table)
    assert nonzero(qfe.cyclo._net(qfe.cyclo._moebius_table(exponents))) == nonzero(exponents)


def test_sparse_binomial_of_high_degree_is_read():
    """1 + q**50000 = prod Phi_d over the d | 100000 that do not divide 50000;
    the scan would walk every d with euler_phi(d) <= 50000."""
    p = Polynomial.monomial(50000) + ONE
    start = time.perf_counter()
    fact = cyclo_factor(p)
    assert time.perf_counter() - start < 2
    assert fact.factors == {d: 1 for d in divisors(100000) if 50000 % d}
    assert fact.value() == p


@pytest.mark.parametrize(
    "stubborn",
    [P(-2147483660, 1), Polynomial.monomial(721) - P(2), Polynomial.monomial(1681) - P(2)],
    ids=["q-2147483660", "q^721-2", "q^1681-2"],
)
def test_exact_screen_runs_no_failing_division(monkeypatch, stubborn):
    """Phi_1(2) = 1 divides every f(2), and q - 2147483660 has no zero mod
    the prime 2147483659 that a modular screen at d = 1 could tell from 1;
    the exact screen rejects these without a trial division."""
    divisions = []
    exact_div = qfe.cyclo._exact_int_div

    def counted(a, b):
        divisions.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(qfe.cyclo, "_exact_int_div", counted)
    with pytest.raises(NonCyclotomicFactor):
        cyclo_factor(stubborn)
    assert divisions == []


def test_exact_screen_agrees_with_full_remainder():
    """Phi_d divides f exactly when f mod q**d - 1 leaves no remainder by
    Phi_d: random integer f of degree <= 80, half of them multiples of Phi_d."""
    rng = random.Random(1313)
    for d in range(1, 61):
        phi = cyclotomic(d)._ints
        for i in range(20):
            f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 81))]
            if i % 2:
                f = (Polynomial(f) * cyclotomic(d))._ints
            if not any(f):
                continue
            full = not qfe.poly._int_divmod(f, phi)[1]
            assert qfe.cyclo._cyclotomic_divides(phi, f, d) == full, (d, f)
            assert full or i % 2 == 0, (d, f)


@pytest.mark.parametrize(
    "p, x",
    [
        (P(-2, 1) * cyclotomic(3) * cyclotomic(12) ** 2, 3),
        (P(-2, 1) * P(-3, 1) * cyclotomic(5), 4),
        (P(-2, 1) * P(-3, 1) * P(-4, 1) * cyclotomic(1) * cyclotomic(2) ** 3, 5),
        (P(-2, 1).shift(2) * cyclotomic(6) * Fraction(-3, 2), 3),
    ],
)
def test_screen_moves_past_integer_roots(monkeypatch, p, x):
    """When f(2) = 0 (and f(3) = 0 ...) the integer screen evaluates at the
    least x with f(x) != 0, and the outcome is the unscreened scan's."""
    points = set()
    at = qfe.cyclo._cyclotomic_at

    def recorded(point, d, primes):
        points.add(point)
        return at(point, d, primes)

    monkeypatch.setattr(qfe.cyclo, "_cyclotomic_at", recorded)
    assert factor_outcome(cyclo_factor, p) == factor_outcome(cyclo_factor_by_scan, p)
    assert points == {x}


@pytest.mark.parametrize(
    "polynomial, limit",
    [
        ("Polynomial.monomial(400) - Polynomial([1, 1])", 0.1),
        ("Polynomial.monomial(800) - Polynomial([1, 1])", 0.5),
        ("Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]).compose_power(40)", 0.1),
        ("Polynomial.monomial(33333) + Polynomial.monomial(33332) + Polynomial([2])", 1),
    ],
    ids=["q^400-q-1", "q^800-q-1", "lehmer(q^40)", "2+q^33332+q^33333"],
)
def test_cold_rejection_time(polynomial, limit):
    """Rejections in a fresh process, with every cache empty."""
    code = (
        "import time\n"
        "from qfe import NonCyclotomicFactor, Polynomial, cyclo_factor\n"
        f"p = {polynomial}\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    cyclo_factor(p)\n"
        "except NonCyclotomicFactor:\n"
        "    print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert float(done.stdout) < limit


def test_value_matches_two_product_route():
    rng = random.Random(2024)
    for _ in range(200):
        mq = random_multiset_pair(rng, max_index=30, max_mult=3)
        value = mq.value()
        expected = multiset_value_by_two_products(mq)
        assert (value.num, value.den) == (expected.num, expected.den), mq
