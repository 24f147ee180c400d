"""Acceptance suite: one check per release criterion, every one exact.

Run under pytest, or directly (``python3 tests/test_acceptance.py``) to get
one pass/fail line per criterion.
"""

import random
import sys
from fractions import Fraction

import pytest

from qfe.arith import divisors, moebius
from qfe.cyclo import MultisetQuotient, as_multiset_quotient, cyclotomic, q_power_minus_one
from qfe.poly import ONE, Polynomial
from qfe.ratfunc import RationalFunction
from qfe.solutions import (
    NotASolution,
    SolutionSpec,
    in_support,
    is_commutative,
    quantum_integer_spec,
    synthesize,
    verify_functional_equation,
)
from qfe.structure import TooFewPrimes, _peel, _read, closed_form, decompose

from helpers import random_multiset_pair, random_structure_data, spec_257

CRITERIA = []


def criterion(number, name):
    def register(fn):
        CRITERIA.append((number, name, fn))
        return fn

    return register


def _expect(exc_type, fn, reason=None):
    try:
        fn()
    except exc_type as exc:
        if reason is not None:
            got = getattr(exc, "reason", None)
            assert got == reason, f"expected reason {reason!r}, got {got!r}"
        return
    raise AssertionError(f"{exc_type.__name__} was not raised")


@criterion(1, "worked generators commute and synthesize back verbatim")
def check_worked_example_exact():
    spec = spec_257()
    assert is_commutative(spec)
    listed = {
        2: Polynomial([1, -1, 1]),
        5: Polynomial([1, -1, 0, 1, -1, 1, 0, -1, 1]),
        7: Polynomial([1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1]),
    }
    for p, expected in listed.items():
        synthesized = synthesize(spec, p)
        assert synthesized == RationalFunction(expected), f"f_{p} differs"
        assert synthesized.num.coeffs == expected.coeffs


@criterion(2, "worked example terms are polynomials of degree 2(n-1)")
def check_degree_law():
    spec = spec_257()
    for n in (2, 4, 5, 7, 10, 14, 35, 70):
        f = synthesize(spec, n)
        assert f.is_polynomial, f"f_{n} is not a polynomial"
        assert f.num.degree == 2 * (n - 1), f"f_{n} has degree {f.num.degree}"


@criterion(3, "worked example decomposes to t0=0, t_1=-1, t_3=+1, scale 1")
def check_worked_decomposition():
    sd = decompose(spec_257())
    assert sd.primes == (2, 5, 7)
    assert sd.scales == {2: Fraction(1), 5: Fraction(1), 7: Fraction(1)}
    assert sd.shift == 0
    assert sd.exponents == {1: -1, 3: 1}


@criterion(4, "cyclotomic product identity (k<=100) and Moebius sums (k<=500)")
def check_cyclotomic_identities():
    for k in range(1, 101):
        product = ONE
        for d in divisors(k):
            product = product * cyclotomic(d)
        assert product == q_power_minus_one(k), f"divisor product fails at k={k}"
    for k in range(1, 501):
        total = sum(moebius(d) for d in divisors(k))
        assert total == (1 if k == 1 else 0), f"Moebius sum fails at k={k}"


@criterion(5, "functional equation, symmetry, and prime-power expansion sweeps")
def check_functional_equation_suite():
    specs = (quantum_integer_spec([2, 3]), spec_257())
    for spec in specs:
        for m in range(1, 31):
            for n in range(1, 31):
                assert verify_functional_equation(spec, m, n), f"({m}, {n}) fails"
        members = [m for m in range(1, 31) if in_support(spec.primes, m)]
        for m in members:
            for k in (1, 2, 3):
                product = RationalFunction.one()
                for i in range(k):
                    product = product * synthesize(spec, m).compose_power(m**i)
                assert synthesize(spec, m**k) == product, f"expansion fails at {m}^{k}"


@criterion(6, "200 random structure data survive decompose(closed_form) exactly")
def check_round_trip_oracle():
    rng = random.Random(2026_08_09)
    for index in range(200):
        sd = random_structure_data(rng)
        spec = SolutionSpec({p: closed_form(sd, p) for p in sd.primes})
        recovered = decompose(spec)
        assert recovered == sd, f"instance {index}: {recovered} != {sd}"


@criterion(7, "crafted invalid specs each fail with their designated error")
def check_rejections():
    # commutativity violation between cyclotomic generators
    _expect(
        NotASolution,
        lambda: decompose(SolutionSpec({2: Polynomial([1, 1]), 3: Polynomial([1, 0, 1])})),
        reason="commutativity",
    )
    # off-torsion zeros and poles: generators built from q - 2 satisfy the
    # compatibility identity yet vanish off the roots of unity
    telescoping = SolutionSpec(
        {
            p: RationalFunction(Polynomial([-2] + [0] * (p - 1) + [1]), Polynomial([-2, 1]))
            for p in (2, 3)
        }
    )
    assert is_commutative(telescoping)
    _expect(NotASolution, lambda: decompose(telescoping), reason="non-cyclotomic")
    # inconsistent q-power exponents: shift rates 1 and 1/2
    _expect(
        NotASolution,
        lambda: decompose(
            SolutionSpec({2: Polynomial.monomial(1), 3: Polynomial.monomial(1)})
        ),
        reason="shift",
    )
    # a single prime admits no canonical structure
    _expect(
        TooFewPrimes,
        lambda: decompose(SolutionSpec({2: Polynomial([1, 1])})),
    )
    # peeling stall: after one extraction the maxima stop being prime multiples
    _expect(
        NotASolution,
        lambda: _peel({
            2: _read(MultisetQuotient(num={4: 1}).exponents(), 2),
            3: _read(MultisetQuotient(num={6: 1}).exponents(), 3),
        }),
        reason="peeling",
    )


@criterion(8, "200 random multiset quotients round-trip uniquely")
def check_multiset_uniqueness():
    rng = random.Random(15)
    for index in range(200):
        pair = random_multiset_pair(rng)
        value = pair.value()
        back = as_multiset_quotient(value.num, value.den)
        assert back == pair, f"instance {index}: {back} != {pair}"


def _run(number, name, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


@pytest.mark.parametrize(
    "number,name,fn", CRITERIA, ids=[f"criterion_{num}" for num, _, _ in CRITERIA]
)
def test_criterion(number, name, fn):
    _run(number, name, fn)


if __name__ == "__main__":
    failures = 0
    for number, name, fn in CRITERIA:
        try:
            _run(number, name, fn)
        except BaseException as exc:  # keep going; report everything
            failures += 1
            print(f"  {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
