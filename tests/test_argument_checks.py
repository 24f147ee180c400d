"""Every public entry point refuses an argument outside its domain with a
ValueError that names the problem, and a scalar that is not an int or a
Fraction, or an operand of an unsupported type, with a TypeError."""

import operator
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from qfe.arith import factorize, is_prime, moebius
from qfe.cyclo import CyclotomicFactorization, MultisetQuotient, cyclotomic
from qfe.poly import ONE, Polynomial
from qfe.ratfunc import RationalFunction, StandardForm
from qfe.solutions import (
    SolutionSpec,
    combine,
    in_support,
    quantum_integer_spec,
    synthesize,
    verify_functional_equation,
)
from qfe.structure import (
    StructureData,
    closed_form,
    degree_signature,
    scale_at,
    validate_shift,
)

from helpers import spec_257

ONES = {2: Fraction(1), 3: Fraction(1)}


def structure() -> StructureData:
    return StructureData((2, 3), ONES, Fraction(0), {1: 1})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Polynomial.monomial(-1), "monomial power must be >= 0"),
        (lambda: Polynomial((1, 1)).compose_power(0), "compose_power requires m >= 1"),
        (lambda: MultisetQuotient({2: 1}).dilate(0), "dilate requires d >= 1"),
        (lambda: cyclotomic(0), "cyclotomic requires k >= 1"),
        (lambda: factorize(0), "cannot factorize 0"),
        (lambda: synthesize(spec_257(), 0), "synthesize requires n >= 1"),
        (lambda: verify_functional_equation(spec_257(), 0, 1), "verify requires m, n >= 1"),
        (lambda: combine(spec_257(), spec_257(), dilate_f=0), "dilations must be >= 1"),
        (lambda: combine(spec_257(), quantum_integer_spec([2, 3]), 1, 1), "prime sets differ"),
        (lambda: closed_form(structure(), 0), "closed_form requires n >= 1"),
        (lambda: degree_signature(structure(), 5), "5 is outside the support"),
        (lambda: StructureData((2, 3), {2: Fraction(1), 5: Fraction(1)}, Fraction(0), {}),
         "scales must be given exactly on the primes"),
        (lambda: StructureData((2, 3), ONES, Fraction(0), {0: 1}),
         "exponent key 0 must be a positive integer"),
        (lambda: StructureData((2, 3), ONES, Fraction(0), {1.5: 1}),
         "exponent key 1.5 must be a positive integer"),
        (lambda: StructureData((2, 3), ONES, Fraction(0), {1: 0.5}),
         "exponent for r=1 must be a nonzero integer"),
        (lambda: MultisetQuotient({2.0: 1}), "num requires positive indices"),
        # A factorization's Phi_d exponents are positive, so value() drops none.
        (lambda: CyclotomicFactorization(Fraction(1), 0, {2: -1}),
         "factors requires positive indices and multiplicities, got -1"),
        (lambda: CyclotomicFactorization(Fraction(1), 0, {2: 0}),
         "factors requires positive indices and multiplicities, got 0"),
        (lambda: CyclotomicFactorization(Fraction(1), 0, {0: 1}),
         "factors requires positive indices and multiplicities, got 0"),
        (lambda: CyclotomicFactorization(Fraction(1), 0, {2.0: 1}),
         "factors requires positive indices and multiplicities, got 2.0"),
        (lambda: CyclotomicFactorization(Fraction(1), 0, {2: True}),
         "factors requires positive indices and multiplicities, got True"),
        (lambda: CyclotomicFactorization(Fraction(0), 0, {}), "unit must be nonzero"),
        (lambda: CyclotomicFactorization(Fraction(1), -1, {}), "qpower must be an integer >= 0, got -1"),
        (lambda: CyclotomicFactorization(Fraction(1), 1.0, {}), "qpower must be an integer >= 0, got 1.0"),
        (lambda: CyclotomicFactorization(Fraction(1), True, {}), "qpower must be an integer >= 0, got True"),
        # An index, a count or a prime key is an int and never a bool:
        # a float, a Fraction or True is refused even where its value would do.
        (lambda: SolutionSpec({2.0: 1, 3: 1}), "generator key 2.0 is not a prime"),
        (lambda: StructureData((2.0, 3.0), {2.0: 1, 3.0: 1}, 0, {1: 1}),
         "primes must be strictly increasing primes"),
        (lambda: synthesize(spec_257(), 6.5), "synthesize requires n >= 1, got 6.5"),
        (lambda: synthesize(spec_257(), Fraction(4)),
         "synthesize requires n >= 1, got Fraction\\(4, 1\\)"),
        (lambda: closed_form(structure(), 1.5), "closed_form requires n >= 1, got 1.5"),
        (lambda: degree_signature(structure(), 4.0),
         "support membership requires n >= 1, got 4.0"),
        (lambda: scale_at(structure(), 4.0), "scale_at requires n >= 1, got 4.0"),
        (lambda: in_support((2, 3), 6.0), "support membership requires n >= 1, got 6.0"),
        (lambda: factorize(12.0), "cannot factorize 12.0"),
        (lambda: moebius(6.0), "moebius\\(6.0\\): positive integer required"),
        (lambda: Polynomial((1, 1)).compose_power(True), "compose_power requires m >= 1, got True"),
        (lambda: cyclotomic(True), "cyclotomic requires k >= 1, got True"),
        (lambda: MultisetQuotient({2: True}),
         "num requires positive indices and multiplicities, got True"),
        # A signed integer argument passes the same rule with no bound.
        (lambda: Polynomial((1, 1)).shift(True), "shift requires an integer k, got True"),
        (lambda: Polynomial((1, 1)).shift(1.5), "shift requires an integer k, got 1.5"),
        (lambda: StandardForm(1, 1.5, ONE, ONE), "standard form shift must be an integer, got 1.5"),
        (lambda: StandardForm(1, True, ONE, ONE), "standard form shift must be an integer, got True"),
        (lambda: SolutionSpec({2: 1}).generator(2.0), "generator key must be an int, got 2.0"),
        # A value past the int/str digit limit is named by its size.
        (lambda: synthesize(spec_257(), -(10**5000)),
         "synthesize requires n >= 1, got <negative int of 16610 bits>"),
        (lambda: synthesize(spec_257(), Fraction(10**5000, 3)), "synthesize requires n >= 1, got <Fraction>"),
    ],
)
def test_out_of_domain_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_is_prime_is_false_on_anything_but_an_int():
    assert is_prime(2) and is_prime(3)
    for value in (2.0, 3.0, Fraction(2), True):
        assert is_prime(value) is False, value


@pytest.mark.parametrize(
    "call",
    [
        lambda: Polynomial([0.5]),
        lambda: Polynomial(["1/2"]),
        lambda: Polynomial.monomial(2, 0.5),
        lambda: Polynomial((1, 1)).scaled(0.5),
        lambda: Polynomial((1, 1))(0.5),
        lambda: RationalFunction(0.5),
        lambda: SolutionSpec({2: 0.1}),
        lambda: StandardForm(0.5, 0, ONE, ONE),
        lambda: StructureData((2, 3), {2: 0.5, 3: Fraction(1)}, Fraction(0), {}),
        lambda: StructureData((2, 3), ONES, 0.5, {}),
        lambda: validate_shift((2, 3), 0.5),
        lambda: CyclotomicFactorization(1.0, 0, {}),
    ],
    ids=["float-coeff", "str-coeff", "monomial", "scaled", "evaluate", "rational-function",
         "spec", "standard-form", "scale", "shift", "validate-shift", "factorization-unit"],
)
def test_non_exact_scalar(call):
    # A float or a string is refused, never converted through Fraction(x).
    with pytest.raises(TypeError, match="scalars must be int or Fraction"):
        call()


@pytest.mark.parametrize(
    "value, op, symbol",
    [
        (Polynomial((1, 1)), operator.sub, "-"),
        (RationalFunction(Polynomial((1, 1))), operator.sub, "-"),
        (RationalFunction(Polynomial((1, 1))), operator.truediv, "/"),
        (Polynomial((1, 1)), operator.mul, "*"),
        (RationalFunction(Polynomial((1, 1))), operator.mul, "*"),
        (Polynomial((1, 1)), divmod, "divmod()"),
    ],
    ids=["poly-sub", "rf-sub", "rf-truediv", "poly-mul", "rf-mul", "poly-divmod"],
)
@pytest.mark.parametrize("other", [1.5, Decimal(1), "1", None], ids=["float", "decimal", "str", "none"])
def test_unsupported_operand(value, op, symbol, other):
    # The reflected operators hand an unsupported left operand back to Python
    # as NotImplemented, so both sides fail alike instead of recursing.
    # A str times anything falls through to str's repeat, which refuses the
    # count with a text of its own.
    message = f"unsupported operand type\\(s\\) for {re.escape(symbol)}"
    if op is operator.mul and isinstance(other, str):
        message = "can't multiply sequence"
    for left, right in ((value, other), (other, value)):
        with pytest.raises(TypeError, match=message):
            op(left, right)


@pytest.mark.parametrize(
    "exponent",
    [0.0, -0.0, 2.0, Fraction(0), Fraction(2), Fraction(1, 2), Decimal(1), "1", None],
    ids=["float-0", "float-minus-0", "float-2", "fraction-0", "fraction-2", "fraction-half",
         "decimal", "str", "none"],
)
def test_non_integer_power(exponent):
    # An exponent is an int.  Anything else is refused, never read as its
    # value, and the reflected power fails as well.
    for value in (Polynomial((1, 1)), RationalFunction(Polynomial((1, 1)))):
        with pytest.raises(TypeError, match="exponents must be int"):
            value**exponent
        with pytest.raises(TypeError, match="unsupported operand type"):
            exponent**value


def test_equality_with_an_unsupported_type_is_false():
    assert (Polynomial((1, 1)) == "1") is False
    assert (RationalFunction(ONE) == "1") is False

