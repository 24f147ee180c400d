"""Every public entry point refuses an argument outside its domain with a
ValueError that names the problem, and a scalar that is not an int or a
Fraction, or an operand of an unsupported type, with a TypeError."""

import operator
from decimal import Decimal
from fractions import Fraction

import pytest

from qfe.arith import factorize
from qfe.cyclo import MultisetQuotient, cyclotomic
from qfe.poly import ONE, Polynomial
from qfe.ratfunc import RationalFunction, StandardForm
from qfe.solutions import (
    SolutionSpec,
    combine,
    quantum_integer_spec,
    synthesize,
    verify_functional_equation,
)
from qfe.structure import StructureData, closed_form, degree_signature, validate_shift

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
    ],
)
def test_out_of_domain_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    ],
    ids=["float-coeff", "str-coeff", "monomial", "scaled", "evaluate", "rational-function",
         "spec", "standard-form", "scale", "shift", "validate-shift"],
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
    ],
    ids=["poly-sub", "rf-sub", "rf-truediv"],
)
@pytest.mark.parametrize("other", [1.5, Decimal(1), "1", None], ids=["float", "decimal", "str", "none"])
def test_unsupported_operand(value, op, symbol, other):
    # The reflected operators hand an unsupported left operand back to Python
    # as NotImplemented, so both sides fail alike instead of recursing.
    for left, right in ((value, other), (other, value)):
        with pytest.raises(TypeError, match=f"unsupported operand type\\(s\\) for {symbol}"):
            op(left, right)

