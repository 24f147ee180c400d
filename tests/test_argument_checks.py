"""Every public entry point refuses an argument outside its domain with a
ValueError that names the problem."""

from fractions import Fraction

import pytest

from qfe.arith import factorize
from qfe.cyclo import MultisetQuotient, cyclotomic
from qfe.poly import Polynomial
from qfe.solutions import combine, quantum_integer_spec, synthesize, verify_functional_equation
from qfe.structure import StructureData, closed_form, degree_signature

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
    ],
)
def test_out_of_domain_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()
