"""qfe: exact arithmetic for sequences of rational functions that multiply
like quantum integers.

The library covers, over the rationals and with no floating point anywhere:

  * dense polynomial and reduced rational-function arithmetic;
  * quantum integers, cyclotomic polynomials, and the certification that a
    polynomial vanishes only at 0 and at roots of unity;
  * candidate solutions given by prime generators: compatibility checking,
    synthesis of arbitrary terms, verification, and combinators;
  * the closed-form classification of all such solutions and the
    decomposition algorithm recovering it;
  * a text grammar, JSON documents, and the ``qfe`` command-line tool.
"""

from .arith import moebius
from .poly import (
    NEG_INFINITY,
    ONE,
    Q,
    ZERO,
    Polynomial,
    gcd,
    quantum_integer,
)
from .ratfunc import RationalFunction, StandardForm
from .cyclo import (
    CyclotomicFactorization,
    MultisetQuotient,
    NonCyclotomicFactor,
    as_multiset_quotient,
    cyclo_factor,
    cyclotomic,
    q_power_minus_one,
)
from .solutions import (
    NotASolution,
    SolutionSpec,
    combine,
    commutativity_violations,
    in_support,
    invert,
    is_commutative,
    quantum_integer_spec,
    synthesize,
    verify_functional_equation,
)
from .structure import (
    StructureData,
    TooFewPrimes,
    closed_form,
    decompose,
    degree_signature,
    scale_at,
    validate_shift,
)
from .expressions import ParseError, eval_expr, format_expr, parse_expr
from .documents import (
    DocumentError,
    format_rational,
    load_solution_spec,
    load_structure_data,
    parse_rational,
    solution_spec_from_dict,
    solution_spec_to_dict,
    structure_data_from_dict,
    structure_data_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "NEG_INFINITY",
    "ZERO",
    "ONE",
    "Q",
    "Polynomial",
    "gcd",
    "quantum_integer",
    "RationalFunction",
    "StandardForm",
    "moebius",
    "cyclotomic",
    "q_power_minus_one",
    "CyclotomicFactorization",
    "NonCyclotomicFactor",
    "cyclo_factor",
    "MultisetQuotient",
    "as_multiset_quotient",
    "SolutionSpec",
    "NotASolution",
    "in_support",
    "commutativity_violations",
    "is_commutative",
    "synthesize",
    "verify_functional_equation",
    "combine",
    "invert",
    "quantum_integer_spec",
    "StructureData",
    "TooFewPrimes",
    "validate_shift",
    "scale_at",
    "closed_form",
    "decompose",
    "degree_signature",
    "ParseError",
    "parse_expr",
    "eval_expr",
    "format_expr",
    "DocumentError",
    "parse_rational",
    "format_rational",
    "solution_spec_from_dict",
    "solution_spec_to_dict",
    "structure_data_from_dict",
    "structure_data_to_dict",
    "load_solution_spec",
    "load_structure_data",
    "__version__",
]
