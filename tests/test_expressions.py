import random
import re
import time
from fractions import Fraction

import pytest

from qfe.expressions import (
    MAX_DEGREE,
    MAX_NESTING,
    Add,
    Div,
    Group,
    Mul,
    Neg,
    Number,
    ParseError,
    Pow,
    QuantumInteger,
    Sub,
    Variable,
    eval_expr,
    format_expr,
    parse_expr,
)
from qfe.poly import ONE, Polynomial, quantum_integer
from qfe.ratfunc import RationalFunction

from helpers import random_rational_function


def P(*coeffs):
    return Polynomial(coeffs)


def evaluate(text):
    return eval_expr(parse_expr(text))


class TestParsing:
    def test_polynomial_generator(self):
        assert evaluate("1 - q + q^2") == RationalFunction(P(1, -1, 1))

    def test_quantum_integer_quotient(self):
        expected = RationalFunction(quantum_integer(5, 3)) / RationalFunction(
            quantum_integer(5)
        )
        assert evaluate("qint(5,3)/qint(5,1)") == expected

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError, match="non-integer exponent"):
            parse_expr("q^(1/2)")

    def test_negative_exponent_requires_parens(self):
        assert evaluate("q^(-2)") == RationalFunction(ONE, P(0, 0, 1))
        with pytest.raises(ParseError):
            parse_expr("q^-2")

    def test_ast_shapes(self):
        assert parse_expr("1 + q") == Add(Number(Fraction(1)), Variable())
        assert parse_expr("-q") == Neg(Variable())
        assert parse_expr("(q)") == Group(Variable())
        assert parse_expr("q^3") == Pow(Variable(), 3)
        assert parse_expr("qint(4)") == QuantumInteger(4, 1)
        assert parse_expr("qint(4, 2)") == QuantumInteger(4, 2)
        assert parse_expr("2 - q * 3") == Sub(
            Number(Fraction(2)), Mul(Variable(), Number(Fraction(3)))
        )
        assert parse_expr("1/2") == Div(Number(Fraction(1)), Number(Fraction(2)))

    def test_precedence(self):
        assert evaluate("1 + 2 * q") == RationalFunction(P(1, 2))
        assert evaluate("-q^2") == RationalFunction(P(0, 0, -1))
        assert evaluate("(1 + q)^2") == RationalFunction(P(1, 2, 1))
        assert evaluate("2*q^2") == RationalFunction(P(0, 0, 2))

    def test_left_associativity(self):
        assert evaluate("8/2/2") == RationalFunction(P(2))
        assert evaluate("1 - 2 - 3") == RationalFunction(P(-4))

    def test_right_associative_exponent_chain(self):
        assert evaluate("q^2^3") == RationalFunction(Polynomial.monomial(8))

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("1 + %")
        assert exc.value.position == 4
        with pytest.raises(ParseError) as exc:
            parse_expr("q +")
        assert exc.value.position == 3
        with pytest.raises(ParseError) as exc:
            parse_expr("1 + qunt(2)")
        assert exc.value.position == 4
        for text, message, position in (
            ("q^", "expected an exponent", 2),
            ("q^(q)", "non-integer exponent", 2),
            ("1 + )", "unexpected token ')'", 4),
        ):
            with pytest.raises(ParseError, match=re.escape(message)) as exc:
                parse_expr(text)
            assert exc.value.position == position, text

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_expr("1 + q q")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_expr("(1 + q")

    def test_qint_argument_validation(self):
        with pytest.raises(ParseError):
            parse_expr("qint(q)")
        with pytest.raises(ParseError):
            parse_expr("qint(0)")

    def test_whitespace_insensitive(self):
        assert parse_expr("1-q+q^2") == parse_expr("1 - q  +  q ^ 2")


class TestLimits:
    def test_nesting_limit(self):
        depth = MAX_NESTING
        assert evaluate("(" * depth + "q" + ")" * depth) == RationalFunction(P(0, 1))
        assert evaluate("-" * depth + "q") == RationalFunction(P(0, 1))
        assert evaluate("q" + "^1" * (depth + 1)) == RationalFunction(P(0, 1))
        with pytest.raises(ParseError, match="nesting") as exc:
            parse_expr("(" * 200 + "q" + ")" * 200)
        assert exc.value.position == depth
        with pytest.raises(ParseError, match="nesting") as exc:
            parse_expr("-" * (depth + 1) + "q")
        assert exc.value.position == depth
        with pytest.raises(ParseError, match="nesting"):
            parse_expr("q" + "^1" * (depth + 2))
        with pytest.raises(ParseError, match="nesting"):
            parse_expr("q^(" * (depth + 1) + "1" + ")" * (depth + 1))

    def test_long_flat_chains(self):
        n = 5000
        assert evaluate("+".join(["q"] * n)) == RationalFunction(P(0, n))
        assert evaluate("-".join(["q"] * n)) == RationalFunction(P(0, 2 - n))
        assert evaluate("q" + "*q/q" * (n // 2)) == RationalFunction(P(0, 1))

    def test_zero_to_negative_chained_exponent(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("q^0^(-1)")
        assert exc.value.position == 2

    def test_degree_limit(self):
        assert MAX_DEGREE == 100_000
        assert evaluate("q^100000") == RationalFunction(Polynomial.monomial(100_000))
        assert evaluate("qint(100001)").num.degree == 100_000
        assert evaluate("(q^2)^50000").num.degree == 100_000
        assert evaluate("q^2^16") == RationalFunction(Polynomial.monomial(2**16))
        for text, position in (
            ("q^100001", 1),
            ("q^(-100001)", 1),
            ("(q^2)^50001", 5),
            ("(1/q)^100001", 5),
            ("q^50001^2", 7),
            ("qint(100002)", 0),
            ("1 + qint(3, 50001)", 4),
            ("q^2^17", 3),
        ):
            with pytest.raises(ParseError, match="MAX_DEGREE") as exc:
                evaluate(text)
            assert exc.value.position == position, text

    def test_chain_degree_limit(self):
        assert evaluate("q^50000*q^50000").num.degree == 100_000
        assert evaluate("1/q^50000 - 1/(q^50000+1)").den.degree == 100_000
        for text, position in (
            ("q^100000*q^100000*q^100000", 8),
            ("q^60000/(1/q^60000)", 7),
            ("1/q^60000 + 1/(q^60000+1)", 10),
            ("q^60000 - 1/q^60000", 8),
            ("q + q^99999*q^2", 11),
        ):
            start = time.perf_counter()
            with pytest.raises(ParseError, match="MAX_DEGREE") as exc:
                evaluate(text)
            assert exc.value.position == position, text
            assert time.perf_counter() - start < 1.0, text

    def test_blow_ups_refused_before_allocation(self):
        for text in ("((" * 32 + "q" + ")^2)" * 32, "q^9^9^9", "2^9^9^9"):
            start = time.perf_counter()
            with pytest.raises(ParseError, match="MAX_DEGREE"):
                evaluate(text)
            assert time.perf_counter() - start < 1.0, text

    def test_chained_exponent_signs(self):
        assert evaluate("q^1^(-5)") == RationalFunction(P(0, 1))
        assert evaluate("q^(-1)^(-3)") == RationalFunction(ONE, P(0, 1))
        assert evaluate("q^(-2)^3") == RationalFunction(ONE, Polynomial.monomial(8))
        with pytest.raises(ParseError, match="non-integer") as exc:
            parse_expr("q^2^(-1)")
        assert exc.value.position == 2


class TestEvaluation:
    def test_cancellation(self):
        assert evaluate("(q^2-1)/(q-1)") == RationalFunction(P(1, 1))

    def test_scalar_fraction(self):
        assert evaluate("3/2") == RationalFunction(P(Fraction(3, 2)))

    def test_quantum_substitution(self):
        assert evaluate("qint(2,3)") == RationalFunction(P(1, 0, 0, 1))

    def test_division_by_zero_function(self):
        with pytest.raises(ZeroDivisionError):
            evaluate("1/(q - q)")
        with pytest.raises(ZeroDivisionError):
            evaluate("1/0")

    def test_zero_to_negative_power(self):
        with pytest.raises(ZeroDivisionError):
            evaluate("(q - q)^(-1)")

    def test_non_node_is_a_type_error(self):
        with pytest.raises(TypeError, match="^not an expression node: 42$"):
            eval_expr(42)


class TestFormatting:
    def test_polynomial(self):
        assert format_expr(RationalFunction(P(1, -1, 1))) == "q^2 - q + 1"

    def test_reciprocal(self):
        assert format_expr(RationalFunction(ONE, P(1, 1))) == "1/(q + 1)"

    def test_zero(self):
        assert format_expr(RationalFunction.zero()) == "0"

    def test_fraction_coefficients(self):
        text = format_expr(RationalFunction(P(Fraction(3, 2), 0, -2)))
        assert text == "-2*q^2 + 3/2"
        assert evaluate(text) == RationalFunction(P(Fraction(3, 2), 0, -2))

    def test_monomial_denominator(self):
        f = RationalFunction(ONE, Polynomial.monomial(2))
        assert format_expr(f) == "1/q^2"
        assert evaluate(format_expr(f)) == f

    def test_general_quotient(self):
        f = RationalFunction(P(1, 1), P(-1, 1))
        assert format_expr(f) == "(q + 1)/(q - 1)"

    def test_round_trip_examples(self):
        for text in ("q^2 - q + 1", "1/(q + 1)", "0"):
            value = evaluate(text) if text != "0" else RationalFunction.zero()
            assert format_expr(value) == text

    def test_round_trip_random(self):
        rng = random.Random(60)
        for _ in range(80):
            f = random_rational_function(rng)
            assert evaluate(format_expr(f)) == f


def test_long_integer_literal_is_a_parse_error_at_its_offset():
    digits = "9" * 5000
    for text, offset in ((f"q + {digits}", 4), (f"q^{digits}", 2), (f"qint({digits})", 5)):
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert exc.value.position == offset
        assert "set_int_max_str_digits" not in str(exc.value)
    assert evaluate("9" * 4000) == RationalFunction(Polynomial((int("9" * 4000),)))


def test_only_decimal_digits_are_integer_literals():
    # '²' is a digit to str.isdigit but not to int(); '٣' is decimal.
    assert evaluate("q^٣") == evaluate("q^3")
    for text, offset in (("q^²", 2), ("²", 0), ("q + 1²", 5)):
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert exc.value.position == offset
        assert str(exc.value) == f"unexpected character '²' (at offset {offset})"
