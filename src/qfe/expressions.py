"""Concrete syntax for rational-function expressions.

Grammar, loosest to tightest binding:

    expr    := term (('+' | '-') term)*         left-associative
    term    := factor (('*' | '/') factor)*     left-associative
    factor  := '-' factor | power
    power   := atom ('^' exponent)?             right-associative
    atom    := INTEGER | 'q' | 'qint' '(' INT (',' INT)? ')' | '(' expr ')'

Exponents must be integer constants; a negative exponent must be
parenthesized, as in q^(-2).  Whitespace is insignificant.  Parse errors
carry the byte offset of the offending token.

Parentheses, unary minus and chained exponents nest at most MAX_NESTING
levels deep, which keeps parsing within the recursion limit; flat chains of
'+', '-', '*' and '/' may be any length.  Powers, exponent chains and qint
atoms whose degree would pass MAX_DEGREE are refused before allocation, and
so is each '+', '-', '*' or '/' whose unreduced result would.

``format_expr`` prints the canonical descending-power form, which always
parses back to the same function.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from ._value import _Value
from .poly import Polynomial, quantum_integer
from .ratfunc import RationalFunction


#: Deepest nesting of parentheses, unary minus and chained exponents accepted.
MAX_NESTING = 64

#: Largest degree a power, an exponent chain, a qint atom or one '+ - * /'
#: step may produce.
MAX_DEGREE = 100_000


class ParseError(ValueError):
    """Syntax error with the byte offset where it occurred."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


# -- AST ---------------------------------------------------------------------


class Number(_Value):
    __slots__ = ("value",)
    value: Fraction


class Variable(_Value):
    __slots__ = ()


class QuantumInteger(_Value):
    __slots__ = ("n", "r")
    _defaults = {"r": 1}
    n: int
    r: int


class Neg(_Value):
    __slots__ = ("operand",)
    operand: Expr


class Add(_Value):
    __slots__ = ("left", "right", "position")
    left: Expr
    right: Expr
    position: int  # offset of the operator


class Sub(_Value):
    __slots__ = ("left", "right", "position")
    left: Expr
    right: Expr
    position: int  # offset of the operator


class Mul(_Value):
    __slots__ = ("left", "right", "position")
    left: Expr
    right: Expr
    position: int  # offset of the operator


class Div(_Value):
    __slots__ = ("left", "right", "position")
    left: Expr
    right: Expr
    position: int  # offset of the operator


class Pow(_Value):
    __slots__ = ("base", "exponent", "position")
    base: Expr
    exponent: int
    position: int  # offset of the '^'


class Group(_Value):
    __slots__ = ("inner",)
    inner: Expr


Expr = Number | Variable | QuantumInteger | Neg | Add | Sub | Mul | Div | Pow | Group


# -- tokenizer ----------------------------------------------------------------

_SYMBOLS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens are (kind, text, position) with kind in {'int', 'name', 'sym'}."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(("int", text[start:i], start))
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
        elif c in _SYMBOLS:
            tokens.append(("sym", c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return tokens


def _int(digits: str, pos: int) -> int:
    """The value of an integer token; a ParseError at its offset past the
    interpreter's int-from-str digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def advance(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.index += 1
        return tok

    def expect(self, symbol: str) -> None:
        tok = self.peek()
        if tok is None or tok[0] != "sym" or tok[1] != symbol:
            pos = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {symbol!r}", pos)
        self.index += 1

    def at_symbol(self, *symbols: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "sym" and tok[1] in symbols

    def nested(self, pos: int, rule):
        """Apply a grammar rule one nesting level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        node = rule()
        self.depth -= 1
        return node

    # grammar rules, loosest first

    def expr(self) -> Expr:
        node = self.term()
        while self.at_symbol("+", "-"):
            _, op, pos = self.advance()
            right = self.term()
            node = Add(node, right, pos) if op == "+" else Sub(node, right, pos)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_symbol("*", "/"):
            _, op, pos = self.advance()
            right = self.factor()
            node = Mul(node, right, pos) if op == "*" else Div(node, right, pos)
        return node

    def factor(self) -> Expr:
        if self.at_symbol("-"):
            pos = self.advance()[2]
            return Neg(self.nested(pos, self.factor))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_symbol("^"):
            caret = self.advance()[2]
            return Pow(base, self.exponent(), caret)
        return base

    def exponent(self) -> int:
        """An integer constant; chained '^' folds right-associatively."""
        tok = self.peek()
        if tok is None:
            raise ParseError("expected an exponent", len(self.text))
        kind, value, pos = tok
        if kind == "int":
            self.advance()
            head = _int(value, pos)
        elif kind == "sym" and value == "(":
            self.advance()
            inner = self.nested(pos, self.expr)
            self.expect(")")
            head = self._as_integer(inner, pos)
        else:
            raise ParseError("non-integer exponent", pos)
        if self.at_symbol("^"):
            caret = self.advance()[2]
            tail = self.nested(caret, self.exponent)
            if head == 0 and tail < 0:
                raise ParseError("zero to a negative exponent", pos)
            if abs(head) > 1 and tail < 0:
                raise ParseError("non-integer exponent", pos)
            # |head|**tail >= 2**tail > MAX_DEGREE once tail passes its bit length.
            if abs(head) > 1 and (tail > MAX_DEGREE.bit_length() or abs(head) ** tail > MAX_DEGREE):
                raise ParseError(f"exponent above MAX_DEGREE = {MAX_DEGREE}", caret)
            return head ** abs(tail)
        return head

    @staticmethod
    def _as_integer(node: Expr, pos: int) -> int:
        value = eval_expr(node)
        if not value.is_polynomial or value.num.degree > 0:
            raise ParseError("non-integer exponent", pos)
        constant = value.num.constant_term
        if constant.denominator != 1:
            raise ParseError("non-integer exponent", pos)
        return constant.numerator

    def atom(self) -> Expr:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "int":
            return Number(Fraction(_int(value, pos)))
        if kind == "name":
            if value == "q":
                return Variable()
            if value == "qint":
                return self.qint_args(pos)
            raise ParseError(f"unknown name {value!r}", pos)
        if kind == "sym" and value == "(":
            inner = self.nested(pos, self.expr)
            self.expect(")")
            return Group(inner)
        raise ParseError(f"unexpected token {value!r}", pos)

    def qint_args(self, pos: int) -> QuantumInteger:
        self.expect("(")
        n = self.positive_int()
        r = 1
        if self.at_symbol(","):
            self.advance()
            r = self.positive_int()
        self.expect(")")
        if r * (n - 1) > MAX_DEGREE:
            raise ParseError(f"degree above MAX_DEGREE = {MAX_DEGREE}", pos)
        return QuantumInteger(n, r)

    def positive_int(self) -> int:
        tok = self.peek()
        if tok is None or tok[0] != "int":
            pos = tok[2] if tok else len(self.text)
            raise ParseError("expected a positive integer literal", pos)
        self.advance()
        value = _int(tok[1], tok[2])
        if value < 1:
            raise ParseError("expected a positive integer literal", tok[2])
        return value


def parse_expr(text: str) -> Expr:
    """Parse an expression, or raise ParseError with the byte offset."""
    parser = _Parser(text)
    node = parser.expr()
    leftover = parser.peek()
    if leftover is not None:
        raise ParseError(f"unexpected token {leftover[1]!r}", leftover[2])
    return node


_CHAIN = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _chain_degree(kind: type, a: RationalFunction, b: RationalFunction) -> int | float:
    """Largest degree of the unreduced numerator and denominator of a op b;
    degrees add under products and cross-multiplication."""
    if kind is Mul:
        return max(a.num.degree + b.num.degree, a.den.degree + b.den.degree)
    if kind is Div:
        return max(a.num.degree + b.den.degree, a.den.degree + b.num.degree)
    return max(a.num.degree + b.den.degree, b.num.degree + a.den.degree, a.den.degree + b.den.degree)


def eval_expr(node: Expr) -> RationalFunction:
    """Evaluate an AST exactly in the rational-function field."""
    if type(node) in _CHAIN:
        # A flat chain is a left-deep tree: walk its left spine without
        # recursion, then fold upwards.  Division by the zero function
        # raises ZeroDivisionError inside RationalFunction.
        spine = []
        while type(node) in _CHAIN:
            spine.append(node)
            node = node.left
        value = eval_expr(node)
        for op in reversed(spine):
            right = eval_expr(op.right)
            if _chain_degree(type(op), value, right) > MAX_DEGREE:
                raise ParseError(f"degree above MAX_DEGREE = {MAX_DEGREE}", op.position)
            value = _CHAIN[type(op)](value, right)
        return value
    if isinstance(node, Number):
        return RationalFunction(Polynomial((node.value,)))
    if isinstance(node, Variable):
        return RationalFunction(Polynomial((0, 1)))
    if isinstance(node, QuantumInteger):
        return RationalFunction(quantum_integer(node.n, node.r))
    if isinstance(node, Neg):
        return -eval_expr(node.operand)
    if isinstance(node, Pow):
        base = eval_expr(node.base)
        if max(base.num.degree, base.den.degree) * abs(node.exponent) > MAX_DEGREE:
            raise ParseError(f"degree above MAX_DEGREE = {MAX_DEGREE}", node.position)
        return base**node.exponent
    if isinstance(node, Group):
        return eval_expr(node.inner)
    raise TypeError(f"not an expression node: {node!r}")


def format_expr(f: "RationalFunction | Polynomial") -> str:
    """Canonical text form; eval_expr(parse_expr(format_expr(f))) == f."""
    return str(f)
