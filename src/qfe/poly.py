"""Exact dense univariate polynomial arithmetic over the rationals.

A polynomial is stored in one canonical form: a tuple of integers ``ints``
with no trailing zeros over one positive denominator ``den`` that shares no
factor with all of them, denoting sum(ints[i] * q**i) / den.  The zero
polynomial is the empty tuple over 1; its degree is NEG_INFINITY so that
degree comparisons stay total.  Equality and hashing compare the stored form.

All arithmetic runs on integers, never on floats.  Scalars are ``int`` or
``Fraction``: ``_exact`` refuses a float or a string with TypeError instead
of converting it.  ``Fraction`` values are built only at the API boundary
(``coeffs``, ``leading``, ``constant_term``, evaluation and printing).
Division, the gcd remainder sequence and the exact-divisibility tests of
``cyclo`` share one fraction-free division routine, ``_int_divmod``.

Values are immutable and all operations are pure, so polynomials may be
shared freely between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd as _igcd
from math import lcm as _lcm

from .arith import _index

Scalar = int | Fraction

#: Degree of the zero polynomial; compares below every integer.
NEG_INFINITY = float("-inf")


class Polynomial:
    """Immutable dense polynomial in q with rational coefficients, stored as
    canonical integer coefficients over one positive denominator."""

    __slots__ = ("_ints", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        values = [_exact(c) for c in coeffs]
        den = _lcm(*(v.denominator for v in values))
        p = _make([v.numerator * (den // v.denominator) for v in values], den)
        self._ints, self._den = p._ints, p._den

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        """coeff * q**power."""
        _index(power, 0, "monomial power must be >= 0, got {!r}")
        return cls([0] * power + [coeff])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in increasing power order, as Fractions."""
        return tuple(Fraction(c, self._den) for c in self._ints)

    @property
    def degree(self) -> int | float:
        return len(self._ints) - 1 if self._ints else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def leading(self) -> Fraction:
        """Leading coefficient; 0 for the zero polynomial."""
        return Fraction(self._ints[-1], self._den) if self._ints else Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._ints[0], self._den) if self._ints else Fraction(0)

    @property
    def is_monic(self) -> bool:
        return bool(self._ints) and self._ints[-1] == self._den

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if isinstance(other, Polynomial):
            return self._ints == other._ints and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._ints, self._den))

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"

    def __str__(self) -> str:
        """Canonical descending-power form, e.g. 'q^2 - q + 1'."""
        if not self._ints:
            return "0"
        parts: list[tuple[str, str]] = []
        for k in range(len(self._ints) - 1, -1, -1):
            c = self._ints[k]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = Fraction(abs(c), self._den)
            if k == 0:
                body = _scalar_str(mag)
            else:
                power = "q" if k == 1 else f"q^{k}"
                body = power if mag == 1 else f"{_scalar_str(mag)}*{power}"
            parts.append((sign, body))
        head_sign, head = parts[0]
        text = head if head_sign == "+" else "-" + head
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._ints, other._ints
        den = self._den
        if den != other._den:
            den = _lcm(den, other._den)
            a = [c * (den // self._den) for c in a]
            b = [c * (den // other._den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _make(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make([-c for c in self._ints], self._den)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._ints, other._ints
        if not a or not b:
            return ZERO
        # Zero terms are skipped on both sides: compositions q -> q**m
        # produce very sparse factors.
        nz_b = [(j, c) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in nz_b:
                    out[i + j] += ai * bj
        return _make(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int):
            raise TypeError(f"exponents must be int, got {type(exponent).__name__} {exponent!r}")
        if exponent < 0:
            raise ValueError("negative polynomial power; use RationalFunction")
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder with degree(remainder) < degree(other)."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # s * a == quot * b + rem for the integer forms a = self * da and
        # b = other * db, so self == (quot * db / (s * da)) * other + rem / (s * da).
        quot, rem, s = _int_divmod(self._ints, other._ints)
        den = s * self._den
        return _make([c * other._den for c in quot], den), _make(rem, den)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    # -- other operations --------------------------------------------------

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate at a rational point (Horner)."""
        x = _exact(x)
        acc = Fraction(0)
        for c in reversed(self._ints):
            acc = acc * x + c
        return acc / self._den

    def scaled(self, c: Scalar) -> "Polynomial":
        c = _exact(c)
        if not c:
            return ZERO
        num = c.numerator
        return _make([v * num for v in self._ints], self._den * c.denominator)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        lead = self._ints[-1]
        return self if lead == self._den else _make(list(self._ints), lead)

    def shift(self, k: int) -> "Polynomial":
        """Multiply by q**k; k < 0 divides and requires divisibility by q**-k."""
        if _index(k, None, "shift requires an integer k, got {!r}") >= 0:
            return _make([0] * k + list(self._ints), self._den)
        if any(self._ints[: -k]):
            raise ValueError(f"not divisible by q^{-k}")
        return _make(list(self._ints[-k:]), self._den)

    def compose_power(self, m: int) -> "Polynomial":
        """Substitute q -> q**m; the degree becomes m * degree."""
        _index(m, 1, "compose_power requires m >= 1, got {!r}")
        if m == 1 or self.is_zero:
            return self
        out = [0] * (m * (len(self._ints) - 1) + 1)
        out[::m] = self._ints
        return _make(out, self._den)

    def valuation(self) -> int:
        """Multiplicity of the root 0, i.e. the index of the first nonzero
        coefficient.  Undefined (raises) for the zero polynomial."""
        for i, c in enumerate(self._ints):
            if c:
                return i
        raise ValueError("the zero polynomial has no valuation")


def _scalar_str(value: Scalar) -> str:
    """str(value) in full, however many digits.  The interpreter refuses
    str() of an int past its digit limit, which stays in force because it
    guards parsing; only then does the value print through ``decimal``."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        value = Fraction(value)
        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def _make(ints: list[int], den: int = 1) -> Polynomial:
    """The polynomial sum(ints[i] * q**i) / den in canonical form; den != 0.
    Trims the list in place."""
    while ints and not ints[-1]:
        ints.pop()
    g = _igcd(den, *ints)
    if den < 0:
        g = -g
    p = object.__new__(Polynomial)
    p._ints = tuple(ints) if g == 1 else tuple(c // g for c in ints)
    p._den = den // g
    return p


def _exact(value: object) -> Scalar:
    """value itself if it is an int or a Fraction; anything else raises TypeError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"scalars must be int or Fraction, got {type(value).__name__} {value!r}")


def _coerce(value: "Polynomial | Scalar") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return _make([value.numerator], value.denominator)
    return NotImplemented  # type: ignore[return-value]


ZERO = _make([])
ONE = _make([1])
Q = _make([0, 1])


def quantum_integer(n: int, r: int = 1) -> Polynomial:
    """The quantum integer [n] evaluated at q**r: 1 + q^r + ... + q^(r(n-1)).

    Degree r*(n-1); every coefficient is 0 or 1.
    """
    _index(n, 1, "quantum_integer requires n, r >= 1, got n = {!r}")
    _index(r, 1, "quantum_integer requires n, r >= 1, got r = {!r}")
    out = [0] * (r * (n - 1) + 1)
    out[::r] = [1] * n
    return _make(out)


# -- integer division and gcd -------------------------------------------------


def _int_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Fraction-free division of integer coefficient lists; b is nonzero.

    Returns (quot, rem, s) with s * a == quot * b + rem, rem trimmed and
    shorter than b, and s >= 1.  The remainder is scaled only at a step whose
    quotient coefficient is not an integer, so s == 1 exactly when the
    quotient over the rationals has integer coefficients; for a monic b this
    is plain integer long division.
    """
    db = len(b) - 1
    lb = b[-1]
    # Cyclotomic and dilated divisors are sparse: skip their zero terms.
    tail = [(i, c) for i, c in enumerate(b[:db]) if c]
    rem = list(a)
    quot = [0] * (len(a) - db)
    s = 1
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + db]
        if not c:
            continue
        if c % lb:
            m = abs(lb) // _igcd(c, lb)
            rem = [m * v for v in rem[: k + db + 1]]
            quot = [m * v for v in quot]
            s *= m
            c *= m
        c //= lb
        quot[k] = c
        for i, bi in tail:
            rem[k + i] -= c * bi
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem, s


def _int_primitive(coeffs: Sequence[int]) -> list[int]:
    """Divide out the integer content; normalize the leading sign positive."""
    if not coeffs:
        return []
    g = _igcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor; gcd(0, 0) is undefined."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    # Scalar factors do not affect the monic gcd, so drop the denominators
    # and run the primitive remainder sequence over the integers.
    fa = _int_primitive(a._ints)
    fb = _int_primitive(b._ints)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        fa, fb = fb, _int_primitive(_int_divmod(fa, fb)[1])
    return _make(fa, fa[-1])
