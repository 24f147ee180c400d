"""Reduced rational functions over Q and their multiplicative normal form.

A RationalFunction is kept fully canonical: numerator and denominator are
coprime, the denominator is monic and nonzero, and the zero function is 0/1.
Equality is therefore plain coefficientwise comparison, with no
cross-multiplication.

The normal form splits off the scalar and the power of q:

    f = scale * q**shift * num/den

with num and den monic, coprime, and with nonzero constant terms.  This
decomposition is unique and is the starting point of the structure
classification.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import _Value
from .arith import _index
from .poly import ONE, ZERO, Polynomial, Scalar, _coerce, _exact, gcd


class RationalFunction:
    """Immutable quotient of polynomials, always stored reduced."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: "Polynomial | Scalar", den: "Polynomial | Scalar" = ONE):
        num, den = (v if isinstance(v, Polynomial) else Polynomial((v,)) for v in (num, den))
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self._num, self._den = ZERO, ONE
            return
        g = gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        self._num, self._den = _monic_den(num, den)

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap an already-canonical pair without re-reducing."""
        rf = object.__new__(cls)
        rf._num, rf._den = num, den
        return rf

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls._reduced(ZERO, ONE)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls._reduced(ONE, ONE)

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> Polynomial:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self._den == ONE

    def __bool__(self) -> bool:
        return not self._num.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (Polynomial, int, Fraction)):
            return self._den == ONE and self._num == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"

    def __str__(self) -> str:
        if self._den == ONE:
            return str(self._num)
        return f"{_operand(self._num)}/{_operand(self._den)}"

    # -- field operations ----------------------------------------------

    def __add__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        num = self._num * other._den + other._num * self._den
        return RationalFunction(num, self._den * other._den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._reduced(-self._num, self._den)

    def __sub__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Polynomial | Scalar") -> "RationalFunction":
        return (-self).__add__(other)

    def __mul__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalFunction.zero()
        # Cross-cancel, then the products are coprime by construction.
        a, b = self._num, self._den
        c, d = other._num, other._den
        g1 = gcd(a, d)
        if g1.degree > 0:
            a, d = a // g1, d // g1
        g2 = gcd(c, b)
        if g2.degree > 0:
            c, b = c // g2, b // g2
        return RationalFunction._reduced(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: "Polynomial | Scalar") -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction._reduced(*_monic_den(self._den, self._num))

    def __pow__(self, exponent: int) -> "RationalFunction":
        if not isinstance(exponent, int):
            raise TypeError(f"exponents must be int, got {type(exponent).__name__} {exponent!r}")
        base = self if exponent >= 0 else self.inverse()
        num = base._num ** abs(exponent)
        den = base._den ** abs(exponent)
        return RationalFunction._reduced(num, den)

    def compose_power(self, m: int) -> "RationalFunction":
        """Substitute q -> q**m.  Coprimality and monicity survive the
        substitution, so no re-reduction is needed."""
        return RationalFunction._reduced(
            self._num.compose_power(m), self._den.compose_power(m)
        )

    # -- normal form -----------------------------------------------------

    def standard_form(self) -> "StandardForm":
        """Split into scale * q**shift * num/den, num and den monic, coprime and
        nonzero at 0 by construction, so unchecked.  Unique; undefined for zero."""
        if self.is_zero:
            raise ValueError("the zero function has no standard form")
        # num and den are coprime, so at most one is divisible by q.
        a = self._num.valuation()
        b = self._den.valuation()
        num = self._num.shift(-a) if a else self._num
        den = self._den.shift(-b) if b else self._den
        form = object.__new__(StandardForm)
        _Value.__init__(form, num.leading, a - b, num.monic(), den)
        return form


def _assemble(scale: Fraction, shift: int, num: Polynomial, den: Polynomial) -> RationalFunction:
    """scale * q**shift * num/den, for num and den as in StandardForm: no re-reduction."""
    num = num.scaled(scale)
    if shift >= 0:
        num = num.shift(shift)
    else:
        den = den.shift(-shift)
    return RationalFunction._reduced(num, den)


def _operand(p: Polynomial) -> str:
    """str(p), parenthesized when p has more than one nonzero term."""
    text = str(p)
    return f"({text})" if len(p._ints) - p._ints.count(0) > 1 else text


def _monic_den(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """num/den rescaled so that den is monic; den is nonzero."""
    lc = den.leading
    return (num, den) if lc == 1 else (num.scaled(1 / lc), den.monic())


def _coerce_rf(value: "RationalFunction | Polynomial | Scalar") -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    p = _coerce(value)
    return p if p is NotImplemented else RationalFunction._reduced(p, ONE)


class StandardForm(_Value):
    """The unique decomposition scale * q**shift * num/den of a nonzero
    rational function, with num, den monic, coprime, and nonzero at 0."""

    __slots__ = ("scale", "shift", "num", "den")

    def __init__(self, scale: Scalar, shift: int, num: Polynomial, den: Polynomial):
        scale = Fraction(_exact(scale))
        _index(shift, None, "standard form shift must be an integer, got {!r}")
        if not scale:
            raise ValueError("standard form requires a nonzero scale")
        for part, name in ((num, "num"), (den, "den")):
            if not part.is_monic:
                raise ValueError(f"standard form {name} must be monic")
            if not part.constant_term:
                raise ValueError(f"standard form {name} must be nonzero at 0")
        if gcd(num, den).degree > 0:
            raise ValueError("standard form num and den must be coprime")
        super().__init__(scale, shift, num, den)

    def value(self) -> RationalFunction:
        """Reassemble the rational function exactly."""
        return _assemble(self.scale, self.shift, self.num, self.den)

    @property
    def degree_difference(self) -> int:
        """degree(num) - degree(den); num and den are nonzero so this is an int."""
        return self.num.degree - self.den.degree
