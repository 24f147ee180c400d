"""Immutable records.  A ``_Value`` subclass lists its fields in ``__slots__``;
they are set once, positionally or by keyword with defaults from ``_defaults``.
Equality and hashing skip ``position``, a source offset; repr shows it."""

from fractions import Fraction
from operator import attrgetter

from .poly import _scalar_str


def _repr(value: object) -> str:
    """repr(value) with every int and Fraction in full, also inside dicts.
    The interpreter refuses str() of an int past its digit limit; only then
    does it print through ``poly._scalar_str``."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return _scalar_str(value)
        if isinstance(value, Fraction):
            return f"Fraction({_repr(value.numerator)}, {_repr(value.denominator)})"
        if isinstance(value, dict):
            return "{" + ", ".join(f"{_repr(k)}: {_repr(v)}" for k, v in value.items()) + "}"
        raise


class _Value:
    __slots__ = ()
    _defaults = {"position": 0}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            # Each argument names a distinct field, and every field has a value.
            if (len(args) > len(names) or given.keys() & kwargs
                    or not kwargs.keys() <= set(names) <= values.keys()):
                raise TypeError(f"{type(self).__name__}{names} cannot take {args}, {kwargs}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls):  # "__class__" keeps the key a tuple when no field is compared
        cls._key = attrgetter(*[n for n in cls.__slots__ if n != "position"], "__class__")

    def __eq__(self, other: object) -> bool:
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot change field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
