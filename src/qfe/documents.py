"""JSON documents for solution specs and structure data.

Solution spec:

    {"primes": [2, 5, 7],
     "generators": {"2": "1 - q + q^2", "5": "...", "7": "..."}}

Structure data:

    {"primes": [2, 5, 7],
     "lambda": {"2": "1", "5": "1", "7": "1"},
     "t0": "0",
     "terms": [{"r": 1, "t": -1}, {"r": 3, "t": 1}]}

Rationals travel as "a" or "a/b" strings so no value ever passes through
floating point.  Unknown fields are rejected, so typos surface instead of
being silently ignored.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from .expressions import ParseError, eval_expr, format_expr, parse_expr
from .poly import _scalar_str
from .solutions import SolutionSpec
from .structure import StructureData, TooFewPrimes

__all__ = [
    "DocumentError",
    "parse_rational",
    "format_rational",
    "solution_spec_from_dict",
    "solution_spec_to_dict",
    "structure_data_from_dict",
    "structure_data_to_dict",
    "load_solution_spec",
    "load_structure_data",
]


class DocumentError(ValueError):
    """A document fails its schema or cannot be decoded."""


_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise DocumentError(f"expected a rational string, got {text!r}")
    if not _RATIONAL.fullmatch(text):
        raise DocumentError(f"malformed rational {text!r}; use 'a' or 'a/b'")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DocumentError(f"zero denominator in rational {text!r}") from None
    except ValueError:  # past the interpreter's int-from-str digit limit
        raise DocumentError(f"rational of {len(text)} characters has too many digits") from None


def format_rational(value: Fraction) -> str:
    return _scalar_str(value)


def _require_keys(obj: dict, allowed: set[str], context: str) -> None:
    if not isinstance(obj, dict):
        raise DocumentError(f"{context}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise DocumentError(f"{context}: unknown fields {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise DocumentError(f"{context}: missing fields {sorted(missing)}")


def _check_primes(raw: object, context: str) -> list[int]:
    if not isinstance(raw, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in raw
    ):
        raise DocumentError(f"{context}: 'primes' must be a list of integers")
    if raw != sorted(set(raw)):
        raise DocumentError(f"{context}: 'primes' must be strictly increasing")
    return raw


def _check_prime_keyed(raw: object, primes: list[int], context: str) -> dict[int, str]:
    if not isinstance(raw, dict):
        raise DocumentError(f"{context}: expected an object keyed by primes")
    expected = {str(p) for p in primes}
    if set(raw) != expected:
        raise DocumentError(
            f"{context}: keys {sorted(raw)} do not match primes {sorted(expected)}"
        )
    for key, value in raw.items():
        if not isinstance(value, str):
            raise DocumentError(f"{context}: value for {key} must be a string")
    return {p: raw[str(p)] for p in primes}


def solution_spec_from_dict(obj: dict) -> SolutionSpec:
    _require_keys(obj, {"primes", "generators"}, "solution spec")
    primes = _check_primes(obj["primes"], "solution spec")
    texts = _check_prime_keyed(obj["generators"], primes, "solution spec 'generators'")
    generators = {}
    for p, text in texts.items():
        try:
            generators[p] = eval_expr(parse_expr(text))
        except (ParseError, ZeroDivisionError) as exc:
            raise DocumentError(f"generator for prime {p}: {exc}") from exc
    try:
        return SolutionSpec(generators)
    except ValueError as exc:
        raise DocumentError(f"solution spec: {exc}") from exc


def solution_spec_to_dict(spec: SolutionSpec) -> dict:
    return {
        "primes": list(spec.primes),
        "generators": {str(p): format_expr(spec.generator(p)) for p in spec.primes},
    }


def structure_data_from_dict(obj: dict) -> StructureData:
    _require_keys(obj, {"primes", "lambda", "t0", "terms"}, "structure data")
    primes = _check_primes(obj["primes"], "structure data")
    scale_texts = _check_prime_keyed(obj["lambda"], primes, "structure data 'lambda'")
    scales = {p: parse_rational(text) for p, text in scale_texts.items()}
    shift = parse_rational(obj["t0"])
    terms = obj["terms"]
    if not isinstance(terms, list):
        raise DocumentError("structure data: 'terms' must be a list")
    exponents: dict[int, int] = {}
    for entry in terms:
        _require_keys(entry, {"r", "t"}, "structure data term")
        r, t = entry["r"], entry["t"]
        if not isinstance(r, int) or isinstance(r, bool) or r < 1:
            raise DocumentError(f"structure data term: 'r' must be a positive integer, got {r!r}")
        if not isinstance(t, int) or isinstance(t, bool) or t == 0:
            raise DocumentError(f"structure data term: 't' must be a nonzero integer, got {t!r}")
        if r in exponents:
            raise DocumentError(f"structure data: duplicate term r={r}")
        exponents[r] = t
    try:
        return StructureData(
            primes=tuple(primes), scales=scales, shift=shift, exponents=exponents
        )
    except (TooFewPrimes, ValueError) as exc:
        raise DocumentError(f"structure data: {exc}") from exc


def structure_data_to_dict(sd: StructureData) -> dict:
    return {
        "primes": list(sd.primes),
        "lambda": {str(p): format_rational(sd.scales[p]) for p in sd.primes},
        "t0": format_rational(sd.shift),
        "terms": [{"r": r, "t": t} for r, t in sorted(sd.exponents.items())],
    }


def _load_json(path: str | os.PathLike) -> dict:
    try:
        with open(path, encoding="utf-8") as file:
            return json.load(file)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's int-from-str digit limit
        raise DocumentError(f"{path} holds an integer with too many digits") from exc


def load_solution_spec(path: str | os.PathLike) -> SolutionSpec:
    return solution_spec_from_dict(_load_json(path))


def load_structure_data(path: str | os.PathLike) -> StructureData:
    return structure_data_from_dict(_load_json(path))
