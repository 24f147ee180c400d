"""Seeded input generators for the benchmark, independent of ``qfe``.

Everything here is plain Python over integers and Fractions: structure data
as tuples, integer coefficient lists, expression text and JSON documents.
The workloads turn these into ``qfe`` objects during set-up, so ``qfe``
receives only generated inputs, and an edit to ``qfe`` or to its tests can
never change what a workload feeds it.

Size caps, and why:

* ``PRIMES``, ``DILATIONS`` and ``EXPONENTS`` are the ranges of acceptance
  criterion 6 (2-3 primes <= 13, <= 3 dilations r <= 4, exponents in
  +-{1,2,3}).  Generators then reach degree 12 * 3 * (4+3+2) = 324 and
  synthesized terms pass degree 1000.
* Every discrete choice that sets an operation's cost (the number of primes
  and dilations, the prime set, the dilation set, each exponent, a degree)
  is drawn from a balanced bag (``Draws.balanced``): each level once, in a
  seeded order, before the bag refills.  The cost mix of any run, and hence
  its figures, is then nearly independent of the seed; the seed still
  decides how the levels are combined, and the scales and shifts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

PRIMES = (2, 3, 5, 7, 11, 13)
DILATIONS = (1, 2, 3, 4)
EXPONENTS = (-3, -2, -1, 1, 2, 3)
STRATA = tuple((k, d) for k in (2, 3) for d in (0, 1, 2, 3))

# Lehmer's degree-10 polynomial: monic, irreducible and not cyclotomic, yet
# self-reciprocal with |f(0)| = 1, so neither of those cheap tests rejects it.
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


class Draws(random.Random):
    """A seeded random source that can also draw from balanced bags."""

    def __init__(self, seed: str):
        super().__init__(seed)
        self._bags: dict[tuple, list] = {}

    def balanced(self, levels):
        """One of levels; every level comes out once before any repeats."""
        levels = tuple(levels)
        bag = self._bags.get(levels)
        if not bag:
            bag = list(levels)
            self.shuffle(bag)
            self._bags[levels] = bag
        return bag.pop()


@dataclass(frozen=True)
class Structure:
    """Classification data: f_n = scale(n) q^(shift (n-1)) prod [n]_{q^r}^t."""

    primes: tuple[int, ...]
    scales: tuple[Fraction, ...]
    shift: Fraction
    exponents: tuple[tuple[int, int], ...]  # sorted (r, t)

    def scale(self, p: int) -> Fraction:
        return self.scales[self.primes.index(p)]


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def in_support(primes: tuple[int, ...], n: int) -> bool:
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def nonzero_fraction(rng: Draws) -> Fraction:
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(1, 4))


def structure(
    rng: Draws,
    n_primes: int,
    n_dilations: int,
    primes: tuple[int, ...] = PRIMES,
    dilations: tuple[int, ...] = DILATIONS,
    exponents: tuple[int, ...] = EXPONENTS,
    shift: Fraction | None = None,
) -> Structure:
    """Random structure data with an admissible shift (shift*(p-1) integral)."""
    # Prime set and dilation set from one joint bag: the costliest pairings
    # then come up equally often in every run.
    ps, rs = rng.balanced(
        product(combinations(primes, n_primes), combinations(dilations, n_dilations))
    )
    table = tuple((r, rng.balanced(exponents)) for r in rs)
    if shift is None:
        g = 0
        for p in ps:
            g = gcd(g, p - 1)
        shift = Fraction(rng.randint(-2, 2), rng.choice(divisors(g)))
    return Structure(ps, tuple(nonzero_fraction(rng) for _ in ps), Fraction(shift), table)


def structures(rng: Draws, count: int) -> list[Structure]:
    """count structures in the criterion-6 ranges, balanced over STRATA."""
    return [structure(rng, *rng.balanced(STRATA)) for _ in range(count)]


def generator_text(sd: Structure, p: int) -> str:
    """h_p = scale(p) q^(shift (p-1)) prod qint(p, r)^t as expression text."""
    scale = sd.scale(p)
    text = str(scale.numerator)
    e = sd.shift * (p - 1)
    num = [f"qint({p},{r})^{t}" for r, t in sd.exponents if t > 0]
    den = [f"qint({p},{r})^{-t}" for r, t in sd.exponents if t < 0]
    if e > 0:
        num.append(f"q^{e}")
    elif e < 0:
        den.append(f"q^{-e}")
    if scale.denominator != 1:
        den.append(str(scale.denominator))
    return text + "".join("*" + f for f in num) + "".join("/" + f for f in den)


def _qint_at(x: Fraction, n: int, r: int) -> Fraction:
    return sum((x ** (r * i) for i in range(n)), Fraction(0))


def generator_at(sd: Structure, p: int, x: Fraction) -> Fraction:
    """h_p evaluated at the rational point x, straight from the closed form."""
    out = sd.scale(p) * x ** int(sd.shift * (p - 1))
    for r, t in sd.exponents:
        out *= _qint_at(x, p, r) ** t
    return out


def violating_pairs(gens: dict[int, Structure]) -> list[tuple[int, int]]:
    """Prime pairs whose generators (h_p taken from gens[p]) fail
    h_a(x) h_b(x^a) = h_b(x) h_a(x^b) at x = 2 or x = 3.  A failure at a
    point certifies a violation; agreement at both is taken as commuting."""
    primes = sorted(gens)
    bad = []
    for i, a in enumerate(primes):
        for b in primes[i + 1 :]:
            for x in (Fraction(2), Fraction(3)):
                lhs = generator_at(gens[a], a, x) * generator_at(gens[b], b, x**a)
                rhs = generator_at(gens[b], b, x) * generator_at(gens[a], a, x**b)
                if lhs != rhs:
                    bad.append((a, b))
                    break
    return bad


def format_rational(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def structure_doc(sd: Structure) -> dict:
    return {
        "primes": list(sd.primes),
        "lambda": {str(p): format_rational(sd.scale(p)) for p in sd.primes},
        "t0": format_rational(sd.shift),
        "terms": [{"r": r, "t": t} for r, t in sd.exponents],
    }


def spec_doc(gens: dict[int, str]) -> dict:
    return {"primes": sorted(gens), "generators": {str(p): gens[p] for p in sorted(gens)}}


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# -- integer polynomials (index i holds the coefficient of q^i) ---------------


def int_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """Quotient by the monic b; raises if b does not divide a."""
    rem = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + db]
        quot[k] = c
        for i in range(db + 1):
            rem[k + i] -= c * b[i]
    if any(rem):
        raise ArithmeticError("inexact division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d by exact division of q^d - 1 by Phi_e for the proper divisors e."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in divisors(d)[:-1]:
        p = int_exact_div(p, list(cyclotomic(e)))
    return tuple(p)


def trinomial(n: int) -> list[int]:
    """q^n - q - 1: irreducible for every n >= 2 (Selmer) and not cyclotomic."""
    return [-1, -1] + [0] * (n - 2) + [1]


def dilate(p: list[int] | tuple[int, ...], k: int) -> list[int]:
    """p(q^k)."""
    out = [0] * (k * (len(p) - 1) + 1)
    for i, c in enumerate(p):
        out[k * i] = c
    return out


def poly_text(p: list[int]) -> str:
    """Expression text of an integer polynomial, highest power first."""
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        mono = "" if i == 0 else ("q" if i == 1 else f"q^{i}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {s} {b}" for s, b in parts[1:])


def random_poly_text(rng: Draws, terms: int, max_power: int) -> str:
    """A nonzero sum of terms with distinct powers and nonzero coefficients."""
    powers = sorted(rng.sample(range(max_power + 1), terms), reverse=True)
    coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in powers]
    p = [0] * (powers[0] + 1)
    for e, c in zip(powers, coeffs):
        p[e] = c
    return poly_text(p)


# -- closed-form values modulo a prime, for cheap exact spot checks ------------

MODULUS = (1 << 61) - 1  # a Mersenne prime


def residue(c: Fraction) -> int:
    return c.numerator * pow(c.denominator, -1, MODULUS) % MODULUS


def closed_form_residue(sd: Structure, n: int, x: int) -> int:
    """f_n(x) mod MODULUS for n in the support, from the closed form:
    scale(n) x^(shift (n-1)) prod ((x^(rn) - 1) / (x^r - 1))^t."""
    m, value = n, 1
    for p in sd.primes:
        while m % p == 0:
            m //= p
            value = value * residue(sd.scale(p)) % MODULUS
    value = value * pow(x, int(sd.shift * (n - 1)), MODULUS) % MODULUS
    for r, t in sd.exponents:
        y = pow(x, r, MODULUS)
        qint = n % MODULUS if y == 1 else (pow(y, n, MODULUS) - 1) * pow(y - 1, -1, MODULUS)
        value = value * pow(qint % MODULUS, t, MODULUS) % MODULUS
    return value


def poly_residue(coeffs, x: int) -> int:
    """p(x) mod MODULUS for Fraction coefficients (Horner)."""
    inverses: dict[int, int] = {}
    acc = 0
    for c in reversed(coeffs):
        d = c.denominator
        if d not in inverses:
            inverses[d] = pow(d, -1, MODULUS)
        acc = (acc * x + c.numerator * inverses[d]) % MODULUS
    return acc
