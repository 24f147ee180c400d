"""Shared oracles and random generators for the test suite.

The oracles here deliberately take different routes than the library code:
compositions go through Horner evaluation in the polynomial ring, cyclotomic
polynomials through the Moebius product over q**d - 1, Moebius values
through naive squarefree inspection, and closed forms through dense
quantum-integer products reduced by a gcd.  Seven are earlier designs of
library routines, kept as references: ``read_exponents_by_net`` certifies
the power-series read by net Phi_d exponents alone, ``peel_greedy``
removes one quantum-integer factor per round, ``term_by_fold`` folds prime
powers, ``cyclo_factor_by_scan`` trial-divides by every candidate Phi_d,
``multiset_value_by_two_products`` expands both sides of a quotient by
their own Moebius transform, ``violations_by_field_products`` checks the
compatibility identity by reduced products in the rational-function field,
and ``products_equal_by_cross_multiplying`` compares two products of
rational functions by multiplying out polynomials.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul

import qfe.poly
import qfe.ratfunc
from qfe import (
    ONE,
    CyclotomicFactorization,
    MultisetQuotient,
    NonCyclotomicFactor,
    Polynomial,
    RationalFunction,
    SolutionSpec,
    StructureData,
    eval_expr,
    parse_expr,
    cyclotomic,
    q_power_minus_one,
)
from qfe.arith import divisors, euler_phi, factorize
from qfe.cyclo import _cyclotomic_product, _inverse_euler, _net
from qfe.poly import _int_divmod, _int_primitive, quantum_integer
from qfe.solutions import NotASolution, _term, in_support
from qfe.structure import scale_at


def substitute(p: Polynomial, inner: Polynomial) -> Polynomial:
    """p(inner(q)) by Horner in the polynomial ring."""
    acc = Polynomial()
    for c in reversed(p.coeffs):
        acc = acc * inner + Polynomial((c,))
    return acc


def moebius_brute(k: int) -> int:
    """Moebius by naive prime-by-prime squarefree inspection."""
    count = 0
    for p in range(2, k + 1):
        if k % p == 0:
            if any(p % d == 0 for d in range(2, p)):
                continue
            if k % (p * p) == 0:
                return 0
            count += 1
    return -1 if count % 2 else 1


def cyclotomic_by_moebius(k: int) -> Polynomial:
    """Cyclotomic polynomial via prod (q**d - 1)**moebius(k/d) over d | k."""
    num = den = ONE
    for d in divisors(k):
        mu = moebius_brute(k // d)
        if mu == 1:
            num = num * q_power_minus_one(d)
        elif mu == -1:
            den = den * q_power_minus_one(d)
    quotient, rem = divmod(num, den)
    assert rem.is_zero
    return quotient


def power_product(bag: dict[int, int]) -> Polynomial:
    """prod (q**k - 1)**m over the multiset, by plain multiplication."""
    out = ONE
    for k, m in sorted(bag.items()):
        out = out * q_power_minus_one(k) ** m
    return out


# The worked solution f_n = [n]_{q^3} / [n]_q over the primes {2, 5, 7},
# with its generators written out as polynomials.
GENERATORS_257 = {
    2: "1 - q + q^2",
    5: "1 - q + q^3 - q^4 + q^5 - q^7 + q^8",
    7: "1 - q + q^3 - q^4 + q^6 - q^8 + q^9 - q^11 + q^12",
}


def spec_257() -> SolutionSpec:
    return SolutionSpec({p: eval_expr(parse_expr(text)) for p, text in GENERATORS_257.items()})


def random_fraction(rng: random.Random, max_num: int = 5, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_nonzero_fraction(rng: random.Random, max_num: int = 5, max_den: int = 4) -> Fraction:
    num = rng.choice([n for n in range(-max_num, max_num + 1) if n])
    return Fraction(num, rng.randint(1, max_den))


def random_polynomial(rng: random.Random, max_degree: int = 6) -> Polynomial:
    return Polynomial(random_fraction(rng) for _ in range(rng.randint(0, max_degree + 1)))


def random_nonzero_polynomial(rng: random.Random, max_degree: int = 6) -> Polynomial:
    while True:
        p = random_polynomial(rng, max_degree)
        if not p.is_zero:
            return p


def random_rational_function(rng: random.Random, max_degree: int = 5) -> RationalFunction:
    return RationalFunction(
        random_polynomial(rng, max_degree), random_nonzero_polynomial(rng, max_degree)
    )


def random_multiset_pair(
    rng: random.Random, max_index: int = 24, max_mult: int = 3
) -> MultisetQuotient:
    indices = rng.sample(range(1, max_index + 1), rng.randint(0, 6))
    split = rng.randint(0, len(indices))
    return MultisetQuotient(
        num={k: rng.randint(1, max_mult) for k in indices[:split]},
        den={k: rng.randint(1, max_mult) for k in indices[split:]},
    )


def random_structure_data(rng: random.Random) -> StructureData:
    """Random classification data within the documented test bounds:
    2-3 primes up to 13, up to 3 dilations r <= 4 with exponents in
    [-3, 3] \\ {0}, nonzero prime scales, and an admissible shift rate."""
    primes = tuple(sorted(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(2, 3))))
    dilations = rng.sample([1, 2, 3, 4], rng.randint(0, 3))
    exponents = {r: rng.choice([-3, -2, -1, 1, 2, 3]) for r in dilations}
    scales = {p: random_nonzero_fraction(rng) for p in primes}
    g = 0
    for p in primes:
        g = gcd_int(g, p - 1)
    shift = Fraction(rng.randint(-2, 2), rng.choice(divisors(g)))
    return StructureData(primes=primes, scales=scales, shift=shift, exponents=exponents)


def gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _term_in_order(spec: SolutionSpec, prime_powers: tuple[int, ...]) -> RationalFunction:
    """Fold the given prime-power blocks in their given order; synthesize
    folds them in one fixed order, so every order must agree with it."""
    value = RationalFunction.one()
    m = 1
    for block in prime_powers:
        value = value * _term(spec, block).compose_power(m)
        m *= block
    return value


def closed_form_by_products(sd: StructureData, n: int) -> RationalFunction:
    """closed_form by dense products: multiply [n]_{q**r}**|t| into the
    numerator or the denominator, apply the scale and the q-shift, and let
    RationalFunction reduce the quotient with a gcd."""
    if not in_support(sd.primes, n):
        return RationalFunction.zero()
    num = den = ONE
    for r, t in sorted(sd.exponents.items()):
        base = quantum_integer(n, r)
        if t > 0:
            num = num * base**t
        else:
            den = den * base ** (-t)
    e = sd.shift * (n - 1)
    num = num.scaled(scale_at(sd, n))
    if e >= 0:
        num = num.shift(int(e))
    else:
        den = den.shift(-int(e))
    return RationalFunction(num, den)


def read_exponents_by_net(ints: list[int]) -> dict[int, int] | None:
    """cyclo._read_exponents with the net-exponent certificate only: a
    settled read holds when every net Phi_d exponent is >= 0."""
    if ints[0] not in (1, -1):
        return None
    flipped = ints[::-1]
    if flipped != ints and flipped != [-v for v in ints]:
        return None
    series = ints if ints[0] == 1 else [-v for v in ints]
    top = len(series) - 1
    last = top * (2 * top * top).bit_length()
    n = top + 1
    while True:
        read = _inverse_euler(series, n, top)
        if read is None:
            return None
        rest = top - sum(j * a for j, a in read.items())
        if rest >= n:
            read[rest] = 1
        if rest == 0 or rest >= n:
            if min(_net(read).values(), default=0) >= 0:
                return read
        if n > last:
            return None
        n = min(2 * n, last + 1)


def peel_greedy(quotients: dict[int, MultisetQuotient]) -> dict[int, int]:
    """The exponent table of per-prime multiset quotients, one factor per round.

    Each round inspects m_p, the largest index in the signed table of prime
    p.  For a genuine solution the maxima satisfy m_p = r * p with one
    positive r shared by every prime, and their exponents have one sign s
    (numerator or denominator) everywhere.  Multiplying every table by
    [p]_{q**r}**(-s) = {r*p: -s, r: s} moves the shared exponent of
    [n]_{q**r} by s.  Each round lowers every table's weight sum(k * |e_k|)
    by at least r*p - r > 0 (|e_{r*p}| drops by one, |e_r| grows by at most
    one), so peeling ends with empty tables or NotASolution('peeling').
    """
    exponents: Counter[int] = Counter()
    tables = {p: mq.exponents() for p, mq in quotients.items()}
    while any(tables.values()):
        rates = set()
        sides = set()
        for p, table in tables.items():
            m_p = max(table, default=0)
            if m_p == 0 or m_p % p:
                raise NotASolution("peeling", f"largest index {m_p} for prime {p}")
            rates.add(m_p // p)
            sides.add("num" if table[m_p] > 0 else "den")
        if len(rates) > 1 or len(sides) > 1:
            raise NotASolution("peeling", f"rates {sorted(rates)}, sides {sorted(sides)}")
        r = rates.pop()
        s = 1 if sides.pop() == "num" else -1
        for p, table in tables.items():
            table.update({r * p: -s, r: s})
        # The round trip through a quotient drops the entries that reached 0.
        tables = {p: MultisetQuotient.from_exponents(t).exponents() for p, t in tables.items()}
        exponents[r] += s
    return {r: t for r, t in sorted(exponents.items()) if t}


def term_by_fold(spec: SolutionSpec, n: int) -> RationalFunction:
    """f_n without the library's memo: split n into prime powers
    p1**a1 < ... < pk**ak, expand each as f(p**a) = f(p**(a-1)) *
    h_p(q**(p**(a-1))), and fold the multiplication law left to right."""
    powers = factorize(n)
    if any(p not in spec.primes for p in powers):
        return RationalFunction.zero()
    value = RationalFunction.one()
    m = 1
    for p, a in powers.items():
        block = RationalFunction.one()
        for i in range(a):
            block = block * spec.generator(p).compose_power(p**i)
        value = value * block.compose_power(m)
        m *= p**a
    return value


def cyclo_factor_by_scan(p: Polynomial) -> CyclotomicFactorization:
    """cyclo_factor without its root-of-unity screen: every Phi_d with
    euler_phi(d) <= deg, d <= deg * bitlen(2 * deg**2), in increasing d, is
    divided out of the primitive integer part by trial to its multiplicity."""
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    qpower = p.valuation()
    body = p.shift(-qpower) if qpower else p
    remaining = _int_primitive(body._ints)
    factors: dict[int, int] = {}
    d = 0
    while len(remaining) > 1:
        deg = len(remaining) - 1
        d += 1
        if d > deg * (2 * deg * deg).bit_length():
            raise NonCyclotomicFactor(Polynomial(remaining).monic())
        if euler_phi(d) > deg:
            continue
        phi = cyclotomic(d)._ints
        while len(remaining) >= len(phi):
            quotient, rem, s = _int_divmod(remaining, phi)
            if s != 1 or rem:
                break
            factors[d] = factors.get(d, 0) + 1
            remaining = quotient
    return CyclotomicFactorization(unit=body.leading, qpower=qpower, factors=factors)


def multiset_value_by_two_products(mq: MultisetQuotient) -> RationalFunction:
    """MultisetQuotient.value through the net Phi_d exponents, with the
    numerator and the denominator each expanded from its own Moebius table."""
    net: Counter[int] = Counter()
    for k, e in mq.exponents().items():
        net.update(dict.fromkeys(divisors(k), e))
    return RationalFunction._reduced(_cyclotomic_product(net), _cyclotomic_product(-net))


def violations_by_field_products(spec: SolutionSpec) -> tuple[tuple[int, int], ...]:
    """The prime pairs (p1, p2), p1 < p2, with h1 * h2(q**p1) != h2 * h1(q**p2),
    each side a product of rational functions that RationalFunction reduces
    with gcds before the two canonical forms are compared."""
    return tuple(
        (p1, p2)
        for p1, p2 in combinations(spec.primes, 2)
        if spec.generator(p1) * spec.generator(p2).compose_power(p1)
        != spec.generator(p2) * spec.generator(p1).compose_power(p2)
    )


def products_equal_by_cross_multiplying(left, right) -> bool:
    """prod(left) == prod(right) for nonzero rational functions: the
    numerators of left times the denominators of right against the
    denominators of left times the numerators of right, each side multiplied
    out as one Polynomial."""
    lhs = reduce(mul, [a.num for a in left] + [b.den for b in right])
    return lhs == reduce(mul, [a.den for a in left] + [b.num for b in right])


def count_gcd_calls(monkeypatch) -> list:
    """Patch the polynomial gcd wherever qfe binds it; the returned list
    grows by one entry per call."""
    calls: list = []
    original = qfe.poly.gcd

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(qfe.poly, "gcd", counting)
    monkeypatch.setattr(qfe.ratfunc, "gcd", counting)
    return calls
