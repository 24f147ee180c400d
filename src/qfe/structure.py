"""Classification of rational solutions and the inverse decomposition.

Every rational solution over Q with support generated by at least two primes
and all zeros and poles at 0 or at roots of unity has the closed form

    f_n = scale(n) * q**(shift*(n-1)) * prod_r [n]_{q**r} ** exponents[r]

where scale is completely multiplicative on the support, shift is a
rational number with shift*(n-1) integral on the support, and the product
runs over a finite exponent table.  ``StructureData`` holds that data.
As [n]_{q**r} = (q**(r*n) - 1) / (q**r - 1), the rest is gcd-free algebra on
signed tables of q**k - 1 exponents (``MultisetQuotient``).  One builder,
``_quantum_table``, gives the table {r*n: +t, r: -t} at n: ``closed_form``
expands it, and ``decompose`` inverts it at the smallest prime, checks the
result against every prime, and compares table products only to name pairs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import combinations

from ._value import _Value
from .arith import is_prime
from .cyclo import MultisetQuotient, NonCyclotomicFactor, as_multiset_quotient
from .ratfunc import RationalFunction, StandardForm, _assemble
from .solutions import NotASolution, SolutionSpec, _reject_violations, in_support


class TooFewPrimes(ValueError):
    """Decomposition needs at least two primes: with a single prime any
    nonzero generator is admissible, so no canonical structure exists."""


def validate_shift(primes: tuple[int, ...], shift: Fraction) -> bool:
    """True iff shift*(n-1) is an integer for every n in the support,
    equivalently iff the denominator of shift divides p - 1 for every p."""
    shift = Fraction(shift)
    return all((p - 1) % shift.denominator == 0 for p in primes)


class StructureData(_Value):
    """The classification data of a solution over at least two primes.

    scales maps each prime to the (nonzero) value of the multiplicative
    scale there; exponents maps each dilation r to the nonzero integer
    exponent of [n]_{q**r}.
    """

    __slots__ = ("primes", "scales", "shift", "exponents")

    def __init__(self, primes: Iterable[int], scales: Mapping[int, Fraction],
                 shift: Fraction, exponents: Mapping[int, int]):
        primes = tuple(primes)
        if len(primes) < 2:
            raise TooFewPrimes(f"need at least two primes, got {list(primes)}")
        if list(primes) != sorted(set(primes)) or not all(is_prime(p) for p in primes):
            raise ValueError(f"primes must be strictly increasing primes: {list(primes)}")
        scales = {p: Fraction(v) for p, v in scales.items()}
        if set(scales) != set(primes):
            raise ValueError("scales must be given exactly on the primes")
        if any(not v for v in scales.values()):
            raise ValueError("scales must be nonzero")
        shift = Fraction(shift)
        if not validate_shift(primes, shift):
            raise ValueError(f"shift {shift} is not integral on the support of {list(primes)}")
        exponents = dict(exponents)
        for r, t in exponents.items():
            if r < 1:
                raise ValueError(f"exponent key {r} must be a positive integer")
            if t == 0:
                raise ValueError(f"exponent for r={r} must be nonzero")
        super().__init__(primes, scales, shift, exponents)


def scale_at(sd: StructureData, n: int) -> Fraction:
    """Extend the scale multiplicatively: scale(prod p**a) = prod scale(p)**a.
    Divides the primes out of n, so n itself is never factorized."""
    if not in_support(sd.primes, n):
        raise ValueError(f"{n} is outside the support of {list(sd.primes)}")
    out = Fraction(1)
    for p in sd.primes:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        out *= sd.scales[p] ** a
    return out


def closed_form(sd: StructureData, n: int) -> RationalFunction:
    """Evaluate the classified solution at n: zero outside the support,
    otherwise scale(n) * q**(shift*(n-1)) * prod [n]_{q**r}**t exactly.
    The product is the q**k - 1 exponent table ``_quantum_table(exponents, n)``.
    """
    if n < 1:
        raise ValueError(f"closed_form requires n >= 1, got {n}")
    if not in_support(sd.primes, n):
        return RationalFunction.zero()
    product = MultisetQuotient.from_exponents(_quantum_table(sd.exponents, n)).value()
    e = sd.shift * (n - 1)
    assert e.denominator == 1  # guaranteed by validate_shift
    return _assemble(scale_at(sd, n), int(e), product.num, product.den)


def degree_signature(sd: StructureData, n: int) -> int:
    """degree(num) - degree(den) of the standard form of closed_form(sd, n):
    equals (n - 1) * sum of r * exponents[r]."""
    if not in_support(sd.primes, n):
        raise ValueError(f"{n} is outside the support of {list(sd.primes)}")
    return (n - 1) * sum(r * t for r, t in sd.exponents.items())


def decompose(spec: SolutionSpec) -> StructureData:
    """Recover the StructureData of the solution generated by spec.

    Stages, cheapest first:
      1. at least two primes, else TooFewPrimes;
      2. standard forms give the scale on each prime and a common shift
         rate, else NotASolution('shift');
      3. each num/den pair converts to its multiset quotient, else
         NotASolution('non-cyclotomic') -- the generator has a zero or pole
         that is neither 0 nor a root of unity, so the spec is outside the
         classified family (though (q**p - 2)/(q - 2) satisfies the identity);
      4. the exponents read off the smallest prime's table in one pass and
         checked against every prime's table (see _peel).  Over at least two
         primes that succeeds exactly when every pair satisfies the
         compatibility identity, so only a failure compares the tables
         M_a * dilate(M_b, a) and M_b * dilate(M_a, b) of each pair, to raise
         NotASolution('commutativity') naming the pairs that differ.

    The result reproduces every generator: closed_form(sd, p) == h_p.
    """
    if len(spec.primes) < 2:
        raise TooFewPrimes(
            f"decomposition needs at least two primes, got {list(spec.primes)}"
        )
    forms: dict[int, StandardForm] = {
        p: spec.generator(p).standard_form() for p in spec.primes
    }
    shift = _common_shift(forms)
    quotients: dict[int, MultisetQuotient] = {}
    for p, form in forms.items():
        try:
            quotients[p] = as_multiset_quotient(form.num, form.den)
        except NonCyclotomicFactor as exc:
            raise NotASolution(
                "non-cyclotomic",
                f"generator for prime {p} has a zero or pole that is neither 0 "
                f"nor a root of unity (residual factor {exc.residual})",
            ) from exc
    try:
        exponents = _peel(quotients)
    except NotASolution:
        _reject_violations(
            (a, b)
            for a, b in combinations(spec.primes, 2)
            if quotients[a] * quotients[b].dilate(a) != quotients[b] * quotients[a].dilate(b)
        )
        raise
    return StructureData(
        primes=spec.primes,
        scales={p: forms[p].scale for p in spec.primes},
        shift=shift,
        exponents=exponents,
    )


def _common_shift(forms: dict[int, StandardForm]) -> Fraction:
    """The shared shift rate shift = q-exponent / (p - 1), which must agree
    across all primes."""
    primes = sorted(forms)
    first = primes[0]
    shift = Fraction(forms[first].shift, first - 1)
    for p in primes[1:]:
        if Fraction(forms[p].shift, p - 1) != shift:
            raise NotASolution(
                "shift",
                f"inconsistent q-power exponents: primes ({first}, {p}) give "
                f"shift rates {shift} and {Fraction(forms[p].shift, p - 1)}",
            )
    return shift


def _quantum_table(exponents: dict[int, int], n: int) -> Counter[int]:
    """The q**k - 1 exponents {r*n: +t, r: -t} of prod_r [n]_{q**r}**t."""
    table: Counter[int] = Counter()
    for r, t in exponents.items():
        table[r * n] += t
        table[r] -= t
    return table


def _peel(quotients: dict[int, MultisetQuotient]) -> dict[int, int]:
    """The exponents t whose ``_quantum_table(t, p)`` is every prime's table.

    Entry k of the table e of the smallest prime p is t[k/p] - t[k], with
    t[k/p] = 0 unless p | k.  One ascending pass over the keys of e sets
    t[k] = t[k/p] - e[k] and carries a nonzero t[k] to k*p, k*p**2, ... up
    to the next key or past the largest index.  Each prime's table is then
    compared with t's, else NotASolution('peeling'): a carry that does not
    close leaves an entry past the largest index, so it fails there too.
    """
    p = min(quotients)
    e = quotients[p].exponents()
    top = quotients[p].max_index()
    t: dict[int, int] = {}
    for k in sorted(e):
        carry = (t.get(k // p, 0) if k % p == 0 else 0) - e[k]
        while carry and k <= top:
            t[k] = carry
            k *= p
            if k in e:
                break
    t = dict(sorted(t.items()))
    for prime, mq in quotients.items():
        if mq != MultisetQuotient.from_exponents(_quantum_table(t, prime)):
            raise NotASolution("peeling", f"exponents {t} from prime {p} do not fit prime {prime}")
    return t
