"""Classification of rational solutions and the inverse decomposition.

Every rational solution over Q with support generated by at least two primes
and all zeros and poles at 0 or at roots of unity has the closed form

    f_n = scale(n) * q**(shift*(n-1)) * prod_r [n]_{q**r} ** exponents[r]

where scale is completely multiplicative on the support, shift is a
rational number with shift*(n-1) integral on the support, and the product
runs over a finite exponent table.  ``StructureData`` holds that data.
As [n]_{q**r} = (q**(r*n) - 1) / (q**r - 1), the rest is gcd-free algebra on
plain signed tables {k: e} of q**k - 1 exponents: ``closed_form`` expands
the table ``_quantum_table`` builds, and ``decompose`` divides it back out at
every prime (``_read``).  The table ``decompose`` peels is the one
``cyclo``'s power-series read yields for each generator, summed over its
numerator and denominator (``_quotient``); no net Phi_d exponent is formed
and no ``MultisetQuotient`` is built on the way.  ``_classify`` runs each
of ``decompose``'s stages once, in order, for both ``decompose`` and the
classification ``synthesize`` asks for (``_classified``): the prime count,
the shift, one read per prime, and the pairs whose reads differ, named
before the common read is taken.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import combinations

from ._value import _Value
from .arith import _index, is_prime
from .cyclo import NonCyclotomicFactor, _expand, _quotient, _split
from .poly import ONE, _exact
from .ratfunc import RationalFunction, StandardForm, _assemble
from .solutions import NotASolution, SolutionSpec, _reject_violations, in_support


class TooFewPrimes(ValueError):
    """Decomposition needs at least two primes: with a single prime any
    nonzero generator is admissible, so no canonical structure exists."""


def validate_shift(primes: tuple[int, ...], shift: Fraction) -> bool:
    """True iff shift*(n-1) is an integer for every n in the support,
    equivalently iff the denominator of shift divides p - 1 for every p."""
    den = _exact(shift).denominator
    return all((p - 1) % den == 0 for p in primes)


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
        scales = {p: Fraction(_exact(v)) for p, v in scales.items()}
        if set(scales) != set(primes):
            raise ValueError("scales must be given exactly on the primes")
        if any(not v for v in scales.values()):
            raise ValueError("scales must be nonzero")
        shift = Fraction(_exact(shift))
        if not validate_shift(primes, shift):
            raise ValueError(f"shift {shift} is not integral on the support of {list(primes)}")
        exponents = dict(exponents)
        for r, t in exponents.items():
            _index(r, 1, "exponent key {!r} must be a positive integer")
            if not isinstance(t, int) or isinstance(t, bool) or t == 0:
                raise ValueError(f"exponent for r={r} must be a nonzero integer")
        super().__init__(primes, scales, shift, exponents)


def scale_at(sd: StructureData, n: int) -> Fraction:
    """Extend the scale multiplicatively: scale(prod p**a) = prod scale(p)**a.
    Divides the primes out of n once, so n itself is never factorized."""
    out, m = Fraction(1), _index(n, 1, "scale_at requires n >= 1, got {!r}")
    for p in sd.primes:
        while m % p == 0:
            m, out = m // p, out * sd.scales[p]
    if m != 1:
        raise ValueError(f"{n} is outside the support of {list(sd.primes)}")
    return out


def closed_form(sd: StructureData, n: int) -> RationalFunction:
    """Evaluate the classified solution at n: zero outside the support,
    otherwise scale(n) * q**(shift*(n-1)) * prod [n]_{q**r}**t exactly.
    The product is the q**k - 1 exponent table ``_quantum_table(exponents, n)``.
    When every t has one sign it is a polynomial or the inverse of one, and
    the table expands as it is; only mixed signs split it into coprime parts.
    """
    _index(n, 1, "closed_form requires n >= 1, got {!r}")
    if not in_support(sd.primes, n):
        return RationalFunction.zero()
    table = _quantum_table(sd.exponents, n)
    if all(t > 0 for t in sd.exponents.values()):
        num, den = _expand(table), ONE
    elif all(t < 0 for t in sd.exponents.values()):
        num, den = ONE, _expand({k: -v for k, v in table.items()})
    else:
        num, den = _split(table)
    e = sd.shift * (n - 1)
    assert e.denominator == 1  # guaranteed by validate_shift
    return _assemble(scale_at(sd, n), int(e), num, den)


def degree_signature(sd: StructureData, n: int) -> int:
    """degree(num) - degree(den) of the standard form of closed_form(sd, n):
    equals (n - 1) * sum of r * exponents[r]."""
    if not in_support(sd.primes, n):
        raise ValueError(f"{n} is outside the support of {list(sd.primes)}")
    return (n - 1) * sum(r * t for r, t in sd.exponents.items())


def decompose(spec: SolutionSpec) -> StructureData:
    """Recover the StructureData of the solution generated by spec.

    Stages, cheapest first, each run once by ``_classify``:
      1. at least two primes, else TooFewPrimes;
      2. standard forms give the scale on each prime and a common shift
         rate, else NotASolution('shift');
      3. each num/den pair is read as its signed table of q**k - 1
         exponents, else NotASolution('non-cyclotomic') -- the generator
         has a zero or pole that is neither 0 nor a root of unity, so the
         spec is outside the classified family (though (q**p - 2)/(q - 2)
         satisfies the identity);
      4. each prime's table Q_p is read by exact division by x_p - 1 (see
         _read), and the reads must agree, else
         NotASolution('commutativity') naming each pair (a, b) whose
         identity (1 - x_b) * Q_a == (1 - x_a) * Q_b fails.  The x_a - 1 and
         x_b - 1 are distinct primes of the UFD Z[x_2, x_3, ...], so it holds
         iff Q_a = (x_a - 1) * t and Q_b = (x_b - 1) * t for one t, that is
         iff both reads exist and are equal.  The pairs are named before
         the common read is taken (_peel), which therefore always succeeds.

    The result reproduces every generator: closed_form(sd, p) == h_p.
    """
    return _classify(spec, residual=True)


def _classified(spec: SolutionSpec) -> StructureData | None:
    """The StructureData of spec when its generators have the closed form,
    else None: ``decompose`` with no residual scan, for ``synthesize``.
    Over a single prime, and on any spec ``decompose`` rejects, it is None."""
    try:
        return _classify(spec, residual=False)
    except (TooFewPrimes, NotASolution):
        return None


def _classify(spec: SolutionSpec, residual: bool) -> StructureData | None:
    """Stages 1-4 of ``decompose``, each once and in order: stage 4 names
    the pairs whose reads differ before ``_peel`` takes the common read.
    With residual true every failure raises.  With residual false, a generator that the
    read refuses gives None at once, and no residual scan runs."""
    if len(spec.primes) < 2:
        raise TooFewPrimes(
            f"decomposition needs at least two primes, got {list(spec.primes)}"
        )
    forms: dict[int, StandardForm] = {
        p: spec.generator(p).standard_form() for p in spec.primes
    }
    shift = _common_shift(forms)
    reads: dict[int, dict[int, int] | None] = {}
    for p, form in forms.items():
        try:
            table = _quotient(form.num, form.den, residual)
        except NonCyclotomicFactor as exc:
            raise NotASolution(
                "non-cyclotomic",
                f"generator for prime {p} has a zero or pole that is neither 0 "
                f"nor a root of unity (residual factor {exc.residual})",
            ) from exc
        if table is None:
            return None
        reads[p] = _read(table, p)
    _reject_violations(
        (a, b)
        for a, b in combinations(spec.primes, 2)
        if reads[a] is None or reads[a] != reads[b]
    )
    # Valid by construction, so unchecked: the primes are a SolutionSpec's,
    # the scales nonzero Fractions, shift * (p - 1) integral by
    # _common_shift, and _peel's exponents nonzero ints on positive keys.
    sd = object.__new__(StructureData)
    _Value.__init__(sd, spec.primes, {p: forms[p].scale for p in spec.primes}, shift, _peel(reads))
    return sd


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


def _read(e: Counter[int], p: int) -> dict[int, int] | None:
    """The t with ``_quantum_table(t, p)`` equal to the signed table e, or
    None.  e is a Counter, whose equality ignores zero entries.

    Write index k = prod l**a_l as the monomial prod x_l**a_l: a table is an
    integer polynomial, dilating by l multiplies by x_l, and
    ``_quantum_table(t, p)`` is (x_p - 1) * t.  So t is e divided by x_p - 1
    from the top, t[j] = e[j*p] + e[j*p**2] + ..., if that division is exact.
    """
    sums: Counter[int] = Counter()
    for k, v in e.items():
        while k % p == 0:
            k //= p
            sums[k] += v
    t = {j: v for j, v in sorted(sums.items()) if v}
    return t if e == _quantum_table(t, p) else None


def _peel(reads: dict[int, dict[int, int] | None]) -> dict[int, int]:
    """The exponents t whose ``_quantum_table(t, p)`` is every prime's table,
    given each prime's ``_read``: the common read of all primes, else
    NotASolution('peeling')."""
    first = min(reads)
    bad = [p for p, t in reads.items() if t is None or t != reads[first]]
    if bad:
        raise NotASolution("peeling", f"primes {bad} lack the read of prime {first}")
    return reads[first]
