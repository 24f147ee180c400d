"""Cyclotomic polynomials, root-of-unity certification, and multiset quotients.

The building blocks here are the polynomials q**k - 1 and the cyclotomic
polynomials Phi_k, tied together by

    q**k - 1 = prod_{d | k} Phi_d(q),  Phi_k = prod_{d | k} (q**d - 1)**moebius(k/d),

so one sparse kernel, ``_cyclotomic_product``, expands every product of
cyclotomics through powers of q**j - 1.

``cyclo_factor`` decides whether a polynomial vanishes only at 0 and at
roots of unity by actually producing the factorization unit * q**a *
prod Phi_d**m_d, and reports the stubborn residual factor when it cannot.
A product of cyclotomics is a signed product of factors (1 - q**j)**a_j,
so the a_j are read off its power series one coefficient at a time (the
inverse Euler transform, N. J. A. Sloane and S. Plouffe, The Encyclopedia
of Integer Sequences, 1995), by ``_expand``'s kernel run backwards, and
certified with no division: the read stops past sum |a_j| = 2 * degree,
completes one factor too high to show in the series, and holds when the
net exponents of the Phi_d are all >= 0.  Only a polynomial that is no
such product meets the scan over candidate Phi_d, which finds its residual.
On a sparse input the candidates are the few d that Mann's theorem on
vanishing sums of roots of unity allows (H. B. Mann, Mathematika 12
(1965)); otherwise they are every d with euler_phi(d) <= degree.

A quotient of such products is one signed table {k: e} of exponents of
q**k - 1.  The read yields that table for each part, ``_quotient`` sums a
generator's two as they are, and the structure classification peels that
plain {k: e} table with no detour through Phi_d.  ``MultisetQuotient`` is
the public value that ``as_multiset_quotient`` returns: the same table as
the unique representation

    prod_{u in num} (q**u - 1) / prod_{v in den} (q**v - 1)

with disjoint multisets of indices.  Net Phi_d exponents (``_net``) appear
only in the read's certificate, in the coprime split that expands a
mixed-sign table (``_split``), and in what ``cyclo_factor`` returns.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, compress
from math import gcd, isqrt
from operator import sub

from ._value import _Value
from .arith import _index, divisors, factorize
from .poly import ONE, Polynomial, _exact, _int_divmod, _int_primitive, _make
from .ratfunc import RationalFunction

__all__ = [
    "cyclotomic",
    "q_power_minus_one",
    "CyclotomicFactorization",
    "NonCyclotomicFactor",
    "cyclo_factor",
    "MultisetQuotient",
    "as_multiset_quotient",
]


def q_power_minus_one(k: int) -> Polynomial:
    """The polynomial q**k - 1."""
    _index(k, 1, "q_power_minus_one requires k >= 1, got {!r}")
    return Polynomial.monomial(k) - ONE


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> Polynomial:
    """The k-th cyclotomic polynomial: monic, integer coefficients,
    degree euler_phi(k); expanded by ``_cyclotomic_product``."""
    _index(k, 1, "cyclotomic requires k >= 1, got {!r}")
    return _cyclotomic_product({k: 1})


class CyclotomicFactorization(_Value):
    """Exact factorization unit * q**qpower * prod Phi_d**factors[d]."""

    __slots__ = ("unit", "qpower", "factors")
    unit: Fraction
    qpower: int
    factors: dict[int, int]

    def __init__(self, unit: Fraction, qpower: int, factors: Mapping[int, int]):
        if not _exact(unit):
            raise ValueError("unit must be nonzero")
        _index(qpower, 0, "qpower must be an integer >= 0, got {!r}")
        message = "factors requires positive indices and multiplicities, got {!r}"
        for d, m in factors.items():
            _index(d, 1, message)
            _index(m, 1, message)
        super().__init__(Fraction(unit), qpower, dict(factors))

    def value(self) -> Polynomial:
        """Multiply the factorization back out."""
        return _cyclotomic_product(self.factors).scaled(self.unit).shift(self.qpower)


def _moebius_table(exponents: Mapping[int, int]) -> Counter[int]:
    """The signed table {j: a} with prod Phi_d**m == prod (q**j - 1)**a.

    The terms of Phi_d come from ``_moebius_terms`` and one factorization
    of d.
    """
    table: Counter[int] = Counter()
    for d, m in exponents.items():
        table.update(dict(_moebius_terms(d, m, factorize(d))))
    return table


def _moebius_terms(d: int, m: int, primes: Iterable[int]) -> list[tuple[int, int]]:
    """The pairs (d/s, m * moebius(s)) over the squarefree s | d, given the
    primes of d: prod Phi_d**m == prod (q**j - 1)**a over the pairs (j, a)."""
    terms = [(d, m)]
    for p in primes:
        terms += [(j // p, -a) for j, a in terms]
    return terms


def _net(table: Mapping[int, int]) -> dict[int, int]:
    """The net exponents {d: m_d}, zeros kept, of a signed table {j: a_j}:
    prod (q**j - 1)**a_j == prod Phi_d**m_d with m_d = sum_{d | j} a_j."""
    net: dict[int, int] = {}
    for j, a in table.items():
        for d in divisors(j):
            net[d] = net.get(d, 0) + a
    return net


def _cyclotomic_product(exponents: Mapping[int, int]) -> Polynomial:
    """prod Phi_d**e over the positive entries e of exponents."""
    return _expand(_moebius_table({d: e for d, e in exponents.items() if e > 0}))


def _times_unit(c: list[int], j: int) -> None:
    """c *= 1 - q**j in place, as a power series cut after len(c) terms."""
    c[j:] = map(sub, c[j:], c[:-j])


def _over_unit(c: list[int], j: int) -> None:
    """c /= 1 - q**j in place, as a power series cut after len(c) terms:
    the running sum along each residue class mod j that has two terms."""
    for i in range(min(j, len(c) - j)):
        c[i::j] = accumulate(c[i::j])


def _expand(table: Mapping[int, int]) -> Polynomial:
    """prod (q**j - 1)**a over a signed table whose product is a polynomial.

    Expands (-1)**sum(a) * prod (1 - q**j)**a in integer power series cut
    after its known degree, where each 1 - q**j is a unit: multiplying is
    c[i] -= c[i - j], dividing the running sum c[i] += c[i - j] (Arnold and
    Monagan, Math. Comp. 80 (2011)).
    """
    c = [1] + [0] * sum(j * a for j, a in table.items())
    for j, a in table.items():
        for _ in range(a):
            _times_unit(c, j)
        for _ in range(-a):
            _over_unit(c, j)
    return _make([-v for v in c] if sum(table.values()) % 2 else c)


class NonCyclotomicFactor(ValueError):
    """A polynomial has a zero that is neither 0 nor a root of unity.

    ``residual`` is the monic factor that resisted cyclotomic extraction.
    """

    def __init__(self, residual: Polynomial):
        self.residual = residual
        super().__init__(f"non-cyclotomic residual factor: {residual}")


def _exact_int_div(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """Quotient of the integer polynomials a / b, or None unless it has
    integer coefficients and the remainder is zero."""
    quot, rem, s = _int_divmod(a, b)
    return quot if s == 1 and not rem else None


def _cyclotomic_divides(phi: Sequence[int], c: Sequence[int], d: int) -> bool:
    """Whether Phi_d, with coefficients phi, divides the integer polynomial c;
    decided on c mod q**d - 1, of degree below d, as Phi_d divides q**d - 1."""
    if d < len(c):
        c = [sum(c[r::d]) for r in range(d)]
    return not _int_divmod(c, phi)[1]


def _candidates(deg: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(d, euler_phi(d), the primes of d ascending) for every d with
    euler_phi(d) <= deg, in increasing d, without factoring any d.

    Each d > 1 grows from its parent d / p, p its largest prime:
    euler_phi(d) is euler_phi(d / p) times p if p divides d / p, and times
    p - 1 if not, so every prime of d is at most deg + 1 and comes from one
    sieve.  A popped d pushes two entries: its first child d * p and its
    next sibling d / p * p', p' the prime after p.  Every later child or
    sibling has a larger totient than these two, so a branch ends at the
    first entry past deg.
    """
    from heapq import heappop, heappush

    if deg < 1:
        return
    sieve = bytearray([1]) * (deg + 2)
    sieve[:2] = b"\0\0"
    for k in range(2, isqrt(deg + 1) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytes(len(range(k * k, deg + 2, k)))
    primes = list(compress(range(deg + 2), sieve))
    yield 1, 1, ()
    # (d, phi, primes of d, index j of its largest prime, its parent's (d, phi, primes))
    heap = [(2, 1, (2,), 0, (1, 1, ()))]
    while heap:
        d, phi, ps, j, parent = heappop(heap)
        yield d, phi, ps
        p = primes[j]
        if phi * p <= deg:
            heappush(heap, (d * p, phi * p, ps, j, (d, phi, ps)))
        if j + 1 < len(primes):
            pd, pphi, pps = parent
            p = primes[j + 1]
            if pphi * (p - 1) <= deg:
                heappush(heap, (pd * p, pphi * (p - 1), (*pps, p), j + 1, parent))


def _mann_candidates(ints: Sequence[int], deg: int) -> list[tuple[int, int, tuple[int, ...]]] | None:
    """(d, euler_phi(d), the primes of d ascending) in increasing d for the d
    with euler_phi(d) <= deg and d <= deg * bitlen(2 * deg**2) that divide
    N_t * (e_j - e_i) for two exponents e_i < e_j of the t terms of ints,
    N_t the product of the primes <= t: every d with Phi_d dividing ints is
    among them (Mann's theorem, see ``cyclo_factor``).

    None, with nothing listed, when the t * (t - 1) / 2 differences times
    the 2**w divisors of N_t, w the number of primes <= t, pass 2 * deg,
    about the length of ``_candidates(deg)``: past that, listing the set
    costs more than the screens it saves over the walk.
    """
    support = list(compress(range(len(ints)), ints))
    t = len(support)
    n_t = tau = 1
    for k in range(2, t + 1):
        if gcd(n_t, k) == 1:  # k is prime: no smaller prime divides it
            n_t, tau = n_t * k, 2 * tau
            if t * (t - 1) * tau > 4 * deg:
                return None
    bound = deg * (2 * deg * deg).bit_length()
    found: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    for delta in {b - a for i, a in enumerate(support) for b in support[i + 1 :]}:
        rows = [(1, 1, ())]
        for p, e in factorize(n_t * delta).items():
            for d, phi, ps in rows[:]:
                d, phi = d * p, phi * (p - 1)
                for _ in range(e):
                    if d > bound or phi > deg:
                        break
                    rows.append((d, phi, (*ps, p)))
                    d, phi = d * p, phi * p
        found.update((row[0], row) for row in rows)
    return sorted(found.values())


def _cyclotomic_at(x: int, d: int, primes: Iterable[int]) -> int:
    """Phi_d(x) = prod (x**(d/s) - 1)**moebius(s) over the squarefree s | d,
    given the primes of d."""
    num = den = 1
    for j, a in _moebius_terms(d, 1, primes):
        if a > 0:
            num *= x**j - 1
        else:
            den *= x**j - 1
    return num // den


def _inverse_euler(series: list[int], n: int, top: int) -> dict[int, int] | None:
    """The table {j: a} of the j < n with series == prod (1 - q**j)**a
    mod q**n, for an integer series with series[0] == 1; None once the a
    show that series is no product of cyclotomics of degree top.

    The lowest term left at q**j, once (1 - q**i)**a_i is removed for every
    i < j, is -a_j q**j, so the a_j come off in turn by ``_expand``'s passes
    run the other way.  Two bounds hold for every such product, so passing
    either ends the read: sum |a_j| <= 2 * top, and the power sums
    s_k = sum_{j | k} j * a_j of its top roots of unity have |s_k| <= top.
    """
    c = series[:n] + [0] * (n - len(series))
    s = [0] * n
    table: dict[int, int] = {}
    budget = 2 * top
    for j in range(1, n):
        a = -c[j]
        if a:
            budget -= abs(a)
            if budget < 0 or abs(s[j] + j * a) > top:
                return None
            table[j] = a
            s[j::j] = [v + j * a for v in s[j::j]]
            for _ in range(a):
                _over_unit(c, j)
            for _ in range(-a):
                _times_unit(c, j)
        elif abs(s[j]) > top:
            return None
    return table


def _step(ints: Sequence[int]) -> int:
    """The largest step with ints == F(q**step) for a polynomial F: the gcd
    of the exponents of the nonzero terms."""
    return reduce(gcd, compress(range(len(ints)), ints), 0) or 1


def _read_exponents(ints: list[int]) -> dict[int, int] | None:
    """The signed table {k: a}, no a zero, with ints == +-prod (q**k - 1)**a,
    read off the power series; None exactly when ints is no product of
    cyclotomics.  See ``cyclo_factor`` for the read and its certificate."""
    if ints[0] not in (1, -1):
        return None
    flipped = ints[::-1]
    if flipped != ints and flipped != [-v for v in ints]:
        return None
    # ints is F(q**step): the series of F is read, and its table dilated by
    # step is the table of ints.
    step = _step(ints)
    series = ints[::step] if ints[0] == 1 else [-v for v in ints[::step]]
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
            table = {step * j: a for j, a in read.items()}
            if min(_net(table).values(), default=0) >= 0:
                return table
        if n > last:
            return None
        n = min(2 * n, last + 1)


def cyclo_factor(p: Polynomial) -> CyclotomicFactorization:
    """Factor p as unit * q**a * prod Phi_d**m exactly, or raise
    NonCyclotomicFactor carrying the residual.

    The factors are read off the power series first (``_read_exponents``).
    Let f be the primitive integer body and D its degree.  A product of
    cyclotomics has f(0) = +-1 and is palindromic or anti-palindromic, so
    any other f goes straight to the scan below.  Normalized to f(0) = 1,
    f = prod (1 - q**j)**a_j, and the a_j come off in turn mod q**n, from
    n = D + 1, one stride pass of ``_expand`` per unit of |a_j|.  When
    f = F(q**step), step the gcd of the exponents of f, F is read instead,
    and its table dilated by step is the table of f.  The read yields that
    signed table {j: a_j}, the one ``decompose`` peels; only here is it
    turned into the ascending nonzero net exponents m_d of the result.

    - Budget.  Phi_d = +-prod (1 - q**(d/s))**moebius(s) over the
      squarefree s | d has 2**w terms, w the number of primes of d, and
      2**w <= 2 * euler_phi(d), as p - 1 >= 2 for every odd prime p.  So
      a product of degree D has sum |a_j| <= 2 * D, and the read gives up
      past that.  Its D roots are roots of unity, so their power sums
      s_k = sum_{j | k} j * a_j have |s_k| <= D too: past that the read
      gives up as well, which stops a non-cyclotomic f such as Lehmer's
      polynomial within a few multiples of D.
    - High factor.  The j >= n leave no trace mod q**n.  Their sum of
      j * a_j is rest = D - sum_{j < n} j * a_j; rest >= n is taken for
      the one factor 1 - q**rest.  With n = D + 1 this completes every
      [p]_{q**r}, whose top index r * p is above its degree.  Any other
      nonzero rest leaves the read uncertified.
    - Certificate.  When the net exponents m_d = sum_{d | j} a_j are all
      >= 0, g = +-prod (1 - q**j)**a_j is +-prod Phi_d**m_d, a polynomial
      of degree sum m_d * euler_phi(d) = sum j * a_j = D that agrees with
      f mod q**n, n > D.  So f = g, and no division checks it.
    - Precision.  An uncertified read runs again with n doubled, until
      n > D * bitlen(2 * D**2).  Every index of a product is at most that
      bound (proof below), so then rest = 0 and the certificate holds.  A
      product is therefore always read, Phi_10 alone at n = 2 * D + 2;
      a None means f is no product.

    Only on such an f does ``_residual`` run.  It scans F, not f, for the
    residual (see there), and below f stands for what it scans.  Each Phi_d
    is divided out to its full multiplicity before moving on.  Only d with
    euler_phi(d) <= deg, the degree of what remains, can divide, and each
    has d <= deg * bitlen(2 * deg**2), so the scan, in increasing d, stops
    at the first d past that bound for what remains.  The candidates come
    from one of two lists, both with their totients and primes:

    - Mann's set (``_mann_candidates``), when f has few terms for its
      degree.  If Phi_m divides f = sum c_i q**(e_i), t terms, then f(z) = 0
      at a primitive m-th root z splits into vanishing subsums with no
      vanishing proper subsum, of k <= t terms each, and by Mann's theorem
      the terms of each have (z**(e_i - e_j))**N_k = 1, N_k the product of
      the primes <= k.  So m divides N_t * (e_j - e_i) for two exponents of
      f, and the set is the divisors of those numbers within the bounds.
      Every Phi_d dividing what remains divides f, so the set, built once,
      serves the whole scan.
    - Otherwise ``_candidates``, every d with euler_phi(d) <= deg for the
      starting degree, with no other integer looked at.

    Proof of the bound on d:
    euler_phi(d) >= sqrt(d/2) gives d <= 2 * deg**2.  The distinct primes
    p_1 < ... < p_w of d have p_i >= i + 1, so
    euler_phi(d)/d = prod (1 - 1/p_i) >= 1/(w + 1), and 2**w <= d gives
    w + 1 <= bitlen(d) <= bitlen(2 * deg**2).

    A trial division by Phi_d runs only after two screens pass.  First,
    Phi_d(x) must divide the integer f(x), where x >= 2 is the least integer
    with f(x) != 0: if Phi_d divides f over the integers then Phi_d(x)
    divides f(x) in Z.  This rejects nearly every large d on its own, but
    not the small d, such as Phi_1(2) = 1, that divide any f(x).  Second,
    ``_cyclotomic_divides`` decides exactly whether Phi_d divides f, on f
    mod q**d - 1, so every division that runs finds a factor.
    """
    net = sorted(_net(_read_table(p, residual=True)).items())
    return CyclotomicFactorization(p.leading, p.valuation(), {d: m for d, m in net if m})


def _read_table(p: Polynomial, residual: bool) -> dict[int, int] | None:
    """``_read_exponents`` of the primitive integer body of a nonzero p.  When
    p is no product of cyclotomics: with residual true NonCyclotomicFactor,
    carrying the residual, and with residual false None, with no scan."""
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    # By Gauss's lemma each monic Phi_d dividing the primitive integer part
    # leaves an integer quotient.
    body = _int_primitive(p._ints[p.valuation():])
    table = _read_exponents(body)
    if table is None and residual:
        raise NonCyclotomicFactor(_residual(body))
    return table


def _residual(body: list[int]) -> Polynomial:
    """The monic residual of a primitive integer body that is no product of
    cyclotomics: what is left of it once every Phi_d is divided out.

    The scan runs on F, where the body is F(q**step).  If F = C * R, with C a
    product of cyclotomics and R free of them, then the body is C(q**step) *
    R(q**step), where C(q**step) is a product of cyclotomics and R(q**step)
    has none: a root of unity z with R(z**step) = 0 would make z**step a
    root of R.  So the residual of the body is R(q**step).

    The candidates are Mann's set of F when ``_mann_candidates`` lists it,
    and the walk ``_candidates`` when F has too many terms for its degree.
    """
    step = _step(body)
    remaining = body[::step]
    x, value = 1, 0
    while not value:  # x = 2, or the next integer while x is a root
        x += 1
        for c in reversed(remaining):
            value = value * x + c
    deg = len(remaining) - 1
    candidates = _mann_candidates(remaining, deg)
    for d, phi, primes in _candidates(deg) if candidates is None else candidates:
        deg = len(remaining) - 1
        if d > deg * (2 * deg * deg).bit_length():
            break
        if phi > deg:
            continue
        at_x = _cyclotomic_at(x, d, primes)
        if value % at_x:
            continue
        phi_d = cyclotomic(d)._ints
        while value % at_x == 0 and _cyclotomic_divides(phi_d, remaining, d):
            remaining = _exact_int_div(remaining, phi_d)
            value //= at_x
    return Polynomial(remaining).monic().compose_power(step)


class MultisetQuotient(_Value):
    """Disjoint multisets of indices representing
    prod (q**u - 1) over num / prod (q**v - 1) over den, or equivalently
    the signed table {k: e} of ``exponents`` (num positive, den negative).

    By the uniqueness of this representation, two distinct quotients always
    denote distinct rational functions.  Empty multisets denote the empty
    product 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Mapping[int, int] = {}, den: Mapping[int, int] = {}):
        for side, name in ((num, "num"), (den, "den")):
            message = name + " requires positive indices and multiplicities, got {!r}"
            for k, m in side.items():
                _index(k, 1, message)
                _index(m, 1, message)
        common = num.keys() & den.keys()
        if common:
            raise ValueError(f"num and den must be disjoint; both contain {sorted(common)}")
        # Defensive copies: the value must stay immutable once constructed.
        super().__init__(dict(num), dict(den))

    @classmethod
    def from_exponents(cls, table: Mapping[int, int]) -> "MultisetQuotient":
        """The quotient prod (q**k - 1)**e of a signed table {k: e}."""
        return cls(
            num={k: e for k, e in table.items() if e > 0},
            den={k: -e for k, e in table.items() if e < 0},
        )

    def exponents(self) -> Counter[int]:
        """The signed table {k: e}: num multiplicities positive, den negative."""
        return Counter({**self.num, **{k: -m for k, m in self.den.items()}})

    def dilate(self, d: int) -> "MultisetQuotient":
        """Multiply every index by d; mirrors the substitution q -> q**d,
        since (q**d)**k - 1 = q**(d*k) - 1."""
        _index(d, 1, "dilate requires d >= 1, got {!r}")
        return MultisetQuotient.from_exponents({d * k: e for k, e in self.exponents().items()})

    def value(self) -> RationalFunction:
        """Expand the quotient exactly (``_split``)."""
        return RationalFunction._reduced(*_split(self.exponents()))


def _split(table: Mapping[int, int]) -> tuple[Polynomial, Polynomial]:
    """The coprime numerator and denominator of prod (q**k - 1)**e over a
    signed table.  The net cyclotomic exponents split it: the numerator is
    their positive part, and the denominator's table is the numerator's
    minus this one."""
    num = _moebius_table({d: m for d, m in _net(table).items() if m > 0})
    den = num.copy()
    den.subtract(table)
    return _expand(num), _expand(den)


def as_multiset_quotient(num: Polynomial, den: Polynomial) -> MultisetQuotient:
    """Convert a reduced quotient of monic polynomials with nonzero constant
    terms into its unique MultisetQuotient, or raise NonCyclotomicFactor.
    Both parts are checked before either is read, so any other part raises
    ValueError, not NonCyclotomicFactor.

    A failure certifies that num/den has a zero or pole that is neither 0
    nor a root of unity: it lies outside the family ``decompose`` classifies.
    """
    for part in (num, den):
        if part.leading != 1 or not part.constant_term:
            raise ValueError(f"expected a monic polynomial with nonzero constant term, got {part}")
    return MultisetQuotient.from_exponents(_quotient(num, den, residual=True))


def _quotient(num: Polynomial, den: Polynomial, residual: bool) -> Counter[int] | None:
    """The signed table {k: e} with num/den == prod (q**k - 1)**e, for monic
    num and den with nonzero constant terms: the read's tables of the two
    parts summed as they are, so no net Phi_d exponent is formed and
    indices shared by the parts keep a zero entry.  When the read refuses a
    part: with residual true NonCyclotomicFactor, carrying the residual, and
    with residual false None, with no scan."""
    table: Counter[int] = Counter()
    for part, sign in ((num, 1), (den, -1)):
        if part == ONE:
            continue
        read = _read_table(part, residual)
        if read is None:
            return None
        table.update({k: sign * a for k, a in read.items()})
    return table
