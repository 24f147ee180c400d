"""Solutions of the multiplication law f(m*n) = f_m(q) * f_n(q**m).

A solution with support generated by a prime set P is completely determined
by its generators {h_p : p in P}.  An arbitrary assignment of generators
extends to a solution exactly when every pair satisfies the compatibility
identity

    h_p1(q) * h_p2(q**p1) == h_p2(q) * h_p1(q**p2),

so ``SolutionSpec`` carries the generators, and ``synthesize`` builds any
f_n from them.  Over at least two primes it first classifies the spec once,
by the stages of ``structure.decompose`` with no residual scan.  By the
classification theorem, generators with the closed form are a solution, so
then f_n = closed_form(sd, n), with no gcd.  Otherwise, and over a single
prime, it checks that identity once and builds f_n by products of dilated
generators.

That identity and the law checked by ``verify_functional_equation`` are each
an equality of two products of rational functions, which ``_products_equal``
decides without a gcd or a polynomial product.  It cross-multiplies to an
identity D_r * prod(ints_l) == D_l * prod(ints_r) of integer polynomials and
evaluates both sides at q = 2**W, with 2**(W - 1) above the bound
B = D_r * prod ||ints_l||_1 + D_l * prod ||ints_r||_1 on the coefficients of
their difference, so that the two values are equal exactly when the sides are.

Synthesized terms and the classification are memoized per spec; the cache
only ever stores the value a recomputation would produce, so concurrent use
behaves as if calls were serialized.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from itertools import combinations
from operator import mul
from types import MappingProxyType

from .arith import _index, is_prime
from .poly import quantum_integer
from .ratfunc import RationalFunction


class NotASolution(ValueError):
    """The input is outside the family of solutions ``decompose`` classifies
    (a solution with a zero or pole off {0, roots of unity} is outside too).

    ``reason`` is a stable machine-readable tag:
      'commutativity'   a generator pair violates the compatibility identity
      'non-cyclotomic'  a generator has a zero or pole off {0, roots of unity}
      'shift'           the q-power exponents of the generators are inconsistent
      'peeling'         the tables have no common read by x_p - 1; only
                        ``structure._peel`` called directly raises it, as
                        ``decompose`` names the failing pairs instead
    """

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


def in_support(primes: Iterable[int], n: int) -> bool:
    """True iff every prime factor of n lies in primes; n = 1 always qualifies.
    Divides the primes out of n, so n itself is never factorized."""
    _index(n, 1, "support membership requires n >= 1, got {!r}")
    for p in primes:
        while p > 1 and n % p == 0:
            n //= p
    return n == 1


class SolutionSpec:
    """Prime generators of a candidate solution.

    Generators may be given as RationalFunction, Polynomial, int, or
    Fraction values; each must be nonzero and keyed by a prime.
    """

    __slots__ = ("_generators", "primes", "_terms", "_violations", "_structure")

    def __init__(self, generators: Mapping[int, object]):
        items: dict[int, RationalFunction] = {}
        for p, h in generators.items():
            if not is_prime(p):
                raise ValueError(f"generator key {p} is not a prime")
            if not isinstance(h, RationalFunction):
                h = RationalFunction(h)  # type: ignore[arg-type]
            if h.is_zero:
                raise ValueError(f"generator for prime {p} must be nonzero")
            items[p] = h
        self._generators = dict(sorted(items.items()))
        self.primes: tuple[int, ...] = tuple(self._generators)
        self._terms: dict[int, RationalFunction] = {1: RationalFunction.one()}
        self._violations: tuple[tuple[int, int], ...] | None = None
        # synthesize's StructureData: None until tried, False when it fails.
        self._structure = None

    @property
    def generators(self) -> Mapping[int, RationalFunction]:
        return MappingProxyType(self._generators)

    def generator(self, p: int) -> RationalFunction:
        return self._generators[_index(p, None, "generator key must be an int, got {!r}")]

    def __repr__(self) -> str:
        gens = ", ".join(f"{p}: {h}" for p, h in self._generators.items())
        return f"SolutionSpec({{{gens}}})"


def commutativity_violations(spec: SolutionSpec) -> tuple[tuple[int, int], ...]:
    """All prime pairs (p1, p2), p1 < p2, violating the compatibility identity.

    An empty result means the generators extend to a unique solution whose
    support is the multiplicative semigroup generated by the primes.
    """
    if spec._violations is None:
        spec._violations = tuple(
            (p1, p2)
            for (p1, h1), (p2, h2) in combinations(spec.generators.items(), 2)
            if not _products_equal((h1, h2.compose_power(p1)), (h2, h1.compose_power(p2)))
        )
    return spec._violations


def _products_equal(left: Sequence[RationalFunction], right: Sequence[RationalFunction]) -> bool:
    """prod(left) == prod(right) for nonzero factors, decided exactly by one
    big-integer evaluation (Kronecker substitution).  No gcd and no
    polynomial product runs.

    Cross-multiplied, the identity is prod(ls) == prod(rs) for the numerators
    of left with the denominators of right, ls, against the denominators of
    left with the numerators of right, rs.  With each polynomial written as
    ints / den, that is D_r * prod(ints_l) == D_l * prod(ints_r) between
    integer polynomials, D_l and D_r the products of the dens of ls and rs.
    Every coefficient of the difference of the two sides is at most

        B = D_r * prod ||ints_l||_1 + D_l * prod ||ints_r||_1

    in absolute value.  So with 2**(W - 1) > B the difference is zero exactly
    when its value at q = 2**W is 0, and each side is evaluated there as one
    product of integers.  A factor's coefficients c lie in the same range, so
    each packs into a W-bit slot as c + 2**(W - 1), and the packed integer,
    less the one with 2**(W - 1) in every slot, is the factor's value.
    """
    ls = [a.num for a in left] + [b.den for b in right]
    rs = [a.den for a in left] + [b.num for b in right]
    if sum(len(p._ints) for p in ls) != sum(len(p._ints) for p in rs):
        return False  # ls and rs hold as many factors, so the degrees differ
    dl = reduce(mul, [p._den for p in ls])
    dr = reduce(mul, [p._den for p in rs])
    norm_l = reduce(mul, [sum(map(abs, p._ints)) for p in ls])
    norm_r = reduce(mul, [sum(map(abs, p._ints)) for p in rs])
    width = (dr * norm_l + dl * norm_r).bit_length() // 8 + 1  # W = 8 * width bits
    half = 1 << (8 * width - 1)
    mid = half.to_bytes(width, "little")

    def value(ints: Sequence[int]) -> int:
        packed = b"".join([(c + half).to_bytes(width, "little") if c else mid for c in ints])
        return int.from_bytes(packed, "little") - int.from_bytes(mid * len(ints), "little")

    lhs = reduce(mul, [value(p._ints) for p in ls], dr)
    return lhs == reduce(mul, [value(p._ints) for p in rs], dl)


def is_commutative(spec: SolutionSpec) -> bool:
    return not commutativity_violations(spec)


def _require_commutative(spec: SolutionSpec) -> None:
    _reject_violations(commutativity_violations(spec))


def _reject_violations(bad: Iterable[tuple[int, int]]) -> None:
    """Raise NotASolution('commutativity') naming the violating pairs, if any."""
    pairs = ", ".join(f"({a}, {b})" for a, b in bad)
    if pairs:
        raise NotASolution(
            "commutativity",
            f"generator pairs {pairs} violate the compatibility identity",
        )


def synthesize(spec: SolutionSpec, n: int) -> RationalFunction:
    """The term f_n of the solution determined by the generators.

    Returns 0 outside the support and 1 at n = 1.  Over at least two primes
    the spec is classified once, by ``decompose``'s stages with no residual
    scan.  When that succeeds, the classification theorem makes the spec a
    solution and f_n = closed_form(sd, n), with f_p = h_p at a prime.
    Otherwise, and over a single prime, the generators must pass the
    compatibility check, and with p the largest prime factor of n, the
    multiplication law at (n/p, p) gives f(n) = f(n/p) * h_p(q**(n/p)),
    applied down to the nearest memoized term.

    Raises NotASolution if the generators fail the compatibility check.
    """
    _index(n, 1, "synthesize requires n >= 1, got {!r}")
    if spec._structure is None:
        from .structure import _classified

        spec._structure = _classified(spec) or False
        if spec._structure:
            spec._violations = ()
    if not spec._structure:
        _require_commutative(spec)
    return _term(spec, n)


def _term(spec: SolutionSpec, n: int) -> RationalFunction:
    """f_n as ``synthesize`` builds it, memoizing f_n alone.  Off the
    classification, the fold walks n -> n/p down to the nearest memoized
    term, then multiplies back up; a loop, not recursion, so n may have any
    number of prime factors."""
    terms = spec._terms
    if n in terms:
        return terms[n]
    if not in_support(spec.primes, n):
        return RationalFunction.zero()
    if spec._structure:
        from .structure import closed_form

        value = spec._generators[n] if n in spec._generators else closed_form(spec._structure, n)
    else:
        steps, m = [], n
        while m not in terms:
            p = max(p for p in spec.primes if m % p == 0)
            steps.append((m, p))
            m //= p
        value = terms[m]
        for m, p in reversed(steps):
            value = value * spec._generators[p].compose_power(m // p)
    terms[n] = value
    return value


def verify_functional_equation(spec: SolutionSpec, m: int, n: int) -> bool:
    """Check the law at both crossings on synthesized terms,
    f(m*n) == f_m(q) * f_n(q**m) and f(m*n) == f_n(q) * f_m(q**n), which is the
    law and the symmetric identity together.  Each is one ``_products_equal``,
    so no gcd runs.

    Holds vacuously (0 == 0) when the operands fall outside the support.
    """
    _index(m, 1, "verify requires m, n >= 1, got m = {!r}")
    _index(n, 1, "verify requires m, n >= 1, got n = {!r}")
    fm = synthesize(spec, m)
    fn = synthesize(spec, n)
    if fm.is_zero or fn.is_zero:
        return True  # then m*n is outside the support as well
    fmn = synthesize(spec, m * n)
    return _products_equal((fmn,), (fm, fn.compose_power(m))) and _products_equal(
        (fmn,), (fn, fm.compose_power(n))
    )


def combine(
    f: SolutionSpec,
    g: SolutionSpec,
    dilate_f: int = 1,
    dilate_g: int = 1,
    power_f: int = 1,
    power_g: int = 1,
) -> SolutionSpec:
    """The solution with generators h_p = f_p(q**dilate_f)**power_f *
    g_p(q**dilate_g)**power_g.

    Both specs must share the same prime set.  Whenever f and g pass the
    compatibility check, so does the combination.
    """
    if f.primes != g.primes:
        raise ValueError(f"prime sets differ: {f.primes} vs {g.primes}")
    _index(dilate_f, 1, "dilations must be >= 1, got dilate_f = {!r}")
    _index(dilate_g, 1, "dilations must be >= 1, got dilate_g = {!r}")
    return SolutionSpec(
        {
            p: f.generator(p).compose_power(dilate_f) ** power_f
            * g.generator(p).compose_power(dilate_g) ** power_g
            for p in f.primes
        }
    )


def invert(f: SolutionSpec) -> SolutionSpec:
    """The reciprocal solution, with generators 1 / h_p."""
    return SolutionSpec({p: f.generator(p).inverse() for p in f.primes})


def quantum_integer_spec(primes: Iterable[int]) -> SolutionSpec:
    """The classical solution h_p = 1 + q + ... + q**(p-1) over the given primes."""
    return SolutionSpec({p: RationalFunction(quantum_integer(p)) for p in primes})
