import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qfe.cyclo
from qfe.poly import ONE, Polynomial, quantum_integer
from qfe.ratfunc import RationalFunction
from qfe.solutions import (
    NotASolution,
    SolutionSpec,
    _products_equal,
    combine,
    commutativity_violations,
    in_support,
    invert,
    is_commutative,
    quantum_integer_spec,
    synthesize,
    verify_functional_equation,
)
from qfe.structure import StructureData, closed_form

from helpers import (
    _term_in_order,
    count_gcd_calls,
    products_equal_by_cross_multiplying,
    random_nonzero_fraction,
    random_nonzero_polynomial,
    random_structure_data,
    spec_257,
    term_by_fold,
    violations_by_field_products,
)

ROOT = Path(__file__).resolve().parents[1]


def P(*coeffs):
    return Polynomial(coeffs)


class TestSupport:
    def test_example_member(self):
        assert in_support((2, 5, 7), 10)

    def test_example_non_member(self):
        assert not in_support((2, 5, 7), 3)

    def test_one_always_member(self):
        assert in_support((), 1)
        assert in_support((2, 5, 7), 1)

    def test_prime_powers(self):
        assert in_support((2, 3), 72)
        assert not in_support((2, 3), 70)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            in_support((2,), 0)


class TestSpecValidation:
    def test_non_prime_key(self):
        with pytest.raises(ValueError):
            SolutionSpec({4: RationalFunction(ONE)})

    def test_zero_generator(self):
        with pytest.raises(ValueError):
            SolutionSpec({2: RationalFunction.zero()})

    def test_generator_coercion(self):
        spec = SolutionSpec({2: quantum_integer(2), 3: 1})
        assert spec.generator(2) == RationalFunction(P(1, 1))
        assert spec.generator(3) == RationalFunction(ONE)

    def test_primes_sorted(self):
        spec = SolutionSpec({5: 1, 2: 1, 3: 1})
        assert spec.primes == (2, 3, 5)


class TestCommutativity:
    def test_shifted_cubic_family(self):
        assert is_commutative(spec_257())

    def test_quantum_integers(self):
        assert is_commutative(quantum_integer_spec([2, 3]))

    def test_violating_pair(self):
        spec = SolutionSpec({2: P(1, 1), 3: P(1, 1, 0, 1)})
        assert commutativity_violations(spec) == ((2, 3),)
        # oracle: expand both sides of the identity with plain products
        lhs = P(1, 1) * P(1, 1, 0, 1).compose_power(2)
        rhs = P(1, 1, 0, 1) * P(1, 1).compose_power(3)
        assert lhs != rhs

    def test_empty_and_single_prime_pass(self):
        assert is_commutative(SolutionSpec({}))
        assert is_commutative(SolutionSpec({5: RationalFunction(P(1, 2, 3))}))


class TestSynthesize:
    def test_quantum_product(self):
        spec = quantum_integer_spec([2, 3])
        assert synthesize(spec, 6) == RationalFunction(quantum_integer(6))

    def test_shifted_cubic_degree(self):
        f10 = synthesize(spec_257(), 10)
        assert f10.is_polynomial
        assert f10.num.degree == 18

    def test_outside_support_is_zero(self):
        assert synthesize(spec_257(), 3).is_zero

    def test_term_one(self):
        assert synthesize(spec_257(), 1) == RationalFunction(ONE)

    def test_empty_prime_set(self):
        spec = SolutionSpec({})
        assert synthesize(spec, 1) == RationalFunction(ONE)
        assert synthesize(spec, 2).is_zero

    def test_rejects_non_commutative(self):
        spec = SolutionSpec({2: P(1, 1), 3: P(1, 1, 0, 1)})
        with pytest.raises(NotASolution) as exc:
            synthesize(spec, 6)
        assert exc.value.reason == "commutativity"

    def test_order_independence(self):
        for spec in (quantum_integer_spec([2, 3, 5]), spec_257()):
            for n in (12, 70, 180, 98):
                blocks = []
                remaining = n
                for p in spec.primes:
                    power = 1
                    while remaining % p == 0:
                        power *= p
                        remaining //= p
                    if power > 1:
                        blocks.append(power)
                if remaining != 1:
                    continue
                values = {
                    _term_in_order(spec, order) for order in permutations(blocks)
                }
                assert len(values) == 1
                assert values.pop() == synthesize(spec, n)

    def test_prime_power_expansion(self):
        # f(m^k) = prod_{i<k} f_m(q^(m^i))
        cases = [(quantum_integer_spec([2, 3]), (2, 3, 6)), (spec_257(), (2, 5, 10))]
        for spec, ms in cases:
            for m in ms:
                for k in (1, 2, 3):
                    product = RationalFunction(ONE)
                    for i in range(k):
                        product = product * synthesize(spec, m).compose_power(m**i)
                    assert synthesize(spec, m**k) == product

    def test_matches_prime_power_fold(self):
        # synthesize splits off the largest prime; the earlier design folded
        # prime-power blocks left to right.
        rng = random.Random(48)
        specs = [quantum_integer_spec([2, 3, 5]), spec_257()]
        for _ in range(6):
            sd = random_structure_data(rng)
            specs.append(SolutionSpec({p: closed_form(sd, p) for p in sd.primes}))
        for spec in specs:
            for n in range(1, 49):
                assert synthesize(spec, n) == term_by_fold(spec, n), (spec, n)

    def test_support_law(self):
        spec = spec_257()
        for n in range(1, 60):
            assert (not synthesize(spec, n).is_zero) == in_support(spec.primes, n)


class TestVerify:
    def test_quantum_pair(self):
        assert verify_functional_equation(quantum_integer_spec([2, 3]), 2, 3)

    def test_trivial_left_unit(self):
        spec = spec_257()
        for k in (1, 2, 5, 10, 3):
            assert verify_functional_equation(spec, 1, k)

    def test_violating_spec_raises(self):
        spec = SolutionSpec({2: P(1, 1), 3: P(1, 1, 0, 1)})
        with pytest.raises(NotASolution):
            verify_functional_equation(spec, 2, 3)

    def test_symmetric_identity_sweep(self):
        spec = quantum_integer_spec([2, 3])
        for m in range(1, 16):
            for n in range(1, 16):
                assert verify_functional_equation(spec, m, n)

    def test_outside_support_vacuous(self):
        spec = spec_257()
        assert verify_functional_equation(spec, 3, 11)
        assert verify_functional_equation(spec, 2, 3)

    @pytest.mark.parametrize("corrupt", ["f_mn", "f_m", "f_m with a consistent f_mn"])
    def test_wrong_memoized_term_is_violated(self, corrupt):
        # Terms memoized with a wrong value: each check must see it.  In the
        # last case f_mn = f_m * f_n(q**m) still holds, so only the symmetric
        # identity, q * f_m(q) * f_n(q**m) != f_n(q) * q**n * f_m(q**n), fails.
        spec, m, n = spec_257(), 2, 5
        assert verify_functional_equation(spec, m, n)  # memoizes f_m, f_n and f_mn
        fm, fmn = synthesize(spec, m), synthesize(spec, m * n)
        q = RationalFunction(P(0, 1))
        if corrupt == "f_mn":
            spec._terms[m * n] = fmn * q
        else:
            spec._terms[m] = fm * q
            if corrupt != "f_m":
                spec._terms[m * n] = fmn * q
        assert not verify_functional_equation(spec, m, n)

    def test_memoized_terms_run_no_gcd(self, monkeypatch):
        spec, m, n = spec_257(), 2, 35
        for k in (m, n, m * n):
            synthesize(spec, k)
        calls = count_gcd_calls(monkeypatch)
        assert verify_functional_equation(spec, m, n)
        assert not calls


def test_verify_composes_each_crossing_once(monkeypatch):
    # On memoized terms verify composes f_n(q**m) and f_m(q**n) once each, and
    # each crossing is decided by evaluation, with no polynomial product.
    spec, m, n = spec_257(), 2, 35
    for k in (m, n, m * n):
        synthesize(spec, k)
    gcds = count_gcd_calls(monkeypatch)
    calls = []
    for cls, name in ((RationalFunction, "compose_power"), (Polynomial, "__mul__")):
        method = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda a, b, name=name, method=method: calls.append(name) or method(a, b)
        )
    assert verify_functional_equation(spec, m, n)
    assert (calls.count("compose_power"), calls.count("__mul__")) == (2, 0)
    assert not gcds


def test_pair_scan_composes_each_generator_once_per_pair(monkeypatch):
    # Per pair the scan composes h_p2(q**p1) and h_p1(q**p2) once each, and
    # decides the identity by evaluation, with no polynomial product and no gcd.
    spec = spec_257()
    gcds = count_gcd_calls(monkeypatch)
    calls = []
    for cls, name in ((RationalFunction, "compose_power"), (Polynomial, "__mul__")):
        method = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda a, b, name=name, method=method: calls.append(name) or method(a, b)
        )
    assert commutativity_violations(spec) == ()
    pairs = len(spec.primes) * (len(spec.primes) - 1) // 2
    assert (calls.count("compose_power"), calls.count("__mul__")) == (2 * pairs, 0)
    assert not gcds


coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
nonzero_polynomials = st.lists(coefficients, min_size=1, max_size=5).map(Polynomial).filter(bool)
# Nonzero rational functions with Fraction and negative coefficients, dilated
# q -> q**d as the pair scan and verify dilate them.
factors = st.builds(
    lambda num, den, d: RationalFunction(num, den).compose_power(d),
    nonzero_polynomials,
    nonzero_polynomials,
    st.integers(1, 3),
)


class TestProductsEqual:
    """``_products_equal`` evaluates both sides at a power of 2; it must agree
    with multiplying the products out."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(factors, min_size=1, max_size=3), st.lists(factors, min_size=1, max_size=3))
    def test_agrees_on_unrelated_products(self, left, right):
        assert _products_equal(left, right) == products_equal_by_cross_multiplying(left, right)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(factors, min_size=1, max_size=3),
        factors,
        st.sampled_from([None, (-1, 1), (-1, -1), (0, 1), (0, -1)]),
    )
    def test_agrees_on_regrouped_products(self, left, g, change):
        # prod(left) regrouped as (prod(left) * g) * (1 / g), then, unless
        # change is None, its top (-1) or constant (0) numerator coefficient
        # moved by +-1.
        head = reduce(mul, left) * g
        if change is not None:
            index, step = change
            coeffs = list(head.num.coeffs)
            coeffs[index] += step
            num = Polynomial(coeffs)
            assume(num)
            head = RationalFunction(num, head.den)
        right = [head, g.inverse()]
        assert _products_equal(left, right) == products_equal_by_cross_multiplying(left, right)
        assert _products_equal(left, right) == (change is None)

    @pytest.mark.parametrize("k, j", [(0, 0), (0, 1), (1, 0), (3, 2), (8, 0), (7, 9), (20, 20)])
    def test_coefficients_at_the_bound(self, k, j):
        # c * (q + 1)**k * (q - 1)**j against its expansion.  With j = 0 the
        # expansion's L1 norm is the product of the factors' norms, and with
        # k = j = 0 its one coefficient c is the bound itself; the values of c
        # put that bound on both sides of a slot-width step.
        linear = [RationalFunction(P(1, 1))] * k + [RationalFunction(P(-1, 1))] * j
        expansion = P(1, 1) ** k * P(-1, 1) ** j
        for c in (1, -1, 127, 128, 2**15 - 1, -(2**31)):
            left = linear + [RationalFunction(c)]
            right = [RationalFunction(expansion * c)]
            assert _products_equal(left, right) and _products_equal(right, left)
            for index in (0, -1):
                for step in (1, -1):
                    coeffs = list((expansion * c).coeffs)
                    coeffs[index] += step
                    moved = Polynomial(coeffs)
                    if moved:
                        wrong = [RationalFunction(moved)]
                        assert _products_equal(left, wrong) == products_equal_by_cross_multiplying(
                            left, wrong
                        )
                        assert not _products_equal(left, wrong)

    def test_unequal_products_of_equal_degree(self):
        # (q + 1)(q - 1) = q**2 - 1 against q**2 + 1: same degree, different sign.
        left = [RationalFunction(P(1, 1)), RationalFunction(P(-1, 1))]
        assert not _products_equal(left, [RationalFunction(P(1, 0, 1))])
        assert _products_equal(left, [RationalFunction(P(-1, 0, 1))])


def test_spec_repr():
    assert repr(SolutionSpec({2: Polynomial([1, 1]), 3: 1})) == "SolutionSpec({2: q + 1, 3: 1})"


class TestCombinators:
    def test_invert_generator(self):
        inv = invert(quantum_integer_spec([2, 3]))
        assert inv.generator(2) == RationalFunction(ONE, P(1, 1))
        assert is_commutative(inv)

    def test_combine_identity(self):
        f = spec_257()
        g = quantum_integer_spec([2, 5, 7])
        same = combine(f, g, 1, 1, 1, 0)
        assert all(same.generator(p) == f.generator(p) for p in f.primes)

    def test_combine_builds_shifted_cubic_family(self):
        base = quantum_integer_spec([2, 5, 7])
        built = combine(base, base, 3, 1, 1, -1)
        expected = spec_257()
        assert all(built.generator(p) == expected.generator(p) for p in (2, 5, 7))

    def test_combine_homomorphism(self):
        f = quantum_integer_spec([2, 3])
        g = invert(f)
        built = combine(f, g, 2, 1, 1, 2)
        for n in range(1, 31):
            expected = synthesize(f, n).compose_power(2) * synthesize(g, n) ** 2
            assert synthesize(built, n) == expected

    def test_combine_preserves_commutativity(self):
        f = spec_257()
        g = quantum_integer_spec([2, 5, 7])
        assert is_commutative(combine(f, g, 2, 3, -1, 2))

    def test_mismatched_primes(self):
        with pytest.raises(ValueError):
            combine(quantum_integer_spec([2, 3]), quantum_integer_spec([2, 5]))

    def test_reciprocal_is_inverse_solution(self):
        spec = quantum_integer_spec([2, 3])
        inv = invert(spec)
        for n in (1, 2, 6, 12):
            assert synthesize(inv, n) * synthesize(spec, n) == RationalFunction(ONE)


def test_memoization_is_transparent():
    spec = quantum_integer_spec([2, 3])
    first = synthesize(spec, 24)
    again = synthesize(spec, 24)
    fresh = synthesize(quantum_integer_spec([2, 3]), 24)
    assert first == again == fresh


def test_memo_keeps_only_requested_terms():
    spec = SolutionSpec({2: 3, 3: 1})
    assert synthesize(spec, 2**4000) == 3**4000
    assert len(spec._terms) <= 3
    assert synthesize(spec, 5) == 0
    assert 5 not in spec._terms
    assert synthesize(spec, 2**4001) == 3**4001


def test_generators_mapping_readonly():
    spec = quantum_integer_spec([2, 3])
    with pytest.raises(TypeError):
        spec.generators[2] = RationalFunction(ONE)  # type: ignore[index]


def random_pair_scan_spec(rng, kind):
    """A spec over 2-3 primes: closed forms (Fraction scales and shifts,
    commutative), generators drawn from two closed forms over the same
    primes (maybe not commutative), or random quotients scaled by a Fraction
    (non-monic, mostly non-cyclotomic)."""
    if kind == "closed":
        sd = random_structure_data(rng)
        return SolutionSpec({p: closed_form(sd, p) for p in sd.primes})
    primes = sorted(rng.sample([2, 3, 5, 7], rng.randint(2, 3)))
    if kind == "mixed":
        sources = [
            StructureData(
                primes,
                {p: random_nonzero_fraction(rng) for p in primes},
                0,
                {r: rng.choice([-2, -1, 1, 2]) for r in rng.sample([1, 2, 3], rng.randint(0, 2))},
            )
            for _ in range(2)
        ]
        return SolutionSpec({p: closed_form(rng.choice(sources), p) for p in primes})
    return SolutionSpec(
        {
            p: RationalFunction(
                random_nonzero_polynomial(rng, 4).scaled(random_nonzero_fraction(rng)),
                random_nonzero_polynomial(rng, 3),
            )
            for p in primes
        }
    )


class TestPairScan:
    """commutativity_violations cross-multiplies numerators and denominators;
    the reference multiplies reduced rational functions, with gcds."""

    def test_matches_field_products(self):
        rng = random.Random(2718)
        seen = {kind: set() for kind in ("closed", "mixed", "random")}
        for i in range(150):
            kind = ("closed", "mixed", "random")[i % 3]
            spec = random_pair_scan_spec(rng, kind)
            expected = violations_by_field_products(spec)
            assert commutativity_violations(spec) == expected, spec
            seen[kind].add(bool(expected))
        assert seen == {"closed": {False}, "mixed": {True, False}, "random": {True}}

    def test_runs_no_gcd(self, monkeypatch):
        rng = random.Random(31)
        specs = [random_pair_scan_spec(rng, ("closed", "mixed", "random")[i % 3]) for i in range(30)]
        specs.append(spec_257())
        calls = count_gcd_calls(monkeypatch)
        verdicts = [commutativity_violations(spec) for spec in specs]
        assert not calls
        assert any(verdicts) and not all(verdicts)


def test_synthesize_through_a_thousand_prime_factors():
    # One fold step per prime factor of n; no recursion, so none hits the limit.
    spec = SolutionSpec({2: 3, 3: 1})
    assert synthesize(spec, 2**1200) == 3**1200
    assert synthesize(spec, 2**1199 * 3) == 3**1199
    assert synthesize(spec, 5 * 2**1200).is_zero
    assert verify_functional_equation(spec, 2**600, 3 * 2**700)


@st.composite
def closed_form_specs(draw):
    """Closed forms with Fraction scales and shifts, and their combine and
    invert results: solutions over two or three primes."""
    rng = draw(st.randoms(use_true_random=False))
    sd = random_structure_data(rng)
    spec = SolutionSpec({p: closed_form(sd, p) for p in sd.primes})
    kind = draw(st.sampled_from(["closed", "combine", "invert"]))
    if kind == "combine":
        other = StructureData(
            sd.primes,
            {p: random_nonzero_fraction(rng) for p in sd.primes},
            0,
            {r: rng.choice([-2, -1, 1, 2]) for r in rng.sample([1, 2, 3], rng.randint(0, 2))},
        )
        spec = combine(
            spec,
            SolutionSpec({p: closed_form(other, p) for p in sd.primes}),
            dilate_f=draw(st.integers(1, 2)),
            dilate_g=draw(st.integers(1, 2)),
            power_f=draw(st.sampled_from([-1, 1])),
            power_g=draw(st.sampled_from([-1, 1])),
        )
    elif kind == "invert":
        spec = invert(spec)
    return spec


@given(closed_form_specs(), st.lists(st.integers(1, 60), min_size=1, max_size=3), st.integers(2, 5))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_classified_synthesis_agrees_with_the_fold(spec, members, power):
    # Closed-form specs are synthesized through their classification; the
    # fold multiplies generators with gcds, so it shares no step with it.
    p = spec.primes[0]
    for n in [*members, p**power]:
        assert synthesize(spec, n) == term_by_fold(spec, n), n
    assert spec._structure and commutativity_violations(spec) == ()
    assert violations_by_field_products(spec) == ()


def test_classified_synthesis_runs_no_gcd(monkeypatch):
    specs = [spec_257(), quantum_integer_spec([2, 3]), invert(spec_257())]
    calls = count_gcd_calls(monkeypatch)
    for spec in specs:
        terms = [synthesize(spec, n) for n in range(1, 61)]
        assert verify_functional_equation(spec, 2, 5)
        assert sum(not f.is_zero for f in terms) > len(spec.primes) + 1
    assert not calls


def test_unclassified_solution_falls_back_without_the_residual_scan(monkeypatch):
    # h_p = g(q**p) / g(q) with g = 2 + q**10000 is a solution whose
    # generators have zeros off the roots of unity, outside the classified
    # family: the route refuses it on the read and never scans for a residual.
    g = Polynomial.monomial(10000) + 2
    spec = SolutionSpec({p: RationalFunction(g.compose_power(p), g) for p in (2, 3)})
    visits = []
    at = qfe.cyclo._cyclotomic_at
    monkeypatch.setattr(qfe.cyclo, "_cyclotomic_at", lambda *a: visits.append(a) or at(*a))
    assert synthesize(spec, 6) == RationalFunction(g.compose_power(6), g)
    assert not visits and spec._structure is False


def test_unclassified_solution_synthesizes_fast_in_a_cold_process():
    code = (
        "import time\n"
        "from qfe import Polynomial, RationalFunction, SolutionSpec, synthesize\n"
        "g = Polynomial.monomial(10000) + 2\n"
        "spec = SolutionSpec({p: RationalFunction(g.compose_power(p), g) for p in (2, 3)})\n"
        "start = time.perf_counter()\n"
        "synthesize(spec, 6)\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert float(done.stdout) < 1.0


@pytest.mark.parametrize(
    "generators, pairs",
    [
        ({2: P(1, 1), 3: P(1, 1)}, "(2, 3)"),  # cyclotomic, no common read
        ({2: P(0, 1, 1), 3: P(1, 1, 1)}, "(2, 3)"),  # shift rates 1 and 0
        ({2: P(1, 1), 3: P(1, 1, 1), 5: P(1, 1)}, "(2, 5), (3, 5)"),
        ({2: P(1, 1), 3: P(1, 1, 0, 1)}, "(2, 3)"),  # a generator the read refuses
    ],
)
def test_unclassified_spec_reports_the_pair_scan(generators, pairs):
    spec = SolutionSpec(generators)
    with pytest.raises(NotASolution) as info:
        synthesize(spec, 6)
    assert info.value.reason == "commutativity"
    assert str(info.value) == f"generator pairs {pairs} violate the compatibility identity"
    assert commutativity_violations(spec) == violations_by_field_products(spec)


def test_non_cyclotomic_solution_synthesizes_through_the_fold():
    # h_p = (q**p - 2)/(q - 2) satisfies the identity but has a zero at 2**(1/p).
    g = P(-2, 1)
    spec = SolutionSpec({p: RationalFunction(g.compose_power(p), g) for p in (2, 3, 5)})
    for n in (1, 4, 6, 7, 30, 45):
        expected = RationalFunction(g.compose_power(n), g) if n != 7 else RationalFunction.zero()
        assert synthesize(spec, n) == expected == term_by_fold(spec, n)
    assert spec._structure is False and commutativity_violations(spec) == ()
