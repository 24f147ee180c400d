import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qfe.cyclo
from qfe.cyclo import CyclotomicFactorization, MultisetQuotient, as_multiset_quotient, cyclo_factor
from qfe.poly import Polynomial, quantum_integer
from qfe.ratfunc import RationalFunction
from qfe.solutions import (
    NotASolution,
    SolutionSpec,
    combine,
    commutativity_violations,
    in_support,
    invert,
    is_commutative,
    quantum_integer_spec,
    synthesize,
    verify_functional_equation,
)
from qfe.structure import (
    StructureData,
    TooFewPrimes,
    _peel,
    _quantum_table,
    _read,
    closed_form,
    decompose,
    degree_signature,
    scale_at,
    validate_shift,
)

from helpers import (
    closed_form_by_products,
    count_gcd_calls,
    peel_greedy,
    random_multiset_pair,
    random_nonzero_fraction,
    random_structure_data,
    spec_257,
    violations_by_field_products,
)


def P(*coeffs):
    return Polynomial(coeffs)


SD_257 = StructureData(
    primes=(2, 5, 7),
    scales={2: Fraction(1), 5: Fraction(1), 7: Fraction(1)},
    shift=Fraction(0),
    exponents={1: -1, 3: 1},
)


def telescoping_spec(primes=(2, 3)):
    """Generators (q^p - 2)/(q - 2): they satisfy the compatibility identity
    exactly, but every zero and pole sits off the roots of unity."""
    g = P(-2, 1)
    return SolutionSpec(
        {p: RationalFunction(Polynomial([-2] + [0] * (p - 1) + [1]), g) for p in primes}
    )


class TestValidateShift:
    def test_sixth_over_7_13(self):
        assert validate_shift((7, 13), Fraction(1, 6))

    def test_half_over_2_3(self):
        assert not validate_shift((2, 3), Fraction(1, 2))

    def test_integers_always_valid(self):
        for shift in (0, 1, -3):
            assert validate_shift((2, 3, 11), Fraction(shift))


class TestStructureDataValidation:
    def test_too_few_primes(self):
        with pytest.raises(TooFewPrimes):
            StructureData((2,), {2: Fraction(1)}, Fraction(0), {})

    def test_bad_shift(self):
        with pytest.raises(ValueError):
            StructureData(
                (2, 3), {2: Fraction(1), 3: Fraction(1)}, Fraction(1, 2), {}
            )

    def test_zero_scale(self):
        with pytest.raises(ValueError):
            StructureData((2, 3), {2: Fraction(0), 3: Fraction(1)}, Fraction(0), {})

    def test_zero_exponent(self):
        with pytest.raises(ValueError):
            StructureData(
                (2, 3), {2: Fraction(1), 3: Fraction(1)}, Fraction(0), {1: 0}
            )

    def test_non_prime(self):
        with pytest.raises(ValueError):
            StructureData((2, 4), {2: Fraction(1), 4: Fraction(1)}, Fraction(0), {})


class TestScaleAt:
    def test_at_one(self):
        assert scale_at(SD_257, 1) == 1

    def test_multiplicative_extension(self):
        sd = StructureData(
            (2, 5), {2: Fraction(3), 5: Fraction(1, 2)}, Fraction(0), {}
        )
        assert scale_at(sd, 20) == Fraction(9, 2)

    def test_all_ones(self):
        assert scale_at(SD_257, 10) == 1

    def test_outside_support(self):
        with pytest.raises(ValueError):
            scale_at(SD_257, 3)

    def test_non_positive_is_outside(self):
        for n in (0, -1, -4):
            with pytest.raises(ValueError):
                scale_at(SD_257, n)

    def test_huge_support_prime_is_divided_out(self):
        p = 10**18 + 3
        sd = StructureData((2, p), {2: Fraction(-2, 3), p: Fraction(5)}, Fraction(0), {})
        start = time.perf_counter()
        assert scale_at(sd, 2 * p) == Fraction(-10, 3)
        assert scale_at(sd, 2**3 * p**2) == sd.scales[2] ** 3 * sd.scales[p] ** 2
        assert time.perf_counter() - start < 0.5


class TestClosedForm:
    def test_pure_shift(self):
        sd = StructureData(
            (2, 3), {2: Fraction(1), 3: Fraction(1)}, Fraction(1), {}
        )
        assert closed_form(sd, 6) == RationalFunction(Polynomial.monomial(5))

    def test_shifted_cubic_generator(self):
        assert closed_form(SD_257, 2) == RationalFunction(P(1, -1, 1))

    def test_at_one(self):
        assert closed_form(SD_257, 1) == RationalFunction(P(1))

    def test_outside_support_zero(self):
        assert closed_form(SD_257, 6).is_zero

    def test_negative_shift_moves_to_denominator(self):
        sd = StructureData(
            (2, 3), {2: Fraction(1), 3: Fraction(1)}, Fraction(-1), {}
        )
        assert closed_form(sd, 4) == RationalFunction(P(1), Polynomial.monomial(3))

    def test_matches_synthesis(self):
        spec = SolutionSpec({p: closed_form(SD_257, p) for p in (2, 5, 7)})
        for n in (2, 4, 10, 14, 35):
            assert synthesize(spec, n) == closed_form(SD_257, n)

    def test_sequences_satisfy_functional_equation(self):
        sd = StructureData(
            (2, 3),
            {2: Fraction(2), 3: Fraction(-1, 3)},
            Fraction(1),
            {1: 1, 2: -1},
        )
        spec = SolutionSpec({p: closed_form(sd, p) for p in sd.primes})
        for m in range(1, 21):
            for n in range(1, 21):
                assert verify_functional_equation(spec, m, n)

    def test_matches_dense_products(self):
        rng = random.Random(4040)
        cases = [random_structure_data(rng) for _ in range(30)]
        # At n = 2 the index r*n = 2 of r = 1 is the dilation r = 2 itself.
        cases.append(StructureData((2, 3), {2: 1, 3: 1}, Fraction(0), {1: 2, 2: -1}))
        for sd in cases:
            for n in range(1, 31):
                assert closed_form(sd, n) == closed_form_by_products(sd, n), (sd, n)


class TestDegreeSignature:
    def test_shifted_cubic_at_ten(self):
        assert degree_signature(SD_257, 10) == 18

    def test_empty_terms(self):
        sd = StructureData((2, 3), {2: Fraction(1), 3: Fraction(1)}, Fraction(0), {})
        for n in (1, 2, 12):
            assert degree_signature(sd, n) == 0

    def test_cubed_quantum_integer(self):
        sd = StructureData((2, 3), {2: Fraction(1), 3: Fraction(1)}, Fraction(0), {1: 3})
        # oracle: expand [4]_q^3 and read off its degree
        assert degree_signature(sd, 4) == (quantum_integer(4) ** 3).degree == 9

    def test_matches_standard_form(self):
        rng = random.Random(2)
        for _ in range(8):
            sd = random_structure_data(rng)
            for n in list(sd.primes) + [sd.primes[0] * sd.primes[1]]:
                form = closed_form(sd, n).standard_form()
                assert form.degree_difference == degree_signature(sd, n)

    def test_matches_standard_form_sweep(self):
        for n in range(1, 31):
            if not in_support(SD_257.primes, n):
                continue
            form = closed_form(SD_257, n).standard_form()
            assert form.degree_difference == degree_signature(SD_257, n) == 2 * (n - 1)


class TestDecompose:
    def test_shifted_cubic_family(self):
        sd = decompose(spec_257())
        assert sd == SD_257

    def test_all_one_generators(self):
        sd = decompose(SolutionSpec({2: 1, 3: 1}))
        assert sd.exponents == {}
        assert sd.shift == 0
        assert sd.scales == {2: Fraction(1), 3: Fraction(1)}

    def test_quantum_integers(self):
        sd = decompose(quantum_integer_spec([2, 3]))
        assert sd.exponents == {1: 1}
        assert sd.shift == 0

    def test_reciprocal_quantum_integers(self):
        spec = SolutionSpec(
            {p: RationalFunction(1, quantum_integer(p)) for p in (2, 3)}
        )
        assert decompose(spec).exponents == {1: -1}

    def test_scaled_and_shifted(self):
        sd_in = StructureData(
            (3, 5),
            {3: Fraction(-2, 3), 5: Fraction(7)},
            Fraction(1, 2),
            {2: 2, 3: -1},
        )
        spec = SolutionSpec({p: closed_form(sd_in, p) for p in sd_in.primes})
        assert decompose(spec) == sd_in

    def test_round_trip_random(self):
        rng = random.Random(424242)
        for _ in range(25):
            sd = random_structure_data(rng)
            spec = SolutionSpec({p: closed_form(sd, p) for p in sd.primes})
            assert decompose(spec) == sd


class TestDecomposeRejections:
    def test_too_few_primes(self):
        with pytest.raises(TooFewPrimes):
            decompose(SolutionSpec({2: quantum_integer(2)}))

    def test_too_few_primes_message(self):
        with pytest.raises(TooFewPrimes) as exc:
            decompose(SolutionSpec({2: P(1, 1)}))
        assert str(exc.value) == "decomposition needs at least two primes, got [2]"

    def test_commutativity_violation(self):
        spec = SolutionSpec({2: P(1, 1), 3: P(1, 0, 1)})
        with pytest.raises(NotASolution) as exc:
            decompose(spec)
        assert exc.value.reason == "commutativity"

    def test_off_torsion_zero(self):
        with pytest.raises(NotASolution) as exc:
            decompose(telescoping_spec())
        assert exc.value.reason == "non-cyclotomic"

    def test_non_cyclotomic_solution_is_outside_decompose(self):
        # (q^p - 2)/(q - 2) generates the solution f_n = (q^n - 2)/(q - 2):
        # it satisfies the law, yet its zeros are off the roots of unity.
        spec = telescoping_spec((2, 3, 5))
        g = P(-2, 1)
        for n in (4, 6, 12, 30, 45):
            assert synthesize(spec, n) == RationalFunction(Polynomial.monomial(n) - P(2), g), n
        assert all(
            verify_functional_equation(spec, m, n) for m in range(1, 13) for n in range(1, 13)
        )
        with pytest.raises(NotASolution) as exc:
            decompose(spec)
        assert exc.value.reason == "non-cyclotomic"

    def test_off_torsion_linear_factor(self):
        # h_2 carries the factor q - 2 directly
        spec = SolutionSpec({2: P(-2, 1), 3: P(1, 1)})
        with pytest.raises(NotASolution) as exc:
            decompose(spec)
        assert exc.value.reason == "non-cyclotomic"

    def test_inconsistent_shift(self):
        spec = SolutionSpec({2: Polynomial.monomial(1), 3: Polynomial.monomial(1)})
        with pytest.raises(NotASolution) as exc:
            decompose(spec)
        assert exc.value.reason == "shift"

    def test_peeling_stalls_on_crafted_multisets(self):
        # After one valid round the maxima stop being multiples of the primes.
        state = {
            2: MultisetQuotient(num={4: 1}),
            3: MultisetQuotient(num={6: 1}),
        }
        with pytest.raises(NotASolution) as exc:
            _peel({p: _read(mq.exponents(), p) for p, mq in state.items()})
        assert exc.value.reason == "peeling"

    def test_peeling_rejects_mixed_sides(self):
        state = {
            2: MultisetQuotient(num={2: 1}),
            3: MultisetQuotient(den={3: 1}),
        }
        with pytest.raises(NotASolution) as exc:
            _peel({p: _read(mq.exponents(), p) for p, mq in state.items()})
        assert exc.value.reason == "peeling"

    def test_peeling_rejects_unbalanced_emptiness(self):
        state = {
            2: MultisetQuotient(num={2: 1}),
            3: MultisetQuotient(),
        }
        with pytest.raises(NotASolution) as exc:
            _peel({p: _read(mq.exponents(), p) for p, mq in state.items()})
        assert exc.value.reason == "peeling"


class TestCompatibilityStage:
    """When _peel fails, decompose names the pairs whose multiset quotients
    violate the compatibility identity; on generators that pass stages 2-3
    its verdict and pairs must agree exactly with commutativity_violations."""

    @staticmethod
    def mixed_spec(rng):
        """Each prime's generator from one of two structure data over the
        same primes with shift 0, or the value of a random table, which
        mostly has no read: stages 2-3 pass, the identity may not."""
        primes = tuple(sorted(rng.sample([2, 3, 5, 7], rng.randint(2, 3))))

        def data():
            dilations = rng.sample([1, 2, 3, 4], rng.randint(0, 3))
            return StructureData(
                primes,
                {p: random_nonzero_fraction(rng) for p in primes},
                Fraction(0),
                {r: rng.choice([-2, -1, 1, 2]) for r in dilations},
            )

        def generator(p):
            if rng.random() < 0.25:
                return random_multiset_pair(rng, max_index=12).value()
            return closed_form(rng.choice(sources), p)

        sources = (data(), data())
        return SolutionSpec({p: generator(p) for p in primes})

    @staticmethod
    def has_unread_table(spec):
        forms = {p: h.standard_form() for p, h in spec.generators.items()}
        return any(
            _read(as_multiset_quotient(f.num, f.den).exponents(), p) is None
            for p, f in forms.items()
        )

    def test_matches_field_identity(self):
        rng = random.Random(5150)
        seen = set()
        unread = 0
        for _ in range(40):
            spec = self.mixed_spec(rng)
            violations = commutativity_violations(spec)
            seen.add(bool(violations))
            unread += self.has_unread_table(spec)
            if not violations:
                sd = decompose(spec)
                assert all(closed_form(sd, p) == spec.generator(p) for p in spec.primes)
                continue
            with pytest.raises(NotASolution) as exc:
                decompose(spec)
            assert exc.value.reason == "commutativity"
            pairs = ", ".join(f"({a}, {b})" for a, b in violations)
            assert str(exc.value) == f"generator pairs {pairs} violate the compatibility identity"
        assert seen == {True, False}
        assert unread >= 5

    def test_reads_each_table_once_when_the_peel_fails(self, monkeypatch):
        calls = []
        read = qfe.structure._read
        monkeypatch.setattr(qfe.structure, "_read", lambda e, p: calls.append(p) or read(e, p))
        rng = random.Random(5150)
        rejected = 0
        for _ in range(40):
            spec = self.mixed_spec(rng)
            if not commutativity_violations(spec):
                continue
            calls.clear()
            with pytest.raises(NotASolution) as exc:
                decompose(spec)
            assert exc.value.reason == "commutativity"
            assert sorted(calls) == list(spec.primes)
            rejected += 1
        assert rejected >= 10

    def test_names_the_pairs_before_the_peel(self, monkeypatch):
        raised, reasons = [], []
        peel = qfe.structure._peel

        def recorded(reads):
            try:
                return peel(reads)
            except NotASolution as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(qfe.structure, "_peel", recorded)
        rng = random.Random(5150)
        for _ in range(40):
            spec = self.mixed_spec(rng)
            try:
                decompose(spec)
            except NotASolution as exc:
                reasons.append(exc.reason)
        assert not raised
        assert "peeling" not in reasons
        assert "commutativity" in reasons


def test_decompose_success_runs_no_gcd_and_no_table_product(monkeypatch):
    # A valid spec is decided by _peel alone: no pair scan, no validating gcd.
    # A failing one names its pairs from the reads, again without any
    # dilation.
    rng = random.Random(404)
    data = [random_structure_data(rng) for _ in range(30)] + [SD_257]
    specs = [SolutionSpec({p: closed_form(sd, p) for p in sd.primes}) for sd in data]
    mixed = [TestCompatibilityStage.mixed_spec(rng) for _ in range(40)]
    failing = [spec for spec in mixed if commutativity_violations(spec)]
    assert len(failing) >= 10
    gcds = count_gcd_calls(monkeypatch)
    calls = []
    dilate = MultisetQuotient.dilate
    monkeypatch.setattr(
        MultisetQuotient, "dilate", lambda mq, d: calls.append(d) or dilate(mq, d)
    )
    assert [decompose(spec) for spec in specs] == data
    for spec in failing:
        with pytest.raises(NotASolution) as exc:
            decompose(spec)
        assert exc.value.reason == "commutativity"
    assert not gcds
    assert not calls
    # The read's q**k - 1 tables go to _peel as they are: a success builds
    # no factorization and forms no table from net Phi_d exponents.  A
    # synthesize at a prime classifies the spec and returns its generator.
    def count(owner, name):
        calls, original = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    factorizations = count(CyclotomicFactorization, "__init__")
    quotients = count(MultisetQuotient, "__init__")
    moebius = count(qfe.cyclo, "_moebius_table")
    assert [decompose(spec) for spec in specs] == data
    for spec in specs:
        assert synthesize(spec, spec.primes[0]) == spec.generator(spec.primes[0])
    assert [spec._structure for spec in specs] == data
    assert not moebius and not factorizations and not quotients
    # Mixed signs split the table into coprime parts with no quotient built.
    mixed = [sd for sd in data if len({t > 0 for t in sd.exponents.values()}) == 2]
    assert mixed
    quotients.clear()
    for sd in mixed:
        for n in range(1, 25):
            closed_form(sd, n)
    assert moebius and not quotients


def test_decompose_reads_sparse_generators_of_high_degree():
    """1 + q**25000 = [2]_{q**25000} and 1 + q**25000 + q**50000 =
    [3]_{q**25000} are read off their power series; a scan of the d with
    euler_phi(d) <= 50000 would take minutes."""
    spec = SolutionSpec({
        2: RationalFunction(Polynomial.monomial(25000) + Polynomial([1])),
        3: RationalFunction(quantum_integer(3, 25000)),
    })
    start = time.perf_counter()
    assert decompose(spec).exponents == {25000: 1}
    assert time.perf_counter() - start < 10


class TestCertification:
    def test_synthesized_terms_have_cyclotomic_parts(self):
        spec = spec_257()
        for n in range(1, 31):
            f = synthesize(spec, n)
            if f.is_zero:
                continue
            form = f.standard_form()
            cyclo_factor(form.num)
            cyclo_factor(form.den)


def genuine_quotients(rng, primes):
    """Per-prime tables of a random exponent table, and that table."""
    dilations = rng.sample(range(1, 13), rng.randint(0, 4))
    exponents = {r: rng.choice([-3, -2, -1, 1, 2, 3]) for r in dilations}
    tables = {p: MultisetQuotient.from_exponents(_quantum_table(exponents, p)) for p in primes}
    return tables, exponents


class TestPeel:
    """_peel reads the exponents off one prime's table and checks every
    prime; peel_greedy, the earlier design, removes one factor per round.
    The two must agree on every input, genuine or not."""

    @staticmethod
    def outcome(peel, quotients):
        try:
            return peel(quotients)
        except NotASolution as exc:
            return exc.reason

    def test_matches_greedy_reference(self):
        rng = random.Random(7007)
        outcomes = {"genuine": set(), "perturbed": set(), "random": set()}
        for i in range(2400):
            primes = tuple(sorted(rng.sample([2, 3, 5, 7], rng.randint(2, 3))))
            kind = ("genuine", "perturbed", "random")[i % 3]
            if kind == "random":
                quotients = {p: random_multiset_pair(rng, max_index=30) for p in primes}
            else:
                quotients, exponents = genuine_quotients(rng, primes)
            if kind == "perturbed":
                p = rng.choice(primes)
                table = quotients[p].exponents()
                k = rng.choice([*table, rng.randint(1, 40)])
                table[k] += rng.choice([-1, 1])
                quotients[p] = MultisetQuotient.from_exponents(table)
            reads = {p: _read(mq.exponents(), p) for p, mq in quotients.items()}
            result = self.outcome(_peel, reads)
            assert result == self.outcome(peel_greedy, quotients), quotients
            if kind == "genuine":
                assert result == dict(sorted(exponents.items()))
            outcomes[kind].add(isinstance(result, dict))
        # The other primes fix the exponents, so a one-entry change never peels.
        assert outcomes == {"genuine": {True}, "perturbed": {False}, "random": {True, False}}

    def test_huge_indices_answer_at_once(self):
        hostile = {2: MultisetQuotient({10**12: 1}), 3: MultisetQuotient()}
        genuine = {p: MultisetQuotient({p * 10**12: 1}, {10**12: 1}) for p in (2, 3)}
        start = time.perf_counter()
        with pytest.raises(NotASolution) as exc:
            _peel({p: _read(mq.exponents(), p) for p, mq in hostile.items()})
        assert exc.value.reason == "peeling"
        assert _peel({p: _read(mq.exponents(), p) for p, mq in genuine.items()}) == {10**12: 1}
        assert time.perf_counter() - start < 0.1

    def test_builds_no_quotients(self, monkeypatch):
        # The one-pass design compares signed tables; it never builds a
        # quotient.  genuine_quotients builds its own, so only the _peel
        # calls are counted.
        calls = []
        build = MultisetQuotient.from_exponents.__func__
        monkeypatch.setattr(
            MultisetQuotient, "from_exponents",
            classmethod(lambda cls, table: calls.append(1) or build(cls, table)),
        )
        rng = random.Random(11)
        for _ in range(50):
            quotients, exponents = genuine_quotients(rng, (2, 3, 5))
            before = len(calls)
            reads = {p: _read(mq.exponents(), p) for p, mq in quotients.items()}
            assert _peel(reads) == dict(sorted(exponents.items()))
            assert len(calls) == before
        assert calls


@st.composite
def theorem_specs(draw):
    """Specs built from closed forms by combine and invert, some with one
    coefficient of one generator changed."""
    primes = tuple(sorted(draw(st.sets(st.sampled_from([2, 3, 5]), min_size=2, max_size=3))))

    def solution():
        sd = StructureData(
            primes,
            {p: draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)])) for p in primes},
            Fraction(draw(st.integers(-1, 1)), 1 if 2 in primes else draw(st.sampled_from([1, 2]))),
            draw(st.dictionaries(st.integers(1, 2), st.sampled_from([-1, 1]), max_size=2)),
        )
        return SolutionSpec({p: closed_form(sd, p) for p in primes})

    spec = solution()
    kind = draw(st.sampled_from(["closed", "combine", "invert"]))
    if kind == "combine":
        spec = combine(
            spec,
            solution(),
            dilate_f=draw(st.integers(1, 2)),
            dilate_g=draw(st.integers(1, 2)),
            power_f=draw(st.sampled_from([-1, 1])),
            power_g=draw(st.sampled_from([-1, 1])),
        )
    elif kind == "invert":
        spec = invert(spec)
    if draw(st.booleans()):
        p = draw(st.sampled_from(primes))
        h = spec.generator(p)
        side = draw(st.sampled_from(["num", "den"]))
        part = getattr(h, side)
        part = part + Polynomial.monomial(
            draw(st.integers(0, int(part.degree))), draw(st.sampled_from([-1, 1, 2]))
        )
        assume(not part.is_zero)
        h = RationalFunction(part, h.den) if side == "num" else RationalFunction(h.num, part)
        spec = SolutionSpec({**spec.generators, p: h})
    return spec


@given(theorem_specs())
@settings(max_examples=60, deadline=None)
def test_decompose_succeeds_exactly_on_solutions(spec):
    # The classification theorem: over at least two primes, generators whose
    # zeros and poles lie at 0 and at roots of unity extend to a solution iff
    # they have the closed form.  A perturbed generator drawn here may have
    # other zeros; the test relies on such specs also failing the identity,
    # which is not automatic (test_non_cyclotomic_solution_is_outside_decompose).
    # violations_by_field_products shares no code with decompose or with the
    # pair scan, so the verdict is also checked against an independent oracle.
    try:
        sd = decompose(spec)
    except NotASolution:
        assert not is_commutative(spec)
        assert violations_by_field_products(spec)
    else:
        assert is_commutative(spec)
        assert not violations_by_field_products(spec)
        assert all(closed_form(sd, p) == spec.generator(p) for p in spec.primes)


def assert_validation_accepts(sd):
    """decompose builds its StructureData unchecked; the checks accept it."""
    assert StructureData(sd.primes, sd.scales, sd.shift, sd.exponents) == sd
    assert type(sd.primes) is tuple and type(sd.shift) is Fraction
    assert all(type(v) is Fraction for v in sd.scales.values())
    assert all(type(t) is int for t in sd.exponents.values())


@given(theorem_specs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_decompose_returns_only_what_validation_accepts(spec):
    try:
        sd = decompose(spec)
    except NotASolution:
        return
    assert_validation_accepts(sd)


def test_round_trips_return_only_what_validation_accepts():
    rng = random.Random(2027)
    for _ in range(200):
        sd = random_structure_data(rng)
        got = decompose(SolutionSpec({p: closed_form(sd, p) for p in sd.primes}))
        assert got == sd
        assert_validation_accepts(got)
