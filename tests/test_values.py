"""Value semantics of the immutable record classes: construction, equality,
hashing, repr, immutability, defensive copies and pickling."""

import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from qfe.cyclo import CyclotomicFactorization, MultisetQuotient
from qfe.expressions import (
    Add,
    Div,
    Group,
    Mul,
    Neg,
    Number,
    Pow,
    QuantumInteger,
    Sub,
    Variable,
    parse_expr,
)
from qfe.poly import Polynomial
from qfe.ratfunc import RationalFunction, StandardForm
from qfe.structure import StructureData

ONE = Number(Fraction(1))
Q = Variable()


def standard_form():
    return StandardForm(Fraction(1, 2), -1, Polynomial((1, 1)), Polynomial((1, 0, 1)))


def structure_data():
    return StructureData((2, 3), {2: 1, 3: Fraction(1, 2)}, 0, {1: -1})


def every_value():
    return [
        ONE,
        Q,
        QuantumInteger(3, 2),
        Neg(Q),
        Add(ONE, Q, 4),
        Sub(ONE, Q, 4),
        Mul(ONE, Q, 4),
        Div(ONE, Q, 4),
        Pow(Q, 2, 1),
        Group(Q),
        CyclotomicFactorization(Fraction(2), 1, {1: 2}),
        MultisetQuotient({2: 1}, {3: 1}),
        standard_form(),
        structure_data(),
    ]


def test_positional_and_keyword_construction_with_defaults():
    assert QuantumInteger(4).r == 1
    assert QuantumInteger(n=4, r=3) == QuantumInteger(4, 3)
    for kind in (Add, Sub, Mul, Div):
        node = kind(ONE, Q)
        assert (node.left, node.right, node.position) == (ONE, Q, 0)
        assert kind(left=ONE, right=Q, position=7).position == 7
    assert Pow(Q, 3).position == 0
    assert Pow(base=Q, exponent=3, position=2).exponent == 3
    assert Neg(operand=Q).operand == Q and Group(inner=Q).inner == Q
    assert Number(value=Fraction(3)).value == 3
    empty = MultisetQuotient()
    assert (empty.num, empty.den) == ({}, {})
    assert MultisetQuotient(den={2: 1}).den == {2: 1}
    fact = CyclotomicFactorization(unit=Fraction(2), qpower=1, factors={1: 2})
    assert (fact.unit, fact.qpower, fact.factors) == (2, 1, {1: 2})
    sf = StandardForm(scale=1, shift=0, num=Polynomial((1,)), den=Polynomial((1, 1)))
    assert type(sf.scale) is Fraction and sf.shift == 0
    sd = StructureData(primes=[2, 3], scales={2: 1, 3: 2}, shift=0, exponents={1: 1})
    assert sd.primes == (2, 3) and type(sd.shift) is Fraction
    assert all(type(v) is Fraction for v in sd.scales.values())
    with pytest.raises(TypeError):
        QuantumInteger()
    with pytest.raises(TypeError):
        Add(ONE, Q, 0, 1)
    with pytest.raises(TypeError):
        Neg(Q, operand=Q)
    with pytest.raises(TypeError):
        Group(outer=Q)


def test_validation_errors():
    with pytest.raises(ValueError, match="nonzero scale"):
        StandardForm(0, 0, Polynomial((1,)), Polynomial((1,)))
    with pytest.raises(ValueError, match="disjoint"):
        MultisetQuotient({2: 1}, {2: 1})
    with pytest.raises(ValueError, match="positive indices"):
        MultisetQuotient({0: 1})
    with pytest.raises(ValueError, match="strictly increasing"):
        StructureData((3, 2), {2: 1, 3: 1}, 0, {})


def test_equality_ignores_operator_positions():
    assert parse_expr("1 + q") == Add(ONE, Q)
    assert parse_expr("1 + q").position == 2
    assert parse_expr("1  +  q") == parse_expr("1 + q")
    assert parse_expr("q ^ 2") == Pow(Q, 2, 0)
    assert Add(ONE, Q) != Sub(ONE, Q)
    assert Mul(ONE, Q) != Div(ONE, Q)
    assert Add(ONE, Q) != Add(Q, ONE)
    assert QuantumInteger(3) != QuantumInteger(3, 2)
    assert Variable() == Variable() and Variable() != ONE
    assert (Add(ONE, Q) == (ONE, Q)) is False


def test_hash_is_consistent_with_equality():
    assert hash(Add(ONE, Q, 1)) == hash(Add(ONE, Q, 9))
    assert hash(parse_expr("(1 + q)^2 - qint(3)")) == hash(parse_expr("(1+q)^2-qint(3)"))
    assert len({Add(ONE, Q, 1), Add(ONE, Q, 2), Sub(ONE, Q, 1)}) == 2
    assert hash(standard_form()) == hash(standard_form())
    assert len({standard_form(), standard_form()}) == 1


def test_records_with_dict_fields_are_unhashable():
    for value in (structure_data(), MultisetQuotient(), CyclotomicFactorization(Fraction(1), 0, {})):
        with pytest.raises(TypeError):
            hash(value)


def test_repr():
    node = parse_expr("-(1 + q)^2 * qint(3, 2) / 2 - q")
    assert repr(node) == (
        "Sub(left=Div(left=Mul(left=Neg(operand=Pow(base=Group(inner=Add("
        "left=Number(value=Fraction(1, 1)), right=Variable(), position=4)), "
        "exponent=2, position=8)), right=QuantumInteger(n=3, r=2), position=11), "
        "right=Number(value=Fraction(2, 1)), position=24), right=Variable(), position=28)"
    )
    assert repr(CyclotomicFactorization(Fraction(2), 1, {1: 2})) == (
        "CyclotomicFactorization(unit=Fraction(2, 1), qpower=1, factors={1: 2})"
    )
    assert repr(MultisetQuotient({2: 1}, {3: 1})) == "MultisetQuotient(num={2: 1}, den={3: 1})"
    assert repr(MultisetQuotient()) == "MultisetQuotient(num={}, den={})"
    assert repr(standard_form()) == (
        "StandardForm(scale=Fraction(1, 2), shift=-1, "
        "num=Polynomial('q + 1'), den=Polynomial('q^2 + 1'))"
    )
    assert repr(structure_data()) == (
        "StructureData(primes=(2, 3), scales={2: Fraction(1, 1), 3: Fraction(1, 2)}, "
        "shift=Fraction(0, 1), exponents={1: -1})"
    )


def test_repr_prints_integers_past_the_digit_limit_in_full():
    big = 2**20000
    digits = str(Decimal(big))
    assert len(digits) > 4300
    assert repr(RationalFunction(big).standard_form()) == (
        f"StandardForm(scale=Fraction({digits}, 1), shift=0, "
        "num=Polynomial('1'), den=Polynomial('1'))"
    )
    assert repr(StructureData((2, 3), {2: big, 3: 1}, 0, {})) == (
        f"StructureData(primes=(2, 3), scales={{2: Fraction({digits}, 1), 3: Fraction(1, 1)}}, "
        "shift=Fraction(0, 1), exponents={})"
    )
    assert repr(QuantumInteger(big)) == f"QuantumInteger(n={digits}, r=1)"
    assert repr(Number(Fraction(1, -big))) == f"Number(value=Fraction(-1, {digits}))"
    assert repr(MultisetQuotient({big: 1}, {})) == f"MultisetQuotient(num={{{digits}: 1}}, den={{}})"


def test_fields_cannot_be_assigned_or_deleted():
    for value in every_value():
        names = [n for n in dir(value) if not n.startswith("_") and not callable(getattr(value, n))]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = 0


def test_multiset_quotient_copies_its_inputs():
    num, den = {2: 1}, {3: 2}
    mq = MultisetQuotient(num, den)
    num[5] = 1
    den.clear()
    assert (mq.num, mq.den) == ({2: 1}, {3: 2})
    assert mq == MultisetQuotient({2: 1}, {3: 2})


def test_pickle_round_trip():
    for value in every_value():
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and repr(back) == repr(value)
