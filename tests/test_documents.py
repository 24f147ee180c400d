import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe.documents import (
    DocumentError,
    format_rational,
    load_solution_spec,
    load_structure_data,
    parse_rational,
    solution_spec_from_dict,
    solution_spec_to_dict,
    structure_data_from_dict,
    structure_data_to_dict,
)
from qfe.structure import StructureData

from helpers import GENERATORS_257, spec_257

DATA = Path(__file__).parent / "data"

STRUCTURE_257 = {
    "primes": [2, 5, 7],
    "lambda": {"2": "1", "5": "1", "7": "1"},
    "t0": "0",
    "terms": [{"r": 1, "t": -1}, {"r": 3, "t": 1}],
}


class TestRationalStrings:
    def test_roundtrip(self):
        for text, value in (("0", 0), ("-3", -3), ("3/2", Fraction(3, 2)), ("-7/4", Fraction(-7, 4))):
            assert parse_rational(text) == value
            assert format_rational(parse_rational(text)) == text

    def test_integer_formatting(self):
        assert format_rational(Fraction(4, 2)) == "2"

    def test_rejects_floats_and_junk(self):
        for bad in ("1.5", "", "q", "1/-2", "1e3", "--1", "1/"):
            with pytest.raises(DocumentError):
                parse_rational(bad)

    def test_zero_denominator(self):
        for text in ("1/0", "1/00", "3/000", "-2/0", "0/0", "1/\u0660", "0/\u0660"):
            with pytest.raises(DocumentError, match="zero denominator"):
                parse_rational(text)

    @given(st.from_regex(r"-?\d+(/\d+)?", fullmatch=True) | st.text())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_text_parses_or_raises_document_error(self, text):
        try:
            value = parse_rational(text)
        except DocumentError:
            return
        assert isinstance(value, Fraction)

    def test_surrounding_whitespace_is_malformed(self):
        for bad in ("1\n", "3/4\n", " 1", "1 ", "\n1"):
            with pytest.raises(DocumentError, match="malformed rational"):
                parse_rational(bad)


SPEC_2 = {"primes": [2], "generators": {"2": "q"}}


@pytest.mark.parametrize(
    "load, doc, message",
    [
        (structure_data_from_dict, {**STRUCTURE_257, "t0": 0}, "expected a rational string"),
        (structure_data_from_dict, {**STRUCTURE_257, "terms": [1]}, "term: expected an object"),
        (solution_spec_from_dict, {**SPEC_2, "primes": "2"}, "list of integers"),
        (solution_spec_from_dict, {**SPEC_2, "primes": [True]}, "list of integers"),
        (structure_data_from_dict, {**STRUCTURE_257, "primes": [2, 5.0, 7]}, "list of integers"),
        (structure_data_from_dict, {**STRUCTURE_257, "lambda": ["1"]}, "keyed by primes"),
        (solution_spec_from_dict, {**SPEC_2, "generators": {"2": 1}}, "value for 2 must be a string"),
        (structure_data_from_dict, {**STRUCTURE_257, "terms": {}}, "'terms' must be a list"),
        (structure_data_from_dict, {**STRUCTURE_257, "terms": [{"r": 0, "t": 1}]}, "'r' must be"),
        (structure_data_from_dict, {**STRUCTURE_257, "terms": [{"r": True, "t": 1}]}, "'r' must be"),
    ],
)
def test_schema_errors(load, doc, message):
    with pytest.raises(DocumentError, match=message):
        load(doc)


class TestSolutionSpecDocuments:
    def test_load_fixture(self):
        spec = load_solution_spec(DATA / "spec257.json")
        expected = spec_257()
        assert spec.primes == (2, 5, 7)
        assert all(spec.generator(p) == expected.generator(p) for p in spec.primes)

    def test_roundtrip(self):
        spec = spec_257()
        doc = solution_spec_to_dict(spec)
        again = solution_spec_from_dict(doc)
        assert all(again.generator(p) == spec.generator(p) for p in spec.primes)
        assert doc["primes"] == [2, 5, 7]
        assert doc["generators"]["2"] == "q^2 - q + 1"

    def test_unknown_field_rejected(self):
        doc = {"primes": [2], "generators": {"2": "q"}, "comment": "typo"}
        with pytest.raises(DocumentError, match="unknown fields"):
            solution_spec_from_dict(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(DocumentError, match="missing fields"):
            solution_spec_from_dict({"primes": [2]})

    def test_prime_key_mismatch(self):
        doc = {"primes": [2, 3], "generators": {"2": "q", "5": "q"}}
        with pytest.raises(DocumentError, match="do not match"):
            solution_spec_from_dict(doc)

    def test_unsorted_primes(self):
        doc = {"primes": [3, 2], "generators": {"2": "q", "3": "q"}}
        with pytest.raises(DocumentError, match="strictly increasing"):
            solution_spec_from_dict(doc)

    def test_non_prime_entry(self):
        doc = {"primes": [4], "generators": {"4": "q"}}
        with pytest.raises(DocumentError, match="not a prime"):
            solution_spec_from_dict(doc)

    def test_bad_expression(self):
        doc = {"primes": [2], "generators": {"2": "q +"}}
        with pytest.raises(DocumentError, match="generator for prime 2"):
            solution_spec_from_dict(doc)

    def test_zero_generator(self):
        doc = {"primes": [2], "generators": {"2": "q - q"}}
        with pytest.raises(DocumentError, match="nonzero"):
            solution_spec_from_dict(doc)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DocumentError, match="not valid JSON"):
            load_solution_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_solution_spec(tmp_path / "absent.json")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"primes": [2, 3], "generators": {"2": "\xe9"}}'.encode("latin-1"))
        for given in (path, str(path)):
            with pytest.raises(DocumentError, match="cannot read .*utf-8"):
                load_solution_spec(given)


class TestStructureDocuments:
    def test_from_dict(self):
        sd = structure_data_from_dict(STRUCTURE_257)
        assert sd.primes == (2, 5, 7)
        assert sd.shift == 0
        assert sd.exponents == {1: -1, 3: 1}
        assert sd.scales == {2: Fraction(1), 5: Fraction(1), 7: Fraction(1)}

    def test_roundtrip(self):
        sd = structure_data_from_dict(STRUCTURE_257)
        assert structure_data_to_dict(sd) == STRUCTURE_257

    def test_terms_sorted_on_output(self):
        sd = StructureData(
            (2, 3),
            {2: Fraction(1), 3: Fraction(-1, 2)},
            Fraction(1),
            {3: 1, 1: -2},
        )
        doc = structure_data_to_dict(sd)
        assert doc["terms"] == [{"r": 1, "t": -2}, {"r": 3, "t": 1}]
        assert doc["lambda"]["3"] == "-1/2"
        assert structure_data_from_dict(doc) == sd

    def test_load_file(self, tmp_path):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(STRUCTURE_257), encoding="utf-8")
        assert load_structure_data(path) == structure_data_from_dict(STRUCTURE_257)

    def test_unknown_field(self):
        doc = dict(STRUCTURE_257, extra=1)
        with pytest.raises(DocumentError, match="unknown fields"):
            structure_data_from_dict(doc)

    def test_unknown_term_field(self):
        doc = dict(STRUCTURE_257, terms=[{"r": 1, "t": -1, "x": 2}])
        with pytest.raises(DocumentError, match="unknown fields"):
            structure_data_from_dict(doc)

    def test_duplicate_terms(self):
        doc = dict(STRUCTURE_257, terms=[{"r": 1, "t": -1}, {"r": 1, "t": 1}])
        with pytest.raises(DocumentError, match="duplicate"):
            structure_data_from_dict(doc)

    def test_zero_term_exponent(self):
        doc = dict(STRUCTURE_257, terms=[{"r": 1, "t": 0}])
        with pytest.raises(DocumentError, match="nonzero"):
            structure_data_from_dict(doc)

    def test_bad_lambda_value(self):
        doc = dict(STRUCTURE_257, **{"lambda": {"2": "0.5", "5": "1", "7": "1"}})
        with pytest.raises(DocumentError, match="malformed rational"):
            structure_data_from_dict(doc)

    def test_zero_lambda_value(self):
        doc = dict(STRUCTURE_257, **{"lambda": {"2": "0", "5": "1", "7": "1"}})
        with pytest.raises(DocumentError, match="nonzero"):
            structure_data_from_dict(doc)

    def test_inadmissible_shift(self):
        doc = dict(STRUCTURE_257, t0="1/5")
        with pytest.raises(DocumentError, match="not integral"):
            structure_data_from_dict(doc)

    def test_single_prime(self):
        doc = {
            "primes": [2],
            "lambda": {"2": "1"},
            "t0": "0",
            "terms": [],
        }
        with pytest.raises(DocumentError, match="at least two primes"):
            structure_data_from_dict(doc)

    def test_generators_doc_consistency(self):
        # fixture file matches the in-code generator table
        raw = json.loads((DATA / "spec257.json").read_text(encoding="utf-8"))
        assert raw["generators"] == {str(p): t for p, t in GENERATORS_257.items()}


class TestDigitLimit:
    """The interpreter's int<->str digit limit (4300 by default) guards
    parsing: past it, input is a DocumentError and output still prints."""

    def test_format_rational_prints_in_full(self):
        big = 2**20000
        assert format_rational(Fraction(big)) == str(Decimal(big))
        assert format_rational(Fraction(-1, big)) == f"-1/{Decimal(big)}"

    def test_long_rational_is_a_document_error(self):
        with pytest.raises(DocumentError, match="too many digits"):
            parse_rational("9" * 5000)
        doc = {**STRUCTURE_257, "lambda": {"2": "1", "5": "9" * 5000, "7": "1"}}
        with pytest.raises(DocumentError, match="too many digits"):
            structure_data_from_dict(doc)

    def test_long_json_integer_is_a_document_error(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(STRUCTURE_257).replace('"r": 3', '"r": ' + "9" * 5000))
        with pytest.raises(DocumentError, match="too many digits"):
            load_structure_data(path)
