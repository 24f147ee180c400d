import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe.cli import main
from qfe.cyclo import cyclotomic
from qfe.expressions import format_expr
from qfe.ratfunc import RationalFunction
from qfe.solutions import synthesize

from helpers import spec_257

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
SPEC257 = str(DATA / "spec257.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_installed_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    module, _, name = scripts["qfe"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_cyclo(capsys):
    code, out, err = run(capsys, "cyclo", "6")
    assert code == 0
    assert out == format_expr(RationalFunction(cyclotomic(6))) + "\n"
    assert out == "q^2 - q + 1\n"
    assert err == ""


def test_cyclo_json(capsys):
    code, out, _ = run(capsys, "cyclo", "6", "--json")
    assert code == 0
    assert json.loads(out) == {"expr": "q^2 - q + 1"}


def test_qint(capsys):
    code, out, _ = run(capsys, "qint", "4")
    assert code == 0
    assert out == "q^3 + q^2 + q + 1\n"
    code, out, _ = run(capsys, "qint", "2", "3")
    assert out == "q^3 + 1\n"


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", "--spec", SPEC257)
    assert code == 0
    assert out == "ok\n"


def test_check_violation(capsys, tmp_path):
    doc = {"primes": [2, 3], "generators": {"2": "1 + q", "3": "1 + q^2"}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "check", "--spec", str(path))
    assert code == 1
    assert out == "violations: (2, 3)\n"
    code, out, _ = run(capsys, "check", "--spec", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {"commutes": False, "violations": [[2, 3]]}


def test_synth(capsys):
    code, out, _ = run(capsys, "synth", "--spec", SPEC257, "10")
    assert code == 0
    expected = format_expr(synthesize(spec_257(), 10))
    assert out == expected + "\n"
    assert "q^18" in out


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--spec", SPEC257, "2", "5")
    assert code == 0
    assert out == "ok\n"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--spec", SPEC257, "10", "14", "--json")
    assert code == 0
    assert json.loads(out) == {"holds": True}


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "--spec", SPEC257)
    assert code == 0
    assert out == (
        "primes: 2, 5, 7\n"
        "lambda(2) = 1\n"
        "lambda(5) = 1\n"
        "lambda(7) = 1\n"
        "t0 = 0\n"
        "term(r=1) = -1\n"
        "term(r=3) = 1\n"
    )


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "--spec", SPEC257, "--json")
    assert code == 0
    assert json.loads(out) == {
        "primes": [2, 5, 7],
        "lambda": {"2": "1", "5": "1", "7": "1"},
        "t0": "0",
        "terms": [{"r": 1, "t": -1}, {"r": 3, "t": 1}],
    }


def test_closed_form_matches_synth(capsys, tmp_path):
    code, decomposed, _ = run(capsys, "decompose", "--spec", SPEC257, "--json")
    path = tmp_path / "structure.json"
    path.write_text(decomposed, encoding="utf-8")
    code, out, _ = run(capsys, "closed-form", "--structure", str(path), "10")
    assert code == 0
    code, synth_out, _ = run(capsys, "synth", "--spec", SPEC257, "10")
    assert out == synth_out


def test_standard_form(capsys):
    code, out, _ = run(capsys, "standard-form", "(2*q^4 + 2*q^3)/(4*q)")
    assert code == 0
    assert out == "lambda = 1/2\ne = 2\nu = q + 1\nv = 1\n"


def test_standard_form_json(capsys):
    code, out, _ = run(capsys, "standard-form", "q^(-1)", "--json")
    assert code == 0
    assert json.loads(out) == {"lambda": "1", "e": -1, "u": "1", "v": "1"}


def test_domain_failures_exit_one(capsys, tmp_path):
    single = tmp_path / "single.json"
    single.write_text(
        json.dumps({"primes": [2], "generators": {"2": "1 + q"}}), encoding="utf-8"
    )
    code, out, err = run(capsys, "decompose", "--spec", str(single))
    assert code == 1
    assert out == ""
    assert "error" in err

    telescoping = tmp_path / "telescoping.json"
    telescoping.write_text(
        json.dumps(
            {
                "primes": [2, 3],
                "generators": {
                    "2": "(q^2 - 2)/(q - 2)",
                    "3": "(q^3 - 2)/(q - 2)",
                },
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "decompose", "--spec", str(telescoping))
    assert code == 1
    assert "root of unity" in err


def test_parse_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "standard-form", "q +")
    assert code == 2
    assert "error" in err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"primes": [2], "generators": {"2": "q"}, "x": 1}))
    code, _, err = run(capsys, "synth", "--spec", str(bad), "2")
    assert code == 2
    assert "unknown fields" in err

    code, _, _ = run(capsys, "synth", "--spec", str(tmp_path / "none.json"), "2")
    assert code == 2


def test_rational_with_a_trailing_newline_exits_two(capsys, tmp_path):
    doc = {"primes": [2, 3], "lambda": {"2": "1\n", "3": "1"}, "t0": "0", "terms": []}
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "closed-form", "--structure", str(path), "6")
    assert (code, out) == (2, "")
    assert "malformed rational" in err


def test_zero_denominator_spelled_with_extra_zeros_exits_two(capsys, tmp_path):
    base = {"primes": [2, 3], "lambda": {"2": "1", "3": "1"}, "t0": "0", "terms": []}
    path = tmp_path / "structure.json"
    for doc in ({**base, "lambda": {"2": "1/00", "3": "1"}}, {**base, "t0": "1/00"}):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "closed-form", "--structure", str(path), "6")
        assert (code, out) == (2, "")
        assert "zero denominator in rational '1/00'" in err


def test_deep_nesting_exits_two(capsys):
    code, out, err = run(capsys, "standard-form", "(" * 200 + "q" + ")" * 200)
    assert code == 2
    assert out == ""
    assert "nesting" in err and "offset" in err


def test_long_flat_sum(capsys):
    code, out, _ = run(capsys, "standard-form", "+".join(["q"] * 5000))
    assert code == 0
    assert out == "lambda = 5000\ne = 1\nu = 1\nv = 1\n"


def test_zero_to_negative_chained_exponent_exits_two(capsys):
    code, _, err = run(capsys, "standard-form", "q^0^(-1)")
    assert code == 2
    assert "offset 2" in err


def test_degree_blow_ups_exit_two(capsys):
    for text in ("((" * 32 + "q" + ")^2)" * 32, "q^9^9^9", "q^100001"):
        start = time.perf_counter()
        code, out, err = run(capsys, "standard-form", text)
        assert time.perf_counter() - start < 1.0, text
        assert code == 2
        assert out == ""
        assert "MAX_DEGREE" in err and "offset" in err and "Traceback" not in err
    assert run(capsys, "standard-form", "q^100000")[0] == 0


def test_size_arguments_exit_two(capsys):
    for argv in (
        ("cyclo", "100001"),
        ("qint", "100002"),
        ("qint", "2", "100001"),
        ("standard-form", "q^100000*q^100000*q^100000"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert "MAX_DEGREE" in err and "Traceback" not in err
    code, out, _ = run(capsys, "cyclo", "90090")
    assert code == 0
    assert out.startswith("q^17280 - q^17277 + q^17274")
    assert run(capsys, "qint", "2", "100000")[0] == 0


def test_term_degree_bounds_exit_two(capsys, tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def structure(r):
        lam = {"2": "1", "3": "1"}
        return {"primes": [2, 3], "lambda": lam, "t0": "0", "terms": [{"r": r, "t": 1}]}

    linear = write("linear.json", structure(1))
    dilated = write("dilated.json", structure(10**9))
    quantum = write(
        "quantum.json", {"primes": [2, 3], "generators": {"2": "1 + q", "3": "1 + q + q^2"}}
    )
    for argv in (
        ("closed-form", "--structure", linear, "131072"),
        ("closed-form", "--structure", dilated, "2"),
        ("synth", "--spec", quantum, "131072"),
        ("verify", "--spec", quantum, "512", "512"),
        # f_M lies in the support although M*N does not.
        ("verify", "--spec", SPEC257, "262144", "3"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert "MAX_DEGREE" in err and "Traceback" not in err, argv
    # Outside the support of {2, 3} the answer is 0, however large N is.
    for n in ("30", str(5 * 2**40)):
        assert run(capsys, "closed-form", "--structure", linear, n)[:2] == (0, "0\n")
        assert run(capsys, "synth", "--spec", quantum, n)[:2] == (0, "0\n")
    code, out, _ = run(capsys, "closed-form", "--structure", linear, "24")
    assert code == 0 and out.startswith("q^23 + q^22")
    assert run(capsys, "synth", "--spec", quantum, "24")[:2] == (0, out)


def test_huge_n_off_the_support_answers_at_once(tmp_path):
    # A prime N far outside the support: the terms are 0 and the law holds
    # vacuously, without factorizing N or dilating a term by it.
    huge = "1000000000000000003"
    structure = tmp_path / "linear.json"
    lam = {"2": "1", "3": "1"}
    doc = {"primes": [2, 3], "lambda": lam, "t0": "0", "terms": [{"r": 1, "t": 1}]}
    structure.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, expected in (
        (("closed-form", "--structure", str(structure), huge), "0\n"),
        (("synth", "--spec", SPEC257, huge), "0\n"),
        (("verify", "--spec", SPEC257, huge, "2"), "ok\n"),
        (("verify", "--spec", SPEC257, "2", huge), "ok\n"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "qfe.cli", *argv],
            env=env, capture_output=True, text=True, timeout=5,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, ""), argv


def test_sparse_non_cyclotomic_generator_is_refused_at_once(tmp_path):
    # Three terms at degree 25000: the residual scan screens Mann's few
    # candidates instead of every d with euler_phi(d) <= 25000.
    spec = tmp_path / "sparse.json"
    doc = {"primes": [2, 3], "generators": {"2": "2 + q^24999 + q^25000", "3": "1 + q"}}
    spec.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "qfe.cli", "decompose", "--spec", str(spec)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 1
    assert "residual factor q^25000 + q^24999 + 2" in done.stderr


def test_commutativity_check_refuses_dilations_above_max_degree(tmp_path):
    # The pair (2, 10**18 + 3) would dilate h_2 by 10**18 + 3 in the
    # compatibility identity that check, synth and verify all run; the
    # loader's primality test and the degree bound both answer at once.
    huge = "1000000000000000003"
    spec = tmp_path / "huge.json"
    doc = {"primes": [2, int(huge)], "generators": {"2": "1 + q", huge: "1"}}
    spec.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (("check",), ("synth", "2"), ("verify", "2", "2")):
        done = subprocess.run(
            [sys.executable, "-m", "qfe.cli", *argv, "--spec", str(spec)],
            env=env, capture_output=True, text=True, timeout=5,
        )
        assert done.returncode == 2, argv
        assert done.stdout == "", argv
        assert "MAX_DEGREE" in done.stderr and "Traceback" not in done.stderr, argv


def test_scale_at_a_huge_support_prime_answers_at_once(tmp_path):
    # scale(p) at a support prime p = 10**18 + 3: the primes are divided out
    # of N, so N is never factorized.
    huge = "1000000000000000003"
    structure = tmp_path / "huge.json"
    doc = {"primes": [2, int(huge)], "lambda": {"2": "1", huge: "3"}, "t0": "0", "terms": []}
    structure.write_text(json.dumps(doc), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "qfe.cli", "closed-form", "--structure", str(structure), huge],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=5,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "3\n", "")


def test_prime_key_past_the_miller_rabin_bound_exits_two(tmp_path):
    # 4000000000000000000000027 is prime, but no deterministic Miller-Rabin
    # base set is known at that size: the loader refuses it at once.
    huge = "4000000000000000000000027"
    spec = tmp_path / "huge.json"
    doc = {"primes": [2, int(huge)], "generators": {"2": "1+q", huge: "1"}}
    spec.write_text(json.dumps(doc), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "qfe.cli", "check", "--spec", str(spec)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=5,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert huge in done.stderr and "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "cyclo", "0")[0] == 2
    assert run(capsys, "cyclo")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2


def test_zero_standard_form_is_domain_failure(capsys):
    code, _, err = run(capsys, "standard-form", "q - q")
    assert code == 1
    assert "no standard form" in err


def test_byte_identical_reruns(capsys):
    first = run(capsys, "decompose", "--spec", SPEC257, "--json")
    second = run(capsys, "decompose", "--spec", SPEC257, "--json")
    assert first == second
    third = run(capsys, "synth", "--spec", SPEC257, "70")
    fourth = run(capsys, "synth", "--spec", SPEC257, "70")
    assert third == fourth


def test_unreadable_spec_exits_two_without_traceback(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"primes": [2, 3], "generators": {"2": "\xe9"}}'.encode("latin-1"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for path in (bad, tmp_path / "absent.json"):
        done = subprocess.run(
            [sys.executable, "-m", "qfe.cli", "decompose", "--spec", str(path)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 2, path
        assert done.stdout == "", path
        assert done.stderr.startswith(f"error: cannot read {path}: "), path
        assert "Traceback" not in done.stderr, path


def test_cli_imports_no_dataclasses_typing_inspect_or_pathlib():
    # Each CLI call is a fresh process, so what qfe.cli imports is paid every time.
    heavy = ("dataclasses", "typing", "inspect", "pathlib")
    code = f"import qfe.cli, sys; print(sorted(set({heavy!r}) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=30, check=True,
    )
    assert done.stdout == "[]\n"


def test_synth_and_verify_through_a_thousand_prime_factors(capsys, tmp_path):
    # Constant generators pass every degree guard, so n = 2^1000 is accepted.
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({"primes": [2, 3], "generators": {"2": "3", "3": "1"}}))
    code, out, err = run(capsys, "synth", "--spec", str(path), str(2**1000))
    assert (code, out, err) == (0, f"{3**1000}\n", "")
    code, out, err = run(capsys, "verify", "--spec", str(path), "2", str(2**1000))
    assert (code, out, err) == (0, "ok\n", "")


def test_answers_past_the_digit_limit_print_in_full(capsys, tmp_path):
    # str() of an int refuses past 4300 digits by default; the answer must not.
    code, out, err = run(capsys, "standard-form", "2^20000")
    assert code == 0 and err == ""
    assert out == f"lambda = {Decimal(2**20000)}\ne = 0\nu = 1\nv = 1\n"
    assert len(out.split("\n")[0]) == len("lambda = ") + 6021
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"primes": [2, 3], "generators": {"2": "3^7000", "3": "1"}}))
    code, out, err = run(capsys, "synth", "--spec", str(path), "4")
    assert (code, out, err) == (0, f"{Decimal(3**14000)}\n", "")


def test_input_past_the_digit_limit_exits_two(capsys, tmp_path):
    digits = "9" * 5000
    code, out, err = run(capsys, "standard-form", f"q + {digits}")
    assert (code, out) == (2, "")
    assert err.startswith("error: integer literal of 5000 digits is too long (at offset 4)")
    structure = {"primes": [2, 3], "lambda": {"2": "1", "3": "1"}, "t0": "0", "terms": []}
    lam = tmp_path / "lambda.json"
    lam.write_text(json.dumps({**structure, "lambda": {"2": digits, "3": "1"}}))
    r = tmp_path / "r.json"
    r.write_text(json.dumps(structure).replace('"terms": []', f'"terms": [{{"r": {digits}, "t": 1}}]'))
    for path in (lam, r):
        code, out, err = run(capsys, "closed-form", "--structure", str(path), "2")
        assert (code, out) == (2, ""), path
        assert "too many digits" in err and "set_int_max_str_digits" not in err, path


# The fuzz grammar: literals up to 6000 digits (past the 4300-digit limit),
# q, qint, + - * /, parentheses and exponents up to 30.  Powers apply only to
# small bases, since coefficient growth under powers is not bounded yet.
_SMALL = st.one_of(
    st.integers(0, 10**6).map(str),
    st.just("q"),
    st.builds("qint({})".format, st.integers(1, 6)),
    st.builds("qint({}, {})".format, st.integers(1, 6), st.integers(1, 3)),
    st.builds("(q {} {})".format, st.sampled_from("+-"), st.integers(0, 9)),
)
_LONG = st.builds(
    lambda k, d: str(d) * k,
    st.one_of(st.integers(1, 6000), st.sampled_from([4300, 4301, 6000])),
    st.integers(1, 9),
)
_EXPONENT = st.one_of(st.integers(0, 30).map(str), st.integers(1, 30).map("(-{})".format))
_FACTOR = st.one_of(
    _SMALL,
    _LONG,
    st.builds("{}^{}".format, _SMALL, _EXPONENT),
    st.builds("-{}".format, _SMALL),
)
_OPERATOR = st.sampled_from(["+", "-", "*", "/"])


@st.composite
def _expressions(draw):
    factors = draw(st.lists(_FACTOR, min_size=1, max_size=4))
    text = factors[0]
    for factor in factors[1:]:
        text += f" {draw(_OPERATOR)} {factor}"
    return f"({text})" if draw(st.booleans()) else text


@given(_expressions())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_standard_form_fuzz_exits_cleanly(expr):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["standard-form", expr])
    assert time.perf_counter() - start < 2.0, expr
    assert code in (0, 1, 2), expr
    assert "Traceback" not in err.getvalue() and "set_int_max_str_digits" not in err.getvalue(), expr
    assert (code == 0) == (out.getvalue() != ""), expr


def test_superscript_digit_is_an_unexpected_character(capsys):
    code, out, err = run(capsys, "standard-form", "q^²")
    assert code == 2 and out == ""
    assert "unexpected character '²' (at offset 2)" in err and "Traceback" not in err
    assert run(capsys, "standard-form", "q^٣") == run(capsys, "standard-form", "q^3")
