"""Command-line interface.

Exit codes: 0 on success, 1 on a domain failure (invalid solution,
failed verification, division by zero), 2 on usage or parse errors.
Results go to stdout, diagnostics to stderr; ``--json`` switches every
command to a machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from itertools import permutations

from .cyclo import cyclotomic
from .documents import (
    DocumentError,
    format_rational,
    load_solution_spec,
    load_structure_data,
    structure_data_to_dict,
)
from .expressions import MAX_DEGREE, ParseError, eval_expr, format_expr, parse_expr
from .poly import quantum_integer
from .solutions import (
    NotASolution,
    SolutionSpec,
    commutativity_violations,
    in_support,
    synthesize,
    verify_functional_equation,
)
from .structure import TooFewPrimes, closed_form, decompose


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _require_degree(degree: int, name: str) -> None:
    """Refuse, as a usage error, an argument asking for a polynomial of
    degree above MAX_DEGREE: the bound the expression grammar applies."""
    if degree > MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"{name} = {degree} is above MAX_DEGREE = {MAX_DEGREE}")


def _require_spec_degrees(spec: SolutionSpec, *ns: int) -> None:
    """With d_p the larger degree of h_p's numerator and denominator, refuse a
    p1 * d_p2 above MAX_DEGREE for any primes p1 != p2 (the compatibility identity
    dilates h_p2 by p1), then each f_n of the support with (n-1) * max_p d_p/(p-1)
    above it: by induction on f(n) = f(n/p) * h_p(q**(n/p)), that bounds f_n."""
    degrees = {p: max(h.num.degree, h.den.degree) for p, h in spec.generators.items()}
    dilated = [p1 * degrees[p2] for p1, p2 in permutations(degrees, 2)]
    _require_degree(max(dilated, default=0), "largest dilated generator degree")
    for n in ns:
        if in_support(spec.primes, n):
            bounds = [(n - 1) * d // (p - 1) for p, d in degrees.items()]
            _require_degree(max(bounds, default=0), f"degree bound of f_{n}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfe",
        description="Exact arithmetic for sequences of rational functions "
        "multiplying like quantum integers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cyclo", parents=[common], help="print the K-th cyclotomic polynomial")
    p.add_argument("k", type=_positive_int, metavar="K")
    p.set_defaults(handler=_cmd_cyclo)

    p = sub.add_parser("qint", parents=[common], help="print the quantum integer [N] at q^R")
    p.add_argument("n", type=_positive_int, metavar="N")
    p.add_argument("r", type=_positive_int, metavar="R", nargs="?", default=1)
    p.set_defaults(handler=_cmd_qint)

    p = sub.add_parser("check", parents=[common], help="check the commutativity condition of a spec")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("synth", parents=[common], help="synthesize the N-th term of a spec")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("n", type=_positive_int, metavar="N")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("verify", parents=[common], help="verify the functional equation at (M, N)")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("m", type=_positive_int, metavar="M")
    p.add_argument("n", type=_positive_int, metavar="N")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("decompose", parents=[common], help="recover the structure data of a spec")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "closed-form", parents=[common], help="evaluate structure data at N"
    )
    p.add_argument("--structure", required=True, metavar="FILE")
    p.add_argument("n", type=_positive_int, metavar="N")
    p.set_defaults(handler=_cmd_closed_form)

    p = sub.add_parser(
        "standard-form", parents=[common], help="normal form scale * q^e * u/v of an expression"
    )
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(handler=_cmd_standard_form)

    return parser


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_cyclo(args: argparse.Namespace) -> int:
    _require_degree(args.k, "K")
    text = format_expr(cyclotomic(args.k))
    _emit(args, text, {"expr": text})
    return 0


def _cmd_qint(args: argparse.Namespace) -> int:
    _require_degree(args.r * (args.n - 1), "R*(N-1)")
    text = format_expr(quantum_integer(args.n, args.r))
    _emit(args, text, {"expr": text})
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    spec = load_solution_spec(args.spec)
    _require_spec_degrees(spec)
    violations = commutativity_violations(spec)
    text = ("violations: " + " ".join(f"({a}, {b})" for a, b in violations)) if violations else "ok"
    _emit(args, text, {"commutes": not violations, "violations": [list(v) for v in violations]})
    return 1 if violations else 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = load_solution_spec(args.spec)
    _require_spec_degrees(spec, args.n)
    text = format_expr(synthesize(spec, args.n))
    _emit(args, text, {"expr": text})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = load_solution_spec(args.spec)
    # f_M and f_N are synthesized too, and may lie in the support when M*N does not.
    _require_spec_degrees(spec, args.m * args.n, args.m, args.n)
    holds = verify_functional_equation(spec, args.m, args.n)
    _emit(args, "ok" if holds else "violated", {"holds": holds})
    return 0 if holds else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    spec = load_solution_spec(args.spec)
    doc = structure_data_to_dict(decompose(spec))
    lines = [
        "primes: " + ", ".join(map(str, doc["primes"])),
        *(f"lambda({p}) = {scale}" for p, scale in doc["lambda"].items()),
        f"t0 = {doc['t0']}",
        *(f"term(r={term['r']}) = {term['t']}" for term in doc["terms"]),
    ]
    _emit(args, "\n".join(lines), doc)
    return 0


def _cmd_closed_form(args: argparse.Namespace) -> int:
    sd = load_structure_data(args.structure)
    if in_support(sd.primes, args.n):
        rate = sum(r * abs(t) for r, t in sd.exponents.items()) + abs(sd.shift)
        _require_degree((args.n - 1) * rate, "degree bound of the closed form at N")
    text = format_expr(closed_form(sd, args.n))
    _emit(args, text, {"expr": text})
    return 0


def _cmd_standard_form(args: argparse.Namespace) -> int:
    value = eval_expr(parse_expr(args.expr))
    form = value.standard_form()
    payload = {
        "lambda": format_rational(form.scale),
        "e": form.shift,
        "u": format_expr(form.num),
        "v": format_expr(form.den),
    }
    _emit(args, "\n".join(f"{key} = {value}" for key, value in payload.items()), payload)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ParseError, DocumentError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotASolution, TooFewPrimes, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
