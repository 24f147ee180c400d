"""Digest the outputs of qfe's public API over seeded inputs.

Usage, from the repository root:

    python tools/output_digest.py [--seed N] [--count N]

prints one ``<sha256>  <family>`` row per family and a ``<sha256>  total``
row.  Two checkouts that print the same rows for one seed and count gave the
same output text on every input drawn, so running the tool at both ends of a
change shows whether the change kept its outputs byte-identical.  The inputs
come from ``random.Random(seed)``, ``count`` of them per family, and the
package is the ``src/qfe`` of the checkout the tool lives in.  The families:

closed_form   ``closed_form(sd, n)`` for every n <= 48 in the support of each
              drawn ``StructureData``, and ``decompose`` of the spec of its
              generators;
reject        ``decompose`` on specs that are mostly invalid (a generator
              perturbed by a monomial, swapped for another closed form's,
              shifted by q, or left alone over one prime), hashed as
              (type, reason, message) when it raises;
cyclo_factor  ``cyclo_factor`` on products of Phi_d, half of them times a
              non-cyclotomic cofactor, hashed with the residual when it raises;
synthesize    ``synthesize(spec, n)`` for every n <= 24 and
              ``verify_functional_equation`` on pairs with m * n <= 24, over
              closed-form specs, their combinations and inverses, and
              single-prime specs.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qfe  # noqa: E402

PRIMES = (2, 3, 5, 7, 11, 13)
CLOSED_N = 48
SYNTH_N = 24


def structure(rng: random.Random) -> qfe.StructureData:
    """2-3 primes up to 13, up to 3 dilations r <= 4 with exponents in
    [-3, 3] without 0, nonzero scales and an admissible shift rate."""
    primes = sorted(rng.sample(PRIMES, rng.randint(2, 3)))
    exponents = {r: rng.choice((-3, -2, -1, 1, 2, 3)) for r in rng.sample((1, 2, 3, 4), rng.randint(0, 3))}
    scales = {p: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for p in primes}
    g = 0
    for p in primes:
        g = gcd(g, p - 1)
    den = rng.choice([d for d in range(1, g + 1) if g % d == 0])
    return qfe.StructureData(primes, scales, Fraction(rng.randint(-2, 2), den), exponents)


def variant(rng: random.Random, sd: qfe.StructureData) -> qfe.StructureData:
    """sd with 1-2 new exponents +-1 on dilations r <= 3."""
    exponents = {r: rng.choice((-1, 1)) for r in rng.sample((1, 2, 3), rng.randint(1, 2))}
    return qfe.StructureData(sd.primes, sd.scales, sd.shift, exponents)


def spec_of(sd: qfe.StructureData) -> qfe.SolutionSpec:
    return qfe.SolutionSpec({p: qfe.closed_form(sd, p) for p in sd.primes})


def outcome(call, *args) -> str:
    """str of what call returns, or (type, reason, message) of the ValueError it raises."""
    try:
        return repr(call(*args))
    except qfe.NonCyclotomicFactor as exc:
        return repr(("NonCyclotomicFactor", str(exc.residual)))
    except ValueError as exc:
        return repr((type(exc).__name__, getattr(exc, "reason", None), str(exc)))


def closed_forms(rng: random.Random):
    sd = structure(rng)
    for n in range(1, CLOSED_N + 1):
        if qfe.in_support(sd.primes, n):
            yield f"{n}: {qfe.closed_form(sd, n)}"
    yield outcome(qfe.decompose, spec_of(sd))


def rejects(rng: random.Random):
    sd = structure(rng)
    generators = dict(spec_of(sd).generators)
    p = rng.choice(sd.primes)
    h = generators[p]
    kind = rng.choice(("monomial", "monomial", "swap", "shift", "one prime"))
    if kind == "monomial":
        side = rng.choice(("num", "den"))
        part = getattr(h, side) + qfe.Polynomial.monomial(
            rng.randint(0, int(getattr(h, side).degree)), rng.choice((-1, 1, 2))
        )
        if part.is_zero:
            part = qfe.Q
        generators[p] = qfe.RationalFunction(part, h.den) if side == "num" else qfe.RationalFunction(h.num, part)
    elif kind == "swap":
        generators[p] = qfe.closed_form(variant(rng, sd), p)
    elif kind == "shift":
        generators[p] = h * qfe.Q
    else:
        generators = {p: h}
    yield kind
    yield outcome(qfe.decompose, qfe.SolutionSpec(generators))


def cyclo_factors(rng: random.Random):
    p = qfe.Polynomial((rng.choice((-2, -1, 1, 3)),)) * qfe.Q ** rng.randint(0, 2)
    for _ in range(rng.randint(0, 5)):
        p = p * qfe.cyclotomic(rng.randint(1, 60))
    if rng.random() < 0.5:
        while True:
            cofactor = qfe.Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(2, 7))])
            if not cofactor.is_zero:
                break
        p = p * cofactor
    yield str(p)
    yield outcome(qfe.cyclo_factor, p)


def syntheses(rng: random.Random):
    kind = rng.choice(("closed", "combine", "invert", "one prime"))
    sd = structure(rng)
    spec = spec_of(sd)
    if kind == "combine":
        other = spec_of(variant(rng, sd))
        spec = qfe.combine(spec, other, dilate_f=rng.randint(1, 2), power_g=rng.choice((-1, 1)))
    elif kind == "invert":
        spec = qfe.invert(spec)
    elif kind == "one prime":
        p = spec.primes[0]
        spec = qfe.SolutionSpec({p: spec.generator(p)})
    yield str(spec)
    for n in range(1, SYNTH_N + 1):
        yield f"{n}: {qfe.synthesize(spec, n)}"
    for m in range(2, SYNTH_N + 1):
        for n in range(m, SYNTH_N // m + 1):
            yield f"{m} {n}: {qfe.verify_functional_equation(spec, m, n)}"


FAMILIES = {
    "closed_form": closed_forms,
    "reject": rejects,
    "cyclo_factor": cyclo_factors,
    "synthesize": syntheses,
}


def digests(seed: int, count: int) -> dict[str, str]:
    """The sha256 of each family's output lines, and of all of them as ``total``."""
    total = hashlib.sha256()
    out = {}
    for name, family in FAMILIES.items():
        rng = random.Random(f"{name}:{seed}")
        h = hashlib.sha256()
        for _ in range(count):
            for line in family(rng):
                data = (line + "\n").encode()
                h.update(data)
                total.update(data)
        out[name] = h.hexdigest()
    out["total"] = total.hexdigest()
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args(argv)
    for name, digest in digests(args.seed, args.count).items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
