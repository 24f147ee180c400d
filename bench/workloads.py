"""The four workloads: roundtrip, synth, reject and cli.

Each workload is a single client in a closed loop: the next operation starts
when the previous one has ended.  A workload object has

* ``prepare()``: build the input pool from the seed and warm the caches,
  returning the warm-up operations that failed their check.  It starts from
  cold ``qfe`` caches every time, so the harness can repeat it and report
  the median as set-up time;
* ``op(item)``: one timed operation, calling ``qfe`` through its public
  names (looked up at call time, so the traced run sees its wrappers);
* ``check(item, result)``: the untimed correctness check of that operation.

Why each workload, and its caps:

roundtrip  Acceptance criterion 6, the classify path: closed_form(sd, p) for
           every prime, then decompose, compared with sd.  Success path of
           ratfunc, poly divmod/gcd and cyclo.  Criterion-6 ranges.
synth      The generate/verify path: a fresh spec from structure data, every
           support member n <= SYNTH_N synthesized and two verify pairs.
           Dominated by poly mul and the gcds of RationalFunction.__mul__;
           no cyclotomic work, so a cyclo or structure change should leave it
           unchanged.  SYNTH_N = 48 keeps one operation near 10 ms while
           terms still pass degree 1000.
reject     decompose on invalid specs, mostly on the failure path of
           cyclo_factor, whose candidate scan runs to d = 2 deg^2.  Degrees
           up to REJECT_CAP = 64 keep a warm rejection near 10 ms; the cache
           of cyclotomic polynomials for that cap is filled in set-up.
cli        `python -S -m qfe.cli ...` subprocesses on documents the harness
           wrote: the only workload for cli, documents, expressions and
           import time, and for the cold caches every invocation pays.
           Cold rejections stay at degree <= 24 (about 0.1 s extra each), so
           a 30-second run still holds over 200 operations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import inputs
import qfe
import spans

SYNTH_N = 48
REJECT_CAP = 64
REJECT_POOL = 300
POOL_SIZE = 1500  # in-process workloads cycle through this many inputs
WARM_OPS = 8


def clear_caches() -> None:
    """Empty qfe's cyclotomic cache, as in a fresh process."""
    getattr(qfe.cyclotomic, "cache_clear", lambda: None)()


def to_structure_data(sd: inputs.Structure) -> "qfe.StructureData":
    return qfe.StructureData(
        primes=sd.primes,
        scales=dict(zip(sd.primes, sd.scales)),
        shift=sd.shift,
        exponents=dict(sd.exponents),
    )


class Workload:
    name = ""
    # Operations per second of --seconds in a traced run.  The traced run
    # makes a fixed number of operations, so its counts repeat exactly.
    trace_rate = 10.0

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.pool: list = []

    def rng(self) -> inputs.Draws:
        return inputs.Draws(f"{self.name}:{self.seed}")

    def warm_rng(self) -> inputs.Draws:
        """Warm-up inputs do not depend on the seed, so neither does set-up."""
        return inputs.Draws(f"{self.name}:warm")

    def prepare(self) -> list[str]:
        """Returns a description of each warm-up operation that failed."""
        clear_caches()
        self.warm_caches()
        self.pool = self.build_pool()
        failures = []
        for item in self.warm_items():
            try:
                ok = self.check(item, self.op(item))
            except Exception as exc:  # reported as a failed operation
                ok = False
                item = (item, exc)
            if not ok:
                failures.append(f"warm-up: {item!r:.300}")
        return failures

    def warm_caches(self) -> None:
        pass

    def build_pool(self) -> list:
        raise NotImplementedError

    def warm_items(self) -> list:
        return []

    def op(self, item):
        raise NotImplementedError

    def check(self, item, result) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- roundtrip ------------------------------------------------------------------


class Roundtrip(Workload):
    name = "roundtrip"
    trace_rate = 36.0

    def build_pool(self) -> list:
        return [to_structure_data(sd) for sd in inputs.structures(self.rng(), POOL_SIZE)]

    def warm_items(self) -> list:
        return [to_structure_data(sd) for sd in inputs.structures(self.warm_rng(), WARM_OPS)]

    def op(self, sd):
        spec = qfe.SolutionSpec({p: qfe.closed_form(sd, p) for p in sd.primes})
        return qfe.decompose(spec)

    def check(self, sd, result) -> bool:
        return result == sd


# -- synth ----------------------------------------------------------------------


@dataclass(frozen=True)
class SynthItem:
    structure: inputs.Structure
    sd: "qfe.StructureData"
    members: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    point: int  # where every f_n is compared with the closed form, mod a prime
    exact: bool  # also compare every f_n with qfe.closed_form exactly


# qfe.closed_form costs about three synthesized terms (it reduces one large
# quotient with Fraction gcds), so exact comparison runs on every EXACT_EVERY-th
# operation and an exact comparison of values at a random point modulo a
# 61-bit prime runs on all of them.
EXACT_EVERY = 16


class Synth(Workload):
    name = "synth"
    trace_rate = 15.0

    def _items(self, rng: inputs.Draws, count: int) -> list[SynthItem]:
        out = []
        for sd in inputs.structures(rng, count):
            members = tuple(n for n in range(1, SYNTH_N + 1) if inputs.in_support(sd.primes, n))
            # Pairs inside the synthesized range: verify re-checks the law on
            # memoized terms, crossing them with q -> q^m substitutions.
            options = [(m, n) for m in members for n in members if 1 < m <= n and m * n <= SYNTH_N]
            pairs = tuple(rng.sample(options, min(2, len(options)))) or ((1, members[-1]),)
            point = rng.randrange(2, inputs.MODULUS - 1)
            exact = len(out) % EXACT_EVERY == 0
            out.append(SynthItem(sd, to_structure_data(sd), members, pairs, point, exact))
        return out

    def build_pool(self) -> list:
        return self._items(self.rng(), POOL_SIZE)

    def warm_items(self) -> list:
        return [replace(item, exact=False) for item in self._items(self.warm_rng(), WARM_OPS)]

    def op(self, item: SynthItem):
        sd = item.sd
        spec = qfe.SolutionSpec({p: qfe.closed_form(sd, p) for p in sd.primes})
        terms = [qfe.synthesize(spec, n) for n in item.members]
        return terms, [qfe.verify_functional_equation(spec, m, n) for m, n in item.pairs]

    def check(self, item: SynthItem, result) -> bool:
        terms, verdicts = result
        if not all(verdicts) or len(terms) != len(item.members):
            return False
        x = item.point
        for f, n in zip(terms, item.members):
            den = inputs.poly_residue(f.den.coeffs, x)
            value = inputs.poly_residue(f.num.coeffs, x) * pow(den, -1, inputs.MODULUS) if den else None
            if value is None or item.exact:
                if f != qfe.closed_form(item.sd, n):
                    return False
            if value is not None and value % inputs.MODULUS != inputs.closed_form_residue(item.structure, n, x):
                return False
        return True


# -- reject ---------------------------------------------------------------------


@dataclass(frozen=True)
class RejectItem:
    kind: str
    generators: dict  # prime -> qfe.RationalFunction
    reason: str
    residual: tuple[int, ...] = ()  # expected NonCyclotomicFactor.residual
    pairs: tuple[tuple[int, int], ...] = ()  # expected violating pairs


# The mix of kinds; each pool cycle of ten holds each kind this often.
REJECT_MIX = (
    ("trinomial",) * 3 + ("lehmer",) * 2 + ("product",) * 2 + ("commutativity",) * 2 + ("shift",)
)


class Reject(Workload):
    """Invalid specs: non-cyclotomic generators (q^n - q - 1 with n <= cap,
    Lehmer's polynomial at q^k, a cyclotomic product times a non-cyclotomic
    cofactor), commutativity violations and shift mismatches."""

    name = "reject"
    trace_rate = 55.0

    def warm_caches(self) -> None:
        # The warm cache a long-running process would have: one rejection at
        # the cap asks for every Phi_d the scan can reach.
        try:
            qfe.cyclo_factor(qfe.Polynomial(inputs.trinomial(REJECT_CAP)))
        except qfe.NonCyclotomicFactor:
            pass

    def build_pool(self) -> list:
        rng = self.rng()
        return [getattr(self, f"_{rng.balanced(REJECT_MIX)}")(rng) for _ in range(REJECT_POOL)]

    def _non_cyclotomic(self, rng, kind: str, bad: list[int], residual: list[int]) -> RejectItem:
        """bad (or 1/bad) as one generator; the other is scale * [p]_q."""
        sd = inputs.structure(rng, 2, 1, dilations=(1,), exponents=(1,), shift=Fraction(0))
        gens = {p: qfe.eval_expr(qfe.parse_expr(inputs.generator_text(sd, p))) for p in sd.primes}
        h = qfe.RationalFunction(qfe.Polynomial(bad))
        gens[rng.balanced(sd.primes)] = h if rng.balanced((0, 1)) else h.inverse()
        return RejectItem(kind, gens, "non-cyclotomic", residual=tuple(residual))

    # Rejection cost grows like deg^3, so each degree comes from a balanced
    # bag over its whole range: the cost mix is the same for every seed.

    def _trinomial(self, rng) -> RejectItem:
        t = inputs.trinomial(rng.balanced(range(16, REJECT_CAP + 1)))
        return self._non_cyclotomic(rng, "trinomial", t, t)

    def _lehmer(self, rng) -> RejectItem:
        lehmer = inputs.dilate(inputs.LEHMER, rng.balanced(range(1, REJECT_CAP // 10 + 1)))
        return self._non_cyclotomic(rng, "lehmer", lehmer, lehmer)

    def _product(self, rng) -> RejectItem:
        cofactor = rng.balanced(
            (tuple(inputs.trinomial(3)), tuple(inputs.trinomial(7)), inputs.LEHMER, (-2, 0, 1))
        )
        product = list(cofactor)
        for _ in range(rng.balanced((1, 2, 3))):
            phi = inputs.cyclotomic(rng.balanced(range(1, 31)))
            if len(product) + len(phi) - 2 <= REJECT_CAP:
                product = inputs.int_mul(product, phi)
        return self._non_cyclotomic(rng, "product", product, list(cofactor))

    def _commutativity(self, rng) -> RejectItem:
        caps = dict(primes=(2, 3, 5, 7), dilations=(1, 2, 3), exponents=(-2, -1, 1, 2))
        while True:
            sd1 = inputs.structure(rng, 2, rng.balanced((1, 2)), shift=Fraction(0), **caps)
            caps["primes"] = sd1.primes
            sd2 = inputs.structure(rng, 2, rng.balanced((1, 2)), shift=Fraction(0), **caps)
            odd = rng.balanced(sd1.primes)
            source = {p: sd2 if p == odd else sd1 for p in sd1.primes}
            pairs = inputs.violating_pairs(source)
            if pairs:
                break
        gens = {
            p: qfe.eval_expr(qfe.parse_expr(inputs.generator_text(source[p], p)))
            for p in sd1.primes
        }
        return RejectItem("commutativity", gens, "commutativity", pairs=tuple(pairs))

    def _shift(self, rng) -> RejectItem:
        sd1 = inputs.structure(rng, 2, rng.balanced((0, 1, 2)))
        sd2 = inputs.structure(rng, 2, rng.balanced((0, 1, 2)), primes=sd1.primes, shift=sd1.shift + 1)
        gens = {
            sd1.primes[0]: qfe.eval_expr(qfe.parse_expr(inputs.generator_text(sd1, sd1.primes[0]))),
            sd1.primes[1]: qfe.eval_expr(qfe.parse_expr(inputs.generator_text(sd2, sd1.primes[1]))),
        }
        return RejectItem("shift", gens, "shift")

    def op(self, item: RejectItem):
        spec = qfe.SolutionSpec(item.generators)
        try:
            qfe.decompose(spec)
        except qfe.NotASolution as exc:
            return spec, exc
        return spec, None

    def check(self, item: RejectItem, result) -> bool:
        spec, exc = result
        if exc is None or exc.reason != item.reason:
            return False
        if item.reason == "non-cyclotomic":
            # qfe chains the NonCyclotomicFactor that carries the residual.
            return exc.__cause__.residual == qfe.Polynomial(item.residual)
        if item.reason == "commutativity":
            return qfe.commutativity_violations(spec) == item.pairs
        return True


# -- cli ------------------------------------------------------------------------


@dataclass(frozen=True)
class CliItem:
    kind: str
    args: tuple[str, ...]
    code: int
    stdout: str | None = None  # exact expected stdout
    payload: object = None  # expected JSON document on stdout
    stderr: str | None = None  # expected substring of stderr (the residual)


CLI_MIX = (
    ("decompose",) * 4
    + ("synth",) * 3
    + ("closed_form",) * 3
    + ("standard_form",) * 3
    + ("check",) * 2
    + ("cyclo",) * 2
    + ("cold_reject",) * 3
)
CLI_POOL = 16 * len(CLI_MIX)
# Smaller specs than roundtrip: a cli operation should cost about one
# interpreter start-up plus the qfe import, so that a run holds > 200 of them.
CLI_CAPS = dict(primes=(2, 3, 5, 7), dilations=(1, 2, 3), exponents=(-2, -1, 1, 2))


class Cli(Workload):
    name = "cli"
    trace_rate = 3.5

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=self._scratch(root)))
        self.child = Path(__file__).resolve().parent / "child.py"
        self.trace_dir: Path | None = None  # set while the traced phase runs
        self.traced_ops = 0

    @staticmethod
    def _scratch(root: Path) -> Path:
        path = root / ".bench_tmp"
        path.mkdir(exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self._scratch(self.root).rmdir()
        except OSError:
            pass

    def prepare(self) -> list[str]:
        clear_caches()
        for path in self.workdir.iterdir():
            path.unlink()
        self.pool = self.build_pool()
        return []

    def build_pool(self) -> list:
        rng = self.rng()
        return [getattr(self, f"_{rng.balanced(CLI_MIX)}")(rng, i) for i in range(CLI_POOL)]

    def _structure(self, rng) -> inputs.Structure:
        return inputs.structure(rng, 2, rng.balanced((0, 1, 2)), **CLI_CAPS)

    def _spec_file(self, index: int, gens: dict[int, str]) -> str:
        path = self.workdir / f"spec{index}.json"
        inputs.write_json(path, inputs.spec_doc(gens))
        return str(path)

    def _valid_spec_file(self, index: int, sd: inputs.Structure) -> str:
        return self._spec_file(index, {p: inputs.generator_text(sd, p) for p in sd.primes})

    def _decompose(self, rng, index: int) -> CliItem:
        sd = self._structure(rng)
        args = ("decompose", "--json", "--spec", self._valid_spec_file(index, sd))
        return CliItem("decompose", args, 0, payload=inputs.structure_doc(sd))

    def _synth(self, rng, index: int) -> CliItem:
        sd = self._structure(rng)
        n = rng.balanced([n for n in range(2, 25) if inputs.in_support(sd.primes, n)] or [1])
        text = qfe.format_expr(qfe.closed_form(to_structure_data(sd), n))
        args = ("synth", "--spec", self._valid_spec_file(index, sd), str(n))
        return CliItem("synth", args, 0, stdout=text + "\n")

    def _closed_form(self, rng, index: int) -> CliItem:
        sd = self._structure(rng)
        path = self.workdir / f"structure{index}.json"
        inputs.write_json(path, inputs.structure_doc(sd))
        n = rng.balanced([n for n in range(1, 31) if inputs.in_support(sd.primes, n)])
        text = qfe.format_expr(qfe.closed_form(to_structure_data(sd), n))
        return CliItem("closed_form", ("closed-form", "--structure", str(path), str(n)), 0,
                       stdout=text + "\n")

    def _standard_form(self, rng, index: int) -> CliItem:
        parts = [inputs.random_poly_text(rng, rng.randint(1, 3), 6) for _ in range(3)]
        expr = f"({parts[0]})*({parts[1]})/({parts[2]})*qint({rng.randint(1, 6)},{rng.randint(1, 3)})"
        form = qfe.eval_expr(qfe.parse_expr(expr)).standard_form()
        payload = {
            "lambda": inputs.format_rational(form.scale),
            "e": form.shift,
            "u": qfe.format_expr(form.num),
            "v": qfe.format_expr(form.den),
        }
        return CliItem("standard_form", ("standard-form", "--json", expr), 0, payload=payload)

    def _check(self, rng, index: int) -> CliItem:
        sd = self._structure(rng)
        if rng.random() < 0.5:
            return CliItem("check", ("check", "--spec", self._valid_spec_file(index, sd)), 0,
                           stdout="ok\n")
        while True:
            other = inputs.structure(rng, 2, rng.balanced((1, 2)), **{**CLI_CAPS, "primes": sd.primes})
            source = {sd.primes[0]: sd, sd.primes[1]: other}
            if inputs.violating_pairs(source):
                break
        path = self._spec_file(index, {p: inputs.generator_text(source[p], p) for p in sd.primes})
        return CliItem("check", ("check", "--spec", path), 1,
                       stdout=f"violations: ({sd.primes[0]}, {sd.primes[1]})\n")

    def _cyclo(self, rng, index: int) -> CliItem:
        k = rng.balanced(range(1, 121))
        # From the benchmark's own Phi_k, so the cold qfe cache stays out of set-up.
        text = qfe.format_expr(qfe.Polynomial(list(inputs.cyclotomic(k))))
        return CliItem("cyclo", ("cyclo", str(k)), 0, stdout=text + "\n")

    def _cold_reject(self, rng, index: int) -> CliItem:
        """A non-cyclotomic generator: every invocation pays its cold scan."""
        sd = inputs.structure(rng, 2, rng.balanced((0, 1)), shift=Fraction(0), **CLI_CAPS)
        bad = rng.balanced([tuple(inputs.trinomial(n)) for n in range(12, 25)]
                           + [tuple(inputs.dilate(inputs.LEHMER, k)) for k in (1, 2)])
        gens = {p: inputs.generator_text(sd, p) for p in sd.primes}
        gens[rng.balanced(sd.primes)] = inputs.poly_text(bad)
        args = ("decompose", "--spec", self._spec_file(index, gens))
        return CliItem("cold_reject", args, 1, stdout="", stderr=str(qfe.Polynomial(bad)))

    def op(self, item: CliItem):
        if self.trace_dir is None:
            command = [sys.executable, "-S", "-m", "qfe.cli", *item.args]
        else:
            # The bootstrap installs the same wrappers and writes its spans.
            self.traced_ops += 1
            out = self.trace_dir / f"op{self.traced_ops}.json"
            command = [sys.executable, "-S", str(self.child), str(out), *item.args]
        return subprocess.run(
            command, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )

    def start_trace(self) -> None:
        self.trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=self.workdir))
        self.traced_ops = 0

    def stop_trace(self) -> dict:
        """Merge the children's span files into one snapshot.  A child that
        died before writing one has already failed its check."""
        total = {"stats": {}, "counts": {}, "root_s": 0.0, "harness_s": 0.0, "missing": []}
        for i in range(1, self.traced_ops + 1):
            path = self.trace_dir / f"op{i}.json"
            if path.exists():
                spans.merge(total, json.loads(path.read_text()))
        shutil.rmtree(self.trace_dir)
        self.trace_dir = None
        return total

    def check(self, item: CliItem, result) -> bool:
        if result.returncode != item.code:
            return False
        if item.stderr is not None and item.stderr not in result.stderr:
            return False
        if item.payload is not None:
            try:
                return json.loads(result.stdout) == item.payload
            except json.JSONDecodeError:
                return False
        return result.stdout == item.stdout


WORKLOADS = {w.name: w for w in (Roundtrip, Synth, Reject, Cli)}
