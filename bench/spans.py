"""In-memory spans around the public functions of ``qfe``, installed from outside.

``Tracer.install()`` replaces each function and method listed in ``SPANS``
with a wrapper that records one span per call.  Nothing under ``src/`` is
edited: the wrappers are bound over the originals in memory and
``uninstall()`` puts the originals back.

Three binding details matter for ``qfe``:

* names re-bound by ``from .x import y`` (``ratfunc.gcd``,
  ``structure.as_multiset_quotient``, ``structure._require_commutative``,
  ``cli.cyclotomic`` ...) are replaced in every ``qfe`` module and class
  namespace that holds the same object, so every caller sees the wrapper;
* dunder methods are replaced on the class, so operators reach them
  (``//`` and ``%`` go through the wrapped ``Polynomial.__divmod__``), and
  aliases such as ``__rmul__ = __mul__`` share one span;
* ``cyclotomic`` is an ``lru_cache`` that recurses through its module
  global, so its recursive calls are spans too; hits and misses are read
  from the original's ``cache_info()``.

A span's self time is its duration minus the time its child spans cover.
Spans are folded into per-name totals as they close (a ten-second traced run
closes millions of them), so memory stays flat; the totals are written out
when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = (
    "arith",
    "poly",
    "ratfunc",
    "cyclo",
    "solutions",
    "structure",
    "expressions",
    "documents",
    "cli",
)

# (module, qualified name in that module, span name).  Hot accessors that do
# no arithmetic (properties, __eq__ on polynomials, __init__ of Polynomial)
# are left unwrapped: their cost lands in the calling span.
SPANS = (
    ("arith", "factorize", "arith.factorize"),
    ("arith", "is_prime", "arith.is_prime"),
    ("arith", "moebius", "arith.moebius"),
    ("arith", "euler_phi", "arith.euler_phi"),
    ("arith", "divisors", "arith.divisors"),
    ("poly", "Polynomial.__add__", "poly.add"),
    ("poly", "Polynomial.__neg__", "poly.neg"),
    ("poly", "Polynomial.__sub__", "poly.sub"),
    ("poly", "Polynomial.__rsub__", "poly.rsub"),
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("poly", "Polynomial.__pow__", "poly.pow"),
    ("poly", "Polynomial.__divmod__", "poly.divmod"),
    ("poly", "Polynomial.__call__", "poly.call"),
    ("poly", "Polynomial.__str__", "poly.str"),
    ("poly", "Polynomial.scaled", "poly.scaled"),
    ("poly", "Polynomial.monic", "poly.monic"),
    ("poly", "Polynomial.shift", "poly.shift"),
    ("poly", "Polynomial.compose_power", "poly.compose_power"),
    ("poly", "Polynomial.valuation", "poly.valuation"),
    ("poly", "gcd", "poly.gcd"),
    ("poly", "quantum_integer", "poly.quantum_integer"),
    ("ratfunc", "RationalFunction.__init__", "ratfunc.reduce"),
    ("ratfunc", "RationalFunction.__eq__", "ratfunc.eq"),
    ("ratfunc", "RationalFunction.__add__", "ratfunc.add"),
    ("ratfunc", "RationalFunction.__neg__", "ratfunc.neg"),
    ("ratfunc", "RationalFunction.__sub__", "ratfunc.sub"),
    ("ratfunc", "RationalFunction.__rsub__", "ratfunc.rsub"),
    ("ratfunc", "RationalFunction.__mul__", "ratfunc.mul"),
    ("ratfunc", "RationalFunction.__truediv__", "ratfunc.truediv"),
    ("ratfunc", "RationalFunction.__rtruediv__", "ratfunc.rtruediv"),
    ("ratfunc", "RationalFunction.__pow__", "ratfunc.pow"),
    ("ratfunc", "RationalFunction.__str__", "ratfunc.str"),
    ("ratfunc", "RationalFunction.inverse", "ratfunc.inverse"),
    ("ratfunc", "RationalFunction.compose_power", "ratfunc.compose_power"),
    ("ratfunc", "RationalFunction.standard_form", "ratfunc.standard_form"),
    ("ratfunc", "StandardForm.value", "ratfunc.standard_form_value"),
    ("cyclo", "q_power_minus_one", "cyclo.q_power_minus_one"),
    ("cyclo", "cyclotomic", "cyclo.cyclotomic"),
    ("cyclo", "cyclo_factor", "cyclo.cyclo_factor"),
    ("cyclo", "as_multiset_quotient", "cyclo.as_multiset_quotient"),
    ("cyclo", "CyclotomicFactorization.value", "cyclo.factorization_value"),
    ("cyclo", "MultisetQuotient.dilate", "cyclo.multiset_dilate"),
    ("cyclo", "MultisetQuotient.value", "cyclo.multiset_value"),
    ("solutions", "in_support", "solutions.in_support"),
    ("solutions", "SolutionSpec.__init__", "solutions.spec"),
    ("solutions", "commutativity_violations", "solutions.commutativity"),
    ("solutions", "is_commutative", "solutions.is_commutative"),
    ("solutions", "_require_commutative", "solutions.require_commutative"),
    ("solutions", "synthesize", "solutions.synthesize"),
    ("solutions", "_term", "solutions.term"),
    ("solutions", "verify_functional_equation", "solutions.verify"),
    ("solutions", "combine", "solutions.combine"),
    ("solutions", "invert", "solutions.invert"),
    ("solutions", "quantum_integer_spec", "solutions.quantum_integer_spec"),
    ("structure", "validate_shift", "structure.validate_shift"),
    ("structure", "scale_at", "structure.scale_at"),
    ("structure", "closed_form", "structure.closed_form"),
    ("structure", "degree_signature", "structure.degree_signature"),
    ("structure", "decompose", "structure.decompose"),
    ("structure", "_common_shift", "structure.common_shift"),
    ("structure", "_peel", "structure.peel"),
    ("expressions", "parse_expr", "expressions.parse_expr"),
    ("expressions", "eval_expr", "expressions.eval_expr"),
    ("expressions", "format_expr", "expressions.format_expr"),
    ("documents", "parse_rational", "documents.parse_rational"),
    ("documents", "format_rational", "documents.format_rational"),
    ("documents", "solution_spec_from_dict", "documents.solution_spec_from_dict"),
    ("documents", "solution_spec_to_dict", "documents.solution_spec_to_dict"),
    ("documents", "structure_data_from_dict", "documents.structure_data_from_dict"),
    ("documents", "structure_data_to_dict", "documents.structure_data_to_dict"),
    ("documents", "load_solution_spec", "documents.load_solution_spec"),
    ("documents", "load_structure_data", "documents.load_structure_data"),
    ("cli", "main", "cli.main"),
)


def _resolve(owner, qualname: str):
    """owner.qualname, or None once qfe no longer has that name."""
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return owner


class Tracer:
    """Span and counter store for one process, plus the in-memory patching."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # span name -> [calls, self_s]
        self.counts: Counter = Counter()
        self.root_s = 0.0  # total duration of spans with no parent span
        self.harness_s = 0.0  # time of the cli bootstrap itself, outside any span
        self._stack: list[list] = []  # open spans: [name, child_s, flag]
        self._patches: list[tuple[object, str, object]] = []
        self._cyclotomic = None
        self._cache_base = (0, 0)
        self._paused = [False]  # shared with every wrapper
        # Spans and probes whose qfe function or attribute no longer exists.
        self.missing: set[str] = set()

    def pause(self) -> None:
        """Stop recording (the harness checks results between operations)."""
        self._close_cache_counts()
        self._paused[0] = True

    def resume(self) -> None:
        self._close_cache_counts()  # while still paused: only moves the base
        self._paused[0] = False

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span called name."""
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        paused = self._paused

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            frame = [name, 0.0, False]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.root_s += dur

        return functools.update_wrapper(wrapper, fn)

    def record(self, name: str, seconds: float) -> None:
        """Add one root span timed by the caller (the cli child's import)."""
        stat = self.stats.setdefault(name, [0, 0.0])
        stat[0] += 1
        stat[1] += seconds
        self.root_s += seconds

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Bind span wrappers over the qfe functions listed in SPANS."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import qfe  # noqa: F401  (loads every submodule except qfe.cli)

        # A name that a later version of qfe drops or renames is skipped and
        # listed in self.missing; its metrics are then left out.
        bindings = self._bindings()
        for module, qualname, name in SPANS:
            if f"qfe.{module}" not in sys.modules:  # qfe.cli, outside the cli workload
                continue
            original = _resolve(sys.modules[f"qfe.{module}"], qualname)
            if original is None or not self._rebind(
                bindings, original, self._probe(name, self.span(name, original))
            ):
                self.missing.add(name)
                continue
            if name == "cyclo.cyclotomic" and not hasattr(original, "cache_info"):
                self.missing.add("cyclo.cyclotomic.cache")
            elif name == "cyclo.cyclotomic":
                self._cyclotomic = original
                info = original.cache_info()
                self._cache_base = (info.hits, info.misses)
        # Counter only, no span: which candidate Phi_d divides in cyclo_factor.
        exact_div = getattr(sys.modules["qfe.cyclo"], "_exact_int_div", None)
        if exact_div is None:
            self.missing.add("cyclo._exact_int_div")
        else:
            self._rebind(bindings, exact_div, self._exact_div_probe(exact_div))
        # gcds called from ratfunc, with their useful (degree > 0) outcomes.
        ratfunc = sys.modules["qfe.ratfunc"]
        if "gcd" in vars(ratfunc):
            self._patch(ratfunc, "gcd", self._ratfunc_gcd_probe(ratfunc.gcd))
        else:
            self.missing.add("ratfunc.gcd")

    def uninstall(self) -> None:
        self._close_cache_counts()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _bindings() -> dict[int, list[tuple[object, str]]]:
        """id(value) -> every (namespace, name) where a qfe module or class binds value."""
        owners: dict[int, object] = {}
        for mod_name, module in sys.modules.items():
            if mod_name == "qfe" or mod_name.startswith("qfe."):
                owners[id(module)] = module
                for value in vars(module).values():
                    if isinstance(value, type) and value.__module__.startswith("qfe"):
                        owners[id(value)] = value
        index: dict[int, list[tuple[object, str]]] = {}
        for owner in owners.values():
            for attr, value in vars(owner).items():
                index.setdefault(id(value), []).append((owner, attr))
        return index

    def _rebind(self, bindings, original, wrapper) -> bool:
        """Bind wrapper wherever qfe binds original; False if it binds it nowhere
        (an inherited method, for instance)."""
        places = bindings.get(id(original), [])
        for owner, attr in places:
            self._patch(owner, attr, wrapper)
        return bool(places)

    def _patch(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    # -- probes: counters taken at the same boundaries as the spans ------------

    def _probe(self, name: str, spanned):
        counts = self.counts
        stack = self._stack
        paused = self._paused
        missing = self.missing
        if name == "cyclo.cyclotomic":

            def cyclotomic(k):
                # A call made directly by cyclo_factor is one candidate Phi_d.
                if stack and stack[-1][0] == "cyclo.cyclo_factor":
                    counts["cyclo.cyclo_factor.candidates"] += 1
                    stack[-1][2] = True
                return spanned(k)

            return cyclotomic
        if name == "cyclo.cyclo_factor":
            from qfe.cyclo import NonCyclotomicFactor

            def cyclo_factor(p):
                try:
                    return spanned(p)
                except NonCyclotomicFactor:
                    if not paused[0]:
                        counts["cyclo.cyclo_factor.rejects"] += 1
                    raise

            return cyclo_factor
        if name == "solutions.term":

            def term(spec, n):
                memo = getattr(spec, "_terms", None)
                if memo is None:
                    missing.add("solutions.term.memo")
                elif not paused[0]:
                    counts["solutions.term.lookups"] += 1
                    counts["solutions.term.memo_hits"] += n in memo
                return spanned(spec, n)

            return term
        if name == "solutions.synthesize":

            def synthesize(spec, n):
                memo = getattr(spec, "_terms", None)
                if memo is None:
                    missing.add("solutions.term.memo")
                before = len(memo) if memo is not None else 0
                try:
                    return spanned(spec, n)
                finally:
                    if not paused[0] and memo is not None:
                        counts["solutions.term.memo_entries"] += len(memo) - before

            return synthesize
        return spanned

    def _exact_div_probe(self, original):
        counts = self.counts
        stack = self._stack

        def exact_int_div(a, b):
            quotient = original(a, b)
            # The first trial division after a candidate decides whether it hit.
            if stack and stack[-1][0] == "cyclo.cyclo_factor" and stack[-1][2]:
                stack[-1][2] = False
                if quotient is not None:
                    counts["cyclo.cyclo_factor.found"] += 1
            return quotient

        return exact_int_div

    def _ratfunc_gcd_probe(self, spanned_gcd):
        counts = self.counts
        paused = self._paused

        def gcd(a, b):
            g = spanned_gcd(a, b)
            if not paused[0]:
                counts["ratfunc.gcd.calls"] += 1
                counts["ratfunc.gcd.nontrivial"] += g.degree > 0
            return g

        return gcd

    def _close_cache_counts(self) -> None:
        """Add the lru_cache hits and misses since the last call, unless paused."""
        if self._cyclotomic is None:
            return
        info = self._cyclotomic.cache_info()
        if not self._paused[0]:
            self.counts["cyclo.cyclotomic.cache_hits"] += info.hits - self._cache_base[0]
            self.counts["cyclo.cyclotomic.cache_misses"] += info.misses - self._cache_base[1]
        self._cache_base = (info.hits, info.misses)

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Span totals and counters, JSON-ready (also merged across processes)."""
        self._close_cache_counts()
        return {
            "missing": sorted(self.missing),
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "harness_s": self.harness_s,
        }


def merge(total: dict, part: dict) -> None:
    """Add one snapshot into another (used for the cli child processes)."""
    for name, (calls, self_s) in part["stats"].items():
        slot = total["stats"].setdefault(name, [0, 0.0])
        slot[0] += calls
        slot[1] += self_s
    for name, value in part["counts"].items():
        total["counts"][name] = total["counts"].get(name, 0) + value
    total["root_s"] += part["root_s"]
    total["harness_s"] += part["harness_s"]
    total["missing"] = sorted(set(total["missing"]) | set(part["missing"]))
