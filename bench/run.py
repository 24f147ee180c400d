"""The qfe benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload {roundtrip,synth,reject,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qfe is imported from that checkout's src/
and nowhere else.  With --trace 0 the run measures the end-to-end metrics
for S seconds; with --trace 1 it measures the per-layer metrics on a fixed
number of operations (see README.md).  Every operation's output is checked.
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is {"info": {...}}: commit, Python, nproc, load average,
sample counts and the host-speed reference.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Metric names and units, in the order they are reported.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def import_qfe():
    """Import qfe from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import qfe
    except ImportError as exc:
        raise SystemExit(f"error: cannot import qfe from {SRC}: {exc}")
    if not Path(qfe.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: qfe imported from {qfe.__file__}, not from {SRC}")
    return qfe


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python integer loop: a host-speed probe."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(100_000):
            x = (x * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qfe").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_ops(w, *, seconds=None, count=None, tracer=None, log=None):
    """Closed loop over w.pool for a time (at least two operations, so that
    percentiles exist) or for a number of operations.

    Returns the per-operation latencies and the number of failed operations.
    Only the operation is timed; its check runs between operations.
    """
    latencies: list[float] = []
    failed = 0
    start = time.perf_counter()
    pool = w.pool
    i = 0
    while (count is None or i < count) and (
        seconds is None or i < 2 or time.perf_counter() - start < seconds
    ):
        item = pool[i % len(pool)]
        i += 1
        if tracer is not None:
            tracer.resume()
        t0 = time.perf_counter()
        try:
            result, error = w.op(item), None
        except Exception as exc:  # an unexpected exception is a failed operation
            result, error = None, exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.pause()
        if error is None:
            try:
                ok = w.check(item, result)
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            failed += 1
            if log is not None and failed <= 5:
                log(f"failed operation {i}: {item!r:.300} -> {error or result!r:.300}")
    return latencies, failed


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(w, setup_s: float, latencies: list[float], failed: int) -> dict:
    who = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p95_ms": percentile(latencies, 95) * 1e3,
        "ok_ratio": (len(latencies) - failed) / len(latencies),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def startup_ms() -> tuple[float, float]:
    """From medians of 7 runs of `python -S -c pass` and of `python -S -c
    "import qfe.cli"` (which also times its import from inside): the import
    time as a user sees it, and the time to start and end an interpreter
    that has loaded qfe.cli, in ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timed_import = "import time; t = time.perf_counter(); import qfe.cli; print(time.perf_counter() - t)"
    bare, wall, inner = [], [], []
    for _ in range(7):
        for code, times in (("pass", bare), (timed_import, wall)):
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, env=env, check=True,
                                 capture_output=True, text=True)
            times.append(time.perf_counter() - t0)
        inner.append(float(out.stdout))
    import_ms = (statistics.median(wall) - statistics.median(bare)) * 1e3
    return import_ms, (statistics.median(wall) - statistics.median(inner)) * 1e3


def traced(w, seconds: float, log):
    """Per-layer metrics: a fixed number of operations run traced, then the
    same operations replayed untraced for the tracing overhead.  Also returns
    the names qfe no longer defines, whose metrics are left out."""
    import spans

    count = max(2, round(w.trace_rate * seconds))
    if w.name == "cli":
        w.start_trace()
        lat_t, failed_t = run_ops(w, count=count, log=log)
        snap = w.stop_trace()
    else:
        tracer = spans.Tracer()
        tracer.install()
        tracer.pause()
        try:
            lat_t, failed_t = run_ops(w, count=count, tracer=tracer, log=log)
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
    lat_u, failed_u = run_ops(w, count=count, log=log)
    wall_t = sum(lat_t)
    metrics = layer_metrics(snap, spans.LAYERS)
    if w.name == "cli":
        metrics["cli.import_ms"], interpreter_ms = startup_ms()
        # Each traced operation also starts and ends an interpreter.
        harness_s = snap["harness_s"] + count * interpreter_ms / 1e3
    else:
        # op only calls into qfe, so the harness has no time of its own there.
        metrics["cli.import_ms"] = 0.0
        harness_s = 0.0
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    metrics["trace.wall_s"] = wall_t
    metrics["trace.harness_s"] = harness_s
    metrics["trace.accounted_ratio"] = (layer_total + harness_s) / wall_t
    metrics["trace.overhead_ratio"] = wall_t / sum(lat_u)
    if snap["missing"]:
        log(f"not traced, no longer in qfe: {', '.join(snap['missing'])}")
    return metrics, count, failed_t + failed_u, snap["missing"]


# Per-layer metrics other than a span's calls or self time: ratios of
# counters, as (numerator, denominator terms) ...
RATIOS = {
    "cyclo.cyclotomic.hit_ratio": (
        "cyclo.cyclotomic.cache_hits", ("cyclo.cyclotomic.cache_hits", "cyclo.cyclotomic.cache_misses")
    ),
    "cyclo.cyclo_factor.hit_ratio": ("cyclo.cyclo_factor.found", ("cyclo.cyclo_factor.candidates",)),
    "ratfunc.gcd.nontrivial_ratio": ("ratfunc.gcd.nontrivial", ("ratfunc.gcd.calls",)),
    "solutions.term.memo_hit_ratio": ("solutions.term.memo_hits", ("solutions.term.lookups",)),
}
# ... plain counters, and the spans and probes each such metric is read from
# (a span's own metrics are read from that span alone).
COUNTERS = ("cyclo.cyclo_factor.rejects", "cyclo.cyclo_factor.candidates", "solutions.term.memo_entries")
SOURCES = {
    "cyclo.cyclotomic.hit_ratio": ("cyclo.cyclotomic", "cyclo.cyclotomic.cache"),
    "cyclo.cyclo_factor.rejects": ("cyclo.cyclo_factor",),
    "cyclo.cyclo_factor.candidates": ("cyclo.cyclotomic", "cyclo.cyclo_factor"),
    "cyclo.cyclo_factor.hit_ratio": ("cyclo.cyclotomic", "cyclo.cyclo_factor", "cyclo._exact_int_div"),
    "ratfunc.gcd.nontrivial_ratio": ("ratfunc.gcd",),
    "solutions.term.memo_hit_ratio": ("solutions.term", "solutions.term.memo"),
    "solutions.term.memo_entries": ("solutions.synthesize", "solutions.term.memo"),
}


def layer_metrics(snap: dict, layers) -> dict:
    """The per-layer metrics of BENCHMARK.json that come from spans and
    counters.  A metric read from a name in snap["missing"] is left out."""
    stats, counts, missing = snap["stats"], snap["counts"], set(snap["missing"])
    m: dict = {}
    for entry in SPEC["per_layer"]:
        name = entry["name"]
        span, _, kind = name.rpartition(".")
        if name.startswith("trace.") or name == "cli.import_ms":
            continue
        if missing.intersection(SOURCES.get(name, (span,))):
            continue
        if name in RATIOS:
            numerator, terms = RATIOS[name]
            total = sum(counts.get(t, 0) for t in terms)
            m[name] = counts.get(numerator, 0) / total if total else 0.0
        elif name in COUNTERS:
            m[name] = counts.get(name, 0)
        elif span in layers:  # <layer>.self_s
            m[name] = sum((s for key, (_, s) in stats.items() if key.split(".")[0] == span), 0.0)
        else:
            m[name] = stats.get(span, (0, 0.0))[("calls", "self_s").index(kind)]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qfe = import_qfe()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    def log(message: str) -> None:
        print(f"[{args.workload}] {message}", file=sys.stderr)

    import_s = time.perf_counter() - _T0
    host_start = host_reference_ms()
    load_start = os.getloadavg()
    w = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            warm_failures = w.prepare()
            setups.append(time.perf_counter() - t0)
        for failure in warm_failures[:5]:
            log(f"failed operation {failure}")
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            metrics, traced_ops, failed, missing = traced(w, args.seconds, log)
            attempted = 2 * traced_ops
        else:
            latencies, failed = run_ops(w, seconds=args.seconds, log=log)
            attempted = len(latencies)
            metrics = end_to_end(w, setup_s, latencies, failed)
    finally:
        w.close()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "qfe_file": qfe.__file__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "host_ref_ms_start": host_start,
        "host_ref_ms_end": host_reference_ms(),
        "import_s": import_s,
        "prepare_s": setups,
    }
    if args.trace:
        info["traced_ops"] = traced_ops
        # Functions a later qfe dropped or renamed: their metrics are left out.
        info["not_traced"] = missing
    else:
        info["samples"] = attempted
        info["samples_beyond_p95"] = sum(1 for v in latencies if v * 1e3 > metrics["op_p95_ms"])
    print(json.dumps({"info": info}))
    # A warm-up operation that fails its check counts as attempted and failed.
    attempted += len(warm_failures)
    failed += len(warm_failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in UNITS.items() if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
