"""Which per-layer counts repeat exactly from run to run.

    python3 bench/repeat.py [--seconds S] [--seed N] [WORKLOAD ...]

Runs the traced run (--trace 1) twice per workload with the same seed and
prints, for every per-layer metric, whether the two values are identical.
A count that repeats exactly may be cited as a count when comparing two
versions of qfe; timings and ratios of timings never repeat.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("roundtrip", "synth", "reject", "cli")


def traced_metrics(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported failures")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    exact: dict[str, list[str]] = {}
    varies: dict[str, list[str]] = {}
    for workload in args.workloads:
        first = traced_metrics(workload, args.seed, args.seconds)
        second = traced_metrics(workload, args.seed, args.seconds)
        for name in first:
            if first[name] == second[name] == 0:
                verdict = "unused"
            elif first[name] == second[name]:
                verdict = "exact"
                exact.setdefault(name, []).append(workload)
            else:
                verdict = "varies"
                varies.setdefault(name, []).append(workload)
            print(f"{workload:10s} {name:40s} {verdict:6s} {first[name]:.6g} {second[name]:.6g}")
    print("\nrepeat exactly:")
    for name, where in exact.items():
        print(f"  {name}: {', '.join(where)}" + (f" (varies on {', '.join(varies[name])})" if name in varies else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
