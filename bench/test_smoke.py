"""Tiny-size smoke test of the benchmark harness.

    python -m pytest bench/test_smoke.py

Runs every workload for a fraction of a second and checks the result line
against BENCHMARK.json: the right metric names and units, a correct result,
and a refusal to run in a directory without the qfe sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 0.3):
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload,
               "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(out) -> dict:
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stderr
    assert info["qfe_file"].startswith(str(ROOT / "src"))
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    metrics = result_of(run(workload, 0))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", ["roundtrip", "cli"])
def test_per_layer_metrics(workload):
    metrics = result_of(run(workload, 1))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    # Layer self times plus the harness's own time account for the wall time.
    assert metrics["trace.accounted_ratio"]["value"] == pytest.approx(1.0, abs=0.1)
    layer = "cli" if workload == "cli" else "poly"
    assert metrics[f"{layer}.self_s"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = run("roundtrip", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
