"""Every demo script runs cleanly as its own process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run_cleanly():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in demos:
        done = subprocess.run(
            [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, (demo.name, done.stderr)
        assert done.stderr == "", demo.name
        assert "Traceback" not in done.stdout, demo.name
