"""Traced stand-in for `python -m qfe.cli ARGS...`, used by the cli workload.

Usage: python child.py OUT.json ARGS...

Imports qfe.cli first, timed as the span cli.import, then installs the same
wrappers as the in-process traced run, runs qfe.cli.main(ARGS), writes the
span totals to OUT.json and exits with main's exit code.  PYTHONPATH must
point at the checkout's src/.  The bootstrap's own imports come after qfe's,
which loads the standard modules they share; its own time (imports,
installing and removing the wrappers) is recorded as harness time.
"""

import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import qfe.cli as cli

    t1 = time.perf_counter()
    import json
    from pathlib import Path

    import spans

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"qfe.cli imported from {cli.__file__}, not from {src}")
    tracer = spans.Tracer()
    tracer.record("cli.import", t1 - t0)
    tracer.install()
    t2 = time.perf_counter()
    code = cli.main(argv)
    sys.stdout.flush()
    t3 = time.perf_counter()
    tracer.uninstall()
    tracer.harness_s = t2 - t1 + time.perf_counter() - t3
    Path(out).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
