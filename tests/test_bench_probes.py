"""The benchmark's probe points must keep resolving in qfe.

``bench/spans.py`` wraps qfe functions by (module, qualified name) and
leaves out, without failing, every metric whose name it cannot find.  A
renamed private helper would therefore silently drop per-layer metrics;
these tests make such a rename fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import qfe.cli  # noqa: F401  (the cli spans live in qfe.cli)

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    spans = load_spans()
    missing = []
    for module, qualname, name in spans.SPANS:
        owner = importlib.import_module(f"qfe.{module}")
        if spans._resolve(owner, qualname) is None:
            missing.append(name)
    assert not missing


def test_exact_division_probe_resolves():
    assert callable(importlib.import_module("qfe.cyclo")._exact_int_div)
