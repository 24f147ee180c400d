import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
spec = importlib.util.spec_from_file_location("output_digest", TOOL)
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def test_a_tiny_run_is_deterministic(capsys):
    assert output_digest.main(["--seed", "3", "--count", "3"]) == 0
    first = capsys.readouterr().out
    assert output_digest.main(["--seed", "3", "--count", "3"]) == 0
    assert capsys.readouterr().out == first
    rows = [line.split("  ") for line in first.splitlines()]
    assert [name for _, name in rows] == ["closed_form", "reject", "cyclo_factor", "synthesize", "total"]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest, _ in rows)


def test_seeds_draw_different_inputs():
    assert output_digest.digests(1, 2) != output_digest.digests(2, 2)
