import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

# A comment on its own line.
import math


class Shape:
    """One line."""

    sides = 4  # a trailing comment keeps the line


def area(r):
    """A function docstring,
    also two lines.
    """
    text = """a string that is
    not a docstring"""
    return math.pi * r * r, text
'''


def test_counts_only_code_lines():
    # import, class, sides, def, text (two lines), return
    assert code_lines.code_lines(FIXTURE) == 7


def test_prints_a_row_per_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     7  a.py",
        "     1  b.py",
        "     8  total",
    ]
