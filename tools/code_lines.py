"""Count the code lines of the qfe package.

A code line is a line of a module that is not blank, is not a comment and
nothing else, and does not lie inside a module, class or function
docstring.  Usage, from the repository root:

    python tools/code_lines.py [directory]

prints one ``<count>  <file>`` row per ``*.py`` file of the directory
(default ``src/qfe``) and a ``<count>  total`` row.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers covered by the docstrings in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the module text source."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/qfe")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
