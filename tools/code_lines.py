"""Code-line count of the hekan package.

Prints, for each module under ``src/hekan``, the number of its lines that
are neither blank, a comment nor part of a docstring, then the total:

    python tools/code_lines.py

A docstring is the string literal that opens a module, class or function
body; a comment line is one whose first non-blank character is ``#``. A
line that holds code and a trailing comment counts as code.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hekan"


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by the docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
