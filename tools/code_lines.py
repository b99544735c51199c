"""Count the code lines of each ``src/uamsim`` module.

A code line is a line that holds a token outside comments and outside
module, class and function docstrings, as ``ast`` and ``tokenize`` see
them; blank lines do not count.  Prints one line per module, then the
total.  Run from anywhere: ``python tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uamsim"

# tokens that hold no code: layout, comments and the stream's ends
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers taken by the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skipped = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skipped)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")


if __name__ == "__main__":
    main()
