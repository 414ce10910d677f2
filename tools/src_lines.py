"""Count the lines of the Python sources under src/: all lines, and code lines.

    python tools/src_lines.py

It prints the two totals, then each module's all-line and code-line
counts, one module a line. A code line holds at least one token that is not a comment, and is not
part of a docstring (the string literal that opens a module, class or
function body, found with the ast module). Blank lines, comment lines and
docstring lines are not code lines.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(all lines, code lines) of one Python source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> None:
    paths = sorted(SRC.rglob("*.py"))
    counts = [count(path.read_text(encoding="utf-8")) for path in paths]
    print(f"all lines: {sum(c[0] for c in counts)}")
    print(f"code lines: {sum(c[1] for c in counts)}")
    for path, (lines, code) in zip(paths, counts):
        print(f"{path.relative_to(SRC)}: {lines} all, {code} code")


if __name__ == "__main__":
    main()
