"""Count the lines of the Python sources under src/: all lines, and code lines.

    python tools/src_lines.py

It prints the two totals, then each module's all-line and code-line
counts, one module a line. A code line holds at least one token that is
not a comment, and is not part of a docstring (the string literal that
opens a module, class or function body, found with the ast module).
Blank lines, comment lines and docstring lines are not code lines. If the
reader closes the pipe early (`| head`), it exits with status 1 and no
traceback.
"""

from __future__ import annotations

import ast
import io
import os
import sys
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


def main() -> int:
    paths = sorted(SRC.rglob("*.py"))
    counts = [count(path.read_text(encoding="utf-8")) for path in paths]
    report = [f"all lines: {sum(c[0] for c in counts)}\n",
              f"code lines: {sum(c[1] for c in counts)}\n"]
    report += [f"{path.relative_to(SRC)}: {lines} all, {code} code\n"
               for path, (lines, code) in zip(paths, counts)]
    try:
        sys.stdout.writelines(report)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader has gone (`| head`): what is left in stdout's buffer
        # goes to devnull at exit, not to a second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
