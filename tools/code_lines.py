"""Print the code lines of each ``src/dinet`` module, and their total.

Run from a checkout root:

    python3 tools/code_lines.py

A code line is a line that holds a token of code: comments, blank lines
and the docstrings of modules, classes and functions (found by ``ast``)
do not count.  A string statement after an assignment, such as the one
that documents a module constant, counts as code.  Each line printed is
``<count>  <module>``, and the last is ``<total>  src/dinet``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    total = 0
    for path in sorted(Path("src/dinet").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  src/dinet")


if __name__ == "__main__":
    main()
