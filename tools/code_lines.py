"""Print the code lines of each ``src/dinet`` module, and their total.

Run from a checkout root:

    python3 tools/code_lines.py

A code line is a line that holds a token of code: comments, blank lines
and the docstrings of modules, classes and functions (found by ``ast``)
do not count.  A string statement after an assignment, such as the one
that documents a module constant, counts as code.  Each line printed is
``<count>  <module>``, then ``<total>  src/dinet``, then the number of
names in ``dinet.__all__`` and last the number of command-line options,
the ``add_argument`` calls in ``cli.py`` whose first argument starts
with ``--``; both are read from the syntax tree without importing the
package.
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


def public_names(source: str) -> int:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return len(node.value.elts)
    raise SystemExit("no __all__ list in src/dinet/__init__.py")


def option_count(source: str) -> int:
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and bool(node.args)
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).startswith("--")
        for node in ast.walk(ast.parse(source))
    )


def main() -> None:
    total = 0
    for path in sorted(Path("src/dinet").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  src/dinet")
    names = public_names(Path("src/dinet/__init__.py").read_text())
    print(f"{names:6d}  names in dinet.__all__")
    options = option_count(Path("src/dinet/cli.py").read_text())
    print(f"{options:6d}  options in cli.py")


if __name__ == "__main__":
    main()
