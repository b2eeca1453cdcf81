"""Every imported name is read somewhere in its module.

The repository runs no linter, so this walks the syntax tree of each
Python file under ``src/dinet``, ``tests``, ``tools`` and ``demos``.  A
name bound by an import counts as read when the module loads it anywhere
(``ast.Name`` in a load context, or the head of an attribute chain) or
lists it in ``__all__``.  ``from __future__`` imports are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FOLDERS = ("src/dinet", "tests", "tools", "demos")


def python_files() -> list[Path]:
    files = [path for folder in FOLDERS for path in sorted((ROOT / folder).glob("*.py"))]
    assert files
    return files


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its first import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                names.setdefault(name, node.lineno)
    return names


def read_names(tree: ast.Module) -> set[str]:
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return read


@pytest.mark.parametrize("path", python_files(), ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not unused, f"{path.relative_to(ROOT)}: imported but never read: {unused}"
