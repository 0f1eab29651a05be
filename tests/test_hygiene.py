"""Every name a module imports is read somewhere in that module.

An AST scan of the package and the tests: a name bound by ``import`` or
``from ... import`` must be loaded at least once, or be listed in the
module's ``__all__`` (a re-export).  ``from __future__`` imports are
compiler directives and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "triqss").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for each imported name the source never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    read |= exported(tree)
    return [
        f"{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read
    ]


def test_the_scan_sees_both_trees():
    names = {path.name for path in FILES}
    assert {"qcore.py", "registry.py", "test_hygiene.py"} <= names


def test_the_scan_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from json import dumps, loads as parse\n"
        "__all__ = ['dumps']\n"
        "numpy.linalg.norm(osp.sep)\n"
    )
    assert unused_imports(source) == ["2: os", "4: parse"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
