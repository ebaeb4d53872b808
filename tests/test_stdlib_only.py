"""The library depends on the Python standard library alone."""

import ast
import sys
from pathlib import Path

import groupoid_invariants

PACKAGE = Path(groupoid_invariants.__file__).resolve().parent


def _foreign_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                yield node.lineno, name


def test_library_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{line} imports {name}"
                     for line, name in _foreign_imports(tree))
    assert found == []


def test_the_scan_flags_a_foreign_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from . import errors\nfrom .x import y\nimport numpy as np\n"
                     "from hypothesis import given\n")
    assert list(_foreign_imports(tree)) == [(5, "numpy"), (6, "hypothesis")]
