"""The library's checks must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import groupoid_invariants

PACKAGE = Path(groupoid_invariants.__file__).resolve().parent


def test_no_assert_statements_in_the_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []
