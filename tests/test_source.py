"""Source-level guards over the cycloff package."""

import ast
import pathlib

import cycloff

SRC = pathlib.Path(cycloff.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so a check that carries proof must raise
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
