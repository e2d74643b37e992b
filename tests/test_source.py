"""Checks on the package source itself."""

import ast
from pathlib import Path

import resmat

PACKAGE_DIR = Path(resmat.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so post-conditions must raise
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(list(PACKAGE_DIR.glob("*.py"))) > 1
    assert found == []
