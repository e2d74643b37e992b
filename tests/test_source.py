"""Checks on the package source itself."""

import ast
import importlib
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


def test_traced_names_exist():
    # the benchmark's tracer getattrs every name in its TRACED table, so a
    # deleted or renamed function breaks `perfbench/run.py --trace 1`
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"), filename=str(spans))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    ]
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"resmat.{layer}"), name, None))
    ]
    assert sum(len(names) for names in traced.values()) > 1
    assert missing == []
