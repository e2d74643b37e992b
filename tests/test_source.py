"""Checks on the package source itself."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import resmat

PACKAGE_DIR = Path(resmat.__file__).parent

# Standard modules that `import resmat.cli` must not load: each costs
# milliseconds at every start and is needed by few or no invocations.
LAZY_MODULES = ("dataclasses", "inspect", "fractions", "decimal", "json")


def _source_nodes():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements():
    # python -O strips assert statements, and a post-condition that fails
    # raises RuntimeError, so neither form may appear
    found = []
    for name, node in _source_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{name}:{node.lineno} raise AssertionError")
        elif isinstance(node, ast.Assert):
            found.append(f"{name}:{node.lineno} assert")
    assert len(list(PACKAGE_DIR.glob("*.py"))) > 1
    assert found == []


def test_no_dataclasses_or_decimal_imports():
    found = []
    for name, node in _source_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{name}:{node.lineno} {module}"
            for module in modules
            if module.split(".")[0] in ("dataclasses", "decimal")
        ]
    assert found == []


def test_cli_import_leaves_heavy_modules_unloaded():
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import resmat.cli\n"
        "from resmat import frequencies\n"
        "frequencies.class_representatives()\n"
        f"print([m for m in {LAZY_MODULES!r} if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_cli_import_builds_no_parser():
    # main builds the parser on its first call, so importing the CLI and
    # filling its tables (the benchmark's setup) does not pay for it
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import resmat.cli\n"
        "from resmat import frequencies\n"
        "frequencies.class_representatives()\n"
        "print(resmat.cli.build_parser.cache_info().currsize)\n"
        "resmat.cli.main(['count', '--n', '3'])\n"
        "print(resmat.cli.build_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == ["0", "40", "1"]


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
