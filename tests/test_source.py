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
LAZY_MODULES = (
    "dataclasses", "inspect", "fractions", "decimal", "json", "argparse", "gettext"
)

# One well-formed argv of each subcommand, with its standard input: main
# parses these off its table of options, with no argparse.
WELL_FORMED = (
    (["check", "--m", "3", "--json"], "0 w\nw 0\n"),
    (["check", "--file", "-", "--json"], "0 -1\n-1 0\n"),
    (["witness", "--m", "2", "--limit", "100"], "0 -1 1\n1 0 -1\n1 -1 0\n"),
    (["count", "--n", "4", "--kind", "skew", "--classes", "--json"], ""),
    (["freq", "--bound", "1000", "--json"], ""),
    (["symbol", "--kind", "cubic", "--num", "2", "--den", "4+3w", "--primary"], ""),
)


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


def test_well_formed_calls_load_no_argparse():
    # each call in a fresh interpreter, so no earlier call has loaded it
    code = (
        "import io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import resmat.cli\n"
        "sys.stdin = io.StringIO(sys.argv[2])\n"
        "code = resmat.cli.main(sys.argv[3:])\n"
        "print(code, [m for m in ('argparse', 'gettext') if m in sys.modules])\n"
    )
    for argv, stdin in WELL_FORMED:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(PACKAGE_DIR.parent), stdin, *argv],
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "0 []", argv


def test_cli_import_builds_no_parser():
    # a well-formed call is parsed off the option table, so importing the CLI,
    # filling its tables (the benchmark's setup) and such a call build no
    # parser; a malformed one builds it, once
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import resmat.cli\n"
        "from resmat import frequencies\n"
        "frequencies.class_representatives()\n"
        "print(resmat.cli.build_parser.cache_info().currsize)\n"
        "resmat.cli.main(['count', '--n', '3'])\n"
        "print(resmat.cli.build_parser.cache_info().currsize)\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        resmat.cli.main(['count', '--n', 'x'])\n"
        "    except SystemExit as exc:\n"
        "        print(exc.code)\n"
        "print(resmat.cli.build_parser.cache_info().misses)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == ["0", "40", "0", "2", "2", "1"]
    assert proc.stderr.count("error: argument --n: invalid int value: 'x'") == 2


def test_cold_start_enumerates_nothing():
    # the ten configuration classes are a literal table and the element regex
    # is compiled on first use, so importing the CLI and filling its tables
    # neither classifies sign matrices nor compiles a pattern
    code = (
        "import re, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "called = set()\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        called.add(frame.f_code.co_name)\n"
        "sys.setprofile(profile)\n"
        "import resmat.cli\n"
        "from resmat import frequencies\n"
        "frequencies.class_representatives()\n"
        "sys.setprofile(None)\n"
        "print(sorted(called & {'canonical_form', 'conjugate', 'is_qr_matrix'}))\n"
        "print(sorted(\n"
        "    f'{name}.{attr}'\n"
        "    for name, module in list(sys.modules.items())\n"
        "    if name == 'resmat' or name.startswith('resmat.')\n"
        "    for attr, value in vars(module).items()\n"
        "    if isinstance(value, re.Pattern)\n"
        "))\n"
        "print('class_representatives' in called)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split("\n")[:3] == ["[]", "[]", "True"]


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
