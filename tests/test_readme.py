"""The examples printed in README.md, run and compared with their output."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import resmat

README = Path(__file__).parents[1] / "README.md"
SRC_DIR = Path(resmat.__file__).parents[1]

# fenced blocks: the info string (python, or nothing) and the body
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)


def _blocks(lang):
    text = README.read_text(encoding="utf-8")
    return [body for info, body in FENCE.findall(text) if info == lang]


def _command_examples():
    """(command, printed output) for every `$ ... resmat ...` line."""
    examples = []
    for body in _blocks(""):
        for chunk in body.split("\n\n"):
            first, _, rest = chunk.partition("\n")
            if first.startswith("$ ") and "resmat" in first:
                examples.append((first[2:], rest.rstrip("\n") + "\n"))
    return examples


def test_python_example():
    (body,) = _blocks("python")
    test = doctest.DocTestParser().get_doctest(body, {}, "README.md", str(README), 0)
    assert test.examples
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)


COMMANDS = _command_examples()


def test_every_command_example_is_collected():
    assert [cmd.split("resmat ")[1].split()[0] for cmd, _ in COMMANDS] == [
        "check", "witness", "count", "freq", "symbol"
    ]


@pytest.mark.parametrize("command, printed", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_example(command, printed):
    # `resmat` stands for the module entry point of this checkout
    script = f'resmat() {{ "{sys.executable}" -m resmat.cli "$@"; }}\n{command}\n'
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        ["bash", "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == printed
