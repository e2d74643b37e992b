"""The three benchmark workloads: seeded inputs, the calls that run them, and their checks.

Every workload is a closed loop with one caller.  A workload is an endless
sequence of *passes*; a pass is a list of operations (``Op``) built up front
from the seeded generator, so building inputs is never timed.  An operation
is one call into the public API: ``resmat.cli.main`` with stdin and stdout
swapped for in-memory buffers, or ``resmat.matrices.equivalence_classes``.
The module attributes are looked up at call time, so a tracer that rebinds
them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
from dataclasses import dataclass, field
from typing import Callable

from resmat import cli, matrices

import checks

# (m, n) cells of the witness mix; one matrix per cell per pass.  Cubic n=7
# and quartic n=6 are left out: their search length varies so much (0.1 to
# 1.3 s a call) that a run's figures spread 10-12 % from seed to seed.
WITNESS_CELLS = (
    [(2, n) for n in range(8, 13)]
    + [(3, n) for n in range(4, 7)]
    + [(4, n) for n in range(4, 6)]
)

CENSUS_KINDS = ("qr", "symmetric", "skew")
CENSUS_NS = range(2, 7)
# qr --classes --n 6 alone takes about 19 s, longer than a whole run.
CENSUS_EXCLUDED = {("qr", True, 6)}
CLASS_CELLS = ((3, 5), (3, 6), (4, 5), (4, 6))
CLASS_BASES = 4  # random matrices per batch; each also enters once conjugated

# The paper's bound, then 5*10^6 so that the median call is one bound, not
# the midpoint between two, then 10^7.
FREQ_BOUNDS = (2457615, 5 * 10**6, 10**7)

_TOKENS = {
    2: ("1", "-1"),
    3: ("1", "w", "w2"),
    4: ("1", "i", "-1", "-i"),
}


@dataclass
class Op:
    """One timed call.  ``run`` returns the output that ``check`` inspects."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    meta: dict = field(default_factory=dict)
    key: object = None  # the call's input; the label where that names it

    def __post_init__(self):
        if self.key is None:
            self.key = self.label


def run_cli(argv, stdin_text=""):
    """Run ``resmat`` in-process; return (exit code, stdout text)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def matrix_text(m, entries):
    tokens = _TOKENS[m]
    return "".join(
        " ".join("0" if e is None else tokens[e] for e in row) + "\n" for row in entries
    )


def random_admissible(rng, m, n):
    """A uniformly random admissible m x n matrix, as exponent rows.

    Cubic matrices are admissible iff symmetric.  For m = 2 and m = 4 the
    pair products M[i][j] * M[j][i] must be -1 exactly on the pairs inside
    one red set R with |R| >= 2, or nowhere; each of these 2^n - n patterns
    carries the same number of matrices, so R is drawn uniformly among
    subsets of size other than 1 (the empty set stands for "nowhere").
    """
    red = set()
    if m != 3:
        while True:
            red = {i for i in range(n) if rng.random() < 0.5}
            if len(red) != 1:
                break
    rows = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        e = rng.randrange(m)
        rows[i][j] = e
        rows[j][i] = (e + m // 2) % m if i in red and j in red else e
    return tuple(map(tuple, rows))


def random_sign_matrix(rng, m, n):
    return tuple(
        tuple(None if i == j else rng.randrange(m) for j in range(n)) for i in range(n)
    )


def permuted(entries, sigma):
    n = len(entries)
    return tuple(tuple(entries[sigma[i]][sigma[j]] for j in range(n)) for i in range(n))


def witness_op(m, entries):
    n = len(entries)
    text = matrix_text(m, entries)
    return Op(
        f"witness m={m} n={n}",
        lambda: run_cli(["witness", "--m", str(m)], text),
        lambda out: checks.check_witness(m, entries, out),
        {"m": m, "n": n},
        (m, entries),
    )


def count_op(kind, classes, n):
    argv = ["count", "--n", str(n), "--kind", kind] + (["--classes"] if classes else [])
    return Op(
        " ".join(argv),
        lambda: run_cli(argv),
        lambda out: checks.check_count(kind, classes, n, out),
    )


def classes_op(m, batch):
    n = len(batch[0])
    return Op(
        f"equivalence_classes m={m} n={n} x{len(batch)}",
        lambda: matrices.equivalence_classes(
            matrices.SignMatrix(m, entries) for entries in batch
        ),
        lambda out: checks.check_classes(batch, out),
        key=(m, tuple(batch)),
    )


def freq_op(bound):
    return Op(
        f"freq --bound {bound}",
        lambda: run_cli(["freq", "--bound", str(bound)]),
        lambda out: checks.check_freq(bound, out),
        {"triples": checks.triple_count(bound)},
    )


def witness_passes(rng):
    while True:
        yield [witness_op(m, random_admissible(rng, m, n)) for m, n in WITNESS_CELLS]


def census_passes(rng):
    counts = [
        count_op(kind, classes, n)
        for kind in CENSUS_KINDS
        for classes in (False, True)
        for n in CENSUS_NS
        if (kind, classes, n) not in CENSUS_EXCLUDED
    ]
    while True:
        ops = list(counts)
        for m, n in CLASS_CELLS:
            bases = [random_sign_matrix(rng, m, n) for _ in range(CLASS_BASES)]
            batch = bases + [permuted(b, rng.sample(range(n), n)) for b in bases]
            rng.shuffle(batch)
            ops.append(classes_op(m, batch))
        yield ops


def freq_passes(rng):
    # The bounds are fixed by the paper, so the seed does not change them.
    while True:
        yield [freq_op(bound) for bound in FREQ_BOUNDS]


PASSES = {"witness": witness_passes, "census": census_passes, "freq": freq_passes}
