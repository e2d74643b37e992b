"""Correctness checks, each independent of the code path it checks.

A check raises ``CheckError`` when an output is wrong.  Witness primes are
tested with the benchmark's own trial division and Euler criterion; counts
are compared with the paper and OEIS; equivalence classes with a brute-force
canonical form; frequency scans with the benchmark's own triple count and
the per-class counts printed at the seed commit.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from collections import Counter
from decimal import Decimal
from functools import lru_cache
from math import isqrt

from resmat import higher
from resmat.cyclotomic import EisensteinInt, GaussianInt


class CheckError(Exception):
    pass


# Paper, Table 1: QR matrix counts and permutation classes, n = 2..6.
QR_MATRICES = {2: 4, 3: 40, 4: 768, 5: 27648, 6: 1900544}
QR_CLASSES = {2: 3, 3: 10, 4: 47, 5: 314, 6: 3360}
# Symmetric classes are graphs (OEIS A000088), skew ones tournaments (A000568).
GRAPHS = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
TOURNAMENTS = {2: 1, 3: 2, 4: 4, 5: 12, 6: 56}

PAPER_BOUND, PAPER_TOTAL = 2457615, 306386
HALF_ULP = Decimal("0.0000005")  # frequencies are printed to 6 places
# Per-class counts printed by `resmat freq --bound B` at the seed commit.
SEED_CLASS_COUNTS = {
    2457615: (11378, 27671, 42431, 33078, 38815, 33064, 50030, 13318, 37536, 19065),
    5 * 10**6: (24619, 58194, 89255, 68251, 79995, 68182, 104260, 27188, 76782, 39079),
    10**7: (51746, 119270, 183705, 137529, 161499, 137698, 212065, 54604, 153885, 78873),
}


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _exit_ok(out):
    code, text = out
    _require(code == 0, f"exit code {code}")
    return text.split()


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def odd_primes(bound):
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return [p for p in range(3, bound + 1, 2) if sieve[p]]


@lru_cache(maxsize=None)
def triple_count(bound):
    """Number of odd primes p < q < r with p * q * r <= bound."""
    primes = odd_primes(bound // 15)
    total = 0
    for i, p in enumerate(primes[:-2]):
        if p * primes[i + 1] * primes[i + 2] > bound:
            break
        for j in range(i + 1, len(primes) - 1):
            q = primes[j]
            if p * q * primes[j + 1] > bound:
                break
            total += bisect_right(primes, bound // (p * q)) - (j + 1)
    return total


def check_witness(m, entries, out):
    lines = _exit_ok(out)
    n = len(entries)
    _require(len(lines) == n + 1, f"expected {n} witnesses and a verdict, got {lines}")
    _require(lines[-1] == "VERIFIED", f"verdict {lines[-1]!r}")
    if m == 2:
        _check_qr_witness(entries, [int(t) for t in lines[:-1]])
    else:
        _check_higher_witness(m, entries, lines[:-1])


def _check_qr_witness(entries, primes):
    _require(len(set(primes)) == len(primes), f"witnesses not distinct: {primes}")
    for p in primes:
        _require(p % 2 == 1 and is_prime(p), f"{p} is not an odd prime")
    for (i, p), (j, q) in itertools.permutations(enumerate(primes), 2):
        # Euler's criterion: (p/q) = 1 iff p^((q-1)/2) = 1 mod q; exponent 1 is -1.
        got = 0 if pow(p, (q - 1) // 2, q) == 1 else 1
        _require(got == entries[i][j], f"({p}/{q}) disagrees with entry ({i},{j})")


_ELEMENT = re.compile(r"(-?\d+)?(?:([+-]?)(\d*)([iw]))?")


def parse_element(text, letter):
    """Parse the printed form a, a+bX, a-bX, bX, X, -X of a + b*X."""
    match = _ELEMENT.fullmatch(text)
    _require(match and match.group(4) in (None, letter), f"bad element {text!r}")
    a_text, sign, digits, unit = match.groups()
    a = int(a_text) if a_text else 0
    if unit is None:
        return a, 0
    b = int(digits) if digits else 1
    if a_text and not sign:  # "3w", "-2i": a lone coefficient
        return 0, a * b
    return a, -b if sign == "-" else b


def _check_higher_witness(m, entries, tokens):
    letter, ring = ("w", EisensteinInt) if m == 3 else ("i", GaussianInt)
    elements = [parse_element(t, letter) for t in tokens]
    _require(len(set(elements)) == len(elements), f"witnesses not distinct: {tokens}")
    for (a, b), token in zip(elements, tokens):
        if m == 3:
            norm, primary = a * a - a * b + b * b, a % 3 == 1 and b % 3 == 0
            inert = 2
        else:
            norm, primary = a * a + b * b, (a % 4, b % 4) in ((1, 0), (3, 2))
            inert = 3
        _require(primary, f"{token} is not primary")
        p = isqrt(norm)
        prime = is_prime(norm) or (
            p * p == norm and is_prime(p) and p % m == inert and a % p == b % p == 0
        )
        _require(prime, f"{token} is not a prime element")
    # Distinct primary elements generate distinct ideals, since each ideal
    # has exactly one primary generator.
    recompute = higher.cubic_matrix if m == 3 else higher.quartic_matrix
    got = recompute([ring(a, b) for a, b in elements]).entries
    _require(got == entries, f"witnesses {tokens} give another matrix")


def check_count(kind, classes, n, out):
    lines = _exit_ok(out)
    if kind == "qr":
        want = (QR_CLASSES if classes else QR_MATRICES)[n]
    elif classes:
        want = (GRAPHS if kind == "symmetric" else TOURNAMENTS)[n]
    else:
        want = 1 << (n * (n - 1) // 2)
    _require(lines == [str(want)], f"count {lines}, expected {want}")


def canonical_key(entries):
    """Least row-major key over all conjugates, the zero diagonal as -1."""
    n = len(entries)
    flat = [[-1 if e is None else e for e in row] for row in entries]
    return min(
        tuple(flat[s[i]][s[j]] for i in range(n) for j in range(n))
        for s in itertools.permutations(range(n))
    )


def check_classes(batch, classes):
    want = Counter(canonical_key(entries) for entries in batch)
    got = [
        (tuple(-1 if e is None else e for row in rep.entries for e in row), count)
        for rep, count in classes
    ]
    _require(dict(got) == want, "classes differ from the brute-force partition")
    _require(len(got) == len(want), "a class is listed twice")
    _require([key for key, _ in got] == sorted(want), "classes not in canonical order")


def check_freq(bound, out):
    lines = _exit_ok(out)
    text = " ".join(lines)
    rows = re.findall(r"count (\d+) frequency ([\d.]+)", text)
    counts = tuple(int(c) for c, _ in rows)
    total = re.search(r"total: (\d+)", text)
    _require(total is not None, "no total printed")
    total = int(total.group(1))
    _require(total == triple_count(bound), f"total {total}, expected {triple_count(bound)}")
    if bound == PAPER_BOUND:
        _require(total == PAPER_TOTAL, f"total {total}, paper has {PAPER_TOTAL}")
    _require(sum(counts) == total, "class counts do not sum to the total")
    for c, f in rows:
        _require(abs(Decimal(f) - Decimal(c) / total) <= HALF_ULP, f"frequency {f}")
    if bound in SEED_CLASS_COUNTS:
        _require(counts == SEED_CLASS_COUNTS[bound], f"class counts {counts} changed")
