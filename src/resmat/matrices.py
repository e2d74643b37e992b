"""Sign matrices over roots of unity and permutation-equivalence machinery.

Entries are exponents of a fixed primitive m-th root of unity (never floats),
with ``None`` as the distinguished zero diagonal entry.  The entry order used
for canonical forms is ZERO < zeta^0 < zeta^1 < ... so canonical forms are
bit-reproducible.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial, gcd

from .errors import UnsupportedDimensionError
from .records import Record, setfield

# The zero diagonal entry.  Off-diagonal entries are ints in [0, m).
ZERO = None

CANONICAL_DIMENSION_LIMIT = 8
# Largest n the census counters accept; their cost grows with the number of
# partitions of n, not with n!.
COUNT_MAX_N = 20

_SIGN_TO_EXP = {1: 0, -1: 1}
_EXP_TO_SIGN = {0: 1, 1: -1}


def _entry_key(e):
    return -1 if e is None else e


class SignMatrix(Record):
    """n x n matrix with zero diagonal and m-th roots of unity elsewhere.

    m = 2 gives ordinary sign matrices (exponent 0 is +1, exponent 1 is -1);
    m = 3 and m = 4 give the cubic and quartic "cyclotomic" variants.
    """

    __slots__ = ("m", "entries")
    m: int
    entries: tuple[tuple[int | None, ...], ...]

    def __init__(self, m, entries):
        # rows are stored as tuples, so that a matrix given by list rows
        # hashes and equals its tuple form; tuple rows are kept, not copied
        if type(entries) is not tuple or list in map(type, entries):
            entries = tuple(map(tuple, entries))
        setfield(self, "m", m)
        setfield(self, "entries", entries)
        if self.m not in (2, 3, 4):
            raise ValueError(f"modulus must be 2, 3 or 4, got {self.m}")
        n = len(self.entries)
        if n < 1:
            raise ValueError("matrix must have dimension >= 1")
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            for j, e in enumerate(row):
                if i == j:
                    if e is not None:
                        raise ValueError(f"diagonal entry ({i},{j}) must be zero")
                elif not isinstance(e, int) or not 0 <= e < self.m:
                    raise ValueError(
                        f"off-diagonal entry ({i},{j}) must be an exponent in "
                        f"[0,{self.m}), got {e!r}"
                    )

    @property
    def n(self):
        return len(self.entries)

    @classmethod
    def from_signs(cls, rows):
        """Build an m=2 matrix from rows of 0 / +1 / -1 values."""
        ent = tuple(
            tuple(None if i == j else _SIGN_TO_EXP[v] for j, v in enumerate(row))
            for i, row in enumerate(rows)
        )
        return cls(2, ent)

    @classmethod
    def from_symbol(cls, m, items, exponent):
        """The m-matrix of exponent(x_i, x_j) off the diagonal, zero on it."""
        ent = tuple(
            tuple(None if i == j else exponent(x, y) for j, y in enumerate(items))
            for i, x in enumerate(items)
        )
        return cls(m, ent)

    def signs(self):
        """Rows of 0 / +1 / -1 values (m=2 only)."""
        if self.m != 2:
            raise ValueError("signs() is only defined for m=2")
        return tuple(
            tuple(0 if e is None else _EXP_TO_SIGN[e] for e in row)
            for row in self.entries
        )

    def transpose(self):
        n = self.n
        return SignMatrix(
            self.m, tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n))
        )

    def negate(self):
        """Entrywise multiplication by -1 off the diagonal (m even)."""
        if self.m % 2 != 0:
            raise ValueError("-1 is not an m-th root of unity for odd m")
        half = self.m // 2
        return SignMatrix(
            self.m,
            tuple(
                tuple(None if e is None else (e + half) % self.m for e in row)
                for row in self.entries
            ),
        )

    def is_symmetric(self):
        n = self.n
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def _key(self):
        return tuple(_entry_key(e) for row in self.entries for e in row)


# Permutations are tuples of 0-based images: sigma[i] is the image of i.


def _check_perm(sigma, n):
    if len(sigma) != n or sorted(sigma) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {sigma!r}")


def conjugate(matrix, sigma):
    """Simultaneous row/column permutation: result[i][j] = M[sigma(i)][sigma(j)]."""
    n = matrix.n
    _check_perm(sigma, n)
    ent = tuple(
        tuple(matrix.entries[sigma[i]][sigma[j]] for j in range(n)) for i in range(n)
    )
    return SignMatrix(matrix.m, ent)


def canonical_form(matrix):
    """Lexicographically least conjugate over all n! permutations.

    The least under SignMatrix._key; min keeps the first of equal keys in
    itertools.permutations order, though equal keys mean equal matrices.
    Idempotent and constant on permutation-equivalence orbits.
    """
    n = matrix.n
    if n > CANONICAL_DIMENSION_LIMIT:
        raise UnsupportedDimensionError(
            f"canonical form is a factorial scan, limited to n <= "
            f"{CANONICAL_DIMENSION_LIMIT} (got {n})"
        )
    return min(
        (conjugate(matrix, sigma) for sigma in itertools.permutations(range(n))),
        key=SignMatrix._key,
    )


def equivalence_classes(matrices):
    """Partition matrices by permutation equivalence.

    Returns (canonical representative, orbit count) pairs in ascending
    canonical order.  Mixed n or m raise ValueError before any form is built.
    """
    matrices = list(matrices)
    if len({(mat.n, mat.m) for mat in matrices}) > 1:
        raise ValueError("all matrices must share the same n and m")
    classes = Counter(map(canonical_form, matrices))
    return sorted(classes.items(), key=lambda kv: kv[0]._key())


# --- class counts by Burnside's lemma over cycle types ---
#
# A permutation sigma fixes a symmetric sign matrix exactly when the matrix is
# constant on each sigma-orbit of unordered pairs {i, j}, so it fixes 2^k of
# them, k the number of pair orbits.  A skew-symmetric matrix needs one sign
# per pair orbit too, but an even cycle maps some pair {i, j} to (j, i),
# forcing M[i][j] = -M[i][j]; so the count is 2^k when all cycles are odd and
# 0 otherwise.  Both depend only on the cycle type of sigma (Harary-Palmer,
# Graphical Enumeration, ch. 1 and 5).


def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples of parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _cycle_type_size(cycles):
    """Number of permutations of sum(cycles) points with this cycle type."""
    size = factorial(sum(cycles))
    for length, mult in Counter(cycles).items():
        size //= length**mult * factorial(mult)
    return size


def pair_orbit_count(cycles):
    """Orbits on unordered pairs of a permutation with the given cycle type."""
    return sum(c // 2 for c in cycles) + sum(
        gcd(a, b) for a, b in itertools.combinations(cycles, 2)
    )


def orbit_class_count(n, fixed):
    """Number of permutation-equivalence classes of a conjugation-closed set.

    fixed(cycles) is the number of members that a permutation of cycle type
    cycles (a partition of n) fixes; by Burnside's lemma the class count is
    the average of that number over all n! permutations.
    """
    total = sum(_cycle_type_size(c) * fixed(c) for c in _partitions(n))
    classes, rest = divmod(total, factorial(n))
    if rest:
        raise RuntimeError(f"fixed-point counts for n={n} do not average to an integer")
    return classes


def fixed_symmetric(cycles):
    """Symmetric sign matrices fixed by a permutation of this cycle type."""
    return 1 << pair_orbit_count(cycles)


def fixed_skew(cycles):
    """Skew-symmetric sign matrices fixed by a permutation of this cycle type."""
    return 0 if any(c % 2 == 0 for c in cycles) else 1 << pair_orbit_count(cycles)


def _check_count_range(n):
    """The range rule of every census counter: 1 <= n <= COUNT_MAX_N."""
    if not 1 <= n <= COUNT_MAX_N:
        raise UnsupportedDimensionError(f"n must be in 1..{COUNT_MAX_N}, got {n}")


def count_symmetric_classes(n):
    """Permutation-equivalence classes of symmetric n x n sign matrices."""
    _check_count_range(n)
    return orbit_class_count(n, fixed_symmetric)


def count_skew_classes(n):
    """Permutation-equivalence classes of skew-symmetric n x n sign matrices."""
    _check_count_range(n)
    return orbit_class_count(n, fixed_skew)
