"""Sign matrices over roots of unity and permutation-equivalence machinery.

Entries are exponents of a fixed primitive m-th root of unity (never floats),
with ``None`` as the distinguished zero diagonal entry.  The entry order used
for canonical forms is None < zeta^0 < zeta^1 < ... so canonical forms are
bit-reproducible.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial, gcd
from operator import itemgetter

from .errors import UnsupportedDimensionError
from .records import Record, setfield

CANONICAL_DIMENSION_LIMIT = 8
# Largest n the census counters accept; their cost grows with the number of
# partitions of n, not with n!.
COUNT_MAX_N = 20

_SIGN_TO_EXP = {1: 0, -1: 1}
_EXP_TO_SIGN = {0: 1, 1: -1}


def _sign_exp(i, j, v):
    if v not in (1, -1):
        raise ValueError(f"off-diagonal entry ({i},{j}) must be +1 or -1, got {v!r}")
    return _SIGN_TO_EXP[v]


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
            tuple(None if i == j else _sign_exp(i, j, v) for j, v in enumerate(row))
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
        ent = self.entries
        return SignMatrix.from_symbol(self.m, range(self.n), lambda i, j: ent[j][i])

    def negate(self):
        """Entrywise multiplication by -1 off the diagonal (m even)."""
        m, ent = self.m, self.entries
        if m % 2 != 0:
            raise ValueError("-1 is not an m-th root of unity for odd m")
        return SignMatrix.from_symbol(
            m, range(self.n), lambda i, j: (ent[i][j] + m // 2) % m
        )

    def is_symmetric(self):
        return self == self.transpose()

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


class CycleType(tuple):
    """The invariants of one cycle type of S_n that the fixed-point counts
    read, as the tuple (size, pairs, odd, even, fixed):

    - size: permutations of this type, n! / prod(c^k * k!) over its k
      cycles of each length c
    - pairs: orbits on unordered pairs {i, j}
    - odd: odd cycles, fixed points included
    - even: even cycles
    - fixed: fixed points
    """

    # a tuple subclass: collections.namedtuple would take longer to define
    # than the rest of this module takes to import
    __slots__ = ()
    size = property(itemgetter(0))
    pairs = property(itemgetter(1))
    odd = property(itemgetter(2))
    even = property(itemgetter(3))
    fixed = property(itemgetter(4))


def cycle_types(n):
    """The p(n) cycle types of S_n, one CycleType each.

    The walk adds cycle lengths largest first, k copies of a length at a
    time, and carries the invariants down its edges.  k copies of length c
    divide the class size by c^k * k! and add k*(c//2) + C(k,2)*c +
    k*sum(k_d * gcd(c, d)) pair orbits, the sum running over the runs of k_d
    cycles of length d > c added before them.  The types come in descending
    lexicographic order of their partitions of n.
    """

    def walk(rest, largest, runs, size, pairs, odd, even):
        for c in range(min(rest, largest), 1, -1):
            across = c // 2 + sum(k_d * gcd(c, d) for d, k_d in runs)
            for k in range(rest // c, 0, -1):
                yield from walk(
                    rest - k * c,
                    c - 1,
                    runs + ((c, k),),
                    size // (c**k * factorial(k)),
                    pairs + k * across + k * (k - 1) // 2 * c,
                    odd + k * (c % 2),
                    even + k * (1 - c % 2),
                )
        # the rest are fixed points: one pair orbit for each two of them, and
        # one for each fixed point and cycle of the odd + even cycles so far
        yield CycleType((
            size // factorial(rest),
            pairs + rest * (rest - 1) // 2 + rest * (odd + even),
            odd + rest,
            even,
            rest,
        ))

    return walk(n, n, (), factorial(n), 0, 0, 0)


def orbit_class_count(n, fixed):
    """Number of permutation-equivalence classes of a conjugation-closed set.

    fixed(t) is the number of members that a permutation of CycleType t
    fixes; by Burnside's lemma the class count is the average of that number
    over all n! permutations.
    """
    _check_count_range(n)
    total = sum(t.size * fixed(t) for t in cycle_types(n))
    classes, rest = divmod(total, factorial(n))
    if rest:
        raise RuntimeError(f"fixed-point counts for n={n} do not average to an integer")
    return classes


def identity_term(n, fixed):
    """Members of a conjugation-closed set: the identity term of Burnside's sum.

    The identity, of type 1^n, fixes every member.
    """
    _check_count_range(n)
    return fixed(CycleType((1, n * (n - 1) // 2, n, 0, n)))


def fixed_symmetric(t):
    """Symmetric sign matrices fixed by a permutation of CycleType t."""
    return 1 << t.pairs


def fixed_skew(t):
    """Skew-symmetric sign matrices fixed by a permutation of CycleType t."""
    return 0 if t.even else 1 << t.pairs


def _check_count_range(n):
    """The range rule of every census counter: 1 <= n <= COUNT_MAX_N."""
    if not 1 <= n <= COUNT_MAX_N:
        raise UnsupportedDimensionError(f"n must be in 1..{COUNT_MAX_N}, got {n}")


def count_symmetric_classes(n):
    """Permutation-equivalence classes of symmetric n x n sign matrices."""
    return orbit_class_count(n, fixed_symmetric)


def count_skew_classes(n):
    """Permutation-equivalence classes of skew-symmetric n x n sign matrices."""
    return orbit_class_count(n, fixed_skew)
