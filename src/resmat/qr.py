"""Quadratic residue matrices: membership, block form, witnesses, and counts."""

from __future__ import annotations

import itertools
from math import gcd, inf

from . import rational
from .errors import NotAResidueMatrixError, SearchExhaustedError
from .matrices import SignMatrix, identity_term, orbit_class_count
from .rational import class_primes, is_prime, jacobi, legendre, odd_prime_blocks
from .records import Record, setfield

# The sieve blocks a witness search keeps for its whole run: the first eleven
# odd_prime_blocks, the doubling ones up to 2**22 (2 MB of flags).  Every walk
# reads the blocks from the first, so the first blocks sieved are these, each
# is sieved once per search, and each block past 2**22 once per walk over it.
CACHED_BLOCKS = 11


class Decision(Record):
    """One membership decision for m = 2, 3, 4 (decide).

    diag holds the pair terms summed by row and pairwise_ok says whether
    every term is +1 or -1 (_pair_diagonal).  For a member, s is the split
    size (smallest when several match) and perm puts the s skew-block
    indices first, so the conjugate by perm has an s x s skew-symmetric
    upper-left block and a symmetric rest; both are None for a non-member.
    A decision is true exactly when its verdict is.
    """

    __slots__ = ("verdict", "s", "pairwise_ok", "diag", "perm")
    verdict: bool
    s: int | None
    pairwise_ok: bool
    diag: tuple[int, ...]
    perm: tuple[int, ...] | None

    def __init__(self, verdict, s, pairwise_ok, diag, perm):
        setfield(self, "verdict", verdict)
        setfield(self, "s", s)
        setfield(self, "pairwise_ok", pairwise_ok)
        setfield(self, "diag", diag)
        setfield(self, "perm", perm)

    def __bool__(self):
        return self.verdict


def _sign_exponent(symbol):
    """symbol(a, b) = +1 resp. -1 as the exponent 0 resp. 1 of -1."""
    return lambda a, b: (1 - symbol(a, b)) // 2


def qr_matrix_from_primes(primes):
    """The sign matrix of Legendre symbols (p_i / p_j) for distinct odd primes."""
    primes = list(primes)
    if len(set(primes)) != len(primes):
        raise ValueError(f"primes must be distinct: {primes}")
    for p in primes:
        if p % 2 == 0 or not is_prime(p):
            raise ValueError(f"not an odd prime: {p}")
    return SignMatrix.from_symbol(2, primes, _sign_exponent(legendre))


def _pair_diagonal(matrix):
    """(pairwise_ok, diag) from the pair terms zeta^(M[i][j] - M[j][i]).

    One membership criterion for m = 2, 3, 4: every term is +1 or -1
    (pairwise_ok), and diag, the +-1 terms summed by row (diag(M^2) for m=2,
    the real part of diag(M * conj(M)) for m=4), has the pattern of
    split_size.  For m=3 no term is -1: the criterion is symmetry.
    """
    m, ent = matrix.m, matrix.entries
    pairwise_ok, diag = True, [0] * len(ent)
    for i, j in itertools.combinations(range(len(ent)), 2):
        d = (ent[i][j] - ent[j][i]) % m  # (j, i) has the conjugate term
        if 2 * d % m:
            pairwise_ok = False  # the term is +-i, w or w^2
        else:
            diag[i] += 1 if d == 0 else -1
            diag[j] += 1 if d == 0 else -1
    return pairwise_ok, tuple(diag)


def split_size(diag):
    """The smallest s matching the s-multiset diagonal pattern, or None.

    The pattern is s occurrences of n+1-2s and n-s occurrences of n-1; the
    only ambiguity is the fully symmetric diagonal (all n-1), where s=1.
    """
    n = len(diag)
    off = [d for d in diag if d != n - 1]
    if not off:
        return 1
    s = len(off)
    if all(d == n + 1 - 2 * s for d in off):
        return s
    return None


def decide(matrix):
    """Membership for m = 2, 3, 4 from one pass of _pair_diagonal.

    A member has every pair term +-1 and a diagonal with the pattern of
    split_size.  Its skew block is the indices whose diagonal entry is
    n+1-2s, in stable order; a symmetric matrix, every cubic member among
    them, has s=1, and its first index is designated as the 1x1 skew block.
    """
    pairwise_ok, diag = _pair_diagonal(matrix)
    s = split_size(diag) if pairwise_ok else None
    if s is None:
        return Decision(False, None, pairwise_ok, diag, None)
    n = len(diag)
    skew = [i for i, d in enumerate(diag) if d != n - 1] or [0]
    rest = [i for i in range(n) if i not in skew]
    return Decision(True, s, pairwise_ok, diag, tuple(skew + rest))


def _check_m(matrix, m):
    if matrix.m != m:
        raise ValueError(f"expected an m={m} sign matrix, got m={matrix.m}")


def is_qr_matrix(matrix):
    """The decision for an m=2 matrix: diag is the diagonal of M^2."""
    _check_m(matrix, 2)
    return decide(matrix)


def block_form(matrix):
    """The member's decision, for its perm and s; a non-member raises."""
    dec = decide(matrix)
    if not dec.verdict:
        raise NotAResidueMatrixError(f"not a residue matrix for m={matrix.m}")
    return dec


def _column_search(matrix, m, limit, find, build):
    """The witnesses for m = 2, 3, 4 by the paper's induction, column by column.

    A matrix of another m is a ValueError before any block is sieved.
    Column k calls find(k, chosen, c, walk): c is the column's class mod 2m,
    and walk(residues, modulus) iterates the primes p <= limit with p mod
    modulus in residues, ascending, where the residues lie in that class.
    find returns the first of the ring's candidates whose symbols against
    chosen match the matrix, or None.  The class is m + 1 on the block
    form's skew block for even m (3 mod 4, resp. 5 mod 8, the norms of the
    primary primes = 3+2i mod 4) and 1 elsewhere.  Each walk reads the
    odd_prime_blocks afresh: the CACHED_BLOCKS blocks up to 2**22 are sieved
    once and kept for the search, each block past them is sieved for the walk
    that reads it and dropped, and an exhausted column has tried every prime
    of its class.  build recomputes every symbol of the witnesses in both
    directions, so the check that it gives the matrix also guards each
    find's shortcuts.
    """
    _check_m(matrix, m)
    bd = block_form(matrix)
    skew = set(bd.perm[: bd.s])
    flags, kept = rational.odd_prime_flags, {}

    def sieve(bound, lo):
        block = kept.get(lo)
        if block is None:
            block = flags(bound, lo)
            if len(kept) < CACHED_BLOCKS:
                kept[lo] = block
        return block

    def walk(residues, modulus):
        return class_primes(odd_prime_blocks(limit, sieve), residues, modulus)

    chosen = []
    for k in range(matrix.n):
        c = m + 1 if k in skew and m % 2 == 0 else 1
        found = find(k, chosen, c, walk)
        if found is None:
            raise SearchExhaustedError(
                f"no prime of norm <= {limit} realizes column {k + 1}",
                limit=limit,
                column=k + 1,
                tried=sum(1 for _ in walk((c,), 2 * m)),
            )
        chosen.append(found)
    if build(chosen) != matrix:
        raise RuntimeError(f"witnesses {chosen} do not reproduce the matrix")
    return chosen


def _wheel(c, targets):
    """The sorted residues r mod 4 q_1 ... q_J with r = c (mod 4) and
    r^e = want (mod q) for each target (q, e, want).

    The q are distinct odd primes.  The residues mod each q are the a in
    1 .. q - 1 that meet its target, joined by the Chinese remainder theorem.
    """
    residues, modulus = [c], 4
    for q, e, want in targets:
        wanted = [a for a in range(1, q) if pow(a, e, q) == want]
        inverse = pow(modulus, -1, q)
        residues = [
            r + modulus * ((a - r) * inverse % q) for r in residues for a in wanted
        ]
        modulus *= q
    return sorted(residues)


def witness_primes(matrix, limit=inf):
    """Distinct odd primes whose QR matrix equals the input exactly.

    The _column_search that tests only the symbols (p / p_j): by quadratic
    reciprocity (p / p_j)(p_j / p) = -1 exactly when p and p_j are both
    3 mod 4, which is what the block form asks of M[j][k] against M[k][j],
    so the reverse symbols follow from the classes.

    Each symbol is tested by Euler's criterion against a target fixed for
    the column: (p / p_j) = M[k][j] exactly when p^((p_j-1)/2) is 1 resp.
    p_j - 1 mod p_j.  A target depends on p mod p_j alone, so column k walks
    a wheel: the targets of its smallest earlier primes q_1 < ... < q_J,
    taken while M = 4 q_1 ... q_J stays <= 2^(k-1), half the column's
    expected 2^k candidates, fix p mod M to the residues of _wheel (about
    2^-J of the class), and the walk reads the sieve flags of those p
    alone.  A candidate then costs one pow per other earlier prime, up to
    the first mismatch, and no legendre call.  The walk is ascending and
    the wheel exact, so the witness is the first prime of the class that
    meets every target.  With no limit, the default, each column ends there,
    as each wheel residue is prime to its modulus (Dirichlet's theorem).
    """

    def find(k, primes, c, walk):
        row = matrix.entries[k]
        # (pj, e, want): the candidate's power p^e mod pj must equal want,
        # smallest pj first; an earlier prime fails its own target, since its
        # power is 0, and no wheel residue is 0 mod its prime
        targets = sorted(
            (pj, (pj - 1) // 2, pj - 1 if row[j] else 1)
            for j, pj in enumerate(primes)
        )
        # the wheel: the first targets, while M = 4 q_1 ... q_J <= 2^(k-1)
        wheel, modulus = 0, 4
        while wheel < k and modulus * targets[wheel][0] <= 1 << (k - 1):
            modulus *= targets[wheel][0]
            wheel += 1
        rest = targets[wheel:]
        for p in walk(_wheel(c, targets[:wheel]), modulus):
            for pj, e, want in rest:
                if pow(p, e, pj) != want:
                    break
            else:
                return p
        return None

    return _column_search(matrix, 2, limit, find, qr_matrix_from_primes)


def jacobi_matrix(values):
    """The sign matrix of Jacobi symbols for pairwise-coprime odd values > 1."""
    values = list(values)
    for v in values:
        if v <= 1 or v % 2 == 0:
            raise ValueError(f"values must be odd and > 1: {v}")
    for a, b in itertools.combinations(values, 2):
        if gcd(a, b) != 1:
            raise ValueError(f"values are not pairwise coprime: {a}, {b}")
    return SignMatrix.from_symbol(2, values, _sign_exponent(jacobi))


# --- counting ---
#
# The pair products t_ij = M[i][j]*M[j][i] of a QR matrix are -1 exactly on
# the pairs inside one red set R with |R| >= 2, or nowhere (the block form).
# That leaves 2^n - n choices of R; given R, the upper triangle is free and
# the lower one forced, so there are (2^n - n) * 2^(n(n-1)/2) QR matrices.
# A permutation sigma fixes one only if it fixes R, so R is a union of cycles
# of sigma; inside R the matrix is skew, so those cycles must be odd (see
# matrices.fixed_skew), and each pair orbit of sigma carries one free sign.


def count_qr_matrices(n):
    """Number of n x n QR matrices, (2^n - n) * 2^(n(n-1)/2).

    Burnside's identity term, as the identity fixes every member: 1, 4,
    40, 768, 27648, 1900544 for n = 1..6.
    """
    return identity_term(n, fixed_qr)


def fixed_qr(t):
    """QR matrices fixed by a permutation of CycleType t.

    R is empty or a union of odd cycles other than a single fixed point.
    """
    return ((1 << t.odd) - t.fixed) << t.pairs


def count_qr_classes(n):
    """Permutation-equivalence classes of n x n QR matrices."""
    return orbit_class_count(n, fixed_qr)


# --- graph encoding of QR matrices ---


class ConfigGraph(Record):
    """Partially-directed edge-labeled graph encoding a QR matrix.

    Vertices 0..n-1 are colored red (skew block: primes = 3 mod 4) or blue.
    Each red-red pair carries one directed edge (i, j) meaning (p_i/p_j) = +1
    and (p_j/p_i) = -1; every other pair carries a +1/-1 label, the common
    symbol value.  Colorings are canonical: either >= 2 red vertices, or the
    single red vertex 0 (the designated skew index of a symmetric matrix).
    """

    __slots__ = ("n", "red", "directed", "labels")
    n: int
    red: frozenset[int]
    directed: frozenset[tuple[int, int]]
    labels: tuple[tuple[tuple[int, int], int], ...]

    def __init__(self, n, red, directed, labels):
        setfield(self, "n", n)
        setfield(self, "red", red)
        setfield(self, "directed", directed)
        setfield(self, "labels", labels)
        if not self.red or not self.red <= set(range(self.n)):
            raise ValueError("red set must be a nonempty subset of the vertices")
        if len(self.red) == 1 and self.red != {0}:
            raise ValueError("a lone red vertex must be vertex 0")
        pairs = list(itertools.combinations(range(self.n), 2))
        red_red = [(i, j) for i, j in pairs if i in self.red and j in self.red]
        if sorted((min(e), max(e)) for e in self.directed) != red_red:
            raise ValueError("exactly one directed edge per red-red pair required")
        other = [(i, j) for i, j in pairs if not (i in self.red and j in self.red)]
        if sorted(pair for pair, _ in self.labels) != other:
            raise ValueError("exactly one labeled edge per non-red-red pair required")
        if any(v not in (1, -1) for _, v in self.labels):
            raise ValueError("edge labels must be +1 or -1")


def to_config_graph(matrix):
    """Encode a QR matrix as its configuration graph."""
    bd = block_form(matrix)
    red = frozenset(bd.perm[: bd.s])
    signs = matrix.signs()
    directed, labels = set(), []
    for i, j in itertools.combinations(range(matrix.n), 2):
        if i in red and j in red:
            directed.add((i, j) if signs[i][j] == 1 else (j, i))
        else:
            labels.append(((i, j), signs[i][j]))
    return ConfigGraph(matrix.n, red, frozenset(directed), tuple(labels))


def from_config_graph(graph):
    """Decode a configuration graph back to its QR matrix."""
    sign = {}
    for (i, j), v in graph.labels:
        sign[i, j] = sign[j, i] = v
    for (i, j) in graph.directed:
        sign[i, j], sign[j, i] = 1, -1
    exponent = _sign_exponent(lambda i, j: sign[i, j])
    return SignMatrix.from_symbol(2, range(graph.n), exponent)
