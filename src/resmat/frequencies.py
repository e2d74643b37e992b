"""Splitting-configuration classes of prime triples and their frequencies."""

from __future__ import annotations

import itertools
from math import isqrt

from .matrices import SignMatrix
from .qr import qr_matrix_from_primes
from .rational import odd_prime_flags
# not called here since the scan reads (q/p) from its masks; still bound
# because perfbench/test_perfbench.py checks that the tracer rebinds it here
from .rational import legendre  # noqa: F401
from .records import Record, setfield

NUM_CLASSES = 10

MIN_PRODUCT_BOUND = 105  # 3 * 5 * 7, the smallest admissible triple product


class ConfigClass(Record):
    """One of the 10 splitting-configuration types of a prime triple.

    class_id is the 1-based index in ascending canonical-form order.
    """

    __slots__ = ("class_id", "representative")
    class_id: int
    representative: SignMatrix

    def __init__(self, class_id, representative):
        setfield(self, "class_id", class_id)
        setfield(self, "representative", representative)


class FrequencyReport(Record):
    """Per-class counts and frequencies, indexed by class_id - 1.

    Frequencies are exact rationals: counts[i] / total.
    """

    __slots__ = ("counts", "total")
    counts: tuple[int, ...]
    total: int

    def __init__(self, counts, total):
        setfield(self, "counts", counts)
        setfield(self, "total", total)

    @property
    def frequencies(self):
        from fractions import Fraction  # only callers of this property pay its import

        if self.total == 0:
            return tuple(Fraction(0) for _ in self.counts)
        return tuple(Fraction(c, self.total) for c in self.counts)


_PAIRS = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))


def _code_of_entries(entries):
    # 6-bit code of a 3x3 m=2 matrix: bit t is the exponent at _PAIRS[t]
    return sum(entries[i][j] << t for t, (i, j) in enumerate(_PAIRS))


def _matrix_of_code(code):
    rows = [[None] * 3 for _ in range(3)]
    for t, (i, j) in enumerate(_PAIRS):
        rows[i][j] = code >> t & 1
    return SignMatrix(2, rows)


# The codes of the 40 QR 3x3 sign matrices, grouped by configuration class in
# class_id order; each group starts with the code of the class's canonical
# form.  tests/test_frequencies.py derives the same table by classifying all
# 64 codes with is_qr_matrix and canonical_form.
_CLASS_CODES = (
    (0,),
    (32, 1, 2, 4, 8, 16),
    (48, 3, 12),
    (56, 7, 13, 19, 44, 50),
    (42, 21, 22, 26, 37, 41),
    (52, 11, 14, 28, 35, 49),
    (60, 15, 51),
    (38, 25),
    (62, 31, 47, 55, 59, 61),
    (63,),
)
_CLASS_OF_CODE = {
    code: class_id
    for class_id, codes in enumerate(_CLASS_CODES, start=1)
    for code in codes
}
_REPRESENTATIVES = tuple(_matrix_of_code(codes[0]) for codes in _CLASS_CODES)


def class_representatives():
    """The 10 canonical class representatives in class_id order."""
    return [ConfigClass(i + 1, rep) for i, rep in enumerate(_REPRESENTATIVES)]


def configuration_class(p, q, r):
    """The configuration class of a triple of distinct odd primes."""
    mat = qr_matrix_from_primes((p, q, r))  # raises ValueError on bad input
    class_id = _CLASS_OF_CODE[_code_of_entries(mat.entries)]
    return ConfigClass(class_id, _REPRESENTATIVES[class_id - 1])


def _triple_code(p3, q3, r3, qp, rp, rq):
    """The _PAIRS code of a triple p, q, r from its classes mod 4 (1 for 3 mod 4)
    and its reverse symbols (q/p), (r/p), (r/q) (1 for -1).

    The one place reciprocity is applied: (a/b) = (b/a) unless a = b = 3 (mod 4).
    """
    pq, pr, qr = qp ^ (p3 & q3), rp ^ (p3 & r3), rq ^ (q3 & r3)
    return pq | qp << 1 | pr << 2 | rp << 3 | qr << 4 | rq << 5


def exact_frequencies():
    """The exact model frequencies over the 64 equiprobable triple outcomes.

    Each prime is independently 1 or 3 mod 4, and each unordered pair has one
    free symbol bit; _triple_code forces the other by quadratic reciprocity.
    """
    counts = [0] * NUM_CLASSES
    for bits in itertools.product((0, 1), repeat=6):
        counts[_CLASS_OF_CODE[_triple_code(*bits)] - 1] += 1
    return FrequencyReport(tuple(counts), 64)


def _bitset(digits):
    """Int whose bit k is digits[k], an ASCII 0/1 bytearray (reversed in place)."""
    digits.reverse()  # int() reads the most significant digit first
    return int(digits, 2)


def _periodic_bitset(pattern, period, size):
    """Int of size bits whose bit k is bit k % period of pattern.

    The pattern is doubled (pattern |= pattern << period) until it covers
    size bits, so each step is one shift and one OR over the bits so far.
    """
    while period < size:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << size) - 1)


def _legendre_pattern(x, squares):
    """Int of x bits, bit k set when (r/x) = -1 for the odd integer r = 2k + 1.

    (r/x) depends only on r mod x, and r = 2k + 1 runs over every class mod
    x as k does, so the pattern has period x in k.  squares lists 1, 4, 9,
    ..., at least up to ((x - 1) / 2)^2.
    """
    nonresidue = bytearray(b"1") * x
    nonresidue[0] = 48  # "0": (x/x) = 0
    for s in squares[: (x - 1) // 2]:
        nonresidue[s % x] = 48
    return _bitset((nonresidue * 2)[1::2])


def empirical_scan(product_bound):
    """Classify every triple of distinct odd primes p < q < r with pqr <= bound.

    For fixed p < q the class of (p, q, r) depends only on (r/p), (r/q) and
    r mod 4, since reciprocity fixes (p/r) and (q/r) from them.  So each
    (p, q) window of r is counted with popcounts of bitsets over the odd
    integers (bit k stands for 2k + 1) instead of one triple at a time, and
    windows are typed by (q/p) and the classes of p and q mod 4.  The mask of
    (r/x) has period x in k, so it is built by doubling its period, and only
    the primes that can be p or q are listed.  Reciprocity is applied once,
    by _triple_code, to the counts of each window type.
    """
    if product_bound < MIN_PRODUCT_BOUND:
        raise ValueError(
            f"product bound must be >= {MIN_PRODUCT_BOUND}, got {product_bound}"
        )
    flags = odd_prime_flags(product_bound // 15)  # r <= bound / (3 * 5)
    size = len(flags)
    # p and q satisfy x^2 < bound / 3, and p < q < r
    top = isqrt(product_bound // 3)
    small = list(itertools.compress(range(1, top + 1, 2), flags[: (top + 1) // 2]))
    primes_bits = _bitset(flags.translate(bytes.maketrans(b"\0\1", b"01")))
    del flags  # one byte per odd integer, 8 times the size of primes_bits
    three_mod_4 = _periodic_bitset(0b10, 2, size)
    # k^2 for every k up to (x - 1) / 2 of the largest x, shared by the masks
    squares = [k * k for k in range(1, top // 2 + 1)]
    # N_x, bit k set when (2k+1 / x) = -1, up to the widest window x is in:
    # bound // 3x as q with p = 3, and size for x = p = 3
    nonres = [
        _periodic_bitset(
            _legendre_pattern(x, squares),
            x,
            min(size, (product_bound // (3 * x) + 1) // 2),
        )
        for x in small
    ]
    # Per window type t = [(q/p) = -1] | [p = 3 (mod 4)] << 1 | [q = 3] << 2,
    # the popcounts of W & P^a & Q^b & Z^c summed at index a | b << 1 | c << 2,
    # where W is the window's primes, P = N_p, Q = N_q and Z = three_mod_4
    sums = [[0] * 8 for _ in range(8)]
    for ai, p in enumerate(small):
        if p * (p + 2) * (p + 4) > product_bound:
            break
        for bi in range(ai + 1, len(small)):
            q = small[bi]
            if p * q * (q + 2) > product_bound:
                break
            # r = 2k + 1 with q < r <= bound // (pq)
            lo, hi = (q + 1) // 2, (product_bound // (p * q) + 1) // 2
            w = primes_bits & ((1 << hi) - (1 << lo))
            pw, qw, zw = w & nonres[ai], w & nonres[bi], w & three_mod_4
            # (q/p) = -1 is bit (q - 1) / 2 of N_p, whose bits cover the odd
            # integers up to bound // 3p, past q as pq(q + 2) <= bound; an AND
            # with that one bit reads it without copying N_p as a shift would
            s = sums[(nonres[ai] & 1 << (q >> 1) > 0) | (p & 2) | (q & 2) << 1]
            s[0] += w.bit_count()
            s[1] += pw.bit_count()
            s[2] += qw.bit_count()
            s[4] += zw.bit_count()
            # at most five window-wide ints are alive at once: W goes before
            # PQ is built, and the rest before the next window is
            del w
            pqw = pw & qw
            s[3] += pqw.bit_count()
            s[5] += (pw & zw).bit_count()
            s[6] += (qw & zw).bit_count()
            s[7] += (pqw & zw).bit_count()
            del pw, qw, zw, pqw
    counts = [0] * NUM_CLASSES
    for t, cells in enumerate(sums):
        # Moebius inversion over the subsets of {P, Q, Z}: cells[c] becomes
        # the number of r in exactly the masks of c
        for bit in (1, 2, 4):
            for c in range(8):
                if not c & bit:
                    cells[c] -= cells[c | bit]
        qp, p3, q3 = t & 1, t >> 1 & 1, t >> 2
        for c, n in enumerate(cells):
            code = _triple_code(p3, q3, c >> 2, qp, c & 1, c >> 1 & 1)
            counts[_CLASS_OF_CODE[code] - 1] += n
    return FrequencyReport(tuple(counts), sum(counts))
