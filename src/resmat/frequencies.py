"""Splitting-configuration classes of prime triples and their frequencies."""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import isqrt

from .matrices import SignMatrix, canonical_form
from .qr import is_qr_matrix, qr_matrix_from_primes
from .rational import is_prime, odd_prime_flags
# not called here since the scan reads (p/q) from its masks; still bound
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


def _code_of_signs(signs):
    # 6-bit encoding of a 3x3 sign matrix: pairs (0,1),(1,0),(0,2),(2,0),(1,2),(2,1)
    code = 0
    for t, (i, j) in enumerate(((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))):
        if signs[i][j] == -1:
            code |= 1 << t
    return code


def _matrix_of_code(code):
    rows = [[0] * 3 for _ in range(3)]
    for t, (i, j) in enumerate(((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))):
        rows[i][j] = -1 if (code >> t) & 1 else 1
    return SignMatrix.from_signs(rows)


@lru_cache(maxsize=1)
def _class_table():
    """Maps each QR 3x3 code to its class_id; also returns representatives."""
    reps = {}
    for code in range(64):
        mat = _matrix_of_code(code)
        if is_qr_matrix(mat).verdict:
            reps.setdefault(canonical_form(mat), []).append(code)
    ordered = sorted(reps, key=lambda m: m._key())
    if len(ordered) != NUM_CLASSES:
        raise RuntimeError(
            f"expected {NUM_CLASSES} classes of 3x3 QR matrices, got {len(ordered)}"
        )
    table = {}
    for class_id, rep in enumerate(ordered, start=1):
        for code in reps[rep]:
            table[code] = class_id
    return table, tuple(ordered)


def class_representatives():
    """The 10 canonical class representatives in class_id order."""
    _, reps = _class_table()
    return [ConfigClass(i + 1, rep) for i, rep in enumerate(reps)]


def configuration_class(p, q, r):
    """The configuration class of a triple of distinct odd primes."""
    primes = (p, q, r)
    if len(set(primes)) != 3:
        raise ValueError(f"primes must be distinct: {primes}")
    for v in primes:
        if v % 2 == 0 or not is_prime(v):
            raise ValueError(f"not an odd prime: {v}")
    table, reps = _class_table()
    mat = qr_matrix_from_primes(primes)
    class_id = table[_code_of_signs(mat.signs())]
    return ConfigClass(class_id, reps[class_id - 1])


def exact_frequencies():
    """The exact model frequencies over the 64 equiprobable triple outcomes.

    Each prime is independently 1 or 3 mod 4, and each unordered pair has one
    free symbol bit; the reverse symbol is forced by quadratic reciprocity.
    """
    table, _ = _class_table()
    counts = [0] * NUM_CLASSES
    for classes in itertools.product((1, 3), repeat=3):
        for bits in itertools.product((1, -1), repeat=3):
            rows = [[0] * 3 for _ in range(3)]
            for (i, j), b in zip(((0, 1), (0, 2), (1, 2)), bits):
                rows[i][j] = b
                both3 = classes[i] == 3 and classes[j] == 3
                rows[j][i] = -b if both3 else b
            code = _code_of_signs(rows)
            counts[table[code] - 1] += 1
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


def _nonresidue_pattern(p):
    """Int of 2p bits, bit k set when (p/r) = -1 for the odd integer r = 2k + 1.

    By quadratic reciprocity (p/r) = (r/p) * (-1)^((p-1)/2 * (r-1)/2), so it
    depends only on r mod p (through the squares mod p) and on r mod 4: it
    is the odd half of a pattern over r mod 4p, that is a pattern over k
    mod 2p.
    """
    residue = bytearray(b"0") * p
    for k in range(1, (p + 1) // 2):
        residue[k * k % p] = 49  # "1"
    nonresidue = residue.translate(bytes.maketrans(b"01", b"10"))
    nonresidue[0] = 48  # "0": (p/p) = 0
    pattern = nonresidue * 4
    if p % 4 == 3:  # the sign flips for r = 3 (mod 4)
        pattern[3::4] = (residue * 4)[3::4]
    return _bitset(pattern[1::2])


def empirical_scan(product_bound):
    """Classify every triple of distinct odd primes p < q < r with pqr <= bound.

    For fixed p < q the class of (p, q, r) depends only on (p/r), (q/r) and
    r mod 4, since reciprocity fixes (r/p) and (r/q) from them.  So each
    (p, q) window of r is counted with popcounts of bitsets over the odd
    integers (bit k stands for 2k + 1) instead of one triple at a time.
    Every symbol mask is periodic in k, so it is built by doubling its
    period, and only the primes that can be p or q are listed.
    """
    if product_bound < MIN_PRODUCT_BOUND:
        raise ValueError(
            f"product bound must be >= {MIN_PRODUCT_BOUND}, got {product_bound}"
        )
    table, _ = _class_table()
    flags = odd_prime_flags(product_bound // 15)  # r <= bound / (3 * 5)
    size = len(flags)
    # p and q satisfy x^2 < bound / 3, and p < q < r
    top = isqrt(product_bound // 3)
    small = list(itertools.compress(range(1, top + 1, 2), flags[: (top + 1) // 2]))
    primes_bits = _bitset(flags.translate(bytes.maketrans(b"\0\1", b"01")))
    del flags  # one byte per odd integer, 8 times the size of primes_bits
    three_mod_4 = _periodic_bitset(0b10, 2, size)
    # N_x, bit k set when (x / 2k+1) = -1, up to the widest window x is in:
    # bound // 3x as q with p = 3, and size for x = p = 3
    nonres = [
        _periodic_bitset(
            _nonresidue_pattern(x),
            2 * x,
            min(size, (product_bound // (3 * x) + 1) // 2),
        )
        for x in small
    ]
    # Per window type t = [(p/q) = -1] | [p = 3 (mod 4)] << 1 | [q = 3] << 2,
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
            # (p/q) = -1 is bit (q - 1) / 2 of N_p, whose bits cover the odd
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
        pq, p3, q3 = t & 1, t >> 1 & 1, t >> 2
        # reciprocity: (b/a) = (a/b) unless a = b = 3 (mod 4)
        pair = pq | (pq ^ (p3 & q3)) << 1
        for c, n in enumerate(cells):
            x, y, z = c & 1, c >> 1 & 1, c >> 2
            code = pair | x << 2 | (x ^ (p3 & z)) << 3 | y << 4 | (y ^ (q3 & z)) << 5
            counts[table[code] - 1] += n
    return FrequencyReport(tuple(counts), sum(counts))
