"""Primes and quadratic symbols over the rational integers."""

from __future__ import annotations

from itertools import chain, compress, starmap, zip_longest
from math import isqrt

# Deterministic Miller-Rabin base set.  The least composite that is a strong
# pseudoprime to all of these bases is psi_12 = 318665857834031151167461
# = 399165290221 * 798330580441 (Sorenson and Webster 2017), so the test is
# exact below it; everything below 2**63 is covered with room to spare.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_LIMIT = 318665857834031151167461


def is_prime(n):
    """Deterministic primality test for n < MR_LIMIT (Miller-Rabin, fixed bases).

    Raises ValueError for n >= MR_LIMIT, where the fixed bases no longer
    decide primality.
    """
    if n < 2:
        return False
    if n >= MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {MR_LIMIT}, got {n}")
    for p in _MR_BASES:  # the first twelve primes
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_prime_flags(bound, lo=1):
    """Odd-only Eratosthenes sieve: flags[i] == 1 exactly when lo+2i <= bound is prime.

    One byte per odd number lo, lo+2, ..., <= bound (lo odd, >= 1), sieved by
    the odd primes up to isqrt(bound); empty for bound 0, [0] for bound 1 and 2.
    """
    if bound < 0 or lo < 1 or lo % 2 == 0:
        raise ValueError(f"need bound >= 0 and an odd lo >= 1, got {bound}, {lo}")
    size = max(0, (bound - lo) // 2 + 1)
    # grown in place: where the allocation fails, CPython 3.11's
    # bytearray * n also reports a spurious SystemError on stderr
    flags = bytearray([1])
    flags *= size
    if size and lo == 1:
        flags[0] = 0  # 1 is not prime
    root = isqrt(bound)
    base = odd_prime_flags(root, 3) if root > 2 else b""
    for p in compress(range(3, root + 1, 2), base):
        # from p*p, or from the first odd multiple of p at or above lo
        start = max((p * p - lo) // 2, -lo * (p + 1) // 2 % p)
        flags[start::p] = bytes(len(range(start, size, p)))
    return flags


BLOCK = 2**21  # the span of a sieve block past the doubling, 1 MB of flags


def odd_prime_blocks(limit, sieve=odd_prime_flags):
    """odd_prime_flags(limit) as (lo, flags) blocks, flags[i] for lo + 2i.

    The sieve bound starts at 4096 and doubles until a block spans BLOCK
    integers, then grows by BLOCK up to limit; each block is sieve(bound, lo),
    over only its own odd numbers, from the first odd one after the last.
    """
    lo, bound = 1, min(4096, limit)
    while lo <= limit:
        yield lo, sieve(bound, lo)
        lo, bound = bound + 1 + bound % 2, min(bound + min(bound, BLOCK), limit)


def class_primes(blocks, residues, modulus):
    """The primes p with p mod an even modulus in the odd residues, ascending.

    Each (lo, flags) block is read one period of the modulus at a time: the
    p of each residue are a range and their flags a strided slice, zipped
    in the order of their first p in the block, so the walk reads the flags
    of those p alone.
    """
    if len(residues) == 1:  # one range and one slice, with nothing to zip
        (r,) = residues
        return chain.from_iterable(
            compress(
                range(lo + (r - lo) % modulus, lo + 2 * len(flags), modulus),
                memoryview(flags)[(r - lo) % modulus // 2 :: modulus // 2],
            )
            for lo, flags in blocks
        )

    def block(lo, flags):
        hi, view = lo + 2 * len(flags), memoryview(flags)
        starts = sorted((r - lo) % modulus for r in residues)
        # one tuple per period; the ranges one longer than the rest come first
        return compress(
            chain.from_iterable(
                zip_longest(*[range(lo + s, hi, modulus) for s in starts])
            ),
            chain.from_iterable(
                zip_longest(*[view[s // 2 :: modulus // 2] for s in starts], fillvalue=0)
            ),
        )

    return chain.from_iterable(starmap(block, blocks))


def sieve_primes(bound):
    """All primes <= bound, ascending (2 followed by the odd_prime_flags sieve)."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    return [2, *compress(range(1, bound + 1, 2), odd_prime_flags(bound))]


def legendre(a, p):
    """Legendre symbol (a/p) in {0, 1, -1} by Euler's criterion.

    p must be an odd prime; only oddness and p >= 3 are checked here, since
    bulk sweeps cannot afford a primality test per call.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    v = pow(a, (p - 1) // 2, p)
    if v == p - 1:
        return -1
    return v  # 0 or 1


def jacobi(a, n):
    """Jacobi symbol (a/n) by the binary reciprocity algorithm, no factoring."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a, p):
    """A square root of a modulo an odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
