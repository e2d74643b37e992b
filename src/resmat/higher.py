"""Cubic and quartic residue matrices: membership and witnesses."""

from __future__ import annotations

from math import inf

from .cyclotomic import (
    EisensteinInt,
    GaussianInt,
    _primary_associate,
    _residue_symbol,
    # not called; bound because perfbench/test_perfbench.py checks it is traced here
    cubic_symbol,  # noqa: F401
    is_primary,
    is_prime_element,
)
from .matrices import SignMatrix
from .qr import _check_m, _column_search, decide


def _symbol_matrix(primes, ring):
    # distinct primary primes validated once: no modulus divides another
    # prime, so the entries skip the public symbols' checks.  A primary
    # generator is unique per prime ideal, so equal ideals are equal elements.
    primes, seen = list(primes), set()
    for p in primes:
        if not isinstance(p, ring):
            raise ValueError(f"expected {ring.__name__} elements, got {p!r}")
        if not is_prime_element(p) or not is_primary(p):
            raise ValueError(f"not a primary prime element: {p}")
        if p in seen:
            raise ValueError(f"prime ideals must be distinct: {p}, {p}")
        seen.add(p)
    return SignMatrix.from_symbol(ring.M, primes, _residue_symbol)


def cubic_matrix(primes):
    """The matrix of cubic symbols (pi_i / pi_j)_3 for primary Eisenstein primes."""
    return _symbol_matrix(primes, EisensteinInt)


def is_cubic_residue_matrix(matrix):
    """The qr.decide decision for an m=3 matrix: a member iff symmetric."""
    _check_m(matrix, 3)
    return decide(matrix)


def quartic_matrix(primes):
    """The matrix of quartic symbols (pi_j / pi_k)_4 for primary Gaussian primes."""
    return _symbol_matrix(primes, GaussianInt)


def is_quartic_residue_matrix(matrix):
    """The qr.decide decision for an m=4 matrix: diag is diag(M conj(M))."""
    _check_m(matrix, 4)
    return decide(matrix)


# --- deterministic witness search ---
#
# The existence argument is Chebotarev's theorem, so with no norm_limit a
# column ends at its witness.  For each prime p of the column's class in
# qr._column_search both conjugate ideals are offered, the one whose residue
# field sends w (resp. i) to the larger root first; this pins down, e.g.,
# -2-3w as the first Eisenstein candidate and -1+2i as the first Gaussian one.


def _prime_over(ring, p, r):
    """The primary prime of norm p dividing p and zeta - r, zeta = w resp. i.

    Euclid on (p, r), stopped at the first remainder x below sqrt(p), keeps
    x = t*r (mod p) with |t| < sqrt(p) (Cohen, GTM 138, Alg. 1.5.2).  So
    x - t*zeta lies in the prime ideal (p, zeta - r), and its norm is a
    nonzero multiple of p below 2p in Z[i] and below 3p in Z[w], where 2p is
    impossible (2 is inert, so an even norm is a multiple of 4).  The norm
    is exactly p, so the element generates the ideal.
    """
    a, x, s, t = p, r, 0, 1  # a = s*r and x = t*r (mod p)
    while x * x > p:
        q = a // x
        a, x, s, t = x, a - q * x, t, s - q * t
    gen = ring(x, -t)
    if gen.norm() != p:
        raise RuntimeError(f"{gen} over ({p}, {r}) does not have norm {p}")
    return _primary_associate(gen)


def _primes_over(ring, p):
    # A prime p = 1 (mod M) splits, and zeta goes to a root of
    # x**2 - TRACE*x + 1 mod p, a primitive M-th root of unity: z**((p-1)/M)
    # for the first z = 2, 3, ... that is a root; the other is TRACE - r,
    # conj(zeta) mod (p, zeta - r).  So the ideal over the other root is the
    # conjugate ideal, and conjugation keeps the primary classes.
    t = ring.TRACE
    e, z = (p - 1) // ring.M, 2
    r = pow(z, e, p)
    while (r * r - t * r + 1) % p:
        z += 1
        r = pow(z, e, p)
    gen = _prime_over(ring, p, max(r, (t - r) % p))
    return gen, gen.conj()


def _witness(matrix, ring, build, norm_limit):
    # find tests both symbol directions.  The moduli are primary primes by
    # construction, so the symbols skip the public functions' checks, and a
    # primary generator is unique per prime ideal, so a chosen prime is
    # found by equality.
    m = ring.M

    def find(k, chosen, c, walk):
        row = matrix.entries[k]
        for p in walk((c,), 2 * m):
            for cand in _primes_over(ring, p):
                if cand not in chosen and all(
                    _residue_symbol(cand, qj) == row[j]
                    and _residue_symbol(qj, cand) == matrix.entries[j][k]
                    for j, qj in enumerate(chosen)
                ):
                    return cand
        return None

    return _column_search(matrix, m, norm_limit, find, build)


def cubic_witness(matrix, norm_limit=inf):
    """Distinct primary Eisenstein primes whose cubic matrix equals the input."""
    return _witness(matrix, EisensteinInt, cubic_matrix, norm_limit)


def quartic_witness(matrix, norm_limit=inf):
    """Distinct primary Gaussian primes whose quartic matrix equals the input.

    Skew-block indices get generators = 3+2i mod 4, the rest = 1 mod 4.
    """
    return _witness(matrix, GaussianInt, quartic_matrix, norm_limit)
