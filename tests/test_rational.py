from itertools import islice
from math import inf, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resmat.qr import _wheel
from resmat.rational import (
    BLOCK,
    MR_LIMIT,
    class_primes,
    is_prime,
    jacobi,
    legendre,
    odd_prime_blocks,
    odd_prime_flags,
    sieve_primes,
    sqrt_mod,
)


def trial_division_primes(bound):
    """Independent oracle: primes up to bound by pure trial division."""
    found = []
    for n in range(2, bound + 1):
        composite = False
        for p in found:
            if p * p > n:
                break
            if n % p == 0:
                composite = True
                break
        if not composite:
            found.append(n)
    return found


class TestSieve:
    def test_small(self):
        assert sieve_primes(10) == [2, 3, 5, 7]

    def test_ends_at_29(self):
        assert sieve_primes(30)[-1] == 29

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_against_trial_division(self):
        expected = trial_division_primes(2000)
        for bound in range(2, 2001):
            assert sieve_primes(bound) == [p for p in expected if p <= bound]

    def test_prime_count_at_one_million(self):
        assert len(sieve_primes(10**6)) == 78498

    def test_prime_count_at_scan_limit(self):
        # 163841 is the largest prime admitted by the pqr <= 2457615 scan
        assert len(sieve_primes(163841)) == len(trial_division_primes(163841))


class TestOddPrimeFlags:
    def test_against_trial_division(self):
        odd = set(trial_division_primes(2000)) - {2}
        for bound in range(1, 2001):
            flags = odd_prime_flags(bound)
            assert len(flags) == (bound + 1) // 2
            assert [i for i, f in enumerate(flags) if f] == [
                (p - 1) // 2 for p in sorted(odd) if p <= bound
            ]
            assert set(flags) <= {0, 1}

    def test_edges(self):
        assert odd_prime_flags(0) == bytearray()
        assert odd_prime_flags(1) == bytearray([0])  # 1 only, no primes
        assert odd_prime_flags(2) == bytearray([0])
        assert odd_prime_flags(3) == bytearray([0, 1])  # the one prime 3
        with pytest.raises(ValueError):
            odd_prime_flags(-1)
        for lo in (-1, 0, 2, 4096):  # a segment starts at an odd number >= 1
            with pytest.raises(ValueError):
                odd_prime_flags(5000, lo)
        assert odd_prime_flags(4095, 4097) == bytearray()  # lo past the bound

    @pytest.mark.parametrize("lo", [3, 4097, 2**24 + 1, 10**12 + 1])
    def test_segment_far_from_one(self, lo):
        # base primes up to isqrt(lo + 20000), 10**6 for the last lo
        flags = odd_prime_flags(lo + 20000, lo)
        assert len(flags) == 10001
        assert list(flags) == [is_prime(lo + 2 * i) for i in range(10001)]


# every limit up to 3000, and both sides of the first three sieve bounds
BLOCK_LIMITS = [*range(3001), 4095, 4096, 4097, 8191, 8192, 8193, 16383, 16384, 16385]


def _assert_blocks_concatenate_to_flags(limit):
    blocks = list(odd_prime_blocks(limit))
    assert b"".join(flags for _, flags in blocks) == odd_prime_flags(limit)
    end = 1  # each block starts at the first odd number after the last
    for lo, flags in blocks:
        assert lo == end
        end = lo + 2 * len(flags)
    return blocks


class TestOddPrimeBlocks:
    def test_blocks_concatenate_to_flags(self):
        for limit in BLOCK_LIMITS:
            _assert_blocks_concatenate_to_flags(limit)

    @pytest.mark.parametrize(
        "limit, count",
        [
            # both sides of 2**22, where the doubling ends with a block of
            # BLOCK integers, and of the first fixed block after it
            (2**22 - 1, 11),
            (2**22, 11),
            (2**22 + 1, 12),
            (2**22 + BLOCK - 1, 12),
            (2**22 + BLOCK, 12),
            (2**22 + BLOCK + 1, 13),
        ],
    )
    def test_blocks_past_the_doubling(self, limit, count):
        blocks = _assert_blocks_concatenate_to_flags(limit)
        assert len(blocks) == count
        # 4096 integers, then each block as long as all before it, up to BLOCK
        spans = [2 * len(flags) for _, flags in blocks[:-1]]
        assert spans == [min(lo - 1, BLOCK) or 4096 for lo, _ in blocks[:-1]]

    def test_no_limit_walks_the_capped_blocks(self):
        # an unbounded walk sieves the (lo, bound) blocks of a capped one, so
        # it holds the same memory; 16 blocks reach past 2**22
        def schedule(limit):
            # a sieve that sieves nothing and returns its (lo, bound)
            blocks = odd_prime_blocks(limit, lambda bound, lo: (lo, bound))
            return [block for _, block in islice(blocks, 16)]

        blocks = schedule(inf)
        assert blocks == schedule(4 * 10**9)
        assert all(type(bound) is int for _, bound in blocks)
        assert blocks[-1][1] > 2**22

    @pytest.mark.parametrize("limit", range(-5, 0))
    def test_negative_limit_is_empty(self, limit):
        assert list(odd_prime_blocks(limit)) == list(odd_prime_blocks(0)) == []

    @pytest.mark.parametrize(
        "residue, modulus", [(1, 4), (3, 4), (1, 6), (5, 6), (1, 8), (5, 8)]
    )
    def test_class_primes_match_sieve(self, residue, modulus):
        primes = sieve_primes(max(BLOCK_LIMITS))
        for limit in BLOCK_LIMITS:
            got = list(class_primes(odd_prime_blocks(limit), (residue,), modulus))
            assert got == [p for p in primes if p <= limit and p % modulus == residue]


    @pytest.mark.parametrize(
        "residues, modulus",
        [((1, 3), 4), ((1, 5), 12), ((7, 11, 19, 23), 24), ((3, 7, 43, 47, 67, 83), 420)],
    )
    def test_residue_sets_match_sieve(self, residues, modulus):
        # several residues are read one period at a time, still ascending
        primes = sieve_primes(max(BLOCK_LIMITS))
        for limit in BLOCK_LIMITS:
            got = list(class_primes(odd_prime_blocks(limit), residues, modulus))
            assert got == [p for p in primes if p <= limit and p % modulus in residues]

    def test_wheel_wider_than_a_block(self):
        # an m=2 wheel on the targets of 3, 5, ..., 19: its modulus 19399380
        # spans more than a block, so each block past the doubling holds at
        # most one p of each of the 12960 residues, and most hold none
        qs = (3, 5, 7, 11, 13, 17, 19)
        targets = [(q, (q - 1) // 2, 1 if i % 2 else q - 1) for i, q in enumerate(qs)]
        residues = _wheel(3, targets)
        modulus, wanted = 4 * prod(qs), set(residues)
        assert (len(residues), modulus) == (12960, 19399380) and modulus > BLOCK
        limit = 2**22 + BLOCK + 10**5
        got = list(class_primes(odd_prime_blocks(limit), residues, modulus))
        assert got == [p for p in sieve_primes(limit) if p % modulus in wanted]
        assert got[-1] > 2**22 + BLOCK
        # a block across a multiple of the modulus, where the residues wrap
        lo = modulus - BLOCK // 2 + 1
        block = (lo, odd_prime_flags(lo + BLOCK - 1, lo))
        got = list(class_primes([block], residues, modulus))
        assert got == [
            p for p in range(lo, lo + BLOCK, 2) if p % modulus in wanted and is_prime(p)
        ]
        assert got[0] < modulus < got[-1]


class TestIsPrime:
    def test_matches_sieve(self):
        primes = set(sieve_primes(10**5))
        assert [n for n in range(10**5 + 1) if is_prime(n)] == sorted(primes)

    @pytest.mark.parametrize(
        "n",
        # psi_1 .. psi_11 (psi_7 = psi_8, psi_9 = psi_10 = psi_11): the least
        # strong pseudoprimes to the first k prime bases
        [
            2047,
            1373653,
            25326001,
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
        ],
    )
    def test_rejects_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    def test_limit_is_psi_12(self):
        # psi_12 is composite and passes all twelve bases, so it must raise
        assert MR_LIMIT == 399165290221 * 798330580441
        assert is_prime(MR_LIMIT - 1) is False  # even, and inside the bound
        with pytest.raises(ValueError):
            is_prime(MR_LIMIT)
        with pytest.raises(ValueError):
            is_prime(10**25)


class TestLegendre:
    def test_known_values(self):
        assert legendre(3, 7) == -1
        assert legendre(7, 13) == -1

    def test_one_is_always_a_residue(self):
        for p in (3, 5, 7, 101):
            assert legendre(1, p) == 1

    def test_multiple_of_p(self):
        assert legendre(14, 7) == 0

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            legendre(3, 8)

    def test_reciprocity_sample(self):
        primes = sieve_primes(200)[1:]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                sign = -1 if p % 4 == 3 and q % 4 == 3 else 1
                assert legendre(p, q) * legendre(q, p) == sign


class TestJacobi:
    def test_trivial_modulus(self):
        for a in (-3, 0, 5, 17):
            assert jacobi(a, 1) == 1

    def test_derived_values(self):
        assert jacobi(2, 15) == 1  # (2/3)(2/5) = (-1)(-1)
        assert jacobi(7, 15) == -1  # (7/3)(7/5) = (+1)(-1)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            jacobi(3, 10)

    @given(st.integers(-10**4, 10**4), st.integers(1, 10**4))
    def test_matches_legendre_product(self, a, half):
        n = 2 * half + 1
        expected = 1
        rest, p = n, 3
        while p * p <= rest:
            while rest % p == 0:
                expected *= legendre(a, p)
                rest //= p
            p += 2
        if rest > 1:
            expected *= legendre(a, rest)
        assert jacobi(a, n) == expected


class TestSqrtMod:
    @given(st.sampled_from(sieve_primes(500)[1:]), st.integers(0, 499))
    def test_root_squares_back(self, p, a):
        r = sqrt_mod(a, p)
        if legendre(a, p) == -1:
            assert r is None
        else:
            assert r is not None and r * r % p == a % p
