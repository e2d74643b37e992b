import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import permutations, product
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resmat.frequencies import (
    MIN_PRODUCT_BOUND,
    NUM_CLASSES,
    FrequencyReport,
    _CLASS_CODES,
    _CLASS_OF_CODE,
    _code_of_entries,
    _legendre_pattern,
    _matrix_of_code,
    _periodic_bitset,
    _triple_code,
    class_representatives,
    configuration_class,
    empirical_scan,
    exact_frequencies,
)
from resmat.matrices import SignMatrix, canonical_form
from resmat.qr import is_qr_matrix, qr_matrix_from_primes
from resmat.rational import legendre, sieve_primes

ORACLE_MAX_BOUND = 2 * 10**5

# 1, 4, ..., 1000^2: enough squares for _legendre_pattern(x) with x <= 2001
SQUARES = [k * k for k in range(1, 1001)]


def _triples(bound):
    """Every triple of odd primes p < q < r with pqr <= bound."""
    odd = sieve_primes(bound // 15)[1:]
    for i, p in enumerate(odd):
        for j in range(i + 1, bisect_right(odd, isqrt(bound // p))):
            q = odd[j]
            for r in odd[j + 1 : bisect_right(odd, bound // (p * q))]:
                yield p, q, r


def _scan_oracle(product_bound):
    """The per-triple scan: six Legendre symbols and a class lookup per triple."""
    counts = [0] * NUM_CLASSES
    for p, q, r in _triples(product_bound):
        pairs = ((p, q), (q, p), (p, r), (r, p), (q, r), (r, q))
        code = sum(1 << t for t, (a, b) in enumerate(pairs) if legendre(a, b) == -1)
        counts[_CLASS_OF_CODE[code] - 1] += 1
    return FrequencyReport(tuple(counts), sum(counts))


TRIPLE_PRODUCTS = sorted(p * q * r for p, q, r in _triples(ORACLE_MAX_BOUND))


def _enumerated_class_table():
    """The class table by enumeration: every QR code among the 64 3x3 sign
    codes, grouped by canonical form, classes sorted by SignMatrix._key."""
    groups = {}
    for code in range(64):
        mat = _matrix_of_code(code)
        if is_qr_matrix(mat).verdict:
            groups.setdefault(canonical_form(mat), []).append(code)
    reps = sorted(groups, key=lambda m: m._key())
    table = {
        code: class_id for class_id, rep in enumerate(reps, start=1) for code in groups[rep]
    }
    return table, reps


class TestClassTable:
    def test_constant_matches_enumeration(self):
        table, reps = _enumerated_class_table()
        assert _CLASS_OF_CODE == table
        assert len(reps) == NUM_CLASSES
        assert [c.representative for c in class_representatives()] == reps
        # each group starts with the code of its canonical form
        for codes, rep in zip(_CLASS_CODES, reps):
            assert codes[0] == _code_of_entries(rep.entries)

    def test_ten_representatives(self):
        reps = class_representatives()
        assert [c.class_id for c in reps] == list(range(1, NUM_CLASSES + 1))
        for c in reps:
            assert is_qr_matrix(c.representative).verdict
            assert canonical_form(c.representative) == c.representative

    def test_representatives_strictly_ordered(self):
        reps = [c.representative for c in class_representatives()]
        keys = [r._key() for r in reps]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


class TestConfigurationClass:
    def test_fixture(self):
        assert configuration_class(3, 7, 13).class_id == 6

    def test_order_invariant(self):
        ids = {
            configuration_class(*triple).class_id
            for triple in permutations((3, 7, 13))
        }
        assert ids == {6}

    def test_class_matches_canonical_form(self):
        for triple in ((3, 5, 7), (5, 13, 17), (3, 11, 23), (7, 11, 19)):
            c = configuration_class(*triple)
            mat = qr_matrix_from_primes(triple)
            assert canonical_form(mat) == c.representative

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            configuration_class(3, 3, 7)
        with pytest.raises(ValueError):
            configuration_class(2, 3, 7)
        with pytest.raises(ValueError):
            configuration_class(3, 7, 15)


def _reciprocity_code(p3, q3, r3, qp, rp, rq):
    """The 3x3 sign rows of a triple, the forward symbol of each pair forced
    from the reverse one (b/a) by reciprocity, as a _PAIRS code."""
    classes = (p3, q3, r3)
    rows = [[0] * 3 for _ in range(3)]
    for (i, j), bit in zip(((0, 1), (0, 2), (1, 2)), (qp, rp, rq)):
        b = -1 if bit else 1
        rows[j][i] = b
        both3 = classes[i] and classes[j]
        rows[i][j] = -b if both3 else b
    return _code_of_entries(SignMatrix.from_signs(rows).entries)


class TestTripleCode:
    def test_matches_reciprocity_rows(self):
        for bits in product((0, 1), repeat=6):
            assert _triple_code(*bits) == _reciprocity_code(*bits), bits

    def test_agrees_with_legendre_symbols(self):
        for p, q, r in _triples(20000):
            bits = [x % 4 == 3 for x in (p, q, r)]
            bits += [legendre(a, b) == -1 for a, b in ((q, p), (r, p), (r, q))]
            code = _code_of_entries(qr_matrix_from_primes((p, q, r)).entries)
            assert _triple_code(*map(int, bits)) == code, (p, q, r)


class TestExactFrequencies:
    def test_multiset(self):
        report = exact_frequencies()
        assert report.total == 64
        assert sum(report.counts) == 64
        expected = sorted(
            [
                Fraction(1, 32),
                Fraction(1, 16),
                Fraction(1, 16),
                Fraction(3, 32),
                Fraction(3, 32),
                Fraction(3, 32),
                Fraction(3, 32),
                Fraction(3, 32),
                Fraction(3, 16),
                Fraction(3, 16),
            ]
        )
        assert sorted(report.frequencies) == expected

    def test_deterministic(self):
        assert exact_frequencies() == exact_frequencies()

    def test_empty_report(self):
        assert FrequencyReport((0, 0), 0).frequencies == (Fraction(0), Fraction(0))


class TestEmpiricalScan:
    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            empirical_scan(MIN_PRODUCT_BOUND - 1)

    def test_minimal_bound_single_triple(self):
        report = empirical_scan(MIN_PRODUCT_BOUND)
        assert report.total == 1
        cid = configuration_class(3, 5, 7).class_id
        assert report.counts[cid - 1] == 1

    def test_bound_is_inclusive(self):
        # 3 * 5 * 7 = 105 is admitted at bound 105 but not at any lower bound
        assert empirical_scan(105).total == 1
        assert empirical_scan(106).total == 1
        assert empirical_scan(164).total == 1  # 3 * 5 * 11 = 165 excluded
        assert empirical_scan(165).total == 2

    def test_monotone_in_bound(self):
        prev = 0
        for bound in (105, 200, 500, 1000, 3000):
            total = empirical_scan(bound).total
            assert total >= prev
            prev = total

    def test_counts_match_direct_classification(self):
        from resmat.rational import sieve_primes

        bound = 2000
        report = empirical_scan(bound)
        direct = [0] * NUM_CLASSES
        odd = sieve_primes(bound)[1:]
        for i, p in enumerate(odd):
            for j in range(i + 1, len(odd)):
                q = odd[j]
                for k in range(j + 1, len(odd)):
                    r = odd[k]
                    if p * q * r > bound:
                        break
                    direct[configuration_class(p, q, r).class_id - 1] += 1
        assert list(report.counts) == direct
        assert report.total == sum(direct)

    def test_frequencies_sum_to_one(self):
        report = empirical_scan(5000)
        assert sum(report.frequencies) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.integers(MIN_PRODUCT_BOUND, ORACLE_MAX_BOUND),
            st.sampled_from(TRIPLE_PRODUCTS),
            st.sampled_from(TRIPLE_PRODUCTS[1:]).map(lambda n: n - 1),
        )
    )
    @example(105)  # one window, (3, 5): the other seven window types stay zero
    @example(272)  # 3 * 7 * 13 - 1
    @example(273)  # 3 * 7 * 13: two windows, (3, 5) and (3, 7), of two types
    @example(ORACLE_MAX_BOUND)
    @example(314)  # 5 * 7 * 9 - 1: p = 5 is past p * (p + 2) * (p + 4)
    @example(315)  # 5 * 7 * 9
    @example(692)  # 7 * 9 * 11 - 1
    @example(693)  # 7 * 9 * 11
    @example(428)  # 3 * 11 * 13 - 1: q = 11 is past p * q * (q + 2) for p = 3
    @example(429)  # 3 * 11 * 13
    @example(584)  # 3 * 13 * 15 - 1
    @example(585)  # 3 * 13 * 15
    @example(974)  # 5 * 13 * 15 - 1
    @example(975)  # 5 * 13 * 15
    @example(15135)  # 3 * 5 * 1009: bound // 15, the last bit of the r bitset, is prime
    @example(15134)  # 15134 // 15 = 1008
    def test_matches_per_triple_oracle(self, bound):
        assert empirical_scan(bound) == _scan_oracle(bound)

    def test_peak_memory_at_1e8(self):
        # the peak, 7.1 MB, is the sieve's byte flags and their ASCII copy
        # (3.3 MB each); one more full-length copy, say an ASCII mask, is over
        tracemalloc.start()
        try:
            empirical_scan(10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 10**6


def _repeat_bits(pattern, period, size):
    """Bit by bit: the int whose bit k is bit k % period of pattern."""
    return sum((pattern >> k % period & 1) << k for k in range(size))


class TestPeriodicBitset:
    @pytest.mark.parametrize(
        "pattern, period",
        [
            (0b1, 1),
            (0b10, 2),
            (0b101, 3),
            (0b0110, 4),
            (0b1000000001101, 13),
            (0b100111100100, 14),
            (_legendre_pattern(7, SQUARES), 7),
        ],
    )
    def test_matches_bit_by_bit_repeat(self, pattern, period):
        sizes = {0, 1, period - 1, period, period + 1, 5 * period + 2}
        for k in range(1, 8):
            sizes |= {period * 2**k - 1, period * 2**k, period * 2**k + 1}
        for size in sorted(sizes):
            got = _periodic_bitset(pattern, period, size)
            assert got == _repeat_bits(pattern, period, size), (pattern, period, size)


class TestNonresidueMask:
    def test_agrees_with_euler_criterion(self):
        # bit (r - 1) / 2 of N_x is set exactly when (r / x) = -1, for every
        # odd r, and clear on the multiples of x, where the symbol is 0
        for x in sieve_primes(2000)[1:]:
            mask = _periodic_bitset(_legendre_pattern(x, SQUARES), x, 10**4 // 2)
            want = sum(1 << r // 2 for r in range(1, 10**4, 2) if legendre(r, x) == -1)
            assert mask == want, x

    def test_three_mod_4_mask(self):
        # bit k stands for the odd integer 2k + 1
        mask = _periodic_bitset(0b10, 2, 10**4)
        assert mask.bit_length() <= 10**4
        for k in range(10**4):
            assert (mask >> k & 1) == ((2 * k + 1) % 4 == 3), k
        assert _periodic_bitset(0b10, 2, 7) == 0b0101010
