"""End-to-end acceptance checks, one test per criterion.

conftest.py emits one machine-readable PASS or FAIL line per criterion.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

from resmat.cyclotomic import (
    EisensteinInt,
    GaussianInt,
    check_quartic_reciprocity,
    cubic_symbol,
    is_primary,
    is_prime_element,
    quartic_symbol,
)
from resmat.frequencies import empirical_scan, exact_frequencies
from resmat.higher import (
    cubic_matrix,
    cubic_witness,
    is_quartic_residue_matrix,
    quartic_matrix,
    quartic_witness,
)
from resmat.matrices import (
    SignMatrix,
    count_skew_classes,
    count_symmetric_classes,
    equivalence_classes,
)
from resmat.qr import (
    count_qr_classes,
    count_qr_matrices,
    from_config_graph,
    is_qr_matrix,
    jacobi_matrix,
    qr_matrix_from_primes,
    to_config_graph,
    witness_primes,
)
from resmat.rational import legendre, sieve_primes


def sign_matrices(n, m=2):
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for exps in itertools.product(range(m), repeat=len(offdiag)):
        rows = [[None] * n for _ in range(n)]
        for (i, j), e in zip(offdiag, exps):
            rows[i][j] = e
        yield SignMatrix(m, tuple(tuple(r) for r in rows))


def primary_prime_elements(ring, norm_limit):
    from math import isqrt

    out = []
    cap = isqrt(2 * norm_limit) + 2
    for a in range(-cap, cap + 1):
        for b in range(-cap, cap + 1):
            x = ring(a, b)
            if 1 < x.norm() < norm_limit and is_primary(x) and is_prime_element(x):
                out.append(x)
    out.sort(key=lambda x: (x.norm(), x.a, x.b))
    return out


def test_criterion_1_qr_matrix_counts():
    start = time.monotonic()
    assert [count_qr_matrices(n) for n in range(2, 7)] == [4, 40, 768, 27648, 1900544]
    assert time.monotonic() - start < 10


def test_criterion_2_class_counts():
    start = time.monotonic()
    assert [count_qr_classes(n) for n in range(2, 7)] == [3, 10, 47, 314, 3360]
    assert [count_symmetric_classes(n) for n in range(2, 7)] == [2, 4, 11, 34, 156]
    assert [count_skew_classes(n) for n in range(2, 7)] == [1, 2, 4, 12, 56]
    assert time.monotonic() - start < 60


def test_criterion_3_membership_equals_block_form_existence():
    def has_block_form(mat):
        n = mat.n
        signs = mat.signs()
        for size in range(1, n + 1):
            for skew in itertools.combinations(range(n), size):
                skew_set = set(skew)
                ok = True
                for i in range(n):
                    for j in range(i + 1, n):
                        if i in skew_set and j in skew_set:
                            ok = ok and signs[i][j] == -signs[j][i]
                        else:
                            ok = ok and signs[i][j] == signs[j][i]
                if ok:
                    return True
        return False

    for n in (3, 4):
        for mat in sign_matrices(n):
            assert is_qr_matrix(mat).verdict == has_block_form(mat)


def test_criterion_4_fixtures():
    dec = is_qr_matrix(qr_matrix_from_primes([3, 7, 13]))
    assert dec.verdict and dec.s == 2 and dec.diag == (0, 0, 2)
    dec = is_qr_matrix(
        SignMatrix.from_signs([[0, -1, -1], [-1, 0, -1], [1, 1, 0]])
    )
    assert not dec.verdict and dec.diag == (0, 0, -2)
    for rows in (
        [[0, -1, 1], [1, 0, 1], [1, -1, 0]],
        [[0, 1, 1], [-1, 0, 1], [1, -1, 0]],
    ):
        assert not is_qr_matrix(SignMatrix.from_signs(rows)).verdict


def test_criterion_5_witness_roundtrip_on_class_representatives():
    start = time.monotonic()
    for n, expected_classes in ((3, 10), (4, 47)):
        members = [m for m in sign_matrices(n) if is_qr_matrix(m).verdict]
        classes = equivalence_classes(members)
        assert len(classes) == expected_classes
        for rep, _ in classes:
            primes = witness_primes(rep, 10**7)
            assert qr_matrix_from_primes(primes) == rep
    assert time.monotonic() - start < 120


def test_criterion_6_reciprocity_suites():
    odd_primes = sieve_primes(10**4)[1:]
    for i, p in enumerate(odd_primes):
        for q in odd_primes[i + 1 :]:
            sign = -1 if p % 4 == 3 and q % 4 == 3 else 1
            assert legendre(p, q) * legendre(q, p) == sign

    eis = primary_prime_elements(EisensteinInt, 10**3)
    for i, p in enumerate(eis):
        for q in eis[i + 1 :]:
            assert cubic_symbol(p, q) == cubic_symbol(q, p)

    gau = primary_prime_elements(GaussianInt, 10**3)
    for i, p in enumerate(gau):
        for q in gau[i + 1 :]:
            assert check_quartic_reciprocity(p, q)
    for q in gau:
        e = quartic_symbol(GaussianInt(-1, 0), q)
        assert e in (0, 2)
        assert (e == 0) == ((q.a % 4, q.b % 4) == (1, 0))


def test_criterion_7_higher_witness_roundtrips():
    rng = random.Random(1)

    cubic_pool = []
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for exps in itertools.product(range(3), repeat=len(pairs)):
            rows = [[None] * n for _ in range(n)]
            for (i, j), e in zip(pairs, exps):
                rows[i][j] = rows[j][i] = e
            cubic_pool.append(SignMatrix(3, tuple(tuple(r) for r in rows)))
    for mat in rng.choices(cubic_pool, k=50):
        primes = cubic_witness(mat, 10**6)
        assert cubic_matrix(primes) == mat

    quartic_pool = []
    for n in (1, 2, 3):
        quartic_pool.extend(
            m for m in sign_matrices(n, m=4) if is_quartic_residue_matrix(m).verdict
        )
    for mat in rng.sample(quartic_pool, 50):
        primes = quartic_witness(mat, 10**6)
        assert quartic_matrix(primes) == mat


def test_criterion_8_splitting_frequencies():
    start = time.monotonic()
    exact = exact_frequencies()
    assert sorted(exact.frequencies) == sorted(
        [Fraction(1, 32), Fraction(1, 16), Fraction(1, 16)]
        + [Fraction(3, 32)] * 5
        + [Fraction(3, 16)] * 2
    )
    report = empirical_scan(2457615)
    assert report.total == 306386
    observed = sorted(float(f) for f in report.frequencies)
    expected = [0.037, 0.043, 0.062, 0.090, 0.108, 0.108, 0.123, 0.127, 0.138, 0.163]
    for got, want in zip(observed, expected):
        assert abs(got - want) <= 0.002
    # per-class counts of the per-triple scan that the bitset scan replaced
    assert report.counts == (
        11378, 27671, 42431, 33078, 38815, 33064, 50030, 13318, 37536, 19065
    )
    assert empirical_scan(10**7).counts == (
        51746, 119270, 183705, 137529, 161499, 137698, 212065, 54604, 153885, 78873
    )
    report = empirical_scan(10**8)
    assert report.total == 13337070
    assert report.counts == (
        578445, 1255458, 1971958, 1403370, 1637257,
        1403422, 2197233, 549027, 1537992, 802908,
    )
    assert time.monotonic() - start < 120


def test_criterion_9_closure_properties():
    for n in (2, 3, 4):
        for mat in sign_matrices(n):
            verdict = is_qr_matrix(mat).verdict
            assert is_qr_matrix(mat.transpose()).verdict == verdict
            assert is_qr_matrix(mat.negate()).verdict == verdict

    rng = random.Random(9)
    primes = sieve_primes(60)[1:]
    done = 0
    while done < 100:
        k = rng.randint(2, 5)
        base = rng.sample(primes, k)
        values = [p ** rng.randint(1, 3) for p in base]
        if any(gcd(a, b) != 1 for a, b in itertools.combinations(values, 2)):
            continue
        assert is_qr_matrix(jacobi_matrix(values)).verdict
        done += 1

    for n in (2, 3):
        for mat in sign_matrices(n):
            if is_qr_matrix(mat).verdict:
                assert from_config_graph(to_config_graph(mat)) == mat
