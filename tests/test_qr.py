import functools
import io
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import factorial, inf, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import resmat
from resmat import cli, higher, qr, rational
from resmat.errors import (
    NotAResidueMatrixError,
    SearchExhaustedError,
    UnsupportedDimensionError,
)
from resmat.matrices import (
    COUNT_MAX_N,
    CycleType,
    SignMatrix,
    conjugate,
    count_skew_classes,
    count_symmetric_classes,
    cycle_types,
    equivalence_classes,
    fixed_skew,
    fixed_symmetric,
    identity_term,
)
from resmat.qr import (
    ConfigGraph,
    _pair_diagonal,
    block_form,
    count_qr_classes,
    count_qr_matrices,
    decide,
    fixed_qr,
    from_config_graph,
    is_qr_matrix,
    jacobi_matrix,
    qr_matrix_from_primes,
    split_size,
    to_config_graph,
    witness_primes,
)
from resmat.rational import (
    BLOCK,
    is_prime,
    legendre,
    odd_prime_blocks,
    odd_prime_flags,
    sieve_primes,
)


def sign_matrices(n):
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for vals in itertools.product((1, -1), repeat=len(offdiag)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(offdiag, vals):
            rows[i][j] = v
        yield SignMatrix.from_signs(rows)


def has_block_form(mat):
    """Brute-force oracle: some index subset is a valid skew block.

    Pairs inside the subset must be antisymmetric, every other pair symmetric.
    A singleton subset is vacuously skew, so fully symmetric matrices qualify.
    """
    n = mat.n
    signs = mat.signs()
    for size in range(1, n + 1):
        for skew in itertools.combinations(range(n), size):
            skew_set = set(skew)
            ok = True
            for i in range(n):
                for j in range(i + 1, n):
                    if i in skew_set and j in skew_set:
                        if signs[i][j] != -signs[j][i]:
                            ok = False
                    elif signs[i][j] != signs[j][i]:
                        ok = False
            if ok:
                return True
    return False


M_3_7_13 = qr_matrix_from_primes([3, 7, 13])

REJECTED_A = SignMatrix.from_signs([[0, -1, -1], [-1, 0, -1], [1, 1, 0]])
# sign patterns of the absolute-value and Kronecker symbol variants, which
# fail the membership criterion even though each is built from 3, -7, 13
REJECTED_B = SignMatrix.from_signs([[0, -1, 1], [1, 0, 1], [1, -1, 0]])
REJECTED_C = SignMatrix.from_signs([[0, 1, 1], [-1, 0, 1], [1, -1, 0]])


class TestConstruction:
    def test_3_7_13(self):
        assert M_3_7_13 == SignMatrix.from_signs(
            [[0, -1, 1], [1, 0, -1], [1, -1, 0]]
        )

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            qr_matrix_from_primes([3, 3, 7])

    def test_rejects_composite_and_even(self):
        with pytest.raises(ValueError):
            qr_matrix_from_primes([3, 9])
        with pytest.raises(ValueError):
            qr_matrix_from_primes([2, 3])


class TestMembership:
    def test_accepted_fixture(self):
        dec = is_qr_matrix(M_3_7_13)
        assert dec.verdict and dec.s == 2 and dec.diag == (0, 0, 2)

    def test_rejected_fixture(self):
        dec = is_qr_matrix(REJECTED_A)
        assert not dec.verdict and dec.s is None and dec.diag == (0, 0, -2)

    def test_rejected_symbol_variants(self):
        assert not is_qr_matrix(REJECTED_B).verdict
        assert not is_qr_matrix(REJECTED_C).verdict

    def test_wrong_modulus(self):
        with pytest.raises(ValueError):
            is_qr_matrix(SignMatrix(3, ((None, 0), (0, None))))

    @pytest.mark.parametrize(
        "view, own_m, m",
        [
            (view, own_m, m)
            for view, own_m in (
                (is_qr_matrix, 2),
                (higher.is_cubic_residue_matrix, 3),
                (higher.is_quartic_residue_matrix, 4),
            )
            for m in (2, 3, 4)
            if m != own_m
        ],
    )
    def test_views_name_the_modulus(self, view, own_m, m):
        # the witness frame's message, for every view and every other m
        with pytest.raises(ValueError) as exc:
            view(SignMatrix(m, ((None, 1), (1, None))))
        assert str(exc.value) == f"expected an m={own_m} sign matrix, got m={m}"

    def test_split_size_fully_symmetric(self):
        assert split_size((2, 2, 2)) == 1

    def test_square_diagonal_matches_definition(self):
        for mat in itertools.islice(sign_matrices(4), 100):
            s = mat.signs()
            expected = tuple(
                sum(s[i][j] * s[j][i] for j in range(4) if j != i)
                for i in range(4)
            )
            assert is_qr_matrix(mat).diag == expected

    @pytest.mark.parametrize("n", [3, 4])
    def test_agrees_with_block_form_oracle(self, n):
        for mat in sign_matrices(n):
            assert is_qr_matrix(mat).verdict == has_block_form(mat)


def exponent_matrices(m, n):
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for exps in itertools.product(range(m), repeat=len(offdiag)):
        rows = [[None] * n for _ in range(n)]
        for (i, j), e in zip(offdiag, exps):
            rows[i][j] = e
        yield SignMatrix(m, tuple(map(tuple, rows)))


def random_exponent_matrices(seed, m, count=200):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        yield SignMatrix(m, tuple(
            tuple(None if i == j else rng.randrange(m) for j in range(n))
            for i in range(n)
        ))


# i**k as (real, imaginary) parts, exactly
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _pair_diagonal_oracle(mat):
    """The definitions, computed directly: diag(M^2) from the signs for
    m=2; for m=4 every term of diag(M * conj(M)) real and the real parts
    summed; for m=3 symmetry (with the all n-1 diagonal of M^2's pattern)."""
    n = mat.n
    if mat.m == 2:
        s = mat.signs()
        return True, tuple(sum(s[i][j] * s[j][i] for j in range(n)) for i in range(n))
    if mat.m == 3:
        return mat.is_symmetric(), (n - 1,) * n
    ok, diag = True, []
    for i in range(n):
        total = 0
        for j in range(n):
            if i != j:
                a, b = _I_POWERS[mat.entries[i][j]]
                c, d = _I_POWERS[mat.entries[j][i]]
                # (a + bi) * (c - di)
                re, im = a * c + b * d, b * c - a * d
                ok = ok and im == 0
                total += re
        diag.append(total)
    return ok, tuple(diag)


class TestPairDiagonal:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_definitions(self, m):
        mats = itertools.chain(
            *(exponent_matrices(m, n) for n in (1, 2, 3)),
            random_exponent_matrices(m, m),
        )
        for mat in mats:
            ok, diag = _pair_diagonal(mat)
            want_ok, want_diag = _pair_diagonal_oracle(mat)
            assert ok == want_ok, mat
            if m != 3 or ok:
                assert diag == want_diag, mat

    def test_membership_reads_it(self):
        for mat in random_exponent_matrices(5, 4):
            ok, diag = _pair_diagonal(mat)
            dec = higher.is_quartic_residue_matrix(mat)
            assert (dec.pairwise_ok, dec.diag) == (ok, diag)
            assert dec.verdict == (ok and split_size(diag) is not None)
        for mat in random_exponent_matrices(6, 3):
            dec = higher.is_cubic_residue_matrix(mat)
            assert dec.verdict == _pair_diagonal(mat)[0]


class TestBlockForm:
    def test_fixture(self):
        bd = block_form(M_3_7_13)
        assert bd.s == 2
        assert bd.perm == (0, 1, 2)

    def test_recovers_after_relabeling(self):
        bd = block_form(conjugate(M_3_7_13, (2, 1, 0)))
        assert bd.s == 2
        assert bd.perm == (1, 2, 0)

    def test_non_member_raises(self):
        with pytest.raises(NotAResidueMatrixError):
            block_form(REJECTED_A)

    def test_symmetric_designates_first_index(self):
        sym = qr_matrix_from_primes([5, 13, 17])
        bd = block_form(sym)
        assert bd.s == 1 and bd.perm[0] == 0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_blocks_are_skew_and_symmetric(self, m):
        """Every matrix with n <= 4 for m=2, n <= 3 for m=3, 4: a member's
        conjugate by perm has the pair term -1 exactly inside the s x s block
        and +1 elsewhere, and a non-member raises."""
        max_n = 4 if m == 2 else 3
        members = 0
        for n in range(1, max_n + 1):
            for mat in exponent_matrices(m, n):
                if not decide(mat).verdict:
                    with pytest.raises(NotAResidueMatrixError, match=f"m={m}"):
                        block_form(mat)
                    continue
                members += 1
                bd = block_form(mat)
                moved = conjugate(mat, bd.perm).entries
                for i, j in itertools.combinations(range(n), 2):
                    # the term zeta^d is -1 exactly when 2d = m
                    d = (moved[i][j] - moved[j][i]) % m
                    assert 2 * d == (m if j < bd.s else 0), (mat, bd)
                if mat.is_symmetric():
                    assert bd.s == 1 and bd.perm[0] == 0
        # 2^n - n red sets times m^(n(n-1)/2) upper triangles for m = 2, 4;
        # the symmetric matrices for m = 3
        assert members == sum(
            (1 if m == 3 else (1 << n) - n) * m ** (n * (n - 1) // 2)
            for n in range(1, max_n + 1)
        )


class TestDecide:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_views_agree_with_it(self, m):
        """Every matrix with n <= 4 for m=2, n <= 3 for m=3, 4: each view
        returns the decision, block_form the decision of a member; s and perm
        are None exactly for a non-member."""
        max_n = 4 if m == 2 else 3
        view = {
            2: is_qr_matrix,
            3: higher.is_cubic_residue_matrix,
            4: higher.is_quartic_residue_matrix,
        }[m]
        for n in range(1, max_n + 1):
            for mat in exponent_matrices(m, n):
                dec = decide(mat)
                assert type(dec) is resmat.Decision
                assert view(mat) == dec, mat
                assert (dec.s is None) == (dec.perm is None) == (not dec.verdict)
                if dec.verdict:
                    assert block_form(mat) == dec
                    assert sorted(dec.perm) == list(range(n))
                else:
                    with pytest.raises(NotAResidueMatrixError):
                        block_form(mat)

    @pytest.mark.parametrize("m,max_n", [(2, 3), (4, 2)])
    def test_truth_is_verdict(self, m, max_n):
        # `if is_qr_matrix(mat):` must not hold for a non-member
        verdicts = set()
        for n in range(1, max_n + 1):
            for mat in exponent_matrices(m, n):
                dec = decide(mat)
                assert bool(dec) is dec.verdict, mat
                verdicts.add(dec.verdict)
        assert verdicts == {True, False}


class TestWitness:
    def test_fixture(self):
        assert witness_primes(M_3_7_13, 10**7) == [3, 7, 13]

    def test_one_by_one(self):
        assert witness_primes(SignMatrix(2, ((None,),)), 100) == [3]

    def test_non_member_raises(self):
        with pytest.raises(NotAResidueMatrixError):
            witness_primes(REJECTED_A, 10**7)

    def test_roundtrip_sample_n3(self):
        for mat in sign_matrices(3):
            if not is_qr_matrix(mat).verdict:
                continue
            primes = witness_primes(mat, 10**7)
            assert qr_matrix_from_primes(primes) == mat
            assert len(set(primes)) == len(primes)

    def test_deterministic(self):
        a = witness_primes(M_3_7_13, 10**7)
        b = witness_primes(M_3_7_13, 10**7)
        assert a == b


def _witness_oracle(matrix, limit):
    """The direct scan: every odd p <= limit, is_prime, symbols in both directions."""
    bd = block_form(matrix)
    skew = set(bd.perm[: bd.s])
    signs = matrix.signs()
    primes = []
    for k in range(matrix.n):
        target = 3 if k in skew else 1
        p = 1
        tried = 0  # every prime of the class, taken ones included
        while True:
            p += 2
            if p > limit:
                raise SearchExhaustedError(
                    f"no prime of norm <= {limit} realizes column {k + 1}",
                    limit=limit,
                    column=k + 1,
                    tried=tried,
                )
            if p % 4 != target or not is_prime(p):
                continue
            tried += 1
            if p in primes:
                continue
            if all(
                legendre(p, pj) == signs[k][j] and legendre(pj, p) == signs[j][k]
                for j, pj in enumerate(primes)
            ):
                break
        primes.append(p)
    return primes


@st.composite
def admissible_matrices(draw, max_n=10):
    """A QR matrix: antisymmetric on a random red set, symmetric elsewhere."""
    n = draw(st.integers(1, max_n))
    red = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.sampled_from((1, -1)))
            rows[i][j] = v
            rows[j][i] = -v if red[i] and red[j] else v
    return SignMatrix.from_signs(rows)


# witnesses whose largest prime sits next to the first sieve bound, 4096
M_4093 = SignMatrix.from_signs([
    [0, -1, 1, 1, -1, -1, -1, 1, -1],
    [-1, 0, 1, -1, 1, -1, 1, -1, -1],
    [1, 1, 0, -1, -1, -1, 1, -1, 1],
    [1, -1, -1, 0, 1, -1, 1, -1, 1],
    [-1, 1, -1, 1, 0, 1, -1, -1, 1],
    [-1, -1, -1, -1, 1, 0, -1, 1, 1],
    [-1, 1, 1, -1, -1, -1, 0, -1, 1],
    [1, -1, -1, 1, -1, 1, 1, 0, 1],
    [-1, -1, 1, 1, 1, 1, 1, 1, 0],
])
M_4129 = SignMatrix.from_signs([
    [0, -1, -1, -1, 1, 1, 1, 1],
    [-1, 0, -1, 1, -1, -1, -1, 1],
    [-1, -1, 0, -1, 1, -1, 1, 1],
    [-1, -1, -1, 0, 1, 1, -1, 1],
    [1, 1, 1, -1, 0, 1, 1, 1],
    [1, -1, -1, 1, 1, 0, 1, -1],
    [1, -1, 1, -1, 1, 1, 0, -1],
    [1, 1, 1, 1, 1, -1, -1, 0],
])

ORACLE_LIMITS = (
    -5, 0, 1, 2, 3, 4, 5, 7, 100, 1000, 4095, 4096, 4097, 5000, 8192, 8193, 10**7,
)


class TestWitnessSieveWalk:
    def test_fixtures_straddle_first_sieve_bound(self):
        assert max(witness_primes(M_4093, 10**7)) == 4093
        assert max(witness_primes(M_4129, 10**7)) == 4129

    @settings(max_examples=200, deadline=None)
    @given(admissible_matrices(), st.sampled_from(ORACLE_LIMITS))
    @example(M_3_7_13, 1)
    @example(M_3_7_13, 2)
    @example(M_3_7_13, 3)
    @example(M_3_7_13, 4)
    @example(M_4093, 4092)
    @example(M_4093, 4095)
    @example(M_4093, 4096)
    @example(M_4093, 4097)
    @example(M_4129, 4095)
    @example(M_4129, 4096)
    @example(M_4129, 4097)
    @example(M_4129, 4129)
    @example(M_4129, 10**7)
    def test_matches_oracle(self, matrix, limit):
        try:
            expected = _witness_oracle(matrix, limit)
        except SearchExhaustedError as exc:
            with pytest.raises(SearchExhaustedError) as got:
                witness_primes(matrix, limit)
            assert str(got.value) == str(exc)
            assert (got.value.limit, got.value.column, got.value.tried) == (
                exc.limit, exc.column, exc.tried,
            )
        else:
            assert witness_primes(matrix, limit) == expected

    @pytest.mark.parametrize(
        "matrix, limit, column, target",
        [
            (M_3_7_13, 1, 1, 3),
            (M_3_7_13, 4, 2, 3),  # 3 is examined and rejected: it is taken
            (M_4093, 4092, 9, 1),
            (M_4129, 4097, 8, 1),  # the walk crosses the first sieve bound
        ],
    )
    def test_exhausted_column_and_tried(self, matrix, limit, column, target):
        with pytest.raises(SearchExhaustedError) as got:
            witness_primes(matrix, limit)
        assert got.value.column == column
        # an exhausted column has examined every prime of its class
        assert got.value.tried == len(
            [p for p in sieve_primes(max(limit, 2)) if p % 4 == target]
        )

    @pytest.mark.parametrize("limit", [-5, 0, 1, 2])
    def test_limit_below_three_exhausts_first_column(self, limit):
        # a negative limit exhausts like 0, with no sieve of a negative bound
        with pytest.raises(SearchExhaustedError) as got:
            witness_primes(M_3_7_13, limit)
        assert (got.value.limit, got.value.column, got.value.tried) == (limit, 1, 0)
        assert str(got.value) == f"no prime of norm <= {limit} realizes column 1"

    @pytest.mark.parametrize("matrix", [M_3_7_13, M_4093, M_4129])
    def test_search_calls_legendre_only_in_post_condition(self, monkeypatch, matrix):
        # candidates are tested by Euler's criterion against per-column
        # targets; legendre is left to qr_matrix_from_primes, one call for
        # each ordered pair of the witnesses
        from resmat import qr

        calls = []

        def counted(a, p):
            calls.append((a, p))
            return legendre(a, p)

        monkeypatch.setattr(qr, "legendre", counted)
        primes = witness_primes(matrix, 10**7)
        assert calls == [(pi, pj) for pi in primes for pj in primes if pi != pj]


def _euler_witness(matrix, limit):
    """The search without a wheel, the reference for it: every prime of the
    column's class mod 4 is tested by Euler's criterion against the targets
    of all earlier primes, one pow each, up to the first mismatch."""
    signs = matrix.signs()

    def find(k, primes, c, walk):
        row = signs[k]
        targets = [
            (pj, (pj - 1) // 2, 1 if row[j] == 1 else pj - 1)
            for j, pj in enumerate(primes)
        ]
        for p in walk((c,), 4):
            for pj, e, want in targets:
                if pow(p, e, pj) != want:
                    break
            else:
                return p
        return None

    return qr._column_search(matrix, 2, limit, find, qr_matrix_from_primes)


def _search_outcome(search, matrix, limit):
    try:
        return search(matrix, limit)
    except SearchExhaustedError as exc:
        return str(exc), exc.limit, exc.column, exc.tried


def _seeded_admissible(seed, n):
    """A random QR matrix: antisymmetric on a random red set, symmetric elsewhere."""
    rng = random.Random(seed)
    red = [rng.random() < 0.5 for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rng.choice((1, -1))
        rows[j][i] = -rows[i][j] if red[i] and red[j] else rows[i][j]
    return SignMatrix.from_signs(rows)


class TestWheel:
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("qs", [(), (3,), (5,), (3, 5), (5, 3), (3, 5, 7, 11)])
    def test_residues_match_brute_force(self, c, qs):
        for signs in itertools.product((1, -1), repeat=len(qs)):
            # Euler's criterion: (r / q) = s exactly when r^((q-1)/2) is 1
            # resp. q - 1 mod q
            targets = [
                (q, (q - 1) // 2, 1 if s == 1 else q - 1) for q, s in zip(qs, signs)
            ]
            modulus = 4 * prod(qs)
            assert qr._wheel(c, targets) == [
                r for r in range(modulus)
                if r % 4 == c and all(legendre(r, q) == s for q, s in zip(qs, signs))
            ]

    @pytest.mark.parametrize("seed, n", [(seed, 4 + seed) for seed in range(13)])
    def test_matches_euler_reference(self, monkeypatch, seed, n):
        # the same witnesses, exhausted column, tried and message, at an
        # explicit limit of 10**7, inside a period of each column's wheel, on
        # and around its boundary, and across the first block edge at 4097
        matrix = _seeded_admissible(seed, n)
        moduli = []
        wheel = qr._wheel

        def recorded(c, targets):
            moduli.append(4 * prod(q for q, _, _ in targets))
            return wheel(c, targets)

        monkeypatch.setattr(qr, "_wheel", recorded)
        primes = witness_primes(matrix, 10**7)
        assert primes == _euler_witness(matrix, 10**7)
        assert n < 7 or max(moduli) > 4  # these seeds walk a wheel from n = 7 on
        limits = {4095, 4096, 4097, 4098}
        for p, modulus in zip(primes, moduli):
            edge = p - p % modulus  # the start of the period that holds p
            limits |= {p - 1, edge - 1, edge, edge + 1}
        for limit in sorted(limits):
            assert _search_outcome(witness_primes, matrix, limit) == _search_outcome(
                _euler_witness, matrix, limit
            )


class TestNoDefaultBound:
    # with no limit a column walks on to its witness, however far it lies;
    # these three matrices need witnesses past 10**7
    @pytest.mark.parametrize("seed, column", [(1, 20), (2, 19), (3, 20)])
    def test_a_cap_exhausts_and_no_limit_realizes(self, seed, column):
        matrix = _seeded_admissible(seed, 20)
        with pytest.raises(SearchExhaustedError) as got:
            witness_primes(matrix, 10**7)
        assert got.value.column == column
        primes = witness_primes(matrix)
        assert max(primes) > 10**7
        assert primes == witness_primes(matrix, 4 * 10**9)

    def test_cli_without_limit(self, capsys, monkeypatch):
        # the 20x20 matrix of seed 1: its last two witnesses lie past 2**22
        matrix = _seeded_admissible(1, 20)
        text = "".join(" ".join(map(str, row)) + "\n" for row in matrix.signs())
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main(["witness"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == [
            "3", "13", "37", "43", "11", "67", "277", "5077", "3583", "14107",
            "20389", "60607", "163249", "516623", "342283", "808217", "457271",
            "60041", "5047417", "11324759", "VERIFIED",
        ]


def _traced_peak(call):
    """call() and the tracemalloc peak in bytes while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedPrimeSource:
    # a search keeps the qr.CACHED_BLOCKS sieve blocks up to 2**22, 2 MB of
    # flags, for its whole run, and sieves each block past them for the walk
    # that reads it: no peak grows with the limit

    @pytest.mark.parametrize(
        "limit, bound",
        [
            # the kept blocks, 2 MB, and 3 MB for the block being read, the one
            # being sieved, the sieve's temporaries and the walk (4.9 MB in
            # all); an LRU cache of eleven blocks reached 13.3 MB at 4e7, and a
            # source that kept every block would hold one byte per odd number
            # up to the limit, 20 MB
            pytest.param(10**7, 6 * 10**6, id="1e7"),
            pytest.param(4 * 10**7, 6 * 10**6, id="4e7"),
        ],
    )
    def test_two_column_walks_hold_the_cached_blocks(self, limit, bound):
        # the primes = 1 mod 4 * 3 * 5 * 7 * 11 * 13, as a wheel walks them:
        # every block is sieved, and few integers are made
        modulus = 60060
        walked = []

        def find(k, chosen, c, walk):
            walked.append(sum(1 for _ in walk((1,), modulus)))
            # the witnesses of the matrix, 3 = 3 mod 4 on its 1x1 skew block
            # and 13 = 1 mod 4, with (3 / 13) = (13 / 3) = +1
            return (3, 13)[k]

        matrix = SignMatrix.from_signs([[0, 1], [1, 0]])
        primes, peak = _traced_peak(
            lambda: qr._column_search(matrix, 2, limit, find, qr_matrix_from_primes)
        )
        assert primes == [3, 13]
        assert walked == [sum(odd_prime_flags(limit)[:: modulus // 2])] * 2
        assert peak <= bound

    def test_n22_search_peak(self):
        # seed 18 needs a witness of 34002863, past 2**25: a source that kept
        # every doubling block peaks at 44.8 MB here, an LRU cache of eleven
        # blocks at 13.3 MB, the kept blocks up to 2**22 at 3.9 MB
        matrix = _seeded_admissible(18, 22)
        primes, peak = _traced_peak(lambda: witness_primes(matrix, 4 * 10**9))
        assert max(primes) == 34002863
        assert peak <= 6 * 10**6

    def test_blocks_up_to_2_22_sieved_once(self, monkeypatch):
        # the 20x20 matrix of seed 1 (TestNoDefaultBound.test_cli_without_limit):
        # columns 19 and 20 walk past 2**22, to 5047417 and 11324759; the
        # blocks below are sieved once for all 20 walks, the block past 2**22
        # that both walks read is sieved for each of them
        calls = Counter()
        original = rational.odd_prime_flags

        def counted(bound, lo=1):
            calls[lo, bound] += 1  # the sieve's own base primes have lo = 3
            return original(bound, lo)

        monkeypatch.setattr(rational, "odd_prime_flags", counted)
        primes = witness_primes(_seeded_admissible(1, 20))
        assert primes[-2:] == [5047417, 11324759]
        # the (lo, bound) of the blocks up to the one that holds 11324759
        blocks = list(itertools.islice(odd_prime_blocks(inf, lambda bound, lo: bound), 15))
        assert blocks[qr.CACHED_BLOCKS - 1 :][:2] == [(2**21 + 1, 2**22), (2**22 + 1, 3 * 2**21)]
        assert {key for key in calls if key[0] != 3} == set(blocks)
        assert [calls[block] for block in blocks] == [1] * qr.CACHED_BLOCKS + [2, 1, 1, 1]

    def test_exhaust_past_the_cached_blocks(self):
        # seed 2 needs a witness of 9421661 at n = 18; its walk to the limit
        # re-sieves the blocks past 2**22, and so does the count of tried
        limit = 2**22 + BLOCK + 1
        matrix = _seeded_admissible(2, 18)
        with pytest.raises(SearchExhaustedError) as got:
            witness_primes(matrix, limit)
        dec = block_form(matrix)
        c = 3 if got.value.column - 1 in dec.perm[: dec.s] else 1
        # the primes = c mod 4, off one sieve up to the limit
        assert got.value.tried == sum(odd_prime_flags(limit)[(c - 1) // 2 :: 2])


def _run_optimized_cli(argv, stdin):
    env = dict(os.environ, PYTHONPATH=str(Path(resmat.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-O", "-m", "resmat.cli", *argv],
        input=stdin, capture_output=True, text=True, timeout=60, env=env,
    )


class TestWitnessOptimized:
    # python -O strips asserts; the post-condition must survive it
    def test_verified(self):
        proc = _run_optimized_cli(["witness"], "0 -1 1\n1 0 -1\n1 -1 0\n")
        assert proc.returncode == 0
        assert proc.stdout == "3\n7\n13\nVERIFIED\n"

    def test_exhausted(self):
        proc = _run_optimized_cli(
            ["witness", "--limit", "1"], "0 -1 1\n1 0 -1\n1 -1 0\n"
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "error: no prime of norm <= 1 realizes column 1\n"


class TestJacobiMatrix:
    def test_pair(self):
        assert jacobi_matrix([9, 5]) == SignMatrix.from_signs([[0, 1], [1, 0]])

    def test_coprime_triple_is_member(self):
        assert is_qr_matrix(jacobi_matrix([15, 7, 11])).verdict

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            jacobi_matrix([9, 15])

    def test_rejects_even_or_unit(self):
        with pytest.raises(ValueError):
            jacobi_matrix([3, 8])
        with pytest.raises(ValueError):
            jacobi_matrix([1, 3])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_membership_closure(self, data):
        pool = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        k = data.draw(st.integers(2, 4))
        primes = data.draw(
            st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True)
        )
        exps = data.draw(
            st.lists(st.integers(1, 3), min_size=k, max_size=k)
        )
        values = [p**e for p, e in zip(primes, exps)]
        assert is_qr_matrix(jacobi_matrix(values)).verdict


def cycle_type_representatives(n):
    """One permutation of range(n) per cycle type, with its CycleType.

    Every invariant is found by enumeration: the class size by counting the
    permutations of the same cycle lengths, the pair orbits by following
    each unordered pair around.
    """
    reps, sizes = {}, Counter()
    for sigma in itertools.permutations(range(n)):
        seen, lengths = set(), []
        for start in range(n):
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i = sigma[i]
                length += 1
            if length:
                lengths.append(length)
        key = tuple(sorted(lengths, reverse=True))
        reps.setdefault(key, sigma)
        sizes[key] += 1
    types = []
    for key, sigma in reps.items():
        seen, pairs = set(), 0
        for pair in itertools.combinations(range(n), 2):
            orbit = frozenset(pair)
            if orbit in seen:
                continue
            pairs += 1
            while orbit not in seen:
                seen.add(orbit)
                orbit = frozenset(sigma[i] for i in orbit)
        odd = sum(c % 2 for c in key)
        t = CycleType((sizes[key], pairs, odd, len(key) - odd, key.count(1)))
        types.append((sigma, t))
    return types


def is_skew(mat):
    s = mat.signs()
    return all(s[i][j] == -s[j][i] for i in range(mat.n) for j in range(i))


class TestCounts:
    @pytest.mark.parametrize(
        "n,expected", [(2, 4), (3, 40), (4, 768), (5, 27648)]
    )
    def test_matrix_counts(self, n, expected):
        assert count_qr_matrices(n) == expected

    @pytest.mark.parametrize(
        "n,expected", [(2, 3), (3, 10), (4, 47), (7, 59744), (8, 1851578)]
    )
    def test_class_counts(self, n, expected):
        assert count_qr_classes(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fixed_counts_match_brute_force(self, n):
        mats = list(sign_matrices(n))
        reps = cycle_type_representatives(n)
        # the walk yields the invariants that enumeration finds
        assert sorted(cycle_types(n)) == sorted(t for _, t in reps)
        for sigma, t in reps:
            fixed = [m for m in mats if conjugate(m, sigma) == m]
            assert fixed_qr(t) == sum(is_qr_matrix(m).verdict for m in fixed)
            assert fixed_symmetric(t) == sum(m.is_symmetric() for m in fixed)
            assert fixed_skew(t) == sum(is_skew(m) for m in fixed)

    def test_matrix_count_matches_direct_filter(self, capsys):
        # the library counters and `resmat count`, members and classes,
        # against every m=2 sign matrix of each kind
        kinds = {
            "qr": lambda m: is_qr_matrix(m).verdict,
            "symmetric": SignMatrix.is_symmetric,
            "skew": is_skew,
        }
        for n in (1, 2, 3, 4):
            mats = list(sign_matrices(n))
            for kind, member in kinds.items():
                members = [m for m in mats if member(m)]
                classes = len(equivalence_classes(members))
                if kind == "qr":
                    assert count_qr_matrices(n) == len(members)
                    assert count_qr_classes(n) == classes
                for flags, want in (([], len(members)), (["--classes"], classes)):
                    argv = ["count", "--n", str(n), "--kind", kind, *flags]
                    assert cli.main(argv) == 0
                    assert capsys.readouterr() == (f"{want}\n", "")

    def test_out_of_range(self):
        with pytest.raises(UnsupportedDimensionError):
            count_qr_matrices(COUNT_MAX_N + 1)
        with pytest.raises(UnsupportedDimensionError):
            count_qr_classes(COUNT_MAX_N + 1)
        with pytest.raises(UnsupportedDimensionError):
            count_qr_classes(0)

    # every census counter accepts exactly 1 <= n <= COUNT_MAX_N
    COUNTERS = (
        count_qr_matrices,
        count_qr_classes,
        count_symmetric_classes,
        count_skew_classes,
        functools.partial(identity_term, fixed=fixed_symmetric),
    )

    @pytest.mark.parametrize("n", range(-1, COUNT_MAX_N + 2))
    def test_census_formulas_and_range(self, n):
        if not 1 <= n <= COUNT_MAX_N:
            message = f"n must be in 1..{COUNT_MAX_N}, got {n}"
            for counter in self.COUNTERS:
                with pytest.raises(UnsupportedDimensionError, match=message):
                    counter(n)
            return
        pairs = n * (n - 1) // 2
        assert count_qr_matrices(n) == ((1 << n) - n) << pairs
        # the member counts that `resmat count --kind symmetric|skew` prints
        symmetric, skew = identity_term(n, fixed_symmetric), identity_term(n, fixed_skew)
        assert symmetric == skew == 1 << pairs
        for counter in self.COUNTERS:
            assert counter(n) >= 1

    def test_largest_n(self):
        n = COUNT_MAX_N
        members, classes = count_qr_matrices(n), count_qr_classes(n)
        # a class holds between 1 and n! members
        assert members <= classes * factorial(n) and classes <= members


class TestClosure:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_transpose_and_negation(self, n):
        for mat in sign_matrices(n):
            verdict = is_qr_matrix(mat).verdict
            assert is_qr_matrix(mat.transpose()).verdict == verdict
            assert is_qr_matrix(mat.negate()).verdict == verdict


def enumerate_config_graphs(n):
    """All configuration graphs on n labeled vertices (canonical colorings)."""
    red_sets = [frozenset({0})]
    for size in range(2, n + 1):
        red_sets.extend(frozenset(c) for c in itertools.combinations(range(n), size))
    for red in red_sets:
        rr = [(i, j) for i in sorted(red) for j in sorted(red) if i < j]
        other = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not (i in red and j in red)
        ]
        for orient in itertools.product((False, True), repeat=len(rr)):
            directed = frozenset(
                (j, i) if flip else (i, j) for (i, j), flip in zip(rr, orient)
            )
            for labs in itertools.product((1, -1), repeat=len(other)):
                yield ConfigGraph(n, red, directed, tuple(zip(other, labs)))


class TestConfigGraph:
    def test_fixture(self):
        g = to_config_graph(M_3_7_13)
        assert g.red == frozenset({0, 1})
        assert g.directed == frozenset({(1, 0)})
        assert dict(g.labels) == {(0, 2): 1, (1, 2): -1}

    def test_roundtrip_exhaustive_n3(self):
        for mat in sign_matrices(3):
            if not is_qr_matrix(mat).verdict:
                continue
            assert from_config_graph(to_config_graph(mat)) == mat

    def test_enumeration_matches_matrix_count(self):
        for n in (2, 3):
            graphs = list(enumerate_config_graphs(n))
            assert len(graphs) == count_qr_matrices(n)
            mats = {from_config_graph(g) for g in graphs}
            assert len(mats) == len(graphs)
            for m in mats:
                assert is_qr_matrix(m).verdict
                assert to_config_graph(m) in graphs

    @pytest.mark.parametrize(
        "mat",
        [SignMatrix(3, ((None, 1), (1, None))), SignMatrix(4, ((None, 0), (2, None)))],
    )
    def test_only_m2_members_have_a_graph(self, mat):
        # decide accepts these m=3/4 members, but a configuration graph speaks
        # +-1: reading their exponents as signs would build a wrong graph
        assert decide(mat).verdict
        with pytest.raises(ValueError, match="only defined for m=2"):
            to_config_graph(mat)

    def test_lone_red_must_be_first_vertex(self):
        with pytest.raises(ValueError):
            ConfigGraph(
                2, frozenset({1}), frozenset(), ((((0, 1)), 1),)
            )

    def test_red_red_pairs_need_direction(self):
        with pytest.raises(ValueError):
            ConfigGraph(2, frozenset({0, 1}), frozenset(), (((0, 1), 1),))

    def test_labels_must_be_signs(self):
        with pytest.raises(ValueError):
            ConfigGraph(2, frozenset({0}), frozenset(), (((0, 1), 0),))

    @pytest.mark.parametrize("red", [frozenset(), frozenset({0, 2})])
    def test_red_set_must_be_nonempty_vertices(self, red):
        with pytest.raises(ValueError) as exc:
            ConfigGraph(2, red, frozenset(), (((0, 1), 1),))
        assert str(exc.value) == "red set must be a nonempty subset of the vertices"

    @pytest.mark.parametrize(
        "labels",
        [
            (((0, 1), 1),),
            (((0, 1), 1), ((0, 2), 1), ((1, 2), 1), ((0, 1), -1)),
        ],
    )
    def test_every_other_pair_labeled_once(self, labels):
        # a pair left out, resp. a pair labeled twice
        with pytest.raises(ValueError) as exc:
            ConfigGraph(3, frozenset({0}), frozenset(), labels)
        assert str(exc.value) == (
            "exactly one labeled edge per non-red-red pair required"
        )
