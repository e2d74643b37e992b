import io
import random
import sys
from itertools import islice
from math import inf, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resmat import cyclotomic, higher, rational
from resmat.cyclotomic import (
    EisensteinInt,
    GaussianInt,
    cubic_symbol,
    gcd_element,
    is_primary,
    primary_generator,
    quartic_symbol,
    same_ideal,
)
from resmat.errors import NotAResidueMatrixError, SearchExhaustedError
from resmat.higher import (
    _prime_over,
    _primes_over,
    cubic_matrix,
    cubic_witness,
    is_cubic_residue_matrix,
    is_quartic_residue_matrix,
    quartic_matrix,
    quartic_witness,
)
from resmat.matrices import SignMatrix, conjugate
from resmat.qr import block_form, witness_primes
from resmat.rational import class_primes, is_prime, odd_prime_blocks, sqrt_mod

EIS_FIXTURE = [EisensteinInt(-2, -3), EisensteinInt(4, 3)]
GAU_FIXTURE = [GaussianInt(-1, 2), GaussianInt(3, 2)]


def _degree_one_primes(ring, norm_limit):
    """The witness search's candidates of every column class, ascending:
    _primes_over each sieved p = 1 (mod M)."""
    for p in class_primes(odd_prime_blocks(norm_limit), (1,), lcm(2, ring.M)):
        yield from _primes_over(ring, p)


def symmetric_cubic_matrices(n):
    """All symmetric n x n cubic sign matrices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    from itertools import product

    for exps in product(range(3), repeat=len(pairs)):
        rows = [[None] * n for _ in range(n)]
        for (i, j), e in zip(pairs, exps):
            rows[i][j] = rows[j][i] = e
        yield SignMatrix(3, tuple(tuple(r) for r in rows))


def quartic_members(n):
    """All n x n quartic residue matrices, by filtering the full census."""
    from itertools import product

    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for exps in product(range(4), repeat=len(offdiag)):
        rows = [[None] * n for _ in range(n)]
        for (i, j), e in zip(offdiag, exps):
            rows[i][j] = e
        mat = SignMatrix(4, tuple(tuple(r) for r in rows))
        if is_quartic_residue_matrix(mat).verdict:
            yield mat


class TestCubicMatrix:
    def test_fixture(self):
        mat = cubic_matrix(EIS_FIXTURE)
        # (-2-3w / 4+3w)_3 = (4+3w / -2-3w)_3 = w
        assert mat.entries == ((None, 1), (1, None))
        assert is_cubic_residue_matrix(mat)

    def test_always_symmetric(self):
        mat = cubic_matrix(
            [EisensteinInt(-2, -3), EisensteinInt(4, 3), EisensteinInt(-2, 3)]
        )
        assert is_cubic_residue_matrix(mat)

    def test_rejects_non_primary(self):
        with pytest.raises(ValueError):
            cubic_matrix([EisensteinInt(3, 1), EisensteinInt(4, 3)])

    def test_rejects_repeated_ideal(self):
        with pytest.raises(ValueError):
            cubic_matrix([EisensteinInt(-2, -3), EisensteinInt(-2, -3)])

    def test_rejects_wrong_ring(self):
        with pytest.raises(ValueError):
            cubic_matrix(GAU_FIXTURE)

    def test_membership_rejects_asymmetric(self):
        mat = SignMatrix(3, (
            (None, 1, 0),
            (2, None, 0),
            (0, 0, None),
        ))
        assert not is_cubic_residue_matrix(mat)

    def test_membership_wrong_modulus(self):
        with pytest.raises(ValueError):
            is_cubic_residue_matrix(SignMatrix(2, ((None, 0), (0, None))))


class TestSymbolMatrices:
    # degree-1 primes plus the inert -2, -5 in Z[w] and -3, -7 in Z[i]
    POOLS = [
        (cubic_matrix, cubic_symbol, EisensteinInt,
         [EisensteinInt(-2, 0), EisensteinInt(-5, 0)]),
        (quartic_matrix, quartic_symbol, GaussianInt,
         [GaussianInt(-3, 0), GaussianInt(-7, 0)]),
    ]

    @pytest.mark.parametrize("build, symbol, ring, inert", POOLS)
    def test_entries_are_the_public_symbols(self, build, symbol, ring, inert):
        primes = list(islice(_degree_one_primes(ring, 10**3), 8)) + inert
        mat = build(primes)
        n = len(primes)
        assert mat.entries == tuple(
            tuple(None if i == j else symbol(primes[i], primes[j]) for j in range(n))
            for i in range(n)
        )

    @pytest.mark.parametrize("build, symbol, ring, inert", POOLS)
    def test_each_prime_proved_once(self, monkeypatch, build, symbol, ring, inert):
        from resmat import higher

        calls = []
        original = cyclotomic.is_prime_element

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(higher, "is_prime_element", counted)
        monkeypatch.setattr(cyclotomic, "is_prime_element", counted)
        primes = list(islice(_degree_one_primes(ring, 10**3), 5)) + inert
        build(primes)
        assert calls == primes

    @pytest.mark.parametrize(
        "build, primes, message",
        [
            (cubic_matrix, [EisensteinInt(3, 1)], "not a primary prime element: 3+w"),
            (cubic_matrix, [EisensteinInt(-2, -3), EisensteinInt(-2, -3)],
             "prime ideals must be distinct: -2-3w, -2-3w"),
            (cubic_matrix, GAU_FIXTURE,
             "expected EisensteinInt elements, got GaussianInt(a=-1, b=2)"),
            (quartic_matrix, [GaussianInt(2, 1)], "not a primary prime element: 2+i"),
            (quartic_matrix, [GaussianInt(-7, 4)], "not a primary prime element: -7+4i"),
            (quartic_matrix, EIS_FIXTURE,
             "expected GaussianInt elements, got EisensteinInt(a=-2, b=-3)"),
        ],
    )
    def test_validation_messages(self, build, primes, message):
        with pytest.raises(ValueError) as got:
            build(primes)
        assert str(got.value) == message


class TestQuarticMatrix:
    def test_fixture(self):
        mat = quartic_matrix(GAU_FIXTURE)
        # (-1+2i / 3+2i)_4 = 1 and (3+2i / -1+2i)_4 = -1
        assert mat.entries == ((None, 0), (2, None))

    def test_fixture_is_member(self):
        dec = is_quartic_residue_matrix(quartic_matrix(GAU_FIXTURE))
        assert dec.verdict and dec.s == 2 and dec.pairwise_ok

    def test_skew_pair_decision(self):
        # the pair has m01 = 1, m10 = -1, so both diagonal terms are -1
        mat = SignMatrix(4, ((None, 0), (2, None)))
        dec = is_quartic_residue_matrix(mat)
        assert dec.verdict and dec.pairwise_ok
        assert dec.diag == (-1, -1)
        assert dec.s == 2

    def test_imaginary_ratio_rejected(self):
        mat = SignMatrix(4, ((None, 1), (0, None)))
        dec = is_quartic_residue_matrix(mat)
        assert not dec.verdict and not dec.pairwise_ok

    def test_rejects_non_primary(self):
        with pytest.raises(ValueError):
            quartic_matrix([GaussianInt(2, 1), GaussianInt(3, 2)])

    def test_membership_wrong_modulus(self):
        with pytest.raises(ValueError):
            is_quartic_residue_matrix(SignMatrix(2, ((None, 0), (0, None))))

    def test_matrices_from_primes_always_members(self):
        pool = [
            GaussianInt(-1, 2),
            GaussianInt(3, 2),
            GaussianInt(3, -2),
            GaussianInt(1, 4),
            GaussianInt(1, -4),
            GaussianInt(5, 4),
        ]
        mat = quartic_matrix(pool[:4])
        assert is_quartic_residue_matrix(mat).verdict
        mat = quartic_matrix(pool[2:])
        assert is_quartic_residue_matrix(mat).verdict


class TestQuarticBlockForm:
    """qr.block_form on m=4 matrices: the skew block has pair term -1."""

    def test_blocks_shape_exhaustive_n3(self):
        for mat in quartic_members(3):
            bd = block_form(mat)
            moved = conjugate(mat, bd.perm)
            for i in range(3):
                for j in range(i + 1, 3):
                    d = (moved.entries[i][j] - moved.entries[j][i]) % 4
                    if i < bd.s and j < bd.s:
                        assert d == 2
                    else:
                        assert d == 0

    def test_non_member_raises(self):
        with pytest.raises(NotAResidueMatrixError, match="m=4"):
            block_form(SignMatrix(4, ((None, 1), (0, None))))


class TestWitnesses:
    def test_cubic_fixture_roundtrip(self):
        mat = cubic_matrix(EIS_FIXTURE)
        primes = cubic_witness(mat)
        assert cubic_matrix(primes) == mat

    def test_cubic_deterministic(self):
        mat = cubic_matrix(EIS_FIXTURE)
        assert cubic_witness(mat) == cubic_witness(mat)

    def test_cubic_single(self):
        w = cubic_witness(SignMatrix(3, ((None,),)))
        assert w == [EisensteinInt(-2, -3)]

    def test_cubic_rejects_asymmetric(self):
        mat = SignMatrix(3, ((None, 1), (2, None)))
        with pytest.raises(NotAResidueMatrixError):
            cubic_witness(mat)

    def test_quartic_single(self):
        w = quartic_witness(SignMatrix(4, ((None,),)))
        assert w == [GaussianInt(-1, 2)]

    def test_quartic_fixture_roundtrip(self):
        mat = quartic_matrix(GAU_FIXTURE)
        primes = quartic_witness(mat)
        assert quartic_matrix(primes) == mat

    def test_quartic_rejects_non_member(self):
        with pytest.raises(NotAResidueMatrixError):
            quartic_witness(SignMatrix(4, ((None, 1), (0, None))))

    def test_quartic_exhausted(self):
        mat = quartic_matrix(GAU_FIXTURE)
        with pytest.raises(SearchExhaustedError):
            quartic_witness(mat, norm_limit=5)

    @pytest.mark.parametrize("norm_limit", [1, 4, 7, 12])
    @pytest.mark.parametrize(
        "witness, mat, modulus",
        [
            (cubic_witness, cubic_matrix(EIS_FIXTURE), 3),  # norms 7, 13
            (quartic_witness, quartic_matrix(GAU_FIXTURE), 4),  # norms 5, 13
        ],
    )
    def test_exhausted_column_and_tried(self, witness, mat, modulus, norm_limit):
        with pytest.raises(SearchExhaustedError) as got:
            witness(mat, norm_limit=norm_limit)
        exc = got.value
        assert exc.limit == norm_limit
        assert exc.column == (2 if norm_limit >= 7 else 1)
        assert str(exc) == (
            f"no prime of norm <= {norm_limit} realizes column {exc.column}"
        )
        # an exhausted column has examined every prime of its class: 1 mod 6
        # in Z[w]; in Z[i] 5 mod 8 on the skew block, here both columns
        bd = block_form(mat)
        c = 5 if modulus == 4 and exc.column - 1 in bd.perm[: bd.s] else 1
        split = [
            p for p in range(3, norm_limit + 1)
            if p % (2 * modulus) == c and is_prime(p)
        ]
        assert exc.tried == len(split)

    @pytest.mark.parametrize(
        "witness, build, fixture",
        [
            (cubic_witness, cubic_matrix, EIS_FIXTURE),
            (quartic_witness, quartic_matrix, GAU_FIXTURE),
        ],
    )
    def test_no_limit_is_unbounded(self, monkeypatch, witness, build, fixture):
        # the second witness has norm 13: a cap of 12 exhausts its column,
        # and with no norm_limit, the default, the frame walks with no bound
        mat = build(fixture)
        with pytest.raises(SearchExhaustedError):
            witness(mat, 12)
        limits, frame = [], higher._column_search

        def recording(matrix, m, limit, find, build):
            limits.append(limit)
            return frame(matrix, m, limit, find, build)

        monkeypatch.setattr(higher, "_column_search", recording)
        assert witness(mat) == fixture
        assert limits == [inf]

    def test_cubic_roundtrip_random(self):
        rng = random.Random(20260823)
        mats = list(symmetric_cubic_matrices(3))
        for mat in rng.sample(mats, 10):
            primes = cubic_witness(mat)
            assert cubic_matrix(primes) == mat

    def test_quartic_roundtrip_random(self):
        rng = random.Random(20260823)
        mats = list(quartic_members(3))
        for mat in rng.sample(mats, 10):
            primes = quartic_witness(mat)
            assert quartic_matrix(primes) == mat
            bd = block_form(mat)
            skew = set(bd.perm[: bd.s])
            for k, p in enumerate(primes):
                want = (3, 2) if k in skew else (1, 0)
                assert (p.a % 4, p.b % 4) == want


def _split_roots(kind, p):
    """The roots of w^2 + w + 1 resp. x^2 + 1 mod p, larger first."""
    if kind == "eisenstein":
        r = sqrt_mod(p - 3, p)  # sqrt(-3)
        a = (r - 1) * pow(2, -1, p) % p
        roots = (a, (-1 - a) % p)
    else:
        r = sqrt_mod(p - 1, p)  # sqrt(-1)
        roots = (r, p - r)
    return sorted(roots, reverse=True)


def _gcd_prime_over(kind, p, r):
    """The primary generator of the ideal (p, zeta - r), by a gcd in the ring."""
    ring = EisensteinInt if kind == "eisenstein" else GaussianInt
    return primary_generator(gcd_element(ring(p, 0), ring(-r, 1)))


def _candidates_oracle(kind, norm_limit):
    """The degree-1 primary primes by trial: every integer p from 3 up, an
    is_prime test, and a gcd in the ring for each root."""
    modulus = 3 if kind == "eisenstein" else 4
    p = 2
    while True:
        p += 1
        if p > norm_limit:
            return
        if p % modulus != 1 or not is_prime(p):
            continue
        for r in _split_roots(kind, p):
            yield _gcd_prime_over(kind, p, r)


def _trace_roots(ring, p):
    """(T +- sqrt(T^2 - 4)) / 2 mod p with T = TRACE, larger first."""
    t = ring.TRACE
    s, inv2 = sqrt_mod(t * t - 4, p), (p + 1) // 2
    return sorted(((t + s) * inv2 % p, (t - s) * inv2 % p), reverse=True)


class TestCandidates:
    @pytest.mark.parametrize("ring, step", [(GaussianInt, 4), (EisensteinInt, 6)])
    def test_roots_match_square_root_formula(self, ring, step):
        # the search takes its roots as powers z^((p-1)/M); a root r and
        # the ideal (p, zeta - r) determine each other
        limit = 2 * 10**5
        want = [
            _prime_over(ring, p, r)
            for p in range(step + 1, limit + 1, step)
            if is_prime(p)
            for r in _trace_roots(ring, p)
        ]
        assert len(want) > 17000
        assert list(_degree_one_primes(ring, limit)) == want

    @pytest.mark.parametrize("kind", ["eisenstein", "gaussian"])
    def test_first_candidates_match_oracle(self, kind):
        want = list(islice(_candidates_oracle(kind, 10**6), 20000))
        ring = cyclotomic._RINGS[kind]
        got = list(islice(_degree_one_primes(ring, 10**6), 20000))
        assert len(want) == 20000
        assert got == want

    @pytest.mark.parametrize("kind", ["eisenstein", "gaussian"])
    @pytest.mark.parametrize(
        # the sieve starts at 4096 and doubles to 8192
        "norm_limit", [-5, 0, 1, 2, 3, 7, 13, 4095, 4096, 4097, 8192, 8193],
    )
    def test_limits_match_oracle(self, kind, norm_limit):
        got = list(_degree_one_primes(cyclotomic._RINGS[kind], norm_limit))
        assert got == list(_candidates_oracle(kind, norm_limit))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["eisenstein", "gaussian"]), st.integers(7, 10**15))
    @example("eisenstein", 7)
    @example("gaussian", 5)
    def test_euclid_matches_gcd_at_large_norm(self, kind, start):
        # the first prime p = 1 (mod 3) resp. (mod 4) from start, far past
        # any sieve bound the search reaches
        step = 6 if kind == "eisenstein" else 4
        p = start + (1 - start) % step
        while not is_prime(p):
            p += step
        ring = EisensteinInt if kind == "eisenstein" else GaussianInt
        for r in _split_roots(kind, p):
            got = _prime_over(ring, p, r)
            assert got == _gcd_prime_over(kind, p, r)
            assert got.norm() == p
            assert is_primary(got)


def _count_calls(monkeypatch, func):
    """Rebind func in every resmat module that binds it; return the call list."""
    calls = []

    def counted(*args):
        calls.append(args)
        return func(*args)

    for name, module in list(sys.modules.items()):
        if name == "resmat" or name.startswith("resmat."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "witness, post",
    [(cubic_witness, cubic_matrix), (quartic_witness, quartic_matrix)],
)
def test_search_proves_no_candidate_prime(monkeypatch, witness, post):
    # the candidates come off the sieve and are built by Euclid on (p, r),
    # so every primality test of a search is one of its post-condition's
    if witness is cubic_witness:
        members = symmetric_cubic_matrices(4)
    else:
        members = quartic_members(3)
    mat = random.Random(5).choice(list(members))
    gcd_calls = _count_calls(monkeypatch, cyclotomic.gcd_element)
    prime_calls = _count_calls(monkeypatch, rational.is_prime)
    chosen = witness(mat)
    search_tests = len(prime_calls)
    prime_calls.clear()
    assert post(chosen) == mat
    assert gcd_calls == []
    assert search_tests == len(prime_calls) > 0


@pytest.mark.parametrize("norm_limit", [-5, 0, 1, 2])
@pytest.mark.parametrize("witness", [cubic_witness, quartic_witness])
def test_limit_below_three_exhausts_first_column(witness, norm_limit):
    mat = SignMatrix(3 if witness is cubic_witness else 4, ((None,),))
    with pytest.raises(SearchExhaustedError) as got:
        witness(mat, norm_limit)
    assert (got.value.limit, got.value.column, got.value.tried) == (norm_limit, 1, 0)


@pytest.mark.parametrize(
    "witness, m",
    [
        (witness, m)
        for witness, own_m in (
            (witness_primes, 2), (cubic_witness, 3), (quartic_witness, 4)
        )
        for m in (2, 3, 4)
        if m != own_m
    ],
)
def test_witness_rejects_other_m(monkeypatch, witness, m):
    # symmetric, so a member for every m: only the m check can reject it

    def unsieved(bound, lo=1):
        raise AssertionError("sieved a block")

    # the column search's check, one message for every m, before any block
    monkeypatch.setattr(rational, "odd_prime_flags", unsieved)
    own_m = {witness_primes: 2, cubic_witness: 3, quartic_witness: 4}[witness]
    mat = SignMatrix(m, ((None, 1), (1, None)))
    with pytest.raises(ValueError) as got:
        witness(mat, 100)
    assert type(got.value) is ValueError
    assert str(got.value) == f"expected an m={own_m} sign matrix, got m={m}"


@pytest.mark.parametrize(
    "m, witness, token",
    [(2, witness_primes, "-1"), (3, cubic_witness, "w"), (4, quartic_witness, "i")],
)
def test_one_column_search_per_witness(monkeypatch, capsys, m, witness, token):
    # m = 2, 3 and 4 share qr._column_search, from the library and the CLI
    from resmat import cli, qr

    calls = _count_calls(monkeypatch, qr._column_search)
    witness(SignMatrix(m, ((None, 1), (1, None))), 10**6)
    assert len(calls) == 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"0 {token}\n{token} 0\n"))
    assert cli.main(["witness", "--m", str(m)]) == 0
    assert capsys.readouterr().out.endswith("\nVERIFIED\n")
    assert len(calls) == 2


@pytest.mark.parametrize(
    "witness, rows",
    [
        (witness_primes, [[None, 1, 0], [0, None, 1], [0, 1, None]]),
        (cubic_witness, [[None, 1, 2], [1, None, 0], [2, 0, None]]),
        (quartic_witness, [[None, 1, 0], [3, None, 2], [0, 2, None]]),
    ],
)
def test_witness_of_list_rows(witness, rows):
    # the post-condition compares the witness's matrix with the input, so
    # list rows must equal their tuple form
    m = {witness_primes: 2, cubic_witness: 3, quartic_witness: 4}[witness]
    listed, tupled = SignMatrix(m, rows), SignMatrix(m, tuple(map(tuple, rows)))
    assert witness(listed, 10**6) == witness(tupled, 10**6)


def _witness_oracle(matrix, norm_limit):
    """The restart-per-column scan: each column regenerates the candidates
    by trial from norm 3, filters them by primary class, skips chosen ideals
    by same_ideal and compares both symbol directions through the validated
    public symbols.  An exhausted column has tried the norms of its class."""
    if matrix.m == 3:
        kind, symbol, class_filter = "eisenstein", cubic_symbol, None
    else:
        kind, symbol = "gaussian", quartic_symbol
        bd = block_form(matrix)
        skew = set(bd.perm[: bd.s])

        def class_filter(k, cand):
            want = (3, 2) if k in skew else (1, 0)
            return (cand.a % 4, cand.b % 4) == want

    chosen = []
    for k in range(matrix.n):
        norms = set()
        for cand in _candidates_oracle(kind, norm_limit):
            if class_filter is not None and not class_filter(k, cand):
                continue
            norms.add(cand.norm())
            if any(same_ideal(cand, q) for q in chosen):
                continue
            if all(
                symbol(cand, qj) == matrix.entries[k][j]
                and symbol(qj, cand) == matrix.entries[j][k]
                for j, qj in enumerate(chosen)
            ):
                chosen.append(cand)
                break
        else:
            raise SearchExhaustedError(
                f"no prime of norm <= {norm_limit} realizes column {k + 1}",
                limit=norm_limit,
                column=k + 1,
                tried=len(norms),
            )
    return chosen


@st.composite
def admissible_higher_matrices(draw, max_n=5):
    """A cubic (symmetric) matrix, or a quartic member: m_kj = m_jk + 2 inside
    a random red set of size other than 1, m_kj = m_jk elsewhere."""
    m = draw(st.sampled_from((3, 4)))
    n = draw(st.integers(1, max_n))
    red = [False] * n
    if m == 4:
        red = draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(
                lambda r: sum(r) != 1
            )
        )
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = draw(st.integers(0, m - 1))
            rows[i][j] = e
            rows[j][i] = (e + 2) % 4 if red[i] and red[j] else e
    return SignMatrix(m, tuple(tuple(r) for r in rows))


HIGHER_ORACLE_LIMITS = (-5, 0, 1, 4, 7, 12, 13, 100, 10**6)
EIS_MATRIX = cubic_matrix(EIS_FIXTURE)
GAU_MATRIX = quartic_matrix(GAU_FIXTURE)


class TestWitnessSharedCandidates:
    @settings(max_examples=200, deadline=None)
    @given(admissible_higher_matrices(), st.sampled_from(HIGHER_ORACLE_LIMITS))
    @example(EIS_MATRIX, 1)
    @example(EIS_MATRIX, 7)
    @example(EIS_MATRIX, 12)
    @example(EIS_MATRIX, 13)
    @example(GAU_MATRIX, 1)
    @example(GAU_MATRIX, 7)
    @example(GAU_MATRIX, 12)
    @example(GAU_MATRIX, 13)
    def test_matches_oracle(self, matrix, limit):
        witness = cubic_witness if matrix.m == 3 else quartic_witness
        try:
            expected = _witness_oracle(matrix, limit)
        except SearchExhaustedError as exc:
            with pytest.raises(SearchExhaustedError) as got:
                witness(matrix, limit)
            assert str(got.value) == str(exc)
            assert (got.value.limit, got.value.column, got.value.tried) == (
                exc.limit, exc.column, exc.tried,
            )
        else:
            assert witness(matrix, limit) == expected
