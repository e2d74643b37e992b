import itertools
import random
from collections import Counter
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmat.errors import UnsupportedDimensionError
from resmat.matrices import (
    COUNT_MAX_N,
    SignMatrix,
    canonical_form,
    conjugate,
    CycleType,
    count_skew_classes,
    count_symmetric_classes,
    cycle_types,
    equivalence_classes,
    fixed_skew,
    fixed_symmetric,
    identity_term,
    orbit_class_count,
)
from resmat.qr import count_qr_classes, fixed_qr


def identity_perm(n):
    return tuple(range(n))


def compose(sigma, tau):
    """The permutation acting as tau after sigma in conjugation.

    Satisfies conjugate(M, compose(sigma, tau)) ==
    conjugate(conjugate(M, tau), sigma).
    """
    return tuple(tau[sigma[i]] for i in range(len(sigma)))


def inverse_perm(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(inv)


def sign_matrices(n, m=2):
    """All n x n sign matrices over m-th roots of unity."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for exps in itertools.product(range(m), repeat=len(offdiag)):
        rows = [[None] * n for _ in range(n)]
        for (i, j), e in zip(offdiag, exps):
            rows[i][j] = e
        yield SignMatrix(m, tuple(tuple(r) for r in rows))


@st.composite
def random_matrix(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    m = draw(st.sampled_from([2, 3, 4]))
    rows = [
        [None if i == j else draw(st.integers(0, m - 1)) for j in range(n)]
        for i in range(n)
    ]
    return SignMatrix(m, tuple(tuple(r) for r in rows))


@st.composite
def matrix_and_perm(draw, max_n=5):
    mat = draw(random_matrix(max_n))
    perm = draw(st.permutations(range(mat.n)))
    return mat, tuple(perm)


QR_EXAMPLE = SignMatrix.from_signs([[0, -1, 1], [1, 0, -1], [1, -1, 0]])


class TestConstruction:
    def test_diagonal_must_be_zero(self):
        with pytest.raises(ValueError):
            SignMatrix(2, ((0, 0), (1, None)))

    def test_offdiagonal_must_be_root(self):
        with pytest.raises(ValueError):
            SignMatrix(2, ((None, None), (1, None)))
        with pytest.raises(ValueError):
            SignMatrix(3, ((None, 3), (0, None)))

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            SignMatrix(5, ((None,),))

    @pytest.mark.parametrize("m", [2.0, True, "2", None])
    def test_modulus_must_be_an_int(self, m):
        with pytest.raises(ValueError) as exc:
            SignMatrix(m, ((None, 0), (0, None)))
        assert str(exc.value) == f"modulus must be 2, 3 or 4, got {m}"

    @pytest.mark.parametrize("e", [True, False, 1.0])
    def test_exponents_must_be_ints(self, e):
        # True == 1 and hash(True) == hash(1): a bool would be stored, print
        # as True and equal the int matrix
        with pytest.raises(ValueError) as exc:
            SignMatrix(2, ((None, e), (0, None)))
        assert str(exc.value) == (
            f"off-diagonal entry (0,1) must be an exponent in [0,2), got {e!r}"
        )

    def test_from_signs_rejects_bools(self):
        with pytest.raises(ValueError) as exc:
            SignMatrix.from_signs([[0, True], [True, 0]])
        assert str(exc.value) == "off-diagonal entry (0,1) must be +1 or -1, got True"

    def test_signs_roundtrip(self):
        assert SignMatrix.from_signs(QR_EXAMPLE.signs()) == QR_EXAMPLE

    def test_n_equals_one(self):
        assert SignMatrix(2, ((None,),)).n == 1

    @pytest.mark.parametrize(
        "rows",
        [
            [[None, 0], [1, None]],
            [(None, 0), (1, None)],
            ([None, 0], (1, None)),
        ],
    )
    def test_list_rows_equal_tuple_rows(self, rows):
        mat = SignMatrix(2, rows)
        tup = SignMatrix(2, ((None, 0), (1, None)))
        assert mat == tup and hash(mat) == hash(tup)
        assert mat.entries == ((None, 0), (1, None))
        assert len({mat, tup}) == 1

    def test_tuple_rows_are_kept(self):
        rows = ((None, 0), (1, None))
        assert SignMatrix(2, rows).entries is rows

    @pytest.mark.parametrize("value", [2, 0, -2, "1", None, [1], 1.0, -1.0])
    def test_from_signs_names_a_bad_entry(self, value):
        with pytest.raises(ValueError) as exc:
            SignMatrix.from_signs([[0, 1], [value, 0]])
        assert str(exc.value) == (
            f"off-diagonal entry (1,0) must be +1 or -1, got {value!r}"
        )

    @pytest.mark.parametrize("value", [5, None, 1, -1])
    def test_from_signs_reads_the_diagonal(self, value):
        with pytest.raises(ValueError) as exc:
            SignMatrix.from_signs([[0, 1], [-1, value]])
        assert str(exc.value) == f"diagonal entry (1,1) must be 0, got {value!r}"

    def test_signs_roundtrip_exhaustive(self):
        for n in range(1, 5):
            for mat in sign_matrices(n):
                signs = mat.signs()
                assert SignMatrix.from_signs(signs) == mat
                assert signs == tuple(
                    tuple(0 if e is None else (-1) ** e for e in row)
                    for row in mat.entries
                )

    def test_empty_matrix(self):
        with pytest.raises(ValueError) as exc:
            SignMatrix(2, ())
        assert str(exc.value) == "matrix must have dimension >= 1"

    def test_ragged_row(self):
        with pytest.raises(ValueError) as exc:
            SignMatrix(2, ((None, 0), (1,)))
        assert str(exc.value) == "row 1 has length 1, expected 2"


class TestConjugate:
    def test_identity(self):
        assert conjugate(QR_EXAMPLE, identity_perm(3)) == QR_EXAMPLE

    def test_swap_first_two(self):
        # relabeling indices 1 and 2 of the (3,7,13) QR matrix by hand
        expected = SignMatrix.from_signs([[0, 1, -1], [-1, 0, 1], [-1, 1, 0]])
        assert conjugate(QR_EXAMPLE, (1, 0, 2)) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(QR_EXAMPLE, (0, 1))

    @given(matrix_and_perm())
    def test_inverse_recovers(self, mp):
        mat, perm = mp
        assert conjugate(conjugate(mat, perm), inverse_perm(perm)) == mat

    @given(matrix_and_perm(max_n=6), st.data())
    def test_group_action(self, mp, data):
        mat, sigma = mp
        tau = tuple(data.draw(st.permutations(range(mat.n))))
        lhs = conjugate(mat, compose(sigma, tau))
        rhs = conjugate(conjugate(mat, tau), sigma)
        assert lhs == rhs

    def test_group_action_exhaustive_n3(self):
        for mat in itertools.islice(sign_matrices(3), 16):
            for sigma in itertools.permutations(range(3)):
                for tau in itertools.permutations(range(3)):
                    assert conjugate(mat, compose(sigma, tau)) == conjugate(
                        conjugate(mat, tau), sigma
                    )


class TestTransposeNegate:
    # entrywise against the definitions, over every matrix of each size
    CASES = [(m, n) for m in (2, 3, 4) for n in (1, 2, 3)]

    @pytest.mark.parametrize("m, n", CASES)
    def test_transpose(self, m, n):
        for mat in sign_matrices(n, m):
            t = mat.transpose()
            assert (t.m, t.n) == (m, n)
            assert all(
                t.entries[i][j] == mat.entries[j][i] for i in range(n) for j in range(n)
            )
            assert t.transpose() == mat

    @pytest.mark.parametrize("m, n", [(m, n) for m, n in CASES if m % 2 == 0])
    def test_negate(self, m, n):
        for mat in sign_matrices(n, m):
            neg = mat.negate()
            assert (neg.m, neg.n) == (m, n)
            for i in range(n):
                assert neg.entries[i][i] is None
                for j in range(n):
                    if i != j:
                        assert neg.entries[i][j] == (mat.entries[i][j] + m // 2) % m
            assert (neg != mat) == (n > 1) and neg.negate() == mat

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_negate_odd_m_raises(self, n):
        with pytest.raises(ValueError) as exc:
            next(sign_matrices(n, 3)).negate()
        assert str(exc.value) == "-1 is not an m-th root of unity for odd m"

    @pytest.mark.parametrize("m, n", CASES)
    def test_is_symmetric(self, m, n):
        count = 0
        for mat in sign_matrices(n, m):
            want = all(
                mat.entries[i][j] == mat.entries[j][i]
                for i in range(n)
                for j in range(n)
            )
            assert mat.is_symmetric() is want
            count += want
        # one free exponent per unordered pair
        assert count == m ** (n * (n - 1) // 2)


class TestCanonicalForm:
    @given(random_matrix())
    def test_idempotent(self, mat):
        c = canonical_form(mat)
        assert canonical_form(c) == c

    @settings(max_examples=100)
    @given(matrix_and_perm())
    def test_orbit_constant(self, mp):
        mat, perm = mp
        assert canonical_form(conjugate(mat, perm)) == canonical_form(mat)

    def test_dimension_limit(self):
        big = SignMatrix(
            2,
            tuple(
                tuple(None if i == j else 0 for j in range(9)) for i in range(9)
            ),
        )
        with pytest.raises(UnsupportedDimensionError):
            canonical_form(big)

    def test_reduced_symmetric_3x3_orbit_sizes(self):
        # the 8 symmetric 3x3 sign matrices fall into 4 classes, sizes 1,1,3,3
        symmetric = [m for m in sign_matrices(3) if m.is_symmetric()]
        assert len(symmetric) == 8
        classes = equivalence_classes(symmetric)
        assert sorted(count for _, count in classes) == [1, 1, 3, 3]


class TestEquivalenceClasses:
    def test_symmetric_3x3(self):
        symmetric = [m for m in sign_matrices(3) if m.is_symmetric()]
        assert len(equivalence_classes(symmetric)) == 4

    def test_skew_3x3(self):
        def is_skew(m):
            s = m.signs()
            return all(
                s[i][j] == -s[j][i] for i in range(3) for j in range(i + 1, 3)
            )

        skew = [m for m in sign_matrices(3) if is_skew(m)]
        assert len(skew) == 8
        assert len(equivalence_classes(skew)) == 2

    def test_singleton(self):
        assert equivalence_classes([QR_EXAMPLE]) == [
            (canonical_form(QR_EXAMPLE), 1)
        ]

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            equivalence_classes([QR_EXAMPLE, SignMatrix(2, ((None,),))])

    def test_counts_sum_to_input_size(self):
        mats = list(sign_matrices(3))
        classes = equivalence_classes(mats)
        assert sum(c for _, c in classes) == 64


def adjacent_orbit(entries):
    """The permutation-equivalence orbit of entries, as exponent rows.

    Closes entries under swapping two adjacent indices in rows and columns
    together; those swaps generate all n! permutations, so no permutation
    is enumerated.
    """
    n = len(entries)
    swaps = []
    for i in range(n - 1):
        order = list(range(n))
        order[i], order[i + 1] = i + 1, i
        swaps.append(order)
    orbit, todo = {entries}, [entries]
    while todo:
        ent = todo.pop()
        for order in swaps:
            image = tuple(tuple(ent[a][b] for b in order) for a in order)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return frozenset(orbit)


def invariant_matrix(rng, m, sigma):
    """A random matrix that sigma fixes: one exponent per orbit of ordered pairs."""
    n = len(sigma)
    rows = [[None] * n for _ in range(n)]
    for i, j in itertools.permutations(range(n), 2):
        if rows[i][j] is None:
            e, a, b = rng.randrange(m), i, j
            while rows[a][b] is None:
                rows[a][b] = e
                a, b = sigma[a], sigma[b]
    return SignMatrix(m, tuple(map(tuple, rows)))


def tie_heavy_batch(m, count, seed, n=4):
    """Seeded matrices: a third fixed by a random permutation (ties in the
    n! scan), a third conjugates of earlier ones, a third uniform."""
    rng = random.Random(seed)
    batch = []
    for k in range(count):
        sigma = tuple(rng.sample(range(n), n))
        if k % 3 == 0:
            batch.append(invariant_matrix(rng, m, sigma))
        elif k % 3 == 1:
            batch.append(conjugate(rng.choice(batch), sigma))
        else:
            # the identity fixes every matrix, so this one is uniform
            batch.append(invariant_matrix(rng, m, tuple(range(n))))
    return batch


class TestOrbitOracle:
    """canonical_form and equivalence_classes against orbits closed by swaps."""

    @staticmethod
    def check(mats):
        orbit_of = {}
        for mat in mats:
            if mat.entries not in orbit_of:
                orbit = adjacent_orbit(mat.entries)
                orbit_of.update(dict.fromkeys(orbit, orbit))
        m = mats[0].m
        least = {}
        for mat in mats:
            orbit = orbit_of[mat.entries]
            if orbit not in least:
                members = (SignMatrix(m, ent) for ent in orbit)
                least[orbit] = min(members, key=SignMatrix._key)
            assert canonical_form(mat) == least[orbit]
        tally = Counter(orbit_of[mat.entries] for mat in mats)
        want = sorted(
            ((least[orbit], count) for orbit, count in tally.items()),
            key=lambda pair: pair[0]._key(),
        )
        assert equivalence_classes(mats) == want
        return orbit_of

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_matrix(self, m, n):
        self.check(list(sign_matrices(n, m)))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_seeded_n4_with_ties(self, m):
        mats = tie_heavy_batch(m, 200, seed=m)
        orbit_of = self.check(mats)
        orbits = [orbit_of[mat.entries] for mat in mats]
        # an orbit smaller than 4! means a nontrivial automorphism group
        assert sum(len(orbit) < 24 for orbit in orbits) >= 60
        assert len(set(orbits)) < len(mats)  # some classes hold several


# The per-partition Burnside sum, the oracle of the cycle-type walk: each
# partition of n built on its own, its class size from a Counter of its parts
# and its pair orbits from all pairs of its cycles.


def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples of parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _cycle_type_size(cycles):
    """Number of permutations of sum(cycles) points with this cycle type."""
    size = factorial(sum(cycles))
    for length, mult in Counter(cycles).items():
        size //= length**mult * factorial(mult)
    return size


def pair_orbit_count(cycles):
    """Orbits on unordered pairs of a permutation with the given cycle type."""
    return sum(c // 2 for c in cycles) + sum(
        gcd(a, b) for a, b in itertools.combinations(cycles, 2)
    )


# fixed-point counts of a partition, as the comment block of matrices states
# them and as qr states them for QR matrices
PARTITION_FIXED = {
    "symmetric": lambda cycles: 1 << pair_orbit_count(cycles),
    "skew": lambda cycles: (
        0 if any(c % 2 == 0 for c in cycles) else 1 << pair_orbit_count(cycles)
    ),
    "qr": lambda cycles: (
        ((1 << sum(c % 2 for c in cycles)) - cycles.count(1)) << pair_orbit_count(cycles)
    ),
}
WALK_COUNTERS = {
    "symmetric": count_symmetric_classes,
    "skew": count_skew_classes,
    "qr": count_qr_classes,
}


def partition_type(cycles):
    """The CycleType of a partition, from the oracle helpers."""
    odd = sum(c % 2 for c in cycles)
    return CycleType((
        _cycle_type_size(cycles),
        pair_orbit_count(cycles),
        odd,
        len(cycles) - odd,
        cycles.count(1),
    ))


class TestCycleTypeWalk:
    @pytest.mark.parametrize("n", range(1, COUNT_MAX_N + 1))
    def test_counters_match_partition_sum(self, n):
        for kind, fixed in PARTITION_FIXED.items():
            total = sum(_cycle_type_size(c) * fixed(c) for c in _partitions(n))
            assert total % factorial(n) == 0
            assert WALK_COUNTERS[kind](n) == total // factorial(n), kind

    @pytest.mark.parametrize("n", range(1, COUNT_MAX_N + 1))
    def test_invariants_match_partitions(self, n):
        # the walk yields the partitions' types in the oracle's order
        assert list(cycle_types(n)) == [partition_type(c) for c in _partitions(n)]

    def test_type_count_and_sizes(self):
        # p(n), OEIS A000041, and the class sizes partition S_n
        p = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297,
             385, 490, 627]
        for n in range(1, COUNT_MAX_N + 1):
            types = list(cycle_types(n))
            assert len(types) == p[n - 1]
            assert sum(t.size for t in types) == factorial(n)

    def test_identity_term(self):
        for n in range(1, COUNT_MAX_N + 1):
            identity = partition_type((1,) * n)
            assert identity == list(cycle_types(n))[-1]
            for fixed in (fixed_symmetric, fixed_skew, fixed_qr):
                assert identity_term(n, fixed) == fixed(identity)


# Symmetric classes are graphs (OEIS A000088), skew classes tournaments
# (OEIS A000568); n = 1..10.
GRAPHS = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168)
TOURNAMENTS = (1, 1, 2, 4, 12, 56, 456, 6880, 191536, 9733056)


class TestClassCounts:
    @pytest.mark.parametrize("n,expected", enumerate(GRAPHS, start=1))
    def test_symmetric(self, n, expected):
        assert count_symmetric_classes(n) == expected

    @pytest.mark.parametrize("n,expected", enumerate(TOURNAMENTS, start=1))
    def test_skew(self, n, expected):
        assert count_skew_classes(n) == expected

    def test_cycle_type_sizes_sum_to_n_factorial(self):
        # one class exactly when every permutation fixes one member
        for n in range(1, COUNT_MAX_N + 1):
            assert orbit_class_count(n, lambda t: 1) == 1

    def test_matches_object_level_partition(self):
        symmetric = [m for m in sign_matrices(4) if m.is_symmetric()]
        assert count_symmetric_classes(4) == len(equivalence_classes(symmetric))

    def test_out_of_range(self):
        with pytest.raises(UnsupportedDimensionError):
            count_symmetric_classes(COUNT_MAX_N + 1)
        with pytest.raises(UnsupportedDimensionError):
            count_skew_classes(0)

    def test_largest_n(self):
        n = COUNT_MAX_N
        members = 1 << (n * (n - 1) // 2)
        for count in (count_symmetric_classes(n), count_skew_classes(n)):
            # a class holds between 1 and n! members
            assert members <= count * factorial(n) and count <= members
