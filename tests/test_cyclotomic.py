from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmat.cyclotomic import (
    EisensteinInt,
    GaussianInt,
    _pow_mod,
    _residue_symbol,
    check_quartic_reciprocity,
    cubic_symbol,
    is_primary,
    is_prime_element,
    mod,
    parse_element,
    primary_generator,
    quartic_symbol,
    same_ideal,
)
from resmat.errors import RamifiedPrimeError
from resmat.rational import MR_LIMIT, is_prime, sieve_primes


def divides(q, x):
    return mod(x, q).is_zero()


def primary_primes(ring, norm_limit):
    """All primary prime elements of norm <= norm_limit, one per ideal."""
    out = []
    cap = isqrt(2 * norm_limit) + 2
    for a in range(-cap, cap + 1):
        for b in range(-cap, cap + 1):
            x = ring(a, b)
            nx = x.norm()
            if nx <= 1 or nx > norm_limit:
                continue
            if is_primary(x) and is_prime_element(x):
                out.append(x)
    out.sort(key=lambda x: (x.norm(), x.a, x.b))
    return out


def field_symbol_oracle(x, q, m):
    """Independent Euler-criterion oracle through the residue field map.

    Only valid for degree-1 primes q: maps w (resp. i) to the root of its
    minimal polynomial mod p = Nq killed by q, then exponentiates in F_p.
    """
    p = q.norm()
    assert is_prime(p)
    r = (-q.a) * pow(q.b, -1, p) % p  # image of w resp. i
    image = (x.a + x.b * r) % p
    v = pow(image, (p - 1) // m, p)
    for e in range(m):
        if v == pow(r, e, p):
            return e
    raise AssertionError("no root of unity matched")


def divides_symbol_oracle(x, q, m):
    """The symbol core as it matched before: the e with q | r - zeta**e."""
    r = _pow_mod(x, (q.norm() - 1) // m, q)
    hits = [e for e, z in enumerate(q.UNITS[:m]) if divides(q, r - z)]
    assert len(hits) == 1
    return hits[0]


class TestArithmetic:
    def test_norms(self):
        assert GaussianInt(3, 2).norm() == 13
        assert EisensteinInt(3, 1).norm() == 7
        assert GaussianInt(0, 1).norm() == 1

    def test_eisenstein_relation(self):
        w = EisensteinInt(0, 1)
        assert w * w == EisensteinInt(-1, -1)
        assert w * w * w == EisensteinInt(1, 0)

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_norm_multiplicative(self, a, b, c, d):
        for ring in (GaussianInt, EisensteinInt):
            x, y = ring(a, b), ring(c, d)
            assert (x * y).norm() == x.norm() * y.norm()

    @given(st.integers(-100, 100), st.integers(-100, 100), st.integers(-10, 10), st.integers(-10, 10))
    def test_euclidean_division(self, a, b, c, d):
        for ring in (GaussianInt, EisensteinInt):
            q = ring(c, d)
            if q.is_zero():
                continue
            x, n = ring(a, b), q.norm()
            rem = mod(x, q)
            assert rem.norm() < n
            # q divides x - rem: (x - rem) * conj(q) is n times the quotient
            t = (x - rem) * q.conj()
            assert t.a % n == 0 and t.b % n == 0

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_mod_by_zero(self, a, b):
        for ring in (GaussianInt, EisensteinInt):
            with pytest.raises(ZeroDivisionError, match="^division by zero element$"):
                mod(ring(a, b), ring(0, 0))


def small_elements(ring, norm_limit):
    """Every element of ring with norm <= norm_limit (N(a + b*zeta) is at
    least (a*a + b*b) / 2 in both rings)."""
    cap = isqrt(2 * norm_limit) + 1
    return [
        x
        for a in range(-cap, cap + 1)
        for b in range(-cap, cap + 1)
        if (x := ring(a, b)).norm() <= norm_limit
    ]


@pytest.mark.parametrize("ring", [GaussianInt, EisensteinInt])
class TestRingConstants:
    def test_units_are_the_norm_one_elements(self, ring):
        assert len(set(ring.UNITS)) == len(ring.UNITS)
        assert set(ring.UNITS) == {x for x in small_elements(ring, 1) if x.norm() == 1}

    def test_units_start_with_the_powers_of_zeta(self, ring):
        zeta, power = ring(0, 1), ring(1, 0)
        for e in range(ring.M):
            assert ring.UNITS[e] == power
            power = power * zeta
        assert power == ring(1, 0)  # zeta has order M

    def test_trace(self, ring):
        zeta = ring(0, 1)
        assert zeta * zeta == ring(-1, ring.TRACE)  # TRACE * zeta - 1
        assert zeta + zeta.conj() == ring(ring.TRACE, 0)

    def test_ramified_prime_divides_the_discriminant(self, ring):
        disc = ring.TRACE**2 - 4  # of x**2 - TRACE*x + 1
        assert [p for p in sieve_primes(10) if disc % p == 0] == [ring.RAMIFIED]

    def test_inert_class(self, ring):
        norms = {x.norm() for x in small_elements(ring, 500)}
        for p in sieve_primes(500):
            assert (p % ring.M == ring.M - 1) == (p not in norms), p

    def test_one_associate_of_each_prime_is_primary(self, ring):
        # the class of 1 comes first: every column off the skew block asks for it
        assert ring.PRIMARY[0] == (1, 0)
        seen = 0
        for x in small_elements(ring, 500):
            if x.norm() <= 1 or x.norm() % ring.RAMIFIED == 0 or not is_prime_element(x):
                continue
            hits = [
                u for u in ring.UNITS
                if ((x * u).a % ring.M, (x * u).b % ring.M) in ring.PRIMARY
            ]
            assert len(hits) == 1, x
            seen += 1
        assert seen > 100


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3+2i", GaussianInt(3, 2)),
            ("3 - 2i", GaussianInt(3, -2)),
            ("-1+2i", GaussianInt(-1, 2)),
            ("i", GaussianInt(0, 1)),
            ("-i", GaussianInt(0, -1)),
            ("2i", GaussianInt(0, 2)),
            ("7", GaussianInt(7, 0)),
        ],
    )
    def test_gaussian(self, text, expected):
        assert parse_element(text, "gaussian") == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("-2-3w", EisensteinInt(-2, -3)),
            ("4+3w", EisensteinInt(4, 3)),
            ("w", EisensteinInt(0, 1)),
            ("-5", EisensteinInt(-5, 0)),
        ],
    )
    def test_eisenstein(self, text, expected):
        assert parse_element(text, "eisenstein") == expected

    @pytest.mark.parametrize("text", ["", "2+", "i+3", "3+2j", "1 2i", "w+1"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_element(text, "gaussian")

    def test_wrong_ring_letter(self):
        with pytest.raises(ValueError):
            parse_element("3+2i", "eisenstein")

    @pytest.mark.parametrize("text", ["3+2i", "3+2w", "7", "garbage"])
    def test_unknown_kind_rejected_before_parsing(self, text):
        with pytest.raises(ValueError, match="^unknown element kind: 'cubic'$"):
            parse_element(text, "cubic")

    @given(st.integers(-99, 99), st.integers(-99, 99))
    def test_format_roundtrip(self, a, b):
        g = GaussianInt(a, b)
        assert parse_element(str(g), "gaussian") == g
        e = EisensteinInt(a, b)
        assert parse_element(str(e), "eisenstein") == e


class TestPrimeElements:
    def test_split_prime(self):
        assert is_prime_element(GaussianInt(2, 1))

    def test_inert_primes(self):
        assert is_prime_element(GaussianInt(3, 0))
        assert is_prime_element(EisensteinInt(2, 0))

    def test_composite(self):
        assert not is_prime_element(GaussianInt(5, 0))  # 5 = (2+i)(2-i)
        assert not is_prime_element(EisensteinInt(4, 0))

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ValueError):
            is_prime_element(GaussianInt(0, 0))
        with pytest.raises(ValueError):
            is_prime_element(EisensteinInt(0, 1))


def inert_above_bound(ring, want_prime, count=3):
    """Rational c in the inert class of ring with c^2 >= MR_LIMIT > c."""
    r, mdl = (3, 4) if ring is GaussianInt else (2, 3)
    c = isqrt(MR_LIMIT) + 1
    c += (r - c) % mdl
    found = []
    while len(found) < count:
        if is_prime(c) == want_prime:
            found.append(c)
        c += mdl
    return found


RINGS = [(GaussianInt, quartic_symbol, 4), (EisensteinInt, cubic_symbol, 3)]


class TestInertPrimesBeyondSquareRootOfBound:
    # The norm p^2 of an inert p is at or above MR_LIMIT, but deciding
    # whether the element is prime needs only is_prime(p).

    @pytest.mark.parametrize("ring, symbol, m", RINGS)
    def test_unit_multiples_are_prime(self, ring, symbol, m):
        for p in inert_above_bound(ring, True):
            assert p < MR_LIMIT <= p * p
            for u in ring(1, 0).UNITS:
                assert is_prime_element(ring(p, 0) * u)

    @pytest.mark.parametrize("ring, symbol, m", RINGS)
    def test_composite_inert_class_is_not_prime(self, ring, symbol, m):
        for c in inert_above_bound(ring, False):
            assert not is_prime_element(ring(c, 0))
            assert not is_prime_element(ring(0, c))

    @pytest.mark.parametrize("ring, symbol, m", RINGS)
    def test_square_norm_outside_inert_class_is_not_prime(self, ring, symbol, m):
        # a norm c^2 is never prime, and c outside the inert class is no
        # inert prime, so no primality test is needed
        r, mdl = (3, 4) if ring is GaussianInt else (2, 3)
        start = isqrt(MR_LIMIT) + 1
        for c in range(start, start + 24):
            if c % mdl != r:
                assert not is_prime_element(ring(c, 0))
                assert not is_prime_element(ring(0, c))
        assert not is_prime_element(ring(600_000_000_001, 0))

    @pytest.mark.parametrize("ring, symbol, m", RINGS)
    def test_non_square_norm_beyond_bound_still_raises(self, ring, symbol, m):
        p = inert_above_bound(ring, True, count=1)[0]
        with pytest.raises(ValueError, match="cannot decide whether"):
            is_prime_element(ring(p, 1))

    @pytest.mark.parametrize("ring, symbol, m", RINGS)
    def test_rational_symbol_is_trivial(self, ring, symbol, m):
        # a^((p^2-1)/m) = (a^(p-1))^((p+1)/m) = 1 mod p for a coprime to p
        for p in inert_above_bound(ring, True, count=2):
            q = ring(-p, 0)  # -p = 1 mod 4 resp. mod 3: primary
            assert is_primary(q) and (p + 1) % m == 0
            for a in (2, 3, 5, -7, 10**6 + 3):
                assert pow(a, p - 1, p) == 1
                assert symbol(ring(a, 0), q) == 0


class TestPrimaryGenerator:
    def test_gaussian_examples(self):
        assert primary_generator(GaussianInt(2, 1)) == GaussianInt(-1, 2)
        assert primary_generator(GaussianInt(3, 2)) == GaussianInt(3, 2)

    def test_eisenstein_example(self):
        assert primary_generator(EisensteinInt(3, 1)) == EisensteinInt(-2, -3)

    def test_same_ideal(self):
        x = GaussianInt(2, 1)
        assert same_ideal(x, primary_generator(x))

    def test_ramified(self):
        with pytest.raises(RamifiedPrimeError):
            primary_generator(GaussianInt(1, 1))
        with pytest.raises(RamifiedPrimeError):
            primary_generator(EisensteinInt(1, -1))

    def test_exactly_one_primary_associate_small(self):
        for ring, cap in ((GaussianInt, 500), (EisensteinInt, 500)):
            ramified = 2 if ring is GaussianInt else 3
            seen = 0
            lim = isqrt(2 * cap) + 2
            for a in range(-lim, lim + 1):
                for b in range(-lim, lim + 1):
                    x = ring(a, b)
                    if not 1 < x.norm() <= cap or x.norm() % ramified == 0:
                        continue
                    if not is_prime_element(x):
                        continue
                    hits = [u for u in x.UNITS if is_primary(x * u)]
                    assert len(hits) == 1
                    seen += 1
            assert seen > 0


class TestSymbols:
    def test_cubic_examples(self):
        assert cubic_symbol(EisensteinInt(-2, -3), EisensteinInt(4, 3)) == 1
        assert cubic_symbol(EisensteinInt(4, 3), EisensteinInt(-2, -3)) == 1
        assert cubic_symbol(EisensteinInt(1, 0), EisensteinInt(-2, -3)) == 0

    def test_quartic_examples(self):
        assert quartic_symbol(GaussianInt(-1, 2), GaussianInt(3, 2)) == 0
        assert quartic_symbol(GaussianInt(3, 2), GaussianInt(-1, 2)) == 2
        # supplementary law at q = 3+2i: (-1/q) = (-1)^((3-1)/2) = -1
        assert quartic_symbol(GaussianInt(-1, 0), GaussianInt(3, 2)) == 2

    def test_not_coprime(self):
        with pytest.raises(ValueError):
            quartic_symbol(GaussianInt(3, 2), GaussianInt(3, 2))

    def test_non_primary_modulus_rejected(self):
        with pytest.raises(ValueError):
            quartic_symbol(GaussianInt(1, 0), GaussianInt(2, 1))

    def test_matches_field_oracle(self):
        for q in primary_primes(EisensteinInt, 300):
            if not is_prime(q.norm()):
                continue
            for x in (EisensteinInt(2, 0), EisensteinInt(1, 1), EisensteinInt(-4, 7)):
                if divides(q, x):
                    continue
                assert cubic_symbol(x, q) == field_symbol_oracle(x, q, 3)
        for q in primary_primes(GaussianInt, 300):
            if not is_prime(q.norm()):
                continue
            for x in (GaussianInt(2, 0), GaussianInt(1, 2), GaussianInt(-4, 7)):
                if divides(q, x):
                    continue
                assert quartic_symbol(x, q) == field_symbol_oracle(x, q, 4)

    def test_inert_modulus_supported(self):
        q = primary_generator(EisensteinInt(2, 0))  # norm 4
        assert cubic_symbol(EisensteinInt(0, 1), q) in (0, 1, 2)
        g = primary_generator(GaussianInt(3, 0))  # norm 9
        assert quartic_symbol(GaussianInt(0, 1), g) in range(4)

    @settings(max_examples=50)
    @given(st.data())
    def test_multiplicative_in_numerator(self, data):
        eis = primary_primes(EisensteinInt, 400)
        q = data.draw(st.sampled_from(eis))
        xs = st.builds(
            EisensteinInt, st.integers(-20, 20), st.integers(-20, 20)
        ).filter(lambda x: not x.is_zero() and not divides(q, x))
        x, y = data.draw(xs), data.draw(xs)
        assert (
            cubic_symbol(x * y, q)
            == (cubic_symbol(x, q) + cubic_symbol(y, q)) % 3
        )

    @settings(max_examples=50)
    @given(st.data())
    def test_quartic_multiplicative(self, data):
        gau = primary_primes(GaussianInt, 400)
        q = data.draw(st.sampled_from(gau))
        xs = st.builds(
            GaussianInt, st.integers(-20, 20), st.integers(-20, 20)
        ).filter(lambda x: not x.is_zero() and not divides(q, x))
        x, y = data.draw(xs), data.draw(xs)
        assert (
            quartic_symbol(x * y, q)
            == (quartic_symbol(x, q) + quartic_symbol(y, q)) % 4
        )


G, E = GaussianInt, EisensteinInt
# primary primes of both kinds: degree 1 (prime norm) and inert (norm p^2)
SYMBOL_POOLS = {ring: primary_primes(ring, 400) for ring in (G, E)}


class TestSymbolCore:
    # the unchecked core the witness search calls on moduli it built
    @settings(max_examples=200)
    @given(st.sampled_from(RINGS), st.data())
    def test_core_equals_public_symbol(self, case, data):
        ring, symbol, m = case
        x, q = data.draw(
            st.lists(
                st.sampled_from(SYMBOL_POOLS[ring]), min_size=2, max_size=2,
                unique=True,
            )
        )
        assert _residue_symbol(x, q) == symbol(x, q)

    @settings(max_examples=300)
    @given(st.sampled_from(RINGS), st.data())
    def test_equality_match_equals_divides_match(self, case, data):
        ring, _, m = case
        q = data.draw(st.sampled_from(SYMBOL_POOLS[ring]))
        x = data.draw(
            st.sampled_from(SYMBOL_POOLS[ring])
            | st.builds(ring, st.integers(-30, 30), st.integers(-30, 30))
        )
        if x.is_zero() or divides(q, x):
            return
        assert _residue_symbol(x, q) == divides_symbol_oracle(x, q, m)

    def test_equality_match_at_norm_four(self):
        # q = -2 in Z[w] is the one primary prime whose roots of unity are not
        # all their own remainders; every unit and class mod -2 is covered
        q = E(-2, 0)
        for x in (E(1, 0), E(0, 1), E(-1, -1), E(1, 1), E(-1, 0), E(0, -1)):
            assert _residue_symbol(x, q) == divides_symbol_oracle(x, q, 3)
        assert cubic_symbol(E(1, 1), q) == 2
        assert cubic_symbol(E(0, 1), q) == 1

    @pytest.mark.parametrize("ring, m", [(G, 4), (E, 3)])
    def test_roots_are_their_own_remainders_from_norm_five(self, ring, m):
        primes = primary_primes(ring, 2000)
        assert len(primes) > 100
        for q in primes:
            roots = q.UNITS[:m]
            assert all(mod(z, q) == z for z in roots) == (q.norm() >= 5)
        assert [q for q in primes if q.norm() < 5] == ([E(-2, 0)] if ring is E else [])

    def test_pools_hold_both_kinds(self):
        for ring, pool in SYMBOL_POOLS.items():
            assert any(is_prime(q.norm()) for q in pool)
            assert any(not is_prime(q.norm()) for q in pool)

    @pytest.mark.parametrize(
        "symbol, x, q, message",
        [
            (quartic_symbol, G(1, 0), G(-1, 2) * G(3, 2),
             "modulus must be a primary prime element, got -7+4i"),
            (cubic_symbol, E(1, 0), E(-2, -3) * E(4, 3),
             "modulus must be a primary prime element, got 1-9w"),
            (quartic_symbol, G(1, 0), G(2, 1),
             "modulus must be a primary prime element, got 2+i"),
            (cubic_symbol, E(2, 0), E(3, 1),
             "modulus must be a primary prime element, got 3+w"),
            (cubic_symbol, G(1, 0), E(-2, -3), "operands must live in the same ring"),
            (quartic_symbol, E(1, 0), G(3, 2), "operands must live in the same ring"),
            (cubic_symbol, E(1, 0), G(3, 2), "cubic symbol needs an Eisenstein modulus"),
            (quartic_symbol, G(1, 0), E(-2, -3), "quartic symbol needs a Gaussian modulus"),
            (quartic_symbol, G(3, 2) * G(2, 0), G(3, 2),
             "6+4i is divisible by 3+2i; symbol undefined"),
            (cubic_symbol, E(4, 3) * E(0, 1), E(4, 3),
             "-3+w is divisible by 4+3w; symbol undefined"),
        ],
    )
    def test_public_symbols_still_check(self, symbol, x, q, message):
        with pytest.raises(ValueError) as got:
            symbol(x, q)
        assert str(got.value) == message

    @staticmethod
    def assert_undefined(symbol, x, q):
        # the core and the public symbol both read q | x off the zero power
        for f in (_residue_symbol, symbol):
            with pytest.raises(ValueError) as got:
                f(x, q)
            assert str(got.value) == f"{x} is divisible by {q}; symbol undefined"

    @settings(max_examples=300)
    @given(st.sampled_from(RINGS), st.data())
    def test_multiples_of_the_modulus_are_undefined(self, case, data):
        ring, symbol, _ = case
        q = data.draw(st.sampled_from(SYMBOL_POOLS[ring]))
        y = data.draw(
            st.just(ring(0, 0))
            | st.builds(ring, st.integers(-30, 30), st.integers(-30, 30))
        )
        self.assert_undefined(symbol, q * y, q)

    @pytest.mark.parametrize(
        "symbol, q", [(cubic_symbol, E(-2, 0)), (quartic_symbol, G(-3, 0))]
    )
    def test_multiples_of_the_inert_moduli_are_undefined(self, symbol, q):
        # the smallest inert primary primes: norm 4 in Z[w], norm 9 in Z[i]
        ys = small_elements(type(q), 50)
        assert type(q)(0, 0) in ys
        for y in ys:
            self.assert_undefined(symbol, q * y, q)


class TestReciprocity:
    def test_example_pair(self):
        assert check_quartic_reciprocity(GaussianInt(-1, 2), GaussianInt(3, 2))

    def test_same_ideal_rejected(self):
        with pytest.raises(ValueError):
            check_quartic_reciprocity(GaussianInt(3, 2), GaussianInt(3, 2))
        with pytest.raises(ValueError):
            check_quartic_reciprocity(GaussianInt(3, 2), GaussianInt(-2, 3))

    def test_cubic_symmetry_sample(self):
        ps = primary_primes(EisensteinInt, 200)
        for i, p in enumerate(ps):
            for q in ps[i + 1 :]:
                assert cubic_symbol(p, q) == cubic_symbol(q, p)

    def test_quartic_law_sample(self):
        ps = primary_primes(GaussianInt, 200)
        for i, p in enumerate(ps):
            for q in ps[i + 1 :]:
                assert check_quartic_reciprocity(p, q)

    def test_norm_congruences(self):
        for q in primary_primes(GaussianInt, 2000):
            if (q.a % 4, q.b % 4) == (1, 0):
                assert q.norm() % 8 in (1, 7)  # 1 for split, 7 impossible: prime
                if is_prime(q.norm()):
                    assert q.norm() % 8 == 1
            else:
                if is_prime(q.norm()):
                    assert q.norm() % 8 == 5

    def test_supplementary_law(self):
        for q in primary_primes(GaussianInt, 2000):
            e = quartic_symbol(GaussianInt(-1, 0), q)
            assert e in (0, 2)
            value = 1 if e == 0 else -1
            assert value == (-1) ** ((q.a - 1) // 2)
            assert (value == 1) == ((q.a % 4, q.b % 4) == (1, 0))
