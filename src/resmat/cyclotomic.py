"""Exact arithmetic in Z[i] and Z[w], primary generators, and power residue symbols.

w is the primitive cube root of unity with w**2 = -1 - w; all coordinates are
in the (1, i) resp. (1, w) basis.  Exponents of roots of unity (never complex
values) cross every interface: a cubic symbol is an exponent in {0,1,2}
denoting w**e, a quartic symbol an exponent in {0,1,2,3} denoting i**e.
"""

from __future__ import annotations

import re
from math import isqrt

from .errors import RamifiedPrimeError
from .rational import MR_LIMIT, is_prime
from .records import Record, setfield


class _QuadraticInt(Record):
    """a + b*zeta in Z[zeta]: what does not depend on the ring.

    Each ring adds no slot and no method; the product, conjugate and norm
    read zeta**2 = TRACE*zeta - 1 off the ring's constants:

    - LETTER: the printed name of zeta, i resp. w.
    - M: the order of zeta (4 resp. 3), the m of the ring's residue symbol.
      The inert rational primes are the p = M - 1 (mod M).
    - TRACE: zeta + conj(zeta), so zeta**2 = TRACE*zeta - 1.
    - RAMIFIED: the rational prime ramified in the ring.
    - PRIMARY: the pairs (a % M, b % M) of the primary elements; a primary
      prime of norm p = M + 1 (mod 2M) is PRIMARY[-1], else PRIMARY[0].
    - UNITS: all units, with UNITS[e] = zeta**e for e < M.
    """

    __slots__ = ("a", "b")
    a: int
    b: int

    def __init__(self, a, b):
        setfield(self, "a", a)
        setfield(self, "b", b)

    def __add__(self, other):
        return self.__class__(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return self.__class__(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        # (a + b*zeta)(c + d*zeta) = ac - bd + (ad + bc + TRACE*bd)*zeta
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return self.__class__(a * c - bd, a * d + b * c + self.TRACE * bd)

    def conj(self):
        # conj(zeta) = TRACE - zeta
        return self.__class__(self.a + self.TRACE * self.b, -self.b)

    def norm(self):
        a, b = self.a, self.b
        return a * a + self.TRACE * a * b + b * b

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_unit(self):
        return self.norm() == 1

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        unit = self.LETTER if abs(b) == 1 else f"{abs(b)}{self.LETTER}"
        if a == 0:
            return unit if b > 0 else f"-{unit}"
        return f"{a}{'+' if b > 0 else '-'}{unit}"


class GaussianInt(_QuadraticInt):
    """a + b*i in Z[i]."""

    __slots__ = ()
    LETTER, M, TRACE, RAMIFIED = "i", 4, 0, 2
    PRIMARY = ((1, 0), (3, 2))  # 1 and 3+2i mod 4


class EisensteinInt(_QuadraticInt):
    """a + b*w in Z[w], with w**2 + w + 1 = 0."""

    __slots__ = ()
    LETTER, M, TRACE, RAMIFIED = "w", 3, -1, 3
    PRIMARY = ((1, 0),)  # 1 mod 3


# The units, built once: records are immutable, so every element shares them.
GaussianInt.UNITS = tuple(  # 1, i, -1, -i
    GaussianInt(a, b) for a, b in ((1, 0), (0, 1), (-1, 0), (0, -1))
)
EisensteinInt.UNITS = tuple(  # 1, w, w^2, -1, -w, -w^2
    EisensteinInt(a, b)
    for a, b in ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))
)
_RINGS = {"gaussian": GaussianInt, "eisenstein": EisensteinInt}


# compiled on first use by re's own cache, so only element parsing pays for it
_ELEMENT_PATTERN = r"""^\s*
    (?:(?P<a>[+-]?\d+)\s*)?                    # rational part
    (?:(?P<sign>[+-])?\s*(?P<b>\d*)\s*(?P<letter>[iw]))?  # i/w part
    \s*$"""


def parse_element(text, kind):
    """Parse 'a+bi' / 'a-bi' / 'a+bw' syntax (optional spaces) exactly.

    kind is 'gaussian' or 'eisenstein'.
    """
    ring = _RINGS.get(kind)
    if ring is None:
        raise ValueError(f"unknown element kind: {kind!r}")
    m = re.match(_ELEMENT_PATTERN, text, re.VERBOSE)
    if not m or (m.group("a") is None and m.group("letter") is None):
        raise ValueError(f"cannot parse element: {text!r}")
    a = int(m.group("a")) if m.group("a") is not None else 0
    if m.group("letter") is None:
        b = 0
    else:
        if m.group("letter") != ring.LETTER:
            raise ValueError(
                f"expected {ring.LETTER!r} in a {kind} element, got {text!r}"
            )
        b = int(m.group("b")) if m.group("b") else 1
        if m.group("sign") == "-":
            b = -b
        elif m.group("sign") is None and m.group("a") is not None:
            if m.group("b"):
                raise ValueError(f"missing sign between parts: {text!r}")
            # "2i" / "-3w": the leading integer is the coefficient
            a, b = 0, a
    return ring(a, b)


def mod(x, q):
    """The remainder of x by q in Z[i] / Z[w], with norm(remainder) < norm(q).

    The quotient is x * conj(q) / norm(q) with each coordinate rounded to the
    nearest integer.
    """
    n = q.norm()
    if n == 0:
        raise ZeroDivisionError("division by zero element")
    t = x * q.conj()
    quo = type(x)((2 * t.a + n) // (2 * n), (2 * t.b + n) // (2 * n))
    return x - quo * q


def gcd_element(x, y):
    """A greatest common divisor in Z[i] / Z[w] (up to units)."""
    while not y.is_zero():
        x, y = y, mod(x, y)
    return x


def is_prime_element(x):
    """Whether x is a prime element of its ring.

    True iff norm(x) is a rational prime, or x is a unit multiple of an inert
    rational prime (p = 3 mod 4 for Z[i], p = 2 mod 3 for Z[w]).  A square
    norm needs is_prime(p) only, or no test at all outside the inert class,
    so p may be as large as is_prime allows.  Raises ValueError when a
    non-square norm reaches rational.MR_LIMIT, where is_prime is not exact.
    """
    if x.is_zero() or x.is_unit():
        raise ValueError(f"zero or unit is neither prime nor composite: {x}")
    n = x.norm()
    p = isqrt(n)
    if p * p == n:
        # A square norm is never prime, so x is prime only if it is a unit
        # times an inert prime p; an element of norm p^2 is one exactly when
        # p is an inert prime (if the inert p divides x * conj(x), it
        # divides x).
        if p % x.M != x.M - 1:
            return False
        n = p
    if n >= MR_LIMIT:
        # is_prime(n) would raise too, but its message shows n, not x
        raise ValueError(
            f"cannot decide whether {x} is prime: is_prime is exact only for "
            f"norms below {MR_LIMIT}"
        )
    return is_prime(n)


def is_primary(x):
    """2-primary (Z[i]: 1 or 3+2i mod 4) or 3-primary (Z[w]: 1 mod 3) test."""
    return (x.a % x.M, x.b % x.M) in x.PRIMARY


def primary_generator(x):
    """The unique primary associate of a prime element x.

    Raises RamifiedPrimeError when x divides the ramified prime (2 resp. 3).
    """
    if not is_prime_element(x):
        raise ValueError(f"not a prime element: {x}")
    if x.norm() % x.RAMIFIED == 0:
        raise RamifiedPrimeError(f"{x} divides {x.RAMIFIED}; no primary associate")
    return _primary_associate(x)


def _primary_associate(x):
    """The primary associate of x, with no primality or ramification check.

    x must be a prime element prime to the ramified prime: primary_generator
    and `resmat symbol --primary` check that first, and the witness search
    builds only such elements.
    """
    for u in x.UNITS:
        y = x * u
        if is_primary(y):
            return y
    raise RuntimeError(f"no associate of {x} is primary; invalid input slipped through")


def same_ideal(x, y):
    """Whether x and y generate the same ideal (are unit multiples)."""
    if type(x) is not type(y):
        return False
    return any(x * u == y for u in x.UNITS)


def _pow_mod(x, e, q):
    result = x.UNITS[0]  # 1 is its own remainder mod every primary prime
    base = mod(x, q)
    while e:
        if e & 1:
            result = mod(result * base, q)
        base = mod(base * base, q)
        e >>= 1
    return result


def _check_symbol_operands(x, q):
    if type(x) is not type(q):
        raise ValueError("operands must live in the same ring")
    if not is_prime_element(q) or not is_primary(q):
        raise ValueError(f"modulus must be a primary prime element, got {q}")


def _residue_symbol(x, q):
    """The exponent e in range(m) with x^((Nq-1)/m) = zeta**e mod q, m = q.M.

    q must be a primary prime of x's ring: the public symbols check that
    first, and the witness search and the symbol matrices build or validate
    only such moduli.  As q is prime and (Nq-1)/m >= 1, the power is zero
    exactly when q divides x, and then this raises ValueError.

    Each residue class has one remainder mod q (y + k*q rounds to the
    quotient of y plus k), so the power is matched by equality.  zeta**e is
    its own remainder when the coordinates of zeta**e * conj(q), at most
    sqrt(Nq) in Z[i] and 2*sqrt(Nq/3) in Z[w], are below Nq/2: for Nq >= 5
    (no element of Z[w] has norm 5), so for every primary prime except -2 in
    Z[w] (norm 4), where mod(w**2, -2) is 1+w.
    """
    n, m = q.norm(), q.M
    r = _pow_mod(x, (n - 1) // m, q)
    for e, zeta in enumerate(q.UNITS[:m]):
        if r == (zeta if n >= 5 else mod(zeta, q)):
            return e
    if r.is_zero():
        raise ValueError(f"{x} is divisible by {q}; symbol undefined")
    raise RuntimeError(
        f"power of {x} mod {q} is not a root of unity; invalid input slipped through"
    )


def cubic_symbol(x, q):
    """Exponent e in {0,1,2} with x^((Nq-1)/3) = w**e mod q, q primary in Z[w]."""
    if not isinstance(q, EisensteinInt):
        raise ValueError("cubic symbol needs an Eisenstein modulus")
    _check_symbol_operands(x, q)
    return _residue_symbol(x, q)


def quartic_symbol(x, q):
    """Exponent e in {0,1,2,3} with x^((Nq-1)/4) = i**e mod q, q primary in Z[i]."""
    if not isinstance(q, GaussianInt):
        raise ValueError("quartic symbol needs a Gaussian modulus")
    _check_symbol_operands(x, q)
    return _residue_symbol(x, q)


def check_quartic_reciprocity(p, q):
    """Verify (p/q)_4 * conj((q/p)_4) == (-1)^((Np-1)/4 * (Nq-1)/4)."""
    if same_ideal(p, q):
        raise ValueError("reciprocity needs distinct prime ideals")
    lhs = (quartic_symbol(p, q) - quartic_symbol(q, p)) % 4
    rhs = 2 * (((p.norm() - 1) // 4) * ((q.norm() - 1) // 4) % 2)
    return lhs == rhs
