"""Arithmetic over the binary extension fields GF(2^e), 1 <= e <= 8.

Field elements are plain ints: bit i of the int holds the coefficient of
x^i of a polynomial over GF(2), reduced modulo a fixed degree-e modulus.
Addition is XOR.  The modulus for each degree is the lexicographically
smallest primitive polynomial of that degree, found by search and cached,
so an encoded element means the same thing in every run, file, and test.

Inversion, powers, square roots and discrete logs go through exp/log
tables indexed by powers of x (x is a generator of the multiplicative
group precisely because the modulus is primitive).  With e <= 8 the
tables have at most 255 entries.  Products of elements are taken on
packed rows, symbol by symbol (`otlab.linalg.scale` and `product`).

e = 1 degenerates to the plain binary field {0, 1} with modulus x + 1.
"""

from __future__ import annotations

from functools import lru_cache

MAX_DEGREE = 8


def _reduce(a: int, poly: int, degree: int) -> int:
    """Reduce the carry-less polynomial a modulo poly (degree `degree`)."""
    while a >> degree:
        shift = a.bit_length() - 1 - degree
        a ^= poly << shift
    return a


def _mul_mod(a: int, b: int, poly: int, degree: int) -> int:
    """Carry-less product of a and b, reduced modulo poly."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if (a >> degree) & 1:
            a ^= poly
    return acc


def _order_of_x(poly: int, degree: int) -> int:
    """Multiplicative order of x modulo poly, or 0 when x is not a unit.

    The order equals 2^degree - 1 iff poly is primitive: a reducible
    modulus has strictly fewer than 2^degree - 1 units, so x cannot reach
    that order, and an irreducible but imprimitive modulus gives x a
    smaller order by definition.
    """
    x = _reduce(2, poly, degree)
    if x == 0:
        return 0
    group = (1 << degree) - 1
    acc = x
    for k in range(1, group + 1):
        if acc == 1:
            return k
        acc = _mul_mod(acc, x, poly, degree)
    return 0


@lru_cache(maxsize=None)
def canonical_polynomial(degree: int) -> int:
    """Smallest primitive polynomial of the given degree, as a bitmask."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    for poly in range(1 << degree, 1 << (degree + 1)):
        if _order_of_x(poly, degree) == (1 << degree) - 1:
            return poly
    raise AssertionError(f"no primitive polynomial of degree {degree}")


class Field:
    """GF(2^e) under the canonical modulus.  Get instances via GF(e).

    Attributes
    ----------
    degree : int
        Extension degree e.
    poly : int
        Modulus bitmask, canonical_polynomial(e).
    order : int
        Field size q = 2^e.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.poly = canonical_polynomial(degree)
        self.order = 1 << degree
        # exp[i] = x^i for 0 <= i < q - 1; log inverts it on nonzeros.
        x = _reduce(2, self.poly, degree)
        exp = []
        acc = 1
        for _ in range(self.order - 1):
            exp.append(acc)
            acc = _mul_mod(acc, x, self.poly, degree)
        if acc != 1:
            raise AssertionError("generator order mismatch")
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = tuple(exp)
        self._log = tuple(log)

    # -- element checks ------------------------------------------------

    def check(self, a: int) -> int:
        """a itself when it is an element: an int (not a bool) in 0..q-1."""
        if type(a) is not int or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of {self}")
        return a

    # -- arithmetic ----------------------------------------------------

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0
        return self._exp[(self._log[a] * k) % (self.order - 1)]

    def sqrt(self, a: int) -> int:
        """The unique square root of a (squaring is bijective in char 2)."""
        if a == 0:
            return 0
        return self.pow(a, 1 << (self.degree - 1))

    def dlog(self, a: int) -> int:
        """Discrete log of a to base x; a must be nonzero."""
        if a == 0:
            raise ValueError("0 has no discrete log")
        return self._log[a]

    def alpha_power(self, i: int) -> int:
        """x^i, for any integer i."""
        return self._exp[i % (self.order - 1)]

    # -- misc ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.degree == self.degree

    def __hash__(self) -> int:
        return hash(("Field", self.degree))

    def __reduce__(self):
        return (GF, (self.degree,))

    def __repr__(self) -> str:
        return f"GF(2^{self.degree})"


@lru_cache(maxsize=None)
def GF(degree: int) -> Field:
    """The field GF(2^degree) with the canonical modulus (cached)."""
    return Field(degree)
