"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields GF(p).

Rational scalars are canonical: a plain `int` when integral, otherwise a
reduced `fractions.Fraction` with positive denominator (never a Fraction with
denominator 1, never a float).  Every rational scalar this module returns is
canonical, so callers may rely on the invariant.  `int == Fraction`
and their hashes agree, so the representation never changes an equality, a
set or dict lookup, or a text form.  Prime-field scalars are plain ints in
[0, p).  Text form: rationals as "a/b" (or "a" when b = 1), prime-field
elements as decimal integers.

Both fields hand out scalars as integer numerators over one common
denominator (`numerators`) and turn integer quotients back into scalars
(`quotients`), so the dense kernels in `linalg` run their inner loops on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvalidInput

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p >= _MR_EXACT_BELOW:
        raise InvalidInput(f"modulus {p} is too large for a proven primality test "
                           f"(the limit is {_MR_EXACT_BELOW})")
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _rational(x):
    """The canonical rational scalar equal to x (an int or a Fraction)."""
    return x.numerator if x.denominator == 1 else x


class Field:
    """The field of rationals (p is None) or GF(p) for a prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise InvalidInput(f"modulus {p} is not prime")
        self.p = p

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def characteristic(self) -> int:
        return self.p or 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    # -- scalar construction -------------------------------------------------

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, value):
        """Coerce an int (or Fraction, over the rationals) to a canonical scalar."""
        if self.p is None:
            return value if type(value) is int else _rational(Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise InvalidInput(f"{value} is not an element of GF({self.p})")
            value = value.numerator
        return value % self.p

    # -- arithmetic -----------------------------------------------------------

    def add(self, a, b):
        return _rational(a + b) if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return _rational(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return _rational(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _rational(1 / Fraction(a)) if self.p is None else pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def reduce(self, raw):
        """Canonicalize a raw int (or rational) accumulated with lazy reduction."""
        return _rational(raw) if self.p is None else raw % self.p

    # -- integer form -----------------------------------------------------------

    def numerators(self, scalars) -> tuple:
        """(ints, d): integer numerators over one common denominator d > 0.

        scalars[k] == ints[k] / d.  Over GF(p), and over Q when every scalar
        is an int, d is 1 and ints is the given sequence itself.
        """
        if self.p is None:
            dens = {x.denominator for x in scalars if type(x) is not int}
            if dens:
                d = lcm(*dens)
                return [x * d if type(x) is int else x.numerator * (d // x.denominator)
                        for x in scalars], d
        return scalars, 1

    def quotients(self, nums, den: int) -> list:
        """The canonical scalars x / den for the ints x in nums; den > 0 is 1 over GF(p)."""
        p = self.p
        if p is not None:
            return [x % p for x in nums]
        if den == 1:
            return list(nums)
        return [x // den if x % den == 0 else Fraction(x, den) for x in nums]

    # -- text form ------------------------------------------------------------

    def format(self, a) -> str:
        return str(a)

    def parse(self, text) -> object:
        """Parse the scalar text form ("a/b" or "a" over Q; an integer over GF(p))."""
        try:
            if self.p is None:
                return _rational(Fraction(str(text)))
            return int(text) % self.p
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad scalar {text!r} for {self!r}: {exc}") from exc


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)
