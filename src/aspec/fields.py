"""Exact scalar arithmetic: the rationals and prime fields F_p.

Scalars are plain Python values; a Field object supplies the operations.
No floating point anywhere.

Scalars are kept normalized.  Over Q a scalar is an `int` when its
denominator is 1 and a reduced `Fraction` with denominator > 1
otherwise; over F_p it is an int in 0..p-1.  Every operation returns a
normalized scalar, and `normalize` (which the public `Mat` constructor,
the parsers and the sympy converters apply) brings outside input into
that form; it refuses a float.  Over F_p it maps a rational n/d (a
`Fraction`, say) to n * d^-1 mod p, and raises ZeroDivisionError when p
divides d.  Since an integral rational is a plain int, a bare `/` on two
scalars gives a float: it is a bug, and `div` or `inv` is the only
division.

A normalized scalar is falsy exactly when it is zero, so the kernels of
linalg.py skip zero entries by truthiness, without a field call;
`is_zero` also accepts unnormalized input and decides the results.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError, InputError

_PRIME_LIMIT = 2**31


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface; instances are value-comparable and hashable."""

    def same(self, other):
        if self != other:
            raise FieldMismatchError(f"field mismatch: {self} vs {other}")

    # subclasses provide: zero, one, add, sub, mul, neg, inv, div,
    # of_int, parse, format, is_zero


class RationalField(Field):
    zero = 0
    one = 1

    def normalize(self, a):
        """An int, or a Fraction with denominator > 1."""
        if type(a) is int:
            return a
        if isinstance(a, float):
            raise TypeError(f"a float is not an exact scalar: {a!r}")
        a = Fraction(a)
        return a.numerator if a.denominator == 1 else a

    def add(self, a, b):
        c = a + b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def sub(self, a, b):
        c = a - b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def mul(self, a, b):
        c = a * b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.normalize(1 / Fraction(a))

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return self.normalize(Fraction(a) / b)

    def of_int(self, n):
        return self.normalize(n)

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        try:
            return self.normalize(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational scalar {text!r}") from exc

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    def __init__(self, p):
        if not (2 <= p < _PRIME_LIMIT) or not _is_prime(p):
            raise InputError(f"F_p needs a prime p < 2^31, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def normalize(self, a):
        """An int in 0..p-1; a rational n/d maps to n * d^-1 mod p."""
        if type(a) is int:
            return a % self.p
        if isinstance(a, float):
            raise TypeError(f"a float is not an exact scalar: {a!r}")
        a = Fraction(a)
        return self.div(a.numerator, a.denominator)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def of_int(self, n):
        return n % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, text):
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                return self.div(int(num) % self.p, int(den) % self.p)
            return int(text) % self.p
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse F_{self.p} scalar {text!r}") from exc

    def format(self, a):
        return str(a % self.p)

    @property
    def characteristic(self):
        return self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def field_from_name(name):
    """Parse a field descriptor: 'Q', 'QQ', 'F5', 'GF(7)'."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    for prefix in ("GF(", "F(", "F", "GF"):
        if name.startswith(prefix):
            body = name[len(prefix):].rstrip(")")
            if body.isdigit():
                return PrimeField(int(body))
    raise InputError(f"unknown field descriptor {name!r}")


def characteristic(field):
    return field.p if isinstance(field, PrimeField) else 0
