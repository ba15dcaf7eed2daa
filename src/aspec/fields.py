"""Exact scalar arithmetic: the rationals and prime fields F_p.

Scalars are plain Python values; a Field object supplies the operations.
No floating point anywhere.

Scalars are kept normalized: a Fraction over Q, an int in 0..p-1 over
F_p.  Every operation returns a normalized scalar, and `normalize` (which
the public `Mat` constructor applies) brings outside input into that
form.  A normalized scalar is falsy exactly when it is zero, so the
kernels of linalg.py skip zero entries by truthiness, without a field
call; `is_zero` also accepts unnormalized input and decides the results.
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
    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, a):
        return a if isinstance(a, Fraction) else Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return Fraction(a) / b

    def of_int(self, n):
        return Fraction(n)

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        try:
            return Fraction(text.strip())
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
        return a % self.p

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
