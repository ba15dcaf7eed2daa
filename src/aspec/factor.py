"""Univariate factorization over F_p and Q, on lists of ints.

A polynomial is a list of ints, low degree first, with no trailing zero;
[] is zero.  A helper given a modulus m returns coefficients in 0..m-1.
Over F_p, p < 2^31 (Cantor and Zassenhaus, Math. Comp. 36, 1981): a
square-free split, then distinct-degree and equal-degree factorization.
Over Q (Zassenhaus, J. Number Theory 1, 1969): a square-free primitive
f in Z[x] is factored mod the smallest prime p that keeps it square-free
and of its degree, the factors are lifted mod p^k > 2 |lc| B (Mignotte's
bound B), and their products, fewest first, are tried by division.
"""

from __future__ import annotations

from itertools import combinations, count, zip_longest
from math import comb, gcd, isqrt, lcm

from .fields import is_prime


def _mod(f, m=None):
    """f mod m, trimmed; f itself, trimmed, when m is None."""
    f = f if m is None else [c % m for c in f]
    while f and not f[-1]:
        f.pop()
    return f


def _add(f, g, m=None):
    return _mod([a + b for a, b in zip_longest(f, g, fillvalue=0)], m)


def _mul(f, g):
    """f g in Z[x], for `_mod` or `_divmod` to reduce."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


def _diff(f, m=None):
    return _mod([i * c for i, c in enumerate(f)][1:], m)


def _divmod(f, g, m):
    """Quotient and remainder of f by g mod m, lc(g) a unit mod m."""
    dg, inv = len(g) - 1, pow(g[-1], -1, m)
    r, q = list(f), [0] * max(len(f) - dg, 0)
    for k in range(len(f) - 1 - dg, -1, -1):
        c = r[k + dg] * inv % m
        if c:
            q[k] = c
            for j, b in enumerate(g, k):
                r[j] -= c * b
    return _mod(q), _mod(r[:dg], m)


def _monic(f, m):
    inv = pow(f[-1], -1, m)
    return [c * inv % m for c in f]


def _gcd(f, g, p):
    """The monic gcd over F_p, [] when both are zero."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p) if f else f


def _powmod(f, e, g, m):
    """f^e mod g, mod m."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _divmod(_mul(out, out), g, m)[1]
        if bit == "1":
            out = _mul(out, f)
    return _divmod(out, g, m)[1]


def factor_mod_p(f, p):
    """Irreducible factors [(g, multiplicity)] over F_p of a monic f."""
    return [(h, e) for g, e in _sqf_mod_p(f, p)
            for part, d in _ddf(g, p) for h in _edf(part, d, p, p)]


def _sqf_mod_p(f, p):
    """[(g, e)], the g monic, square-free and coprime, f = prod g^e."""
    c = _gcd(f, _diff(f, p), p)
    w, out, i = _divmod(f, c, p)[0], [], 1
    while len(w) > 1:
        y = _gcd(w, c, p)
        z = _divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        w, c, i = y, _divmod(c, y, p)[0], i + 1
    if len(c) > 1:
        # c = h^p = h(x^p), as a^p = a in F_p: no loop runs p times
        out += [(g, e * p) for g, e in _sqf_mod_p(c[::p], p)]
    return out


def _ddf(f, p):
    """[(g, d)], g the product of the degree-d factors of f (square-free)."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _add(h, [0, -1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    return out + [(f, len(f) - 1)] if len(f) > 1 else out


def _edf(f, d, p, j):
    """The factors of f, a product of distinct irreducibles of degree d,
    split by the v whose base-p digits are j, j + 1, ...: from j = p, a
    fixed sequence x, x + 1, ... through every polynomial, so one splits f."""
    while len(f) - 1 > d:
        v, k, j = [], j, j + 1
        while k:
            v.append(k % p)
            k //= p
        if p == 2:
            w = t = _divmod(v, f, 2)[1]
            for _ in range(d - 1):
                t = _divmod(_mul(t, t), f, 2)[1]
                w = _add(w, t, 2)
        else:
            w = _add(_powmod(v, (p**d - 1) // 2, f, p), [-1], p)
        g = _gcd(f, w, p)
        if 1 < len(g) < len(f):
            return _edf(g, d, p, j) + _edf(_divmod(f, g, p)[0], d, p, j)
    return [f]


def factor_rational(coeffs):
    """Irreducible factors [(g, multiplicity)] over Q of f, of degree >= 1
    in ints and Fractions: each g primitive in Z[x] with lc(g) > 0."""
    den = lcm(*(c.denominator for c in coeffs))
    f = _primitive([c.numerator * (den // c.denominator) for c in coeffs])
    c, out = _zgcd(f, _diff(f)), []
    for h in _zassenhaus(_exact_quo(f, c)):
        # h divides c = gcd(f, f') one time less than it divides f
        e = 1
        while len(c) > 1 and (q := _exact_quo(c, h)) is not None:
            c, e = q, e + 1
        out.append((h, e))
    return out


def _primitive(f):
    c = gcd(*f)
    return [a // (c if f[-1] > 0 else -c) for a in f]


def _exact_quo(f, g):
    """f / g in Z[x], or None when g does not divide f."""
    dg = len(g) - 1
    r, q = list(f), [0] * max(len(f) - dg, 0)
    for k in range(len(f) - 1 - dg, -1, -1):
        c, rest = divmod(r[k + dg], g[-1])
        if rest:
            return None
        if c:
            q[k] = c
            for j, b in enumerate(g, k):
                r[j] -= c * b
    return None if any(r[:dg]) else q


def _zgcd(f, g):
    """gcd(f, g) over Q for f != 0, primitive in Z[x] with lc > 0: [1]
    when f, g are coprime mod a prime p not dividing lc(f), which spares
    the primitive remainder sequence and its coefficient growth."""
    p = 2**31 - 1
    if f[-1] % p and len(_gcd(_mod(f, p), _mod(g, p), p)) == 1:
        return [1]
    while g:
        r, g = f, _primitive(g)
        while len(r) >= len(g):
            shift = [0] * (len(r) - len(g))
            r = _add([a * g[-1] for a in r], shift + [-b * r[-1] for b in g])
        f, g = g, r
    return f


def _zassenhaus(f):
    """The factors of a square-free primitive f in Z[x], lc(f) > 0."""
    n = len(f) - 1
    p = next(p for p in count(2) if is_prime(p) and f[-1] % p and
             len(_gcd(_mod(f, p), _diff(_mod(f, p), p), p)) == 1)
    modular = [h for g, d in _ddf(_monic(_mod(f, p), p), p)
               for h in _edf(g, d, p, p)]
    if len(modular) == 1:
        return [f]
    # Mignotte: for h | f of degree k < n, lc(f)/lc(h) h has coefficients
    # at most C(k, j) ||f||_2 <= B = C(n - 1, (n - 1)//2) ||f||_2
    norm, m = isqrt(sum(c * c for c in f)) + 1, p
    while m <= 2 * f[-1] * comb(n - 1, (n - 1) // 2) * norm:
        m *= m
    return _recombine(f, [_lift(f, h, p, m) for h in modular], m)


def _lift(f, h, p, m):
    """The monic factor mod m of f that is h mod p, for h irreducible mod
    p and coprime to f / h, by Newton's iteration."""
    q = p
    if len(h) == 2:     # the root r of h goes to r - f(r)/f'(r)
        r = -h[0]
        while q < m:
            q *= q
            value = slope = 0       # f(r) and f'(r), by Horner
            for c in reversed(f):
                slope, value = (slope * r + value) % q, (value * r + c) % q
            r = (r - value * pow(slope, -1, q)) % q
        return [-r % m, 1]
    # if f / lc(f) = h g + r mod q and u g = 1 mod (h, q), h + (r u mod h)
    # divides f / lc(f) mod q^2; u starts as g^(p^d - 2) in F_p[x]/(h)
    g = _divmod(_monic(_mod(f, p), p), h, p)[0]
    u = _powmod(g, p**(len(h) - 1) - 2, h, p)
    while q < m:
        q *= q
        fq = _monic(_mod(f, q), q)
        h = _add(h, _divmod(_mul(_divmod(fq, h, q)[1], u), h, q)[1], q)
        gu = _divmod(_mul(_divmod(fq, h, q)[0], u), h, q)[1]
        u = _divmod(_mul(u, _add([2], [-c for c in gu], q)), h, q)[1]
    return h


def _recombine(f, lifted, m):
    """The factors lc(f) prod(S) mod m of f, S the subsets of `lifted`."""
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(lifted, size):
            g = [f[-1]]
            for h in subset:
                g = _mod(_mul(g, h), m)
            g = _primitive([c - m if 2 * c > m else c for c in g])
            if (q := _exact_quo(f, g)) is not None:
                out.append(g)
                f, lifted = q, [h for h in lifted if h not in subset]
                break
        else:
            size += 1
    return out + [f]
