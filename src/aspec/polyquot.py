"""Commutative polynomial quotients k[x]/(I) and k[x,y]/(I).

Small Buchberger completion in degree-lexicographic order; quotients
must be finite-dimensional (detected via pure powers in the leading
ideal).  Univariate factorization is delegated to sympy.
"""

from __future__ import annotations

import sympy

from .algebra import Algebra
from .errors import InfiniteDimensionalError, InputError, InternalInvariantError
from .fields import characteristic
from .linalg import Mat, kernel_basis


# polynomials: dict exponent-tuple -> nonzero coeff


def _deglex_key(mono):
    return (sum(mono), mono)


def poly_clean(field, p):
    return {m: c for m, c in p.items() if not field.is_zero(c)}


def poly_add(field, p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = field.add(out.get(m, field.zero), c)
    return poly_clean(field, out)


def poly_scale(field, c, p):
    return poly_clean(field, {m: field.mul(c, v) for m, v in p.items()})


def poly_mul(field, p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = field.add(out.get(m, field.zero), field.mul(c1, c2))
    return poly_clean(field, out)


def leading(p):
    return max(p, key=_deglex_key)


def _divides(m, n):
    return all(a <= b for a, b in zip(m, n))


def poly_reduce(field, p, gens):
    """Normal form of p modulo the generator list (each with cached LM)."""
    p = dict(p)
    changed = True
    while changed and p:
        changed = False
        lead_list = sorted(p, key=_deglex_key, reverse=True)
        for m in lead_list:
            c = p.get(m)
            if c is None or field.is_zero(c):
                continue
            for g, gl in gens:
                if _divides(gl, m):
                    shift = tuple(a - b for a, b in zip(m, gl))
                    factor = field.div(c, g[gl])
                    for gm, gc in g.items():
                        tm = tuple(a + b for a, b in zip(gm, shift))
                        p[tm] = field.sub(p.get(tm, field.zero),
                                          field.mul(factor, gc))
                    p = poly_clean(field, p)
                    changed = True
                    break
            if changed:
                break
    return p


def groebner(field, polys, nvars):
    """Buchberger with deglex order; returns reduced generator pairs."""
    gens = []
    for p in polys:
        p = poly_clean(field, p)
        if p:
            gens.append((p, leading(p)))
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    guard = 0
    while pairs:
        guard += 1
        if guard > 5000:
            raise InternalInvariantError("Buchberger did not terminate")
        i, j = pairs.pop(0)
        gi, li = gens[i]
        gj, lj = gens[j]
        lcm = tuple(max(a, b) for a, b in zip(li, lj))
        # Buchberger 1st criterion: coprime leading monomials
        if all(a + b == m for a, b, m in zip(li, lj, lcm)):
            continue
        si = tuple(a - b for a, b in zip(lcm, li))
        sj = tuple(a - b for a, b in zip(lcm, lj))
        spoly = poly_add(
            field,
            poly_scale(field, field.inv(gi[li]),
                       poly_mul(field, {si: field.one}, gi)),
            poly_scale(field, field.neg(field.inv(gj[lj])),
                       poly_mul(field, {sj: field.one}, gj)))
        rem = poly_reduce(field, spoly, gens)
        if rem:
            gens.append((rem, leading(rem)))
            new = len(gens) - 1
            pairs.extend((k, new) for k in range(new))
    # interreduce in place, each generator against the current others:
    # of two generators sharing a leading monomial only the first vanishes
    idx = 0
    while idx < len(gens):
        rem = poly_reduce(field, gens[idx][0], gens[:idx] + gens[idx + 1:])
        if rem:
            gens[idx] = (rem, leading(rem))
            idx += 1
        else:
            del gens[idx]
    # leading monomials are now distinct, so no two monic ones coincide
    return [(poly_scale(field, field.inv(g[gl]), g), gl) for g, gl in gens]


def standard_monomials(field, gens, nvars, bound=64):
    """Monomials outside the leading ideal, deglex-sorted.

    Raises InfiniteDimensionalError (naming the smallest unbounded
    degree) when some variable has no pure power among the leads.
    """
    leads = [gl for _, gl in gens]
    for v in range(nvars):
        if not any(all(l[k] == 0 for k in range(nvars) if k != v) and l[v] > 0
                   for l in leads):
            raise InfiniteDimensionalError(
                f"quotient is infinite-dimensional: variable #{v} has "
                "unbounded powers", degree=1)
    out = []
    frontier = [tuple([0] * nvars)]
    seen = set(frontier)
    degree = 0
    while frontier:
        layer = [m for m in frontier
                 if not any(_divides(l, m) for l in leads)]
        out.extend(sorted(layer, key=_deglex_key))
        degree += 1
        if degree > bound:
            raise InfiniteDimensionalError(
                "quotient not finite-dimensional by degree "
                f"{bound}", degree=bound)
        nxt = set()
        for m in layer:
            for v in range(nvars):
                m2 = tuple(e + (1 if k == v else 0) for k, e in enumerate(m))
                if m2 not in seen:
                    seen.add(m2)
                    nxt.add(m2)
        frontier = sorted(nxt, key=_deglex_key)
    return out


def from_poly_quotient(field, var_names, relations, validate=True):
    """Commutative Algebra k[vars]/(relations) on its standard monomials.

    relations: list of polynomials as {exponent tuple: coeff}.
    """
    nvars = len(var_names)
    if nvars not in (1, 2):
        raise InputError("poly_quotient supports 1 or 2 variables")
    gens = groebner(field, relations, nvars)
    monos = standard_monomials(field, gens, nvars)
    index = {m: i for i, m in enumerate(monos)}
    dim = len(monos)

    def label(m):
        if sum(m) == 0:
            return "1"
        parts = []
        for name, e in zip(var_names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    labels = [label(m) for m in monos]
    table = []
    for mi in monos:
        row = []
        for mj in monos:
            prod = poly_reduce(field, {tuple(a + b for a, b in zip(mi, mj)):
                                       field.one}, gens)
            vec = [field.zero] * dim
            for m, c in prod.items():
                vec[index[m]] = c
            row.append(vec)
        table.append(row)
    unit = [field.zero] * dim
    unit[index[tuple([0] * nvars)]] = field.one
    alg = Algebra(field, labels, table, unit, validate=validate)
    alg.poly_data = {
        "vars": list(var_names),
        "groebner": gens,
        "monomials": monos,
    }
    return alg


# -- univariate helpers ---------------------------------------------------


def min_poly_of_matrix(m):
    """Monic minimal polynomial (coeff list, low degree first) of a square Mat."""
    f = m.field
    n = m.rows
    powers = [Mat.identity(f, n)]
    for _ in range(n):
        powers.append(powers[-1].mul(m))
    flat = [sum(p.data, []) for p in powers]
    for d in range(1, n + 2):
        cols = flat[:d + 1]
        sysm = Mat(f, [[cols[k][i] for k in range(d + 1)]
                       for i in range(n * n)], cols=d + 1)
        for ker in kernel_basis(sysm):
            if not f.is_zero(ker[d]):
                inv = f.inv(ker[d])
                return [f.mul(inv, c) for c in ker]
    raise InternalInvariantError("minimal polynomial not found")


def _to_sympy_poly(field, coeffs, x):
    if characteristic(field) == 0:
        expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(coeffs))
        return sympy.Poly(expr, x, domain="QQ")
    expr = sum(int(c) * x**i for i, c in enumerate(coeffs))
    return sympy.Poly(expr, x, modulus=field.p)


def _from_sympy_poly(field, poly):
    coeffs = poly.all_coeffs()[::-1]
    if characteristic(field) == 0:
        from fractions import Fraction
        return [Fraction(sympy.Rational(c).p, sympy.Rational(c).q)
                for c in coeffs]
    return [int(c) % field.p for c in coeffs]


def factor_univariate(field, coeffs):
    """Monic irreducible factors [(coeffs, multiplicity)] of a univariate poly."""
    x = sympy.Symbol("x")
    poly = _to_sympy_poly(field, coeffs, x)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        fac = fac.monic()
        out.append((_from_sympy_poly(field, fac), int(mult)))
    out.sort(key=lambda t: (len(t[0]), [str(c) for c in t[0]]))
    return out


def poly_eval_matrix(field, coeffs, m):
    """Evaluate a univariate polynomial at a square matrix."""
    n = m.rows
    out = Mat.zeros(field, n, n)
    power = Mat.identity(field, n)
    for c in coeffs:
        if not field.is_zero(c):
            out = out.add(power.scale(c))
        power = power.mul(m)
    return out
