"""Commutative polynomial quotients k[x]/(I) and k[x,y]/(I).

k[x, y]/I is k<x, y> modulo the commutator rule x.y -> y.x and I, so the
rewriting engine of `rewrite` presents it as it presents quivers: each
variable is a loop letter on one vertex, the last one letter 0, and the
highest word leads each rule.  The irreducible words are then the
sorted words y^b x^a outside the leading ideal, and the order on them is
the degree-lexicographic order on monomials with x > y.  Quotients must
be finite-dimensional.  Univariate factorization of degree 2 and more
is delegated to sympy, which is imported only when such a polynomial is
factored.
"""

from __future__ import annotations

from .algebra import Algebra
from .errors import InfiniteDimensionalError, InputError, InternalInvariantError
from .fields import characteristic
from .linalg import Mat, _Echelon, unit_vec, vec_is_zero
from .rewrite import REWRITE_BUDGET, Rewriter


# standard monomials undecided at this degree are refused as infinite
MAX_DEGREE = 64


def from_poly_quotient(field, var_names, relations):
    """Validated commutative Algebra k[vars]/(relations) on its standard
    monomials, deglex-sorted.

    relations: list of polynomials as {exponent tuple: coeff}.
    """
    nvars = len(var_names)
    if nvars not in (1, 2):
        raise InputError("poly_quotient supports 1 or 2 variables")
    if len(set(var_names)) != nvars:
        raise InputError(f"duplicate variable {var_names[-1]!r}")

    def word(mono):
        if sum(mono) > REWRITE_BUDGET:
            raise InputError(f"monomial of degree {sum(mono)} exceeds the "
                             f"rewriting budget of {REWRITE_BUDGET}")
        return tuple(g for g in range(nvars) for _ in range(mono[-1 - g]))

    def mono(w):
        return tuple(w.count(nvars - 1 - v) for v in range(nvars))

    rw = Rewriter(field)
    if nvars == 2:
        rw.add_relation({(1, 0): field.one, (0, 1): field.neg(field.one)})
    for rel in relations:
        rw.add_relation({word(m): field.normalize(c) for m, c in rel.items()})
    letters = [(name, "v", "v") for name in reversed(var_names)]
    words = rw.basis_words(letters, MAX_DEGREE, 1)
    if () in rw.rules:
        raise InputError("the relations generate the unit ideal, so the "
                         "quotient is zero")
    if words is None:
        raise InfiniteDimensionalError(
            f"quotient not finite-dimensional by degree {MAX_DEGREE}")
    monos = [(0,) * nvars] + sorted(
        (mono(w) for layer in words for w in layer),
        key=lambda m: (sum(m), m))
    index = {m: i for i, m in enumerate(monos)}
    dim = len(monos)

    def label(m):
        return "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(var_names, m) if e) or "1"

    products = rw.structure_constants(letters, ["v"],
                                      [word(m) for m in monos[1:]])
    alg = Algebra(field, [label(m) for m in monos], products,
                  unit_vec(field, dim, 0))
    # the variables as elements of A (x = a when A = k[x]/(x - a))
    variables = [[field.zero] * dim for _ in range(nvars)]
    for vec, g in zip(variables, reversed(range(nvars))):
        for w, c in rw.reduce({(g,): field.one}).items():
            vec[index[mono(w)]] = c
    alg.poly_data = {"vars": list(var_names), "monomials": monos,
                     "variables": variables}
    return alg


# -- univariate helpers ---------------------------------------------------


def min_poly_of_matrix(m):
    """Monic minimal polynomial (coeff list, low degree first) of a square
    Mat.  I, M, M^2, ... go flattened into one echelon, each tagged with
    its degree; the first power that reduces to zero leaves in its tag
    the monic relation to the powers below it."""
    f = m.field
    n = m.rows
    ech = _Echelon(f, n * n)
    power = Mat.identity(f, n)
    for d in range(n + 1):
        r = ech.reduce(sum(power.data, []) + unit_vec(f, n + 1, d))
        if vec_is_zero(f, r[:n * n]):
            return r[n * n:n * n + d + 1]
        ech.insert(r)
        power = power.mul(m)
    raise InternalInvariantError("minimal polynomial not found")


def factor_univariate(field, coeffs):
    """Monic irreducible factors [(coeffs, multiplicity)] of a univariate
    poly (coeffs low degree first), sorted by length and then by the
    printed coefficients.  Degree at most 1 is answered here; higher
    degrees go to sympy's dense factoring over QQ or GF(p), read from
    and back into the coefficient lists."""
    coeffs = list(coeffs)
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    if len(coeffs) == 2:
        return [([field.div(coeffs[0], coeffs[1]), field.one], 1)]
    from sympy.polys.densetools import dup_monic
    from sympy.polys.domains import GF, QQ
    from sympy.polys.factortools import dup_factor_list
    rational = characteristic(field) == 0
    dom = QQ if rational else GF(field.p)

    def scalar(c):
        if rational:
            return field.div(int(c.numerator), int(c.denominator))
        return field.normalize(int(c))

    rep = [dom(int(c.numerator), int(c.denominator)) if rational
           else dom(int(c)) for c in reversed(coeffs)]
    _, factors = dup_factor_list(rep, dom)
    out = [([scalar(c) for c in reversed(dup_monic(fac, dom))], int(mult))
           for fac, mult in factors]
    out.sort(key=lambda t: (len(t[0]), [str(c) for c in t[0]]))
    return out
