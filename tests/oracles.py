"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the production code paths: naive
Gaussian elimination, determinant-of-minors ranks, path enumeration,
extension and deformation enumeration over small prime fields.  The
exceptions: the morphism count out of a hull computes in the target
through the matric algebra `MatricOHat` with 1x1 blocks; the dense
Hochschild coboundaries multiply the action matrices as `Mat`s one basis
pair or triple at a time; the eager bar comparison mu lifts every cell
through a `Span` of the resolution's d2; HH^1, the Ext^1 reference, takes `kernel_basis`
and `quotient_basis` of the derivation equations; the smallness of a
hull tower reads the hull's own normal forms; the guessed-degree basis
words complete with the engine's own `Rewriter`, and so do the
reduce-per-pair builders of quivers and polynomial quotients, which
differ from `from_quiver` and `from_poly_quotient` only in their
tables, one reduction per pair of basis elements; the order-N stage loop
splits its defects and builds its algebras, rho and C with the hull's
own parts, and the per-stage defects form rho in each stage algebra
with the hull's `_matric` and multiply it with its `_defects`; the
principal ideals by all products use O's own multiplication; the
references for O^A(M) multiply in `MatricOHat`, invert by
`invert_unit`, read coordinates through a `Span`, solve for
unit inverses in a `Span` of O's table, rref the flattened rho table
and test simplicity with `is_simple`; the dense validity checks of
algebras and modules multiply through `Algebra.mul`, `Mat.mul` and
`act`, one basis triple or pair at a time, the all-first-index
associator sums both sides over the nonzero structure constants as the
engine's generator-first one does, the span of the products of
generators echelonizes `Algebra.mul` products, and the powers of the arrow
ideal multiply through `Algebra.mul` and echelonize by
`row_space_basis`; the dense resolutions build
each e A through `Algebra.mul`, act through dense `Mat`s and solve with
`rref`, `kernel_basis` and `quotient_basis`, the general Ext path
solves for the cocycles of any target with `kernel_basis` and
`quotient_basis` over the production resolution, and the whole trace chain
and the dense trace form read the regular representation through
`left_mult_matrix`; the corner simples multiply through `Algebra.mul`
and solve in a `Span`; the `Mat` references for the scalar kernel of
`MatricOHat` add and scale with its `Mat`-valued element operations and
read the hull's own normal forms; the first paths of the space checks
build their sections, hulls, spaces of simples and sheaf restrictions
with the production code and solve in a `Span`.  The last two sections
hold readings of documents, points and spaces that only the tests ask
for, and those first paths.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from aspec.algebra import from_structure_constants
from aspec.errors import (
    InfiniteDimensionalError,
    InputError,
    InternalInvariantError,
    ValidationError,
)
from aspec.fields import PrimeField
from aspec.hochschild import split_two_cocycle
from aspec.hull import (
    MatricOHat,
    RPointedAlgebra,
    _defects,
    designated_units,
    invert_unit,
)
from aspec.linalg import (
    Mat,
    Span,
    _add_scaled,
    kernel_basis,
    quotient_basis,
    row_space_basis,
    unit_vec,
    vec_add,
    vec_sub,
    zero_vec,
)
from aspec.modules import ModuleRep, contraction, is_isomorphic, is_simple
from aspec.polyquot import MAX_DEGREE as POLY_MAX_DEGREE
from aspec.polyring import PointModule
from aspec.quiver import MAX_DEGREE as QUIVER_MAX_DEGREE
from aspec.rewrite import Rewriter


def naive_gauss_rank(rows_in, p=None):
    """Rank by plain Gaussian elimination; exact Fraction or mod p."""
    rows = [[Fraction(x) if p is None else x % p for x in row]
            for row in rows_in]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = (1 / rows[rank][col]) if p is None else pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) if p is None else (x * inv) % p
                      for x in rows[rank]]
        for i in range(len(rows)):
            if i == rank or rows[i][col] == 0:
                continue
            c = rows[i][col]
            rows[i] = [(a - c * b) if p is None else (a - c * b) % p
                       for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def det_fraction(mat):
    """Determinant by cofactor expansion (exact)."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(mat[0][0])
    total = Fraction(0)
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [[mat[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(mat[0][j]) * det_fraction(minor)
    return total


def rank_by_minors(mat):
    """Rank as the size of the largest nonvanishing minor."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    for size in range(min(nrows, ncols), 0, -1):
        for rsel in combinations(range(nrows), size):
            for csel in combinations(range(ncols), size):
                sub = [[mat[i][j] for j in csel] for i in rsel]
                if det_fraction(sub) != 0:
                    return size
    return 0


def enumerate_paths(vertices, arrows, max_len):
    """All composable paths (as arrow-name tuples) up to max_len."""
    by_source = {}
    for name, src, tgt in arrows:
        by_source.setdefault(src, []).append((name, tgt))
    paths = {0: [((), v, v) for v in vertices]}
    for length in range(1, max_len + 1):
        layer = []
        if length == 1:
            for name, src, tgt in arrows:
                layer.append(((name,), src, tgt))
        else:
            for names, src, tgt in paths[length - 1]:
                for name, nxt in by_source.get(tgt, []):
                    layer.append((names + (name,), src, nxt))
        paths[length] = layer
    return paths


class FpAlgebra:
    """Tiny structure-constant algebra over F_p for enumeration oracles."""

    def __init__(self, p, table, unit):
        self.p = p
        self.dim = len(table)
        self.table = table
        self.unit = tuple(unit)

    @classmethod
    def from_algebra(cls, alg):
        p = alg.field.p
        table = [[tuple(int(c) % p for c in cell) for cell in row]
                 for row in dense_table(alg)]
        return cls(p, table, tuple(int(c) % p for c in alg.unit))

    def mul(self, x, y):
        p = self.p
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = (xi * yj) % p
                for k, t in enumerate(self.table[i][j]):
                    if t:
                        out[k] = (out[k] + c * t) % p
        return tuple(out)

    def elements(self):
        return product(range(self.p), repeat=self.dim)


def nil_ideal_radical(alg_fp):
    """Radical of a tiny F_p algebra: all x whose two-sided ideal is nil.

    Pure enumeration; exponential, only for dim <= 4 or so.
    """
    A = alg_fp
    basis = [tuple(1 if i == j else 0 for j in range(A.dim))
             for i in range(A.dim)]

    def ideal_span(x):
        span = {}
        frontier = [x]
        vecs = []
        def insert(v):
            v = list(v)
            for pivot, row in span.items():
                c = v[pivot]
                if c:
                    v = [(a - c * b) % A.p for a, b in zip(v, row)]
            for idx, c in enumerate(v):
                if c:
                    inv = pow(c, A.p - 2, A.p)
                    v = [(a * inv) % A.p for a in v]
                    span[idx] = v
                    return True
            return False
        insert(x)
        frontier = [x]
        while frontier:
            v = frontier.pop()
            for b in basis:
                for w in (A.mul(v, b), A.mul(b, v)):
                    if insert(w):
                        frontier.append(w)
        vecs = []
        for pivot in sorted(span):
            vecs.append(span[pivot])
        return vecs

    def subspace_elements(vecs):
        for coeffs in product(range(A.p), repeat=len(vecs)):
            v = [0] * A.dim
            for c, vec in zip(coeffs, vecs):
                if c:
                    v = [(a + c * b) % A.p for a, b in zip(v, vec)]
            yield tuple(v)

    def is_nilpotent(x):
        y = x
        for _ in range(A.dim + 1):
            y = A.mul(y, x)
        return all(c == 0 for c in y)

    rad = []
    for x in A.elements():
        ideal = ideal_span(x)
        if all(is_nilpotent(v) for v in subspace_elements(ideal)):
            rad.append(x)
    # rad is a subspace; return an echelon basis
    span = {}
    out = []
    for v in rad:
        v = list(v)
        for pivot, row in span.items():
            c = v[pivot]
            if c:
                v = [(a - c * b) % A.p for a, b in zip(v, row)]
        for idx, c in enumerate(v):
            if c:
                inv = pow(c, A.p - 2, A.p)
                v = [(a * inv) % A.p for a in v]
                span[idx] = v
                break
    for pivot in sorted(span):
        out.append(tuple(span[pivot]))
    return out


# -- deformation-lift enumeration over F_p ---------------------------------
#
# Test objects are hand-coded r-pointed structures with scalar blocks
# (family members are 1-dimensional).  A lift of the family to R is a
# multiplicative unital map L: A -> R (x) Hom; gauge equivalence is
# conjugation by units congruent to 1 modulo the radical.

T2_OBJECT = {
    "r": 1,
    "words": [("t", 0, 0, 1)],          # (name, i, j, degree)
    "mult": {},                          # all radical products vanish
}

T3_OBJECT = {
    "r": 1,
    "words": [("t", 0, 0, 1), ("t2", 0, 0, 2)],
    "mult": {("t", "t"): [("t2", 1)]},
}

E12_OBJECT = {
    "r": 2,
    "words": [("eps", 0, 1, 1)],
    "mult": {},
}


class PointedObject:
    def __init__(self, spec, p):
        self.p = p
        self.r = spec["r"]
        self.words = spec["words"]
        self.blocks = {name: (i, j) for name, i, j, _d in self.words}
        self.degree = {name: d for name, _i, _j, d in self.words}
        self.mult = spec["mult"]

    def key_block(self, key):
        if key[0] == "e":
            return (key[1], key[1])
        return self.blocks[key[1]]

    def mul(self, x, y):
        p = self.p
        out = {}
        for k1, c1 in x.items():
            for k2, c2 in y.items():
                b1 = self.key_block(k1)
                b2 = self.key_block(k2)
                if b1[1] != b2[0]:
                    continue
                c = (c1 * c2) % p
                if not c:
                    continue
                if k1[0] == "e":
                    targets = [(k2, 1)]
                elif k2[0] == "e":
                    targets = [(k1, 1)]
                else:
                    targets = [(("w", name), coeff) for name, coeff in
                               self.mult.get((k1[1], k2[1]), [])]
                for key, coeff in targets:
                    out[key] = (out.get(key, 0) + c * coeff) % p
        return {k: v for k, v in out.items() if v}

    def add(self, x, y):
        out = dict(x)
        for k, v in y.items():
            out[k] = (out.get(k, 0) + v) % self.p
        return {k: v for k, v in out.items() if v}

    def one(self):
        return {("e", i): 1 for i in range(self.r)}


def count_lift_gauge_classes(alg, etas, obj_spec, p, assignment=None):
    """Gauge classes of lifts of the 1-dim family (etas: per member, the
    list of scalars eta_i(b)) to the pointed test object."""
    from itertools import product as iproduct

    R = PointedObject(obj_spec, p)
    dim = alg.dim
    table = dense_table(alg)

    def lift_element(X, b):
        elem = {}
        for i, eta in enumerate(etas):
            if eta[b] % p:
                elem[("e", i)] = eta[b] % p
        for name, i, j, _d in R.words:
            if name not in X:
                continue
            c = X[name][b] % p
            if c:
                elem[("w", name)] = c
        return elem

    def lift_of_vec(X, vec):
        out = {}
        for b, c in enumerate(vec):
            c = int(c) % p
            if not c:
                continue
            term = lift_element(X, b)
            out = R.add(out, {k: (v * c) % p for k, v in term.items()})
        return out

    def multiplicative(X, max_degree=None):
        for a in range(dim):
            la = lift_element(X, a)
            for b in range(dim):
                lb = lift_element(X, b)
                prod = R.mul(la, lb)
                want = lift_of_vec(X, table[a][b])
                diff = R.add(prod, {k: (-v) % p for k, v in want.items()})
                for key, v in diff.items():
                    if key[0] == "e":
                        return False
                    if max_degree is not None and \
                            R.degree[key[1]] > max_degree:
                        continue
                    if v:
                        return False
        return True

    # stage the enumeration by radical degree to keep it tractable
    degrees = sorted({d for _n, _i, _j, d in R.words})
    partial = [dict()]
    for deg in degrees:
        names = [w[0] for w in R.words if w[3] == deg]
        nxt = []
        for base in partial:
            for coeffs in iproduct(range(p), repeat=len(names) * dim):
                X = {k: list(v) for k, v in base.items()}
                pos = 0
                for name in names:
                    X[name] = [coeffs[pos + t] for t in range(dim)]
                    pos += dim
                if multiplicative(X, max_degree=deg):
                    nxt.append(X)
        partial = nxt
    lifts = [X for X in partial if multiplicative(X)]

    # gauge group: U = 1 + sum Y_w w, acting by conjugation
    def gauge_elements():
        names = [w[0] for w in R.words]
        for coeffs in iproduct(range(p), repeat=len(names)):
            u = R.one()
            for name, c in zip(names, coeffs):
                if c:
                    u = R.add(u, {("w", name): c})
            yield u

    def u_inverse(u):
        y = {k: v for k, v in u.items() if k[0] != "e"}
        inv = R.one()
        term = {k: (-v) % p for k, v in y.items()}
        while term:
            inv = R.add(inv, term)
            term = R.mul({k: (-v) % p for k, v in y.items()}, term)
        return inv

    def canon(X):
        return tuple(sorted((name, tuple(v)) for name, v in X.items()))

    def conjugate(X, u, uinv):
        out = {}
        for name, _i, _j, _d in R.words:
            out[name] = [0] * dim
        for b in range(dim):
            elem = R.mul(uinv, R.mul(lift_element(X, b), u))
            for key, v in elem.items():
                if key[0] == "w":
                    out[key[1]][b] = v
        return out

    solution_set = {canon(X) for X in lifts}
    seen = set()
    orbits = 0
    gauge = [(u, u_inverse(u)) for u in gauge_elements()]
    for X in lifts:
        c = canon(X)
        if c in seen:
            continue
        orbits += 1
        for u, uinv in gauge:
            Xc = conjugate(X, u, uinv)
            cc = canon(Xc)
            if cc not in solution_set:
                raise AssertionError("gauge action leaves the lift set")
            seen.add(cc)
    return orbits


def rank_by_minors_mod_p(mat, p):
    """Rank mod p as the largest size of a minor with det not 0 mod p."""
    def det_int(m):
        n = len(m)
        if n == 0:
            return 1
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            if m[0][j] == 0:
                continue
            minor = [[m[i][k] for k in range(n) if k != j]
                     for i in range(1, n)]
            sign = -1 if j % 2 else 1
            total += sign * m[0][j] * det_int(minor)
        return total

    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    for size in range(min(nrows, ncols), 0, -1):
        for rsel in combinations(range(nrows), size):
            for csel in combinations(range(ncols), size):
                sub = [[mat[i][j] for j in csel] for i in rsel]
                if det_int(sub) % p != 0:
                    return size
    return 0


# -- r-pointed morphisms out of a truncated hull ---------------------------


def radical_nilpotency_bound_ok(target, order):
    """rad(target)^{order+1} = 0, so morphisms from an order-truncated
    hull are well defined.  target: a MatricOHat with 1x1 blocks."""
    one = Mat.identity(target.field, 1)
    words = [("m", w) for w in target.hull.reduced_words]
    if not words:
        return True
    products = [{k: one} for k in words]
    for _ in range(order):
        nxt = []
        for x in products:
            for k in words:
                y = target.mul(x, {k: one})
                if not target.is_zero(y):
                    nxt.append(y)
        products = nxt
        if not products:
            return True
    return not products


def enumerate_pointed_morphisms(h, target):
    """All r-pointed morphisms h -> target over a finite prime field;
    both are RPointedAlgebra presentations.

    Returns the list of assignments: per generator, a {key: 1x1 Mat}
    element of the target's radical in the matching block."""
    f = h.field
    if not isinstance(f, PrimeField):
        raise InputError("morphism enumeration needs a finite prime field")
    if f != target.field or h.r != target.r:
        raise InputError("mismatched base or pointedness")
    slots = []
    for label, i, j in h.generators:
        words = [w for w in target.reduced_words
                 if target.word_block(w) == (i, j)]
        slots.append(words)
    target = MatricOHat(target)
    if not radical_nilpotency_bound_ok(target, h.order):
        raise InputError(
            "target radical is not nilpotent within the hull truncation")
    p = f.p

    def assignment(coeff_tuple):
        out = []
        pos = 0
        for words in slots:
            elem = {}
            for w in words:
                c = coeff_tuple[pos]
                pos += 1
                if c % p:
                    elem[("m", w)] = Mat(f, [[c % p]])
            out.append(elem)
        return out

    total = sum(len(words) for words in slots)
    found = []
    for coeffs in product(range(p), repeat=total):
        images = assignment(coeffs)
        ok = True
        for rel in h.relations:
            acc = {}
            for word, c in rel.items():
                term = target.one()
                for g in word:
                    term = target.mul(term, images[g])
                acc = target.add(acc, target.scale(c, term))
            if not target.is_zero(acc):
                ok = False
                break
        if ok:
            found.append(images)
    return found


def solve_by_augmented_rref(columns, b, p=None):
    """x with sum_k x_k * columns[k] = b by Gauss-Jordan on the augmented
    matrix [columns | b], exact Fraction or mod p: None when b is outside
    the span, else the solution with the free variables set to 0."""
    norm = (lambda x: Fraction(x)) if p is None else (lambda x: x % p)
    count = len(columns)
    rows = [[norm(col[i]) for col in columns] + [norm(b[i])]
            for i in range(len(b))]
    pivots = []
    for col in range(count + 1):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col] if p is None else pow(rows[r][col], p - 2, p)
        rows[r] = [norm(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [norm(x - c * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    if count in pivots:
        return None
    x = [norm(0)] * count
    for r, col in enumerate(pivots):
        x[col] = rows[r][count]
    return x


# -- dense Hochschild cochain calculus --------------------------------------


def coboundary_1(algebra, source, target, psi):
    """delta(psi)(a,b) = eta_i(a) psi(b) - psi(ab) + psi(a) eta_j(b), one
    dense product per basis pair."""
    table = dense_table(algebra)
    out = {}
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            term1 = source.action[a].mul(psi[b])
            term3 = psi[a].mul(target.action[b])
            mid = psi_of(algebra, psi, table[a][b], source.dim,
                         target.dim)
            out[(a, b)] = term1.sub(mid).add(term3)
    return out


def psi_of(algebra, psi, elem, rows, cols):
    """Linear extension of a basis-indexed 1-cochain."""
    f = algebra.field
    out = Mat.zeros(f, rows, cols)
    for c, m in zip(elem, psi):
        if not f.is_zero(c):
            out = out.add(m.scale(c))
    return out


def cochain2_of(algebra, coch, x, y, rows, cols):
    """Bilinear extension of a basis-indexed 2-cochain."""
    f = algebra.field
    out = Mat.zeros(f, rows, cols)
    for i, ci in enumerate(x):
        if f.is_zero(ci):
            continue
        for j, cj in enumerate(y):
            if f.is_zero(cj):
                continue
            out = out.add(coch[(i, j)].scale(f.mul(ci, cj)))
    return out


def is_two_cocycle_dense(algebra, source, target, coch):
    """eta(a) c(b,g) - c(ab,g) + c(a,bg) - c(a,b) eta(g) = 0, checked with
    dense products on every basis triple."""
    table = dense_table(algebra)
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            for g in range(algebra.dim):
                t1 = source.action[a].mul(coch[(b, g)])
                t2 = cochain2_of(algebra, coch, table[a][b],
                                 algebra.basis_vector(g), source.dim,
                                 target.dim)
                t3 = cochain2_of(algebra, coch, algebra.basis_vector(a),
                                 table[b][g], source.dim, target.dim)
                t4 = coch[(a, b)].mul(target.action[g])
                if not t1.sub(t2).add(t3).sub(t4).is_zero():
                    return False
    return True


def flatten2_dense(algebra, coch):
    """A full basis-indexed 2-cochain as one list, pairs (a, b) in order,
    each block row by row."""
    n = algebra.dim
    return [x for a in range(n) for b in range(n)
            for row in coch[(a, b)].data for x in row]


def on_generator_pairs(algebra, coch):
    """A full basis-indexed 2-cochain restricted to the pairs (g, b), g a
    generator: the cochain the engine holds."""
    return {(g, b): coch[(g, b)] for g in algebra.generators
            for b in range(algebra.dim)}


def flat_on_generator_pairs(algebra, source, target, flat):
    """The coordinates of a `flatten2_dense` vector on the pairs (g, b), g a
    generator: the layout of `hochschild.flatten2`."""
    block = algebra.dim * source.dim * target.dim
    return [x for g in algebra.generators
            for x in flat[g * block:(g + 1) * block]]


def coboundary_columns_dense(algebra, source, target):
    """Flat delta(psi) of the unit 1-cochains psi(a)[r][c] = 1, in
    (a, r, c) order, each from coboundary_1."""
    f = algebra.field
    n, di, dj = algebra.dim, source.dim, target.dim
    out = []
    for a in range(n):
        for r in range(di):
            for c in range(dj):
                psi = [Mat.zeros(f, di, dj) for _ in range(n)]
                psi[a].data[r][c] = f.one
                out.append(flatten2_dense(algebra,
                                  coboundary_1(algebra, source, target, psi)))
    return out


def two_cocycle_classes_independent(algebra, source, target, cochains):
    """Are the 2-cocycles linearly independent modulo coboundaries?  By
    ranks: appending them to the unit coboundaries adds one each."""
    p = getattr(algebra.field, "p", None)
    cob = coboundary_columns_dense(algebra, source, target)
    flats = [flatten2_dense(algebra, c) for c in cochains]
    return (naive_gauss_rank(cob + flats, p)
            == naive_gauss_rank(cob, p) + len(flats))


def split_two_cocycle_ext2_first(algebra, source, target, hh2_basis, coch):
    """(lambdas, flat psi) with coch = sum lambda_l basis_l + delta(psi),
    solved over the columns [Ext^2 basis | unit coboundaries] with the
    free variables set to 0; None when coch is outside their span."""
    p = getattr(algebra.field, "p", None)
    cols = ([flatten2_dense(algebra, c) for c in hh2_basis]
            + coboundary_columns_dense(algebra, source, target))
    x = solve_by_augmented_rref(cols, flatten2_dense(algebra, coch), p)
    if x is None:
        return None
    return x[:len(hh2_basis)], x[len(hh2_basis):]


def bar_mu_dense(bc):
    """mu[m][a][b] of a BarComparison, lifted eagerly on every cell: the
    d2-preimage of nu(m.a, b) - nu(m, ab) + nu(m, a).b."""
    module, algebra = bc.module, bc.algebra
    f = algebra.field
    p1 = dense_projective(algebra, bc.res.terms[1].slots)
    d2 = bc.res.diffs[2]
    d2_span = Span(f, d2.data, d2.cols)
    table = dense_table(algebra)
    mu = []
    for m in range(module.dim):
        rows = []
        for a in range(algebra.dim):
            cell = []
            ma = module.action[a].data[m]
            for b in range(algebra.dim):
                t1 = _nu_of(bc, ma, algebra.basis_vector(b))
                ab = table[a][b]
                t2 = _nu_of(bc, unit_vec(f, module.dim, m), ab)
                t3 = p1.action[b].apply_row(bc.nu[m][a]) if p1.dim else []
                w = vec_add(f, vec_sub(f, t1, t2), t3)
                sol = d2_span.coords(w)
                if sol is None:
                    raise InternalInvariantError("mu lift failed")
                cell.append(sol)
            rows.append(cell)
        mu.append(rows)
    return mu


def _nu_of(bc, mvec, avec):
    """nu extended bilinearly to a module vector and an algebra vector."""
    f = bc.algebra.field
    out = zero_vec(f, bc.res.terms[1].dim)
    a_terms = [(ai, ca) for ai, ca in enumerate(avec) if ca]
    for cm, nu_m in zip(mvec, bc.nu):
        if cm:
            for ai, ca in a_terms:
                _add_scaled(f, out, f.mul(cm, ca), nu_m[ai])
    return out


def two_cochain_dense(bc, cocycle_mat):
    """Ext^2 cochain (P2 -> N) to a Hochschild 2-cochain on basis pairs,
    read off bar_mu_dense."""
    mu = bar_mu_dense(bc)
    f = bc.algebra.field
    target_dim = cocycle_mat.cols
    out = {}
    for a in range(bc.algebra.dim):
        for b in range(bc.algebra.dim):
            rows = [cocycle_mat.apply_row(mu[m][a][b])
                    for m in range(bc.module.dim)]
            out[(a, b)] = Mat(f, rows, cols=target_dim)
    return out


def inner_derivations(algebra, source, target):
    """Basis of coboundaries psi_F(a) = eta_i(a) F - F eta_j(a)."""
    f = algebra.field
    out = []
    for r in range(source.dim):
        for c in range(target.dim):
            F = Mat.zeros(f, source.dim, target.dim)
            F.data[r][c] = f.one
            psi = [source.action[a].mul(F).sub(F.mul(target.action[a]))
                   for a in range(algebra.dim)]
            out.append(psi)
    return out


def derivation_space(algebra, source, target):
    """Basis of derivations A -> Hom_k(source, target) (HH^1 cocycles)."""
    f = algebra.field
    n = algebra.dim
    di, dj = source.dim, target.dim
    ncoords = n * di * dj
    table = dense_table(algebra)
    rows = []
    for a in range(n):
        for b in range(n):
            # eta_i(a) psi(b) - psi(ab) + psi(a) eta_j(b) = 0: linear in psi
            for r in range(di):
                for c in range(dj):
                    row = [f.zero] * ncoords
                    # term eta_i(a) psi(b): (r, c) entry sums over k
                    for k in range(di):
                        coeff = source.action[a].data[r][k]
                        if not f.is_zero(coeff):
                            row[b * di * dj + k * dj + c] = f.add(
                                row[b * di * dj + k * dj + c], coeff)
                    # term psi(a) eta_j(b)
                    for k in range(dj):
                        coeff = target.action[b].data[k][c]
                        if not f.is_zero(coeff):
                            row[a * di * dj + r * dj + k] = f.add(
                                row[a * di * dj + r * dj + k], coeff)
                    # term -psi(ab)
                    for e, ce in enumerate(table[a][b]):
                        if not f.is_zero(ce):
                            row[e * di * dj + r * dj + c] = f.sub(
                                row[e * di * dj + r * dj + c], ce)
                    rows.append(row)
    mat = Mat(f, rows, cols=ncoords) if rows else Mat.zeros(f, 0, ncoords)
    basis = []
    for v in kernel_basis(mat):
        psi = []
        for a in range(n):
            block = v[a * di * dj:(a + 1) * di * dj]
            psi.append(Mat(f, [block[r * dj:(r + 1) * dj] for r in range(di)],
                           cols=dj))
        basis.append(psi)
    return basis


def hh1_dimension(algebra, source, target):
    f = algebra.field

    def flatten(psi):
        return [x for m in psi for row in m.data for x in row]

    z = [flatten(p) for p in derivation_space(algebra, source, target)]
    b = [flatten(p) for p in inner_derivations(algebra, source, target)]
    n = algebra.dim * source.dim * target.dim
    if not z:
        return 0
    return len(quotient_basis(f, z, b, length=n))


# -- hull towers ------------------------------------------------------------


def compose_keys(h, k1, k2):
    """The key of the product of two basis keys of the r-pointed algebra
    h, before normal forms: None when their blocks do not compose or the
    word is longer than the order."""
    def block(key):
        return (key[1], key[1]) if key[0] == "e" else h.word_block(key[1])

    if block(k1)[1] != block(k2)[0]:
        return None
    if k1[0] == "e":
        return k2
    if k2[0] == "e":
        return k1
    w = k1[1] + k2[1]
    return None if len(w) > h.order else ("m", w)


def tower_is_small(tower):
    """(ker pi_{n-1}) * m_n = 0 inside each stage H_n, evaluated in the
    final algebra: no product of a word of length n with a word of
    length <= n reduces onto a word of length <= n."""
    h = tower.final
    for n in range(3, h.order + 1):
        short = [w for w in h.reduced_words if len(w) <= n]
        for w in h.words_by_len.get(n, ()):
            for m in short:
                key = compose_keys(h, ("m", w), ("m", m))
                if key is not None and any(
                        len(v) <= n for v in h.normal_form(key[1])):
                    return False
    return True


def truncate(h, order):
    """The stage algebra of a lower order of a hull algebra h (a
    surjection by discarding words longer than the order)."""
    rels = []
    for rel in h.relations:
        tr = {w: c for w, c in rel.items() if len(w) <= order}
        if tr:
            rels.append(tr)
    return RPointedAlgebra(h.field, h.r, h.generators, order, rels)


def tower_stage(tower, n):
    """H_n: the final algebra of the tower with words longer than n
    discarded, built only below the final order."""
    if n == tower.final.order:
        return tower.final
    return truncate(tower.final, n)


def order_n_stages(builder, last):
    """The reference for `_HullBuilder._run_stages`: every stage runs in
    the algebra of the requested order N, which starts with no relations
    and is rebuilt after each stage that adds relations.  The cochains
    sit on free words, each set once, and `_matric` folds them through
    the normal forms of the current algebra.  Each defect is the order-N
    product rho(a) rho(b) minus rho(ab), read on the reduced words of
    the stage's length."""
    f = builder.field
    algebra = builder.algebra
    table = dense_table(algebra)
    relations = {}
    hull_alg = RPointedAlgebra(f, builder.r, builder.generators,
                               builder.order, [])
    C_free = {(g,): psi for g, psi in enumerate(builder.deriv_seed)}
    new_by_stage = {}
    for stage in range(2, last + 1):
        words = hull_alg.words_by_len.get(stage)
        if not words:
            break
        ohat = builder._matric(hull_alg, C_free)
        defects = {w: {} for w in words}
        for a in range(algebra.dim):
            for b in range(algebra.dim):
                prod = ohat.mul(ohat.rho_table[a], ohat.rho_table[b])
                delta = ohat.add(ohat.rho(table[a][b]),
                                 ohat.neg(prod))
                for w in words:
                    if ("m", w) in delta:
                        defects[w][(a, b)] = delta[("m", w)]
        stage_new = []
        for w, coch in defects.items():
            if not coch:
                continue
            block = hull_alg.word_block(w)
            pair = builder.pairs[block]
            lambdas, C_free[w] = split_two_cocycle(
                algebra, pair.source, pair.target, coch, pair.span())
            for l, lam in enumerate(lambdas):
                if lam:
                    key = (block[0], block[1], l)
                    rel = relations.setdefault(key, {})
                    rel[w] = f.add(rel.get(w, f.zero), lam)
                    stage_new.append((key, w))
        new_by_stage[stage] = stage_new
        if stage_new:
            hull_alg = RPointedAlgebra(f, builder.r, builder.generators,
                                       builder.order,
                                       list(relations.values()))
    return hull_alg, C_free, new_by_stage


def refold(hull_alg, C):
    """C re-expressed on the reduced words of hull_alg: each cochain
    moved onto the normal form of its word, and dropped with a word that
    reduces to 0."""
    out = {}
    for w, psi in C.items():
        for nw, c in hull_alg.normal_form(w).items():
            scaled = [m.scale(c) for m in psi]
            if nw in out:
                out[nw] = [a.add(b) for a, b in zip(out[nw], scaled)]
            else:
                out[nw] = scaled
    return out


def in_place_stages(builder, last):
    """`_HullBuilder._run_stages` with the cochains kept on reduced
    words: after a stage that adds relations, C is refolded in place onto
    the next stage algebra, and `C[w] = psi` overwrites what a refold put
    on w.  A cochain dropped with a word that once reduced to 0 never
    reaches the coordinates that word moves to when a later stage gives
    its relation a longer tail, so this loop fails there (rho not
    multiplicative, or a defect below the current stage).  Wherever it
    completes, the build must match the one on free words; C is on
    reduced words whenever `_matric` reads it, so the fold there passes
    it through as it is."""
    f = builder.field
    relations = {}
    C = {(g,): psi for g, psi in enumerate(builder.deriv_seed)}
    new_by_stage = {}
    stage_new = []
    for stage in range(2, last + 1):
        hull_alg = builder._algebra(stage, relations)
        if stage_new:
            C = refold(hull_alg, C)
        stage_new = []
        if not hull_alg.words_by_len.get(stage):
            break
        for w, (lambdas, psi) in builder._stage_classes(
                hull_alg,
                stage_defects_by_rho_table(builder, stage, hull_alg, C)
                ).items():
            block = hull_alg.word_block(w)
            C[w] = psi
            for l, lam in enumerate(lambdas):
                if lam:
                    key = (block[0], block[1], l)
                    rel = relations.setdefault(key, {})
                    rel[w] = f.add(rel.get(w, f.zero), lam)
                    stage_new.append((key, w))
        new_by_stage[stage] = stage_new
    hull_alg = builder._algebra(builder.order, relations)
    if stage_new:
        C = refold(hull_alg, C)
    return hull_alg, C, new_by_stage


def stage_defects_by_rho_table(builder, stage, hull_alg, C):
    """The reference for `_HullBuilder._stage_defects`: rho read off the
    cochains C in the stage algebra (`_matric`), rho(ab) - rho(a) rho(b)
    on every pair (`_defects`), each {(a, b): Mat} cut to the reduced
    words of the stage's length.  Every length of every product is
    formed, so it raises where a defect has a degree-0 part or a shorter
    word, which the Massey sum never forms."""
    out = {w: {} for w in hull_alg.words_by_len.get(stage, [])}
    ohat = builder._matric(hull_alg, C)
    for ab, delta in _defects(builder.algebra, ohat).items():
        for key, m in delta.items():
            if key[0] == "e":
                raise InternalInvariantError(
                    "defect has a degree-0 component")
            if len(key[1]) < stage:
                raise InternalInvariantError("defect below the current stage")
            out[key[1]][ab] = m
    return out


# -- the frame echelon: words modulo a two-sided ideal ------------------------


class FrameEchelon:
    """Normal forms of words modulo the two-sided ideal of `relations`
    ({word: coeff} each), among the composable words of length 1..order
    in `generators` ((label, i, j): a letter from block i to block j).

    Every product u * rel * v over words u, v (terms longer than order
    dropped) is echelonized, fully reduced.  The pivot of a row is its
    lowest word in the degree-lexicographic order (lowest=True, the
    hull's adic convention) or its highest (lowest=False, the quiver's).
    The reduced words are the non-pivot words, by length and then
    lexicographically."""

    def __init__(self, field, generators, order, relations, lowest=True):
        self.field = field
        self.order = order
        blocks = [(i, j) for _, i, j in generators]
        self._block = lambda w: (blocks[w[0]][0], blocks[w[-1]][1])
        layer = [(g,) for g in range(len(blocks))]
        self.words = []
        while layer and len(layer[0]) <= order:
            self.words += layer
            layer = [w + (g,) for w in layer for g in range(len(blocks))
                     if blocks[g][0] == blocks[w[-1]][1]]
        self.words.sort(key=lambda w: (len(w), w))
        rank = {w: k if lowest else -k for k, w in enumerate(self.words)}
        self._rank = rank.__getitem__
        self._rows = {}         # pivot word -> row with coefficient 1 there
        for rel in relations:
            rel = {w: c for w, c in rel.items() if len(w) <= order}
            if not rel:
                continue
            i, j = self._block(next(iter(rel)))
            lefts = [()] + [u for u in self.words if self._block(u)[1] == i]
            rights = [()] + [v for v in self.words if self._block(v)[0] == j]
            for u in lefts:
                for v in rights:
                    prod = {}
                    for w, c in rel.items():
                        if len(u) + len(w) + len(v) <= order:
                            nw = u + w + v
                            prod[nw] = field.add(prod.get(nw, field.zero), c)
                    self._insert(prod)
        self.reduced_words = [w for w in self.words if w not in self._rows]

    def _axpy(self, c, row, out):
        """out - c * row, zero entries dropped."""
        f = self.field
        out = dict(out)
        for w, x in row.items():
            out[w] = f.sub(out.get(w, f.zero), f.mul(c, x))
        return {w: x for w, x in out.items() if not f.is_zero(x)}

    def _insert(self, vec):
        f = self.field
        vec = self.reduce(vec)
        if not vec:
            return
        pivot = min(vec, key=self._rank)
        inv = f.inv(vec[pivot])
        vec = {w: f.mul(inv, c) for w, c in vec.items()}
        for p, row in list(self._rows.items()):
            if pivot in row:
                self._rows[p] = self._axpy(row[pivot], vec, row)
        self._rows[pivot] = vec

    def reduce(self, poly):
        """Normal form of {word: coeff}: the unique element of poly plus
        the ideal supported on reduced words."""
        f = self.field
        out = {w: c for w, c in poly.items()
               if len(w) <= self.order and not f.is_zero(c)}
        for p, row in self._rows.items():
            if p in out:
                out = self._axpy(out[p], row, out)
        return out


def guessed_degree_basis_words(rw, letters, max_degree, budget=None):
    """The irreducible words of a `Rewriter` by guessed degrees: complete
    to max(4, twice the longest lead), clipped to max_degree, and double
    the degree while words of that length remain; once the words die out
    at some length L, complete to 2(L - 1).  Returns the words by length
    [length 1, ..., L - 1], or None when words of length max_degree
    remain.  Without a budget it may not finish on an infinite quotient;
    with one, it gives up (returns False) once the rewriter's work or the
    words of one listing pass it."""
    degree = min(max_degree, max([4] + [2 * len(w) for w in rw.rules]))
    rw.budget = budget
    while True:
        try:
            rw.complete(degree)
            while rw._settle_long_leads(degree):
                rw.complete(degree)
            layers = rw.irreducible_words(letters, degree, budget)
        except InfiniteDimensionalError:
            return False
        if layers is None:
            return False
        words = [good for _, good in layers]
        if words[-1]:
            if degree >= max_degree:
                return None
            degree = min(max_degree, degree * 2)
            continue
        needed = 2 * max(len(words) - 1, 1)
        if needed <= degree:
            return words[:-1]
        degree = needed


# -- dense exact linear algebra: the reference for the zero-skipping kernels --


def dense_rref(field, rows, ncols):
    """(R, pivot columns) of the given rows by dense Gauss-Jordan: every
    entry of every touched row goes through the field operations."""
    f = field
    r = [[f.normalize(x) for x in row] for row in rows]
    pivots = []
    piv_row = 0
    for col in range(ncols):
        sel = None
        for i in range(piv_row, len(r)):
            if not f.is_zero(r[i][col]):
                sel = i
                break
        if sel is None:
            continue
        r[piv_row], r[sel] = r[sel], r[piv_row]
        inv = f.inv(r[piv_row][col])
        r[piv_row] = [f.mul(inv, x) for x in r[piv_row]]
        for i in range(len(r)):
            c = r[i][col]
            if i == piv_row or f.is_zero(c):
                continue
            r[i] = [f.sub(x, f.mul(c, px)) for x, px in zip(r[i], r[piv_row])]
        pivots.append(col)
        piv_row += 1
        if piv_row == len(r):
            break
    return r, pivots


class DenseEchelon:
    """Incremental dense echelon: each reduction and back-substitution
    rewrites whole rows.  A vector shorter than the rows is reduced on
    its head (zip keeps the shorter length)."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def reduce(self, v):
        f = self.field
        v = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, rx)) for x, rx in zip(v, row)]
        return v

    def insert(self, v):
        f = self.field
        v = self.reduce(v)
        for j in range(self.ncols):
            if not f.is_zero(v[j]):
                inv = f.inv(v[j])
                v = [f.mul(inv, x) for x in v]
                for idx, row in enumerate(self.rows):
                    c = row[j]
                    if not f.is_zero(c):
                        self.rows[idx] = [f.sub(x, f.mul(c, vx))
                                          for x, vx in zip(row, v)]
                pos = sum(1 for p in self.pivots if p < j)
                self.rows.insert(pos, v)
                self.pivots.insert(pos, j)
                return j
        return None

    def contains(self, v):
        return all(self.field.is_zero(x) for x in self.reduce(v))


def dense_algebra_mul(alg, x, y):
    """x * y by the triple loop over the dense table, every product
    formed."""
    f = alg.field
    table = dense_table(alg)
    out = [f.zero] * alg.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, t in enumerate(table[i][j]):
                out[k] = f.add(out[k], f.mul(f.mul(xi, yj), t))
    return out


def two_sided_ideal_all_products(o_alg, idx):
    """Basis of O * o_idx * O from all dim^2 products u * o_idx * v of
    basis elements: the reference for `hull._two_sided_ideal`, which
    closes span(o_idx) under multiplication instead."""
    basis = [o_alg.basis_vector(t) for t in range(o_alg.dim)]
    vecs = [o_alg.mul(o_alg.mul(u, basis[idx]), v)
            for u in basis for v in basis]
    return row_space_basis(o_alg.field, vecs)


# -- O^A(M) by products in the matric algebra --------------------------------


def o_algebra_by_matric_products(ohat):
    """(basis_flat, table, unit) of O with every product of two basis
    elements formed by `MatricOHat.mul` and read back through a `Span`
    of the echelon basis of the flattened rho table: the reference for
    `OAlgebra`, which reads the table off A's structure constants."""
    f = ohat.field
    basis_flat = row_space_basis(f, [ohat.flatten(t) for t in ohat.rho_table])
    span = Span(f, basis_flat, ohat.flat_dim())
    elems = [ohat.unflatten(v) for v in basis_flat]

    def coords_of(elem):
        coords = span.coords(ohat.flatten(elem))
        if coords is None:
            raise InternalInvariantError(
                "im(rho) span is not multiplicatively closed")
        return coords

    table = [[coords_of(ohat.mul(x, y)) for y in elems] for x in elems]
    return basis_flat, table, coords_of(ohat.one())


def unit_inverses_by_geometric_series(o):
    """Invert each designated unit by `invert_unit`'s geometric series in
    the matric algebra and assert that the inverse lies in O: the
    reference for `o_algebra`, which sums the series in O-coordinates.
    Returns the inverses' O-coordinates."""
    ohat = o.ohat
    f = ohat.field
    a0, kern = designated_units(ohat)
    if a0 is None:
        return []
    out = []
    for coords in [a0] + [[f.add(x, y) for x, y in zip(a0, v)]
                          for v in kern]:
        inv = o.coords_of(invert_unit(ohat, ohat.rho(coords)))
        if inv is None:
            raise InternalInvariantError(
                "unit inverse escapes im(rho) in the truncation")
        out.append(inv)
    return out


def has_inverse_by_solve(o_alg, u):
    """Whether u (coordinates) has a two-sided inverse in o_alg: a right
    inverse t solved in a `Span` of u's left multiplication, with
    t u = 1.  The reference for the series check of `o_algebra`."""
    cols = [o_alg.mul(u, o_alg.basis_vector(j)) for j in range(o_alg.dim)]
    t = Span(o_alg.field, cols, o_alg.dim).coords(o_alg.unit)
    return t is not None and o_alg.mul(t, u) == o_alg.unit


def image_dim(ohat, order=None):
    """dim im(rho), or of its image in the stage of the given order, by
    one rref of the flattened rho table cut to that stage."""
    flats = [ohat.flatten(t, order) for t in ohat.rho_table]
    return len(row_space_basis(ohat.field, flats))


def stabilized_by_rrefs(tower, ohat):
    """The stabilization certificate of a hull with both image
    dimensions by their own rref: the last stage added no relation and
    dim im(rho) equals its dimension at order N-1; at N = 2, Ext^2
    vanishes on every block.  The reference for the flag `hull` reads
    off the one echelon of the rho table."""
    order = ohat.order
    if tower.new_relations_by_stage.get(order):
        return False
    if order >= 3:
        return image_dim(ohat) == image_dim(ohat, order - 1)
    return all(e.dimension == 0 for e in ohat.ext2.values())


def maximal_ideals_full_sweep(o):
    """`maximal_ideals` with pi taken per block and element and the
    principal ideal O x O closed for every basis element x, each proper
    one looked up in the m_i: the reference for the sweep that settles
    x in m_i without closing."""
    f = o.field
    ohat = o.ohat
    elems = o.basis_elements()
    o_alg = o.as_algebra()
    out = []
    ideal_spans = []
    for i in range(len(ohat.dims)):
        rows = [sum(ohat.pi(e)[i].data, []) for e in elems]
        m = Mat(f, rows, cols=ohat.dims[i] ** 2)
        ker = row_space_basis(f, kernel_basis(m.transpose()))
        image_dim = o.dim - len(ker)
        mats = [ohat.pi(e)[i] for e in elems]
        simple = is_simple(ModuleRep(o_alg, mats, name=f"M{i + 1}"))
        out.append({
            "ideal_basis": ker,
            "quotient_dim": image_dim,
            "module_dim": ohat.dims[i],
            "irreducible": simple,
            "quotient_isomorphic_to_module":
                image_dim == ohat.dims[i] and simple,
        })
        ideal_spans.append(Span(f, ker, o.dim))
    for idx in range(o.dim):
        span = two_sided_ideal_all_products(o_alg, idx)
        if len(span) == o.dim:
            continue
        if not any(all(ideal.contains(v) for v in span)
                   for ideal in ideal_spans):
            raise InternalInvariantError(
                "a proper principal ideal escapes every maximal ideal")
    return out


# -- structure tables: dense rows and one reduction per pair ------------------


def dense_table(alg):
    """table[i][j], the coordinate vector of b_i b_j, read off
    `alg.products`."""
    f, n = alg.field, alg.dim
    table = [[zero_vec(f, n) for _ in range(n)] for _ in range(n)]
    for row, terms_row in zip(table, alg.products):
        for vec, terms in zip(row, terms_row):
            for k, c in terms:
                vec[k] = c
    return table


def quiver_algebra_by_pairs(q, field):
    """The Algebra `from_quiver` builds, unvalidated, with its table made
    by one `Rewriter.reduce` per pair of basis paths: the builder before
    the letter tables, on the words of the engine's own `basis_words`."""
    rw = Rewriter(field)
    for terms in q.relations:
        poly = {}
        for coeff, path in terms:
            w = q.word_of(path)
            c = field.parse(coeff) if isinstance(coeff, str) else \
                field.normalize(coeff)
            poly[w] = field.add(poly.get(w, field.zero), c)
        rw.add_relation(poly)
    words = rw.basis_words(q.arrows, QUIVER_MAX_DEGREE, len(q.vertices))
    nv = len(q.vertices)
    paths = [w for layer in words for w in layer]
    basis_words = [("e", vi) for vi in range(nv)] + [("w", w) for w in paths]
    labels = [f"e_{v}" for v in q.vertices] + [
        ".".join(q.arrows[i][0] for i in w) for w in paths]
    index = {bw: i for i, bw in enumerate(basis_words)}
    dim = len(basis_words)

    def ends(bw):
        kind, val = bw
        if kind == "e":
            v = q.vertices[val]
            return v, v
        return q.arrows[val[0]][1], q.arrows[val[-1]][2]

    def product(bi, bj):
        if ends(bi)[1] != ends(bj)[0]:
            return [field.zero] * dim
        if bi[0] == "e":
            return unit_vec(field, dim, index[bj])
        if bj[0] == "e":
            return unit_vec(field, dim, index[bi])
        vec = [field.zero] * dim
        for w, c in rw.reduce({bi[1] + bj[1]: field.one}).items():
            vec[index[("w", w)]] = c
        return vec

    table = [[product(bi, bj) for bj in basis_words] for bi in basis_words]
    unit = [field.one] * nv + [field.zero] * (dim - nv)
    return from_structure_constants(field, labels, table, unit,
                                    validate=False)


def poly_quotient_by_pairs(field, var_names, relations):
    """The Algebra `from_poly_quotient` builds, with its `poly_data`, its
    table made by one `Rewriter.reduce` per distinct product of standard
    monomials: the builder before the letter tables."""
    nvars = len(var_names)

    def word(mono):
        return tuple(g for g in range(nvars) for _ in range(mono[-1 - g]))

    def mono(w):
        return tuple(w.count(nvars - 1 - v) for v in range(nvars))

    rw = Rewriter(field)
    if nvars == 2:
        rw.add_relation({(1, 0): field.one, (0, 1): field.neg(field.one)})
    for rel in relations:
        rw.add_relation({word(m): field.normalize(c) for m, c in rel.items()})
    letters = [(name, "v", "v") for name in reversed(var_names)]
    words = rw.basis_words(letters, POLY_MAX_DEGREE, 1)
    monos = [(0,) * nvars] + sorted(
        (mono(w) for layer in words for w in layer),
        key=lambda m: (sum(m), m))
    index = {m: i for i, m in enumerate(monos)}
    dim = len(monos)

    def label(m):
        return "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(var_names, m) if e) or "1"

    products = {}             # monomial -> its normal form as a vector

    def normal_form(m):
        if m not in products:
            vec = [field.zero] * dim
            for w, c in rw.reduce({word(m): field.one}).items():
                vec[index[mono(w)]] = c
            products[m] = vec
        return products[m]

    table = [[normal_form(tuple(a + b for a, b in zip(mi, mj)))
              for mj in monos] for mi in monos]
    alg = from_structure_constants(field, [label(m) for m in monos], table,
                                   table[0][0], validate=False)
    variables = [normal_form(tuple(int(k == v) for k in range(nvars)))
                 for v in range(nvars)]
    alg.poly_data = {"vars": list(var_names), "monomials": monos,
                     "variables": variables}
    return alg


def algebra_validate_dense(alg):
    """`Algebra.validate` by the dense loops: the unit axiom, then per
    basis pair the vector length and every triple through two
    `Algebra.mul` calls, then the idempotents; raises the same
    ValidationError."""
    if len(alg.unit) != alg.dim:
        raise ValidationError("unit vector has wrong length")
    for i in range(alg.dim):
        b = alg.basis_vector(i)
        if alg.mul(alg.unit, b) != b or alg.mul(b, alg.unit) != b:
            raise ValidationError(
                f"unit axiom fails on basis element {alg.labels[i]!r}")
    table = dense_table(alg)
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = table[i][j]
            if len(ij) != alg.dim:
                raise ValidationError("structure constant vector length")
            for k in range(alg.dim):
                left = alg.mul(ij, alg.basis_vector(k))
                right = alg.mul(alg.basis_vector(i), table[j][k])
                if left != right:
                    raise ValidationError(
                        "associativity fails on triple "
                        f"({alg.labels[i]}, {alg.labels[j]}, {alg.labels[k]})")
    if alg.idempotents is not None:
        alg.validate_idempotents(alg.idempotents)


def associator_failure_all_first(alg):
    """The least triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), or
    None, by the sparse associator over every first index i: both sides
    as {(j, k, m): scalar} tables summed over the nonzero structure
    constants, one i at a time.  The reference for the generator-first
    `Algebra._associator_failure`."""
    f = alg.field
    n = alg.dim
    products = alg.products
    rows = [[(k, terms) for k, terms in enumerate(products[l]) if terms]
            for l in range(n)]
    having = [[] for _ in range(n)]    # l -> (j, k, c): c b_l in b_j b_k
    for j in range(n):
        for k in range(n):
            for l, c in products[j][k]:
                having[l].append((j, k, c))

    def accumulate(side, j, k, c, terms):
        for m, t in terms:
            key = (j, k, m)
            side[key] = f.add(side.get(key, f.zero), f.mul(c, t))

    for i in range(n):
        left, right = {}, {}
        for j in range(n):
            for l, c in products[i][j]:
                for k, terms in rows[l]:
                    accumulate(left, j, k, c, terms)
        for l, terms in enumerate(products[i]):
            if terms:
                for j, k, c in having[l]:
                    accumulate(right, j, k, c, terms)
        failing = [key[:2] for key in left.keys() | right.keys()
                   if left.get(key, f.zero) != right.get(key, f.zero)]
        if failing:
            return (i,) + min(failing)
    return None


def algebra_validate_all_first(alg):
    """`Algebra.validate` with every first index: the unit axiom, the word
    of each basis element multiplied out through `Algebra.mul` (when the
    algebra has words), `associator_failure_all_first`, then the
    idempotents; raises the same ValidationError."""
    if len(alg.unit) != alg.dim:
        raise ValidationError("unit vector has wrong length")
    for i in range(alg.dim):
        b = alg.basis_vector(i)
        if alg.mul(alg.unit, b) != b or alg.mul(b, alg.unit) != b:
            raise ValidationError(
                f"unit axiom fails on basis element {alg.labels[i]!r}")
    for i, word in enumerate(alg.words or ()):
        prod = alg.unit
        for g in word:
            prod = alg.mul(prod, alg.basis_vector(g))
        if prod != alg.basis_vector(i) or \
                any(g not in alg.generators for g in word):
            raise ValidationError(
                "generation fails on basis element "
                f"{alg.labels[i]!r}: it is not the product of its word")
    failing = associator_failure_all_first(alg)
    if failing:
        i, j, k = failing
        raise ValidationError(
            "associativity fails on triple "
            f"({alg.labels[i]}, {alg.labels[j]}, {alg.labels[k]})")
    if alg.idempotents is not None:
        alg.validate_idempotents(alg.idempotents)


def generated_dimension(alg):
    """The dimension of the span of all products of generators: span(G)
    closed under right multiplication by G through `Algebra.mul`, each
    round echelonized by `row_space_basis`."""
    gens = [alg.basis_vector(g) for g in alg.generators]
    rows = row_space_basis(alg.field, gens)
    while True:
        grown = row_space_basis(alg.field, rows + [
            alg.mul(v, g) for v in rows for g in gens])
        if len(grown) == len(rows):
            return len(rows)
        rows = grown


def arrow_ideal_nilpotent_by_powers(alg):
    """Whether the arrow ideal of a quiver algebra is nilpotent, by the
    loop `from_quiver` ran before the radical proved it: the paths of
    positive length (every basis element after the vertices) times
    themselves, dim + 1 times, through `Algebra.mul` and
    `row_space_basis`."""
    f = alg.field
    nv = len(alg.presentation.vertices)
    power = arrow_basis = [unit_vec(f, alg.dim, i)
                           for i in range(nv, alg.dim)]
    for _ in range(alg.dim + 1):
        if not power:
            break
        power = row_space_basis(
            f, [alg.mul(v, w) for v in power for w in arrow_basis])
    return not power


def module_validate_dense(mod):
    """`ModuleRep.validate` by the dense loop: 1 acts as the identity,
    then every basis pair through a `Mat.mul` and an `act`; raises the
    same ValidationError."""
    A = mod.algebra
    if mod.act(A.unit) != Mat.identity(A.field, mod.dim):
        raise ValidationError(f"module {mod.name!r}: 1 does not act as identity")
    table = dense_table(A)
    for i in range(A.dim):
        for j in range(A.dim):
            left = mod.action[i].mul(mod.action[j])
            right = mod.act(table[i][j])
            if left != right:
                raise ValidationError(
                    f"module {mod.name!r}: eta(b_i)eta(b_j) != eta(b_i b_j) "
                    f"for ({A.labels[i]}, {A.labels[j]})")


# -- dense resolutions and the full trace chain --------------------------------


def dense_projective(algebra, slots):
    """The direct sum of the e_{v_s} A as a ModuleRep with one dense
    total x total action matrix per basis element, each e A spanned and
    acted on through `Algebra.mul`; `slot_bases` and `offsets` as on
    `ProjectiveModule`."""
    f = algebra.field
    n = algebra.dim
    idems = algebra.ensure_idempotents()
    bases, spans = [], []
    for v in slots:
        e = idems[v]
        base = row_space_basis(
            f, [algebra.mul(e, algebra.basis_vector(b)) for b in range(n)])
        bases.append(base)
        spans.append(Span(f, base, n))
    offsets = [0]
    for base in bases:
        offsets.append(offsets[-1] + len(base))
    total = offsets[-1]
    mats = []
    for b in range(n):
        big = Mat.zeros(f, total, total)
        for base, span, off in zip(bases, spans, offsets):
            for r, w in enumerate(base):
                img = algebra.mul(w, algebra.basis_vector(b))
                coeffs = span.coords(img)
                if coeffs is None:
                    raise InternalInvariantError("e_v A not action-closed")
                big.data[off + r][off:off + len(base)] = coeffs
        mats.append(big)
    module = ModuleRep(algebra, mats, name=f"P({slots})", validate=False)
    module.slots = list(slots)
    module.slot_bases = bases
    module.offsets = offsets
    return module


def cover_data_dense(algebra, target, target_rows):
    """Projective cover slots and generator images of a module or of a
    submodule (rows of the target): per idempotent e, T e modulo the
    span of T (x e) over every radical basis element x, through the
    dense action matrices `act`."""
    f = algebra.field
    idems = algebra.ensure_idempotents()
    rad = algebra.radical_basis()
    if target_rows is None:
        ambient_rows = [unit_vec(f, target.dim, i) for i in range(target.dim)]
    else:
        ambient_rows = [list(r) for r in target_rows]
    slots, gen_images = [], []
    for i, e in enumerate(idems):
        act_e = target.act(e)
        rows_e = row_space_basis(f, [act_e.apply_row(r) for r in ambient_rows])
        rad_acts = [target.act(algebra.mul(x, e)) for x in rad]
        rad_rows = row_space_basis(
            f, [act.apply_row(r) for r in ambient_rows for act in rad_acts])
        for rep in quotient_basis(f, rows_e, rad_rows, length=target.dim):
            slots.append(i)
            gen_images.append(rep)
    return slots, gen_images


def module_map_dense(proj, target, gen_images):
    """The A-map out of a projective sending the slot generators to the
    given rows, each basis row's image through `target.act`."""
    f = proj.algebra.field
    out = Mat.zeros(f, proj.dim, target.dim)
    for s, base in enumerate(proj.slot_bases):
        for r, w in enumerate(base):
            out.data[proj.offsets[s] + r] = \
                target.act(w).apply_row(gen_images[s])
    return out


class DenseResolution:
    """M <- P0 <- P1 <- P2 over `dense_projective` terms: `covers[d]` is
    the (slots, generator images) of degree d, and `terms`, `diffs` and
    `kernels` are as on `Resolution`.  Checked as before: the
    differentials compose to 0, ranks match the kernels, and every row of
    d_d lies in the span of the rows of P_{d-1}.act(x), x in rad."""

    def __init__(self, module):
        algebra = module.algebra
        f = algebra.field
        self.module = module
        self.covers, self.terms, self.diffs, self.kernels = [], [], [], []
        target, target_rows = module, None
        for degree in range(3):
            slots, images = cover_data_dense(algebra, target, target_rows)
            proj = dense_projective(algebra, slots)
            dmat = module_map_dense(proj, target, images)
            ker = row_space_basis(f, kernel_basis(dmat.transpose()))
            self.covers.append((slots, images))
            self.terms.append(proj)
            self.diffs.append(dmat)
            self.kernels.append(ker)
            target, target_rows = proj, ker
            if not ker:
                for _ in range(degree + 1, 3):
                    self.covers.append(([], []))
                    self.terms.append(dense_projective(algebra, []))
                    self.diffs.append(Mat.zeros(f, 0, self.terms[-2].dim))
                    self.kernels.append([])
                break
        rad = algebra.radical_basis()
        for d in range(1, 3):
            if not self.diffs[d].mul(self.diffs[d - 1]).is_zero():
                raise InternalInvariantError("differentials do not compose to 0")
            if len(row_space_basis(f, self.diffs[d].data)) != \
                    len(self.kernels[d - 1]):
                raise InternalInvariantError("resolution not exact")
            prev = self.terms[d - 1]
            rad_rows = [prev.act(x).data[i] for x in rad
                        for i in range(prev.dim)]
            for row in self.diffs[d].data:
                if rank_of(f, rad_rows + [row]) != rank_of(f, rad_rows):
                    raise InternalInvariantError(
                        "resolution differential not radical-valued")


def rank_of(field, rows):
    return len(row_space_basis(field, [list(r) for r in rows])) if rows else 0


def ext_cocycles_dense(res, target, degree):
    """The Ext^degree cocycle representatives over a DenseResolution:
    Hom_A(P_d, N) from the rows of N e per slot, the cocycles vanishing
    on ker d_d, and a basis of them modulo Hom_A(P_{d-1}, N) after d_d,
    each Hom built anew."""
    algebra = res.module.algebra
    f = algebra.field
    idems = algebra.ensure_idempotents()
    proj, prev = res.terms[degree], res.terms[degree - 1]
    if proj.dim == 0 or target.dim == 0:
        return []

    def homs(p):
        out = []
        for s, v in enumerate(p.slots):
            for r in row_space_basis(f, target.act(idems[v]).data):
                images = [zero_vec(f, target.dim) for _ in p.slots]
                images[s] = r
                out.append(module_map_dense(p, target, images))
        return out

    def flat(m):
        return [x for row in m.data for x in row]

    hom_basis = homs(proj)
    z_basis = []
    if hom_basis:
        cond = [[phi.apply_row(kr)[j] for phi in hom_basis]
                for kr in res.kernels[degree] for j in range(target.dim)]
        coeffs = kernel_basis(Mat(f, cond, cols=len(hom_basis))) if cond \
            else [unit_vec(f, len(hom_basis), i)
                  for i in range(len(hom_basis))]
        for c in coeffs:
            total = Mat.zeros(f, proj.dim, target.dim)
            for ck, phi in zip(c, hom_basis):
                if ck:
                    total = total.add(phi.scale(ck))
            z_basis.append(total)
    b_basis = [res.diffs[degree].mul(phi) for phi in homs(prev)]
    reps = quotient_basis(f, [flat(m) for m in z_basis],
                          [flat(m) for m in b_basis],
                          length=proj.dim * target.dim)
    return [Mat(f, [v[i * target.dim:(i + 1) * target.dim]
                    for i in range(proj.dim)], cols=target.dim)
            for v in reps]


class GeneralExt:
    """Ext^degree(source, target) over a `Resolution` by the general
    path, whatever the target: Z the maps of the resolution's
    Hom_A(P_d, N) basis that vanish on ker d_d, by `kernel_basis` of
    their values there; B the precompositions of Hom_A(P_{d-1}, N) with
    d_d; the cocycles a basis of Z modulo B by `quotient_basis`; and the
    class of a cocycle its coordinates on the cocycles in a `Span` of
    the cocycles and B."""

    def __init__(self, res, target, degree):
        f = target.algebra.field
        self.field = f
        self.cocycles, self.z_basis, self.b_basis = [], [], []
        proj = res.terms[degree]
        if proj.dim == 0 or target.dim == 0:
            return
        hom_basis = res.homs(degree, target)
        if hom_basis:
            cond = [[phi.apply_row(kr)[j] for phi in hom_basis]
                    for kr in res.kernels[degree] for j in range(target.dim)]
            coeffs = kernel_basis(Mat(f, cond, cols=len(hom_basis))) \
                if cond else [unit_vec(f, len(hom_basis), i)
                              for i in range(len(hom_basis))]
            for c in coeffs:
                total = Mat.zeros(f, proj.dim, target.dim)
                for ck, phi in zip(c, hom_basis):
                    if ck:
                        total = total.add(phi.scale(ck))
                self.z_basis.append(total)
        self.b_basis = [res.diffs[degree].mul(phi)
                        for phi in res.homs(degree - 1, target)]
        reps = quotient_basis(f, [_flat_mat(m) for m in self.z_basis],
                              [_flat_mat(m) for m in self.b_basis],
                              length=proj.dim * target.dim)
        self.cocycles = [
            Mat(f, [v[i * target.dim:(i + 1) * target.dim]
                    for i in range(proj.dim)], cols=target.dim)
            for v in reps]

    def class_of(self, mat):
        flat = _flat_mat(mat)
        span = Span(self.field, [_flat_mat(m) for m in
                                 self.cocycles + self.b_basis], len(flat))
        coords = span.coords(flat)
        if coords is None:
            raise InternalInvariantError("not a cocycle")
        return coords[:len(self.cocycles)]


def _flat_mat(m):
    return [x for row in m.data for x in row]


def vertex_projective_by_mul(algebra, e):
    """e A through `Algebra.mul` by dense basis vectors: its rref basis,
    the coordinates of e, per basis element b and basis row w the nonzero
    coordinates (c, x) of w b, and the rref rows of e rad = (e A) G."""
    f = algebra.field
    n = algebra.dim
    basis = row_space_basis(
        f, [algebra.mul(e, algebra.basis_vector(b)) for b in range(n)])
    span = Span(f, basis, n)

    def coords(v):
        out = span.coords(v)
        if out is None:
            raise InternalInvariantError("e_v A not action-closed")
        return out

    action = [[[(c, x) for c, x in
                enumerate(coords(algebra.mul(w, algebra.basis_vector(b))))
                if x] for w in basis] for b in range(n)]
    radical = row_space_basis(
        f, [coords(algebra.mul(w, g)) for w in basis
            for g in algebra.radical_generators()])
    return basis, coords(e), action, radical


def radical_trace_chain(alg):
    """(basis, nilpotency index) of the radical of an algebra over F_p by
    the whole Cohen-Ivanyos-Wales chain: at every level i up to
    l + 1 (p^l <= dim < p^{l+1}) and every pair x, y of R_{i-1}, the
    integral matrix product XY, its p^{i-1}-th power and its trace are
    formed; the index from the powers of the result."""
    f = alg.field
    p, n = f.p, alg.dim

    def int_mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    lifts = [[[int(x) % p for x in row] for row in
              alg.left_mult_matrix(alg.basis_vector(i)).data]
             for i in range(n)]
    current = [unit_vec(f, n, i) for i in range(n)]
    level = 0
    while p ** level <= n:
        level += 1
    for i in range(1, level + 1):
        if not current:
            break
        exponent, divisor = p ** (i - 1), p ** (i - 1)
        cur = []
        for v in current:
            m = [[0] * n for _ in range(n)]
            for c, lift in zip(v, lifts):
                for r in range(n):
                    for s in range(n):
                        m[r][s] += (int(c) % p) * lift[r][s]
            cur.append(m)
        rows = []
        for y in cur:
            row = []
            for x in cur:
                power = int_mul(x, y)
                for _ in range(exponent - 1):
                    power = int_mul(power, int_mul(x, y))
                tr = sum(power[d][d] for d in range(n))
                if tr % divisor:
                    raise InternalInvariantError("trace chain divisibility")
                row.append((tr // divisor) % p)
            rows.append(row)
        coeffs = kernel_basis(Mat(f, rows, cols=len(current)))
        current = row_space_basis(
            f, [[sum(c * v[k] for c, v in zip(cs, current)) % p
                 for k in range(n)] for cs in coeffs])
    index, power = 1, current
    while power:
        index += 1
        power = row_space_basis(
            f, [alg.mul(v, w) for v in power for w in current])
        if index > n + 1:
            raise InternalInvariantError("radical is not nilpotent")
    return current, index


def radical_trace_form_dense(alg):
    """The radical of an algebra over Q by the dense trace form: all n^2
    products L_i L_j of left multiplication matrices formed as `Mat`s,
    the trace of each summed off its diagonal."""
    f = alg.field
    lmats = [alg.left_mult_matrix(alg.basis_vector(i))
             for i in range(alg.dim)]
    rows = []
    for lj in lmats:
        row = []
        for li in lmats:
            prod = li.mul(lj)
            tr = f.zero
            for d in range(alg.dim):
                tr = f.add(tr, prod.data[d][d])
            row.append(tr)
        rows.append(row)
    return row_space_basis(f, kernel_basis(Mat(f, rows, cols=alg.dim)))


def simple_modules_by_corners(alg):
    """The action matrices of the vertex simples: b acts on S_i by the
    e_i-coordinate of e_i b e_i in a `Span` of e_i and the radical, one
    span per simple and two products per basis element."""
    f = alg.field
    rad = alg.radical_basis()
    out = []
    for e in alg.ensure_idempotents():
        span = Span(f, [e] + rad, alg.dim)
        mats = []
        for b in range(alg.dim):
            x = alg.mul(alg.mul(e, alg.basis_vector(b)), e)
            coeffs = span.coords(x)
            if coeffs is None:
                raise InternalInvariantError("e b e is not in k e + rad")
            mats.append(Mat(f, [[coeffs[0]]], cols=1))
        out.append(mats)
    return out


# -- matric products through Mat arithmetic ----------------------------------


def matric_mul_by_mats(ohat, x, y):
    """x y in a `MatricOHat` by `Mat` arithmetic: every pair of keys is
    tried, each composable pair multiplied as `Mat`s, and every word key
    rewritten to its normal form one block at a time.  The reference for
    the scalar kernel behind `MatricOHat.mul`."""
    h = ohat.hull
    raw = {}
    for k1, m1 in x.items():
        for k2, m2 in y.items():
            k = compose_keys(h, k1, k2)
            if k is None:
                continue
            prod = m1.mul(m2)
            raw[k] = raw[k].add(prod) if k in raw else prod
    out = {}
    for key, m in raw.items():
        if m.is_zero():
            continue
        if key[0] == "e" or h.is_reduced(key[1]):
            out[key] = out[key].add(m) if key in out else m
            continue
        for w, c in h.normal_form(key[1]).items():
            scaled = m.scale(c)
            nk = ("m", w)
            out[nk] = out[nk].add(scaled) if nk in out else scaled
    return {k: m for k, m in out.items() if not m.is_zero()}


def defects_by_mats(algebra, ohat):
    """{(a, b): rho(ab) - rho(a) rho(b)} on the nonzero pairs, with rho(ab)
    summed by `MatricOHat.add` and `scale` and the product formed by
    `matric_mul_by_mats`: the reference for `hull._defects`."""
    out = {}
    table = ohat.rho_table
    for a, rho_a in enumerate(table):
        for b, rho_b in enumerate(table):
            rho_ab = {}
            for k, c in algebra.products[a][b]:
                rho_ab = ohat.add(rho_ab, ohat.scale(c, table[k]))
            delta = ohat.add(
                rho_ab, ohat.neg(matric_mul_by_mats(ohat, rho_a, rho_b)))
            if delta:
                out[(a, b)] = delta
    return out


# -- the normal form of scalars ------------------------------------------------


def is_normal_rational(x):
    """The normal form of a Q scalar: an int, or a reduced Fraction with
    denominator > 1."""
    if type(x) is int:
        return True
    return (type(x) is Fraction and x.denominator > 1
            and gcd(x.numerator, x.denominator) == 1)


def abnormal_scalars(obj):
    """The floats and the Fractions with denominator 1 reachable from obj
    through containers and the attributes of aspec objects."""
    seen = set()
    out = []
    stack = [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, float) or (isinstance(x, Fraction)
                                    and x.denominator == 1):
            out.append(x)
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x)
            stack.extend(x.values())
        elif type(x).__module__.startswith("aspec."):
            stack.extend(getattr(x, "__dict__", {}).values())
            stack.extend(getattr(x, s) for s in getattr(x, "__slots__", ())
                         if hasattr(x, s))
    return out


# -- test-only readings of documents, points and spaces ------------------------


def serialize(doc):
    """Canonical text of a parsed document (round-trips through parse)."""
    return doc.text


def verify_spectral_witness(point, source):
    """Re-check a contraction point's stored witness: the map is a
    homomorphism to a local algebra and re-running the contraction gives
    an isomorphic module."""
    if point.provenance != "contraction" or not point.witness:
        raise ValidationError("point carries no contraction witness")
    wit = point.witness
    redone = contraction(wit["map"], source, wit["target"])
    return is_isomorphic(redone.module, point.module)


def is_simple_point(pt):
    return isinstance(pt.module, PointModule) or is_simple(pt.module)


def closed_points_report(space):
    """Which simple points of the space have open complement."""
    all_pts = frozenset(range(len(space.points)))
    opens = set(space.opens())
    return {idx: (all_pts - {idx}) in opens
            for idx, pt in enumerate(space.points) if is_simple_point(pt)}


def opens_by_closure(subbasis, npoints):
    """The opens of the topology on range(npoints) that the subbasis
    generates, sorted as `ASpecSpace.opens` sorts them: the subbasis and
    the whole space closed under pairwise intersections, then under
    pairwise unions, with the empty set."""
    whole = frozenset(range(npoints))
    inter_closed = set(subbasis) | {whole}
    changed = True
    while changed:
        changed = False
        for a in list(inter_closed):
            for b in list(inter_closed):
                if a & b not in inter_closed:
                    inter_closed.add(a & b)
                    changed = True
    opens = inter_closed | {frozenset()}
    changed = True
    while changed:
        changed = False
        for a in list(opens):
            for b in list(opens):
                if a | b not in opens:
                    opens.add(a | b)
                    changed = True
    return sorted(opens, key=lambda s: (len(s), sorted(s)))


def sections_simples_only(space, subset):
    """The presheaf limit taken over the simple points of `subset` only
    (the definitions differ on spaces with non-simple spectral points)."""
    return space.family_o_algebra(
        i for i in subset if is_simple_point(space.points[i]))


# -- section maps, covers, closure and roundtrip by their first paths ----------


def factor_univariate_by_expressions(field, coeffs):
    """Monic irreducible factors [(coeffs, multiplicity)] of a univariate
    poly through a sympy expression sum c x^i parsed into a `Poly`."""
    import sympy
    x = sympy.Symbol("x")
    rational = not isinstance(field, PrimeField)
    if rational:
        expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(coeffs))
        poly = sympy.Poly(expr, x, domain="QQ")
    else:
        expr = sum(int(c) * x**i for i, c in enumerate(coeffs))
        poly = sympy.Poly(expr, x, modulus=field.p)
    out = []
    for fac, mult in poly.factor_list()[1]:
        fac = fac.monic().all_coeffs()[::-1]
        if rational:
            fac = [field.div(int(c.p), int(c.q)) for c in fac]
        else:
            fac = [field.normalize(int(c)) for c in fac]
        out.append((fac, int(mult)))
    out.sort(key=lambda t: (len(t[0]), [str(c) for c in t[0]]))
    return out


def universal_map_by_span(field, src, dst, src_dim, dst_dim, name):
    """O_src -> O_dst, rho_src(a_k) -> rho_dst(a_k), solved in a `Span`
    of the source images src[k]; raises as `_universal_map` does."""
    span = Span(field, src, src_dim)

    def image(coeffs):
        out = zero_vec(field, dst_dim)
        for c, w in zip(coeffs, dst):
            if c:
                _add_scaled(field, out, c, w)
        return out

    for v, w in zip(src, dst):
        if image(span.coords(v)) != list(w):
            raise InternalInvariantError(
                f"{name} is not well defined: ker(rho) of the source "
                "escapes ker(rho) of the target")
    rows = []
    for i in range(src_dim):
        coeffs = span.coords(unit_vec(field, src_dim, i))
        if coeffs is None:
            raise InternalInvariantError(
                f"{name}: rho does not span the source sections")
        rows.append(image(coeffs))
    return Mat(field, rows, cols=dst_dim)


def restriction_matrix_by_span(algebra, sec_u, sec_v):
    """`topology.restriction_matrix` for finite-dimensional sections,
    with the images of A's basis solved in a `Span`."""
    if sec_v.kind == "zero":
        return Mat.zeros(algebra.field, sec_u.dim, 0)

    def flats(sec):
        return [sec.o.rho_coords(list(algebra.basis_vector(k)))
                for k in range(algebra.dim)]

    return universal_map_by_span(algebra.field, flats(sec_u), flats(sec_v),
                                 sec_u.dim, sec_v.dim, "restriction")


def cover_verdict_dense(field, u, family, dim_of, res_of):
    """(ok, why) of one cover: locality and gluing by ranks, and
    compatibility as pairs . images^T = 0, every pair row built anew."""
    dim_u = dim_of(u)
    res_mats = [res_of(u, v) for v in family]
    dims = [dim_of(v) for v in family]
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    total = offsets[-1]
    images = Mat(field, [[x for m in res_mats for x in m.data[i]]
                         for i in range(dim_u)], cols=total)
    if rank_of(field, images.data) != dim_u:
        return False, "locality fails"
    rows = []
    for a in range(len(family)):
        for b in range(a + 1, len(family)):
            inter = family[a] & family[b]
            ra, rb = res_of(family[a], inter), res_of(family[b], inter)
            for col in range(ra.cols):
                row = zero_vec(field, total)
                for i in range(dims[a]):
                    row[offsets[a] + i] = ra.data[i][col]
                for i in range(dims[b]):
                    row[offsets[b] + i] = field.sub(row[offsets[b] + i],
                                                    rb.data[i][col])
                rows.append(row)
    pairs = Mat(field, rows, cols=total)
    if dim_u != total - rank_of(field, rows):
        return False, "gluing fails"
    if not pairs.mul(images.transpose()).is_zero():
        return False, "restrictions are not compatible"
    return True, ""


def sheafify_check_all_covers(space):
    """`ASpecSpace.sheafify_check` over every family of proper opens,
    the empty open included, each cover checked on its own."""
    failures = []
    opens = space.opens()
    for u in opens:
        proper = [v for v in opens if v < u]
        covers = [[proper[t] for t in range(len(proper)) if mask & (1 << t)]
                  for mask in range(1, 2 ** len(proper))]
        covers = [c for c in covers if frozenset().union(*c) == u] + [[u]]
        for family in covers:
            ok, why = cover_verdict_dense(
                space.base_field(), u, family,
                lambda s: len(space.sheaf_sections(s)["basis"]),
                space.sheaf_restriction)
            if not ok:
                failures.append({"open": sorted(u),
                                 "cover": [sorted(v) for v in family],
                                 "why": why})
    return {"passed": not failures, "failures": failures}


def closure_check_own_hull(algebra, o):
    """O^{O^A(M)}(M) == O^A(M) with the hull over O built on its own
    Ext store."""
    from aspec.hull import base_algebra_of, hull, o_algebra
    o_alg, mods = base_algebra_of(algebra, o,
                                  [m.name for m in o.ohat.modules])
    o2 = o_algebra(hull(o_alg, mods, o.ohat.hull.order)[1])
    if o2.dim != o.dim:
        return False, {"reason": "dimension mismatch",
                       "dim_first": o.dim, "dim_second": o2.dim}
    images = [o2.rho_coords(unit_vec(o.field, o.dim, idx))
              for idx in range(o.dim)]
    bij = len(row_space_basis(o.field, images)) == o.dim
    return bij, {"dim_first": o.dim, "dim_second": o2.dim}


def roundtrip_on_simples(space):
    """X ~ aSpec(O_X(X)) against the space of simples of G = O_X(X),
    with its own Ext store, its points matched to X's by isomorphism and
    the comparison maps solved in a `Span`."""
    from aspec.hull import base_algebra_of
    from aspec.topology import space_of_simples
    f = space.algebra.field
    whole = frozenset(range(len(space.points)))
    sec = space.sections(whole)
    g_alg, point_mods = base_algebra_of(
        space.algebra, sec.o, [f"P{i}" for i in range(len(space.points))])
    new_space = space_of_simples(g_alg, order=space.order)
    matches = {}
    for i, mod in enumerate(point_mods):
        found = next((j for j, s in enumerate(new_space.points)
                      if is_isomorphic(mod, s.module)), None)
        if found is None or found in matches.values():
            return {"passed": False, "reason": "points do not biject"}
        matches[i] = found
    if len(matches) != len(new_space.points):
        return {"passed": False, "reason": "point counts differ"}
    mapped = {frozenset(matches[i] for i in u) for u in space.opens()}
    if mapped != set(new_space.opens()):
        return {"passed": False, "reason": "open lattices differ"}
    for u in space.opens():
        v = frozenset(matches[i] for i in u)
        sec_u, sec_v = space.sections(u), new_space.sections(v)
        if sec_u.dim != sec_v.dim:
            return {"passed": False, "reason": "section dims differ",
                    "open": sorted(u)}
        if sec_u.kind == "zero":
            continue
        res = space.restriction(whole, u)
        flats_g = [sec_v.o.rho_coords(list(g_alg.basis_vector(t)))
                   for t in range(g_alg.dim)]
        try:
            mat = universal_map_by_span(f, flats_g, res.data, sec_v.dim,
                                        sec_u.dim, "comparison map")
        except InternalInvariantError as exc:
            return {"passed": False, "reason": str(exc), "open": sorted(u)}
        if rank_of(f, mat.data) != sec_u.dim:
            return {"passed": False, "reason": "sections not isomorphic",
                    "open": sorted(u)}
    return {"passed": True, "points": len(space.points),
            "global_dim": sec.dim}
