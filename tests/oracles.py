"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the production code paths: naive
Gaussian elimination, determinant-of-minors ranks, path enumeration,
extension and deformation enumeration over small prime fields.  The
exceptions: the morphism count out of a hull computes in the target
through the matric algebra `MatricOHat` with 1x1 blocks; the dense
Hochschild coboundaries multiply the action matrices as `Mat`s one basis
pair or triple at a time; HH^1, the Ext^1 reference, takes `kernel_basis`
and `quotient_basis` of the derivation equations; the smallness of a
hull tower reads the hull's own normal forms; the principal ideals by
all products use O's own multiplication; the dense validity checks of
algebras and modules multiply through `Algebra.mul`, `Mat.mul` and
`act`, one basis triple or pair at a time.  The last section holds
readings of documents, points and spaces that only the tests ask for.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from aspec.errors import InputError, ValidationError
from aspec.fields import PrimeField
from aspec.hull import MatricOHat
from aspec.linalg import Mat, kernel_basis, quotient_basis, row_space_basis
from aspec.modules import contraction, is_isomorphic, is_simple
from aspec.polyring import PointModule


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
                 for row in alg.table]
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
                want = lift_of_vec(X, alg.table[a][b])
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
    out = {}
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            term1 = source.action[a].mul(psi[b])
            term3 = psi[a].mul(target.action[b])
            mid = psi_of(algebra, psi, algebra.table[a][b], source.dim,
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
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            for g in range(algebra.dim):
                t1 = source.action[a].mul(coch[(b, g)])
                t2 = cochain2_of(algebra, coch, algebra.table[a][b],
                                 algebra.basis_vector(g), source.dim,
                                 target.dim)
                t3 = cochain2_of(algebra, coch, algebra.basis_vector(a),
                                 algebra.table[b][g], source.dim, target.dim)
                t4 = coch[(a, b)].mul(target.action[g])
                if not t1.sub(t2).add(t3).sub(t4).is_zero():
                    return False
    return True


def _flat2(algebra, coch):
    """A full basis-indexed 2-cochain as one list, pairs (a, b) in order,
    each block row by row."""
    n = algebra.dim
    return [x for a in range(n) for b in range(n)
            for row in coch[(a, b)].data for x in row]


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
                out.append(_flat2(algebra,
                                  coboundary_1(algebra, source, target, psi)))
    return out


def two_cocycle_classes_independent(algebra, source, target, cochains):
    """Are the 2-cocycles linearly independent modulo coboundaries?  By
    ranks: appending them to the unit coboundaries adds one each."""
    p = getattr(algebra.field, "p", None)
    cob = coboundary_columns_dense(algebra, source, target)
    flats = [_flat2(algebra, c) for c in cochains]
    return (naive_gauss_rank(cob + flats, p)
            == naive_gauss_rank(cob, p) + len(flats))


def split_two_cocycle_ext2_first(algebra, source, target, hh2_basis, coch):
    """(lambdas, flat psi) with coch = sum lambda_l basis_l + delta(psi),
    solved over the columns [Ext^2 basis | unit coboundaries] with the
    free variables set to 0; None when coch is outside their span."""
    p = getattr(algebra.field, "p", None)
    cols = ([_flat2(algebra, c) for c in hh2_basis]
            + coboundary_columns_dense(algebra, source, target))
    x = solve_by_augmented_rref(cols, _flat2(algebra, coch), p)
    if x is None:
        return None
    return x[:len(hh2_basis)], x[len(hh2_basis):]


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
                    for e, ce in enumerate(algebra.table[a][b]):
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


def tower_is_small(tower):
    """(ker pi_{n-1}) * m_n = 0 inside each stage H_n, evaluated in the
    final algebra: no product of a word of length n with a word of
    length <= n reduces onto a word of length <= n."""
    h = tower.final
    for n in range(3, h.order + 1):
        short = [w for w in h.reduced_words if len(w) <= n]
        for w in h.words_by_len.get(n, ()):
            for m in short:
                key = h._compose_keys(("m", w), ("m", m))
                if key is not None and any(
                        len(v) <= n for v in h.normal_form(key[1])):
                    return False
    return True


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
    """x * y by the triple loop over alg.table, every product formed."""
    f = alg.field
    out = [f.zero] * alg.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, t in enumerate(alg.table[i][j]):
                out[k] = f.add(out[k], f.mul(f.mul(xi, yj), t))
    return out


def two_sided_ideal_all_products(o_alg, idx):
    """Basis of O * o_idx * O from all dim^2 products u * o_idx * v of
    basis elements: the reference for `hull._two_sided_ideal`, which
    closes span(o_idx) under multiplication instead."""
    basis = [o_alg.basis_vector(t) for t in range(o_alg.dim)]
    vecs = [o_alg.mul(o_alg.mul(u, basis[idx]), v)
            for u in basis for v in basis]
    return row_space_basis(o_alg.field, vecs, length=o_alg.dim)


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
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = alg.table[i][j]
            if len(ij) != alg.dim:
                raise ValidationError("structure constant vector length")
            for k in range(alg.dim):
                left = alg.mul(ij, alg.basis_vector(k))
                right = alg.mul(alg.basis_vector(i), alg.table[j][k])
                if left != right:
                    raise ValidationError(
                        "associativity fails on triple "
                        f"({alg.labels[i]}, {alg.labels[j]}, {alg.labels[k]})")
    if alg.idempotents is not None:
        alg.validate_idempotents(alg.idempotents)


def module_validate_dense(mod):
    """`ModuleRep.validate` by the dense loop: 1 acts as the identity,
    then every basis pair through a `Mat.mul` and an `act`; raises the
    same ValidationError."""
    A = mod.algebra
    if mod.act(A.unit) != Mat.identity(A.field, mod.dim):
        raise ValidationError(f"module {mod.name!r}: 1 does not act as identity")
    for i in range(A.dim):
        for j in range(A.dim):
            left = mod.action[i].mul(mod.action[j])
            right = mod.act(A.table[i][j])
            if left != right:
                raise ValidationError(
                    f"module {mod.name!r}: eta(b_i)eta(b_j) != eta(b_i b_j) "
                    f"for ({A.labels[i]}, {A.labels[j]})")


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


def sections_simples_only(space, subset):
    """The presheaf limit taken over the simple points of `subset` only
    (the definitions differ on spaces with non-simple spectral points)."""
    return space.family_o_algebra(
        i for i in subset if is_simple_point(space.points[i]))
