"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the production code paths: naive
Gaussian elimination, determinant-of-minors ranks, path enumeration,
extension and deformation enumeration over small prime fields.  The
one exception is the morphism count out of a hull, which reads the
hull and the target through their `RPointedAlgebra` arithmetic.
"""

from fractions import Fraction
from itertools import combinations, product

from aspec.errors import InputError
from aspec.fields import PrimeField


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
    hull are well defined."""
    words = [("m", w) for w in target.reduced_words]
    if not words:
        return True
    products = [{k: target.field.one} for k in words]
    for _ in range(order):
        nxt = []
        for x in products:
            for k in words:
                y = target.mul(x, {k: target.field.one})
                if not target.is_zero(y):
                    nxt.append(y)
        products = nxt
        if not products:
            return True
    return not products


def enumerate_pointed_morphisms(h, target):
    """All r-pointed morphisms h -> target over a finite prime field.

    Returns the list of assignments: per generator, a {key: scalar}
    element of the target's radical in the matching block."""
    f = h.field
    if not isinstance(f, PrimeField):
        raise InputError("morphism enumeration needs a finite prime field")
    if f != target.field or h.r != target.r:
        raise InputError("mismatched base or pointedness")
    if not radical_nilpotency_bound_ok(target, h.order):
        raise InputError(
            "target radical is not nilpotent within the hull truncation")
    p = f.p
    slots = []
    for label, i, j in h.generators:
        words = [w for w in target.reduced_words
                 if target.word_block(w) == (i, j)]
        slots.append(words)

    def assignment(coeff_tuple):
        out = []
        pos = 0
        for words in slots:
            elem = {}
            for w in words:
                c = coeff_tuple[pos]
                pos += 1
                if c % p:
                    elem[("m", w)] = c % p
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
