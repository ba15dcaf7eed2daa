"""Bridge between resolution cocycles and Hochschild-style cochains.

An Ext^1 class becomes a derivation psi: A -> Hom_k(Mi, Mj) with
psi(ab) = eta_i(a) psi(b) + psi(a) eta_j(b); an Ext^2 class becomes a
2-cochain c: A x A -> Hom_k(Mi, Mj).  Both come from an explicit chain
map out of the bar resolution, built from deterministic linear solves,
so classes are preserved on the nose.  The degree-2 comparison mu,
which only the Ext^2 conversion reads, is lifted when an Ext^2 cochain
is first requested, and only on the cells where it is nonzero and a
generator comes first: a hereditary algebra never lifts it.  The hull's
obstruction calculus consumes and produces these forms, and checks and
splits 2-cochains on the pairs (g, b) with g a generator of the algebra.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .linalg import (
    Mat,
    Span,
    _add_scaled,
    _combination,
    unit_vec,
    vec_is_zero,
    vec_sub,
    zero_vec,
)


class BarComparison:
    """Chain data sigma, nu, mu comparing the bar resolution of a module
    with its stored minimal resolution (degrees 0..2).

    sigma and nu are built at once.  mu is read only to turn Ext^2
    classes into 2-cochains, so it is lifted on the first
    `two_cochain_of` call, and only on the cells where it is nonzero."""

    def __init__(self, resolution):
        self.res = resolution
        module = resolution.module
        algebra = module.algebra
        f = algebra.field
        self.module = module
        self.algebra = algebra
        eps = resolution.diffs[0]
        d1 = resolution.diffs[1]
        p0 = resolution.terms[0]

        # coordinates in the rows of eps and d1 (row convention: a
        # preimage of y under D is x with x.D = y)
        eps_span = Span(f, eps.data, eps.cols)
        d1_span = Span(f, d1.data, d1.cols)

        # sigma: k-linear section of eps (rows indexed by module basis)
        self.sigma = []
        for m in range(module.dim):
            sol = eps_span.coords(unit_vec(f, module.dim, m))
            if sol is None:
                raise InternalInvariantError("augmentation is not surjective")
            self.sigma.append(sol)

        # nu[m][a]: d1-preimage of sigma(m . a) - sigma(m) . a
        basis = [algebra.basis_vector(a) for a in range(algebra.dim)]
        self.nu = []
        for m in range(module.dim):
            row = []
            for a in range(algebra.dim):
                ma = module.action[a].data[m]
                rhs = vec_sub(f, self._sigma_of(ma),
                              p0.apply(self.sigma[m], basis[a]))
                sol = d1_span.coords(rhs)
                if sol is None:
                    raise InternalInvariantError("nu lift failed")
                row.append(sol)
            self.nu.append(row)
        self._mu = None

    @property
    def mu(self):
        """{(m, a, b): d2-preimage of nu(m.a, b) - nu(m, ab) + nu(m, a).b}
        on the cells where that vector is nonzero; mu is zero on every
        other cell.  Lifted on first use."""
        if self._mu is None:
            self._mu = self._lift_mu()
        return self._mu

    def _lift_mu(self):
        """The cells of mu with a generator first: two_cochain_of reads
        no other, since a 2-cocycle is determined on the pairs (g, b)
        (Lemma 1 below).  The vector w to lift vanishes unless m.a != 0,
        nu(m, a) != 0 or ab != 0; a zero w has coordinates 0, so only
        the nonzero ones are lifted."""
        algebra, module, nu = self.algebra, self.module, self.nu
        f = algebra.field
        p1 = self.res.terms[1]
        d2 = self.res.diffs[2]
        d2_span = Span(f, d2.data, d2.cols)
        basis = [algebra.basis_vector(b) for b in range(algebra.dim)]
        out = {}
        for m, nu_m in enumerate(nu):
            for a in algebra.generators:
                nu_ma = nu_m[a]
                ma = [(k, c) for k, c in
                      enumerate(module.action[a].data[m]) if c]
                moves = not vec_is_zero(f, nu_ma)
                for b, ab in enumerate(algebra.products[a]):
                    if not (ma or moves or ab):
                        continue
                    w = p1.apply(nu_ma, basis[b]) if moves else \
                        zero_vec(f, p1.dim)
                    for k, c in ma:
                        _add_scaled(f, w, c, nu[k][b])
                    for k, c in ab:
                        _add_scaled(f, w, f.neg(c), nu_m[k])
                    if vec_is_zero(f, w):
                        continue
                    sol = d2_span.coords(w)
                    if sol is None:
                        raise InternalInvariantError("mu lift failed")
                    out[(m, a, b)] = sol
        return out

    def _sigma_of(self, mvec):
        return _combination(self.algebra.field, mvec, self.sigma,
                            self.res.terms[0].dim)

    def derivation_of(self, cocycle_mat):
        """Ext^1 cochain (P1 -> N) to a derivation: list of Mats over the
        algebra basis, each module.dim x target.dim."""
        f = self.algebra.field
        target_dim = cocycle_mat.cols
        out = []
        for a in range(self.algebra.dim):
            rows = [cocycle_mat.apply_row(self.nu[m][a])
                    for m in range(self.module.dim)]
            out.append(Mat(f, rows, cols=target_dim))
        return out

    def two_cochain_of(self, cocycle_mat):
        """Ext^2 cochain (P2 -> N) to a Hochschild 2-cocycle held on the
        pairs (g, b) with g a generator, every such pair present: a
        2-cocycle is determined there (see `flatten2`)."""
        f = self.algebra.field
        n = self.algebra.dim
        out = {(g, b): Mat.zeros(f, self.module.dim, cocycle_mat.cols)
               for g in self.algebra.generators for b in range(n)}
        for (m, a, b), sol in self.mu.items():
            out[(a, b)].data[m] = cocycle_mat.apply_row(sol)
        return out


# -- Hochschild cochain calculus -------------------------------------------
#
# Cochains are checked and split on the generator-first tuples (g, b, ...)
# only.  Lemma 1: a 2-cocycle c that vanishes on every pair (g, b) is
# zero.  Z = {a : c(a, .) = 0} is a subspace holding the generators, and
# the cocycle identity c(aa', b) = eta_i(a) c(a', b) + c(a, a'b)
# - c(a, a') eta_j(b) closes it under products, so Z = A.  Restriction
# to those pairs is injective on cocycles: the unit coboundaries, the
# Ext^2 basis and every stage defect keep their linear relations there.


def _unit_coboundary(algebra, source, target, onto, args, r0, c0):
    """delta of the unit p-cochain (p = len(args)) whose one nonzero
    entry is c(args)[r0][c0] = 1, as {(basis tuple, r, c): coeff} on the
    tuples with a generator first: eta_i(x) c(...) + sum_k (-1)^(k+1)
    c(.., x_k x_(k+1), ..) + (-1)^(p+1) c(...) eta_j(x).  The other
    tuples are left out: by Lemma 1 (p = 1) and Lemma 2 (p = 2,
    `is_two_cocycle`) they decide nothing more.  The actions are read
    from their nonzero entries, the products from `onto`
    (`Algebra.products_onto`)."""
    f = algebra.field
    first = algebra.generator_position
    out = {}

    def put(key, x):
        out[key] = f.add(out.get(key, f.zero), x)

    for x in algebra.generators:
        for r, row in source._entries[x].items():
            for c, v in row:
                if c == r0:
                    put(((x,) + args, r, c0), v)
    for x, y, v in onto[args[0]]:
        if x in first:
            put(((x, y) + args[1:], r0, c0), f.neg(v))
    if args[0] not in first:
        return out
    for k, e in enumerate(args[1:], 1):
        for x, y, v in onto[e]:
            put((args[:k] + (x, y) + args[k + 1:], r0, c0),
                v if k % 2 else f.neg(v))
    for x, entries in enumerate(target._entries):
        for c, v in entries.get(c0, ()):
            put((args + (x,), r0, c), v if len(args) % 2 else f.neg(v))
    return out


def _flat_index(algebra, di, dj, key):
    """Position of entry (r, c) at the basis tuple args in the flat layout
    of flatten2: tuples in lexicographic order of the first generator's
    position and then the basis indices, each block row by row."""
    args, r, c = key
    n = algebra.dim
    idx = algebra.generator_position[args[0]]
    for x in args[1:]:
        idx = idx * n + x
    return (idx * di + r) * dj + c


def is_two_cocycle(algebra, source, target, coch):
    """eta(g) c(b,e) - c(gb,e) + c(g,be) - c(g,b) eta(e) = 0 on the basis
    triples with a generator g first: delta of c summed over its nonzero
    entries, each the unit 2-cochain it scales.  A pair missing from
    `coch` is zero.

    Lemma 2: when eta_i and eta_j are algebra maps, the a with
    delta c(a, ., .) = 0 form a subalgebra, by delta c(aa', b, e) =
    eta_i(a) delta c(a', b, e) + delta c(a, a'b, e) - delta c(a, a', be)
    + delta c(a, a', b) eta_j(e); so the check is exact."""
    f = algebra.field
    onto = algebra.products_onto()
    acc = {}
    for (a, b), m in coch.items():
        for r, row in enumerate(m.data):
            for c, x in enumerate(row):
                if not x:
                    continue
                for key, v in _unit_coboundary(algebra, source, target, onto,
                                               (a, b), r, c).items():
                    acc[key] = f.add(acc.get(key, f.zero), f.mul(x, v))
    return all(f.is_zero(v) for v in acc.values())


def flatten2(algebra, source, target, coch):
    """Flat coordinates of a basis-indexed 2-cochain on the pairs (g, b),
    g a generator, in order, each block row by row; a pair missing from
    `coch` is zero.  Injective on 2-cocycles (Lemma 1)."""
    n = algebra.dim
    zero = [algebra.field.zero] * (source.dim * target.dim)
    out = []
    for g in algebra.generators:
        for b in range(n):
            m = coch.get((g, b))
            out += zero if m is None else m.flat()
    return out


def coboundary_columns(algebra, source, target):
    """flatten2 of delta(psi) for the unit 1-cochains psi, whose single
    nonzero entry psi(a)[r][c] = 1 runs over (a, r, c) in order: each a
    2-cocycle, so its relations with the others are those on all pairs
    (Lemma 1)."""
    f = algebra.field
    n, di, dj = algebra.dim, source.dim, target.dim
    size = len(algebra.generators) * n * di * dj
    onto = algebra.products_onto()
    out = []
    for a in range(n):
        for r in range(di):
            for c in range(dj):
                col = [f.zero] * size
                for key, v in _unit_coboundary(algebra, source, target,
                                               onto, (a,), r, c).items():
                    col[_flat_index(algebra, di, dj, key)] = v
                out.append(col)
    return out


def two_cocycle_span(algebra, source, target, hh2_basis):
    """The Span over [coboundary_columns | Ext^2 basis] that
    split_two_cocycle reads coordinates from; one per block (i, j).
    The Ext^2 basis is independent modulo coboundaries exactly when the
    span keeps every one of its vectors (`Span.kept`).  All of them are
    2-cocycles, so by Lemma 1 their relations on the pairs (g, b) are
    those on all pairs."""
    return Span(algebra.field,
                coboundary_columns(algebra, source, target)
                + [flatten2(algebra, source, target, c) for c in hh2_basis],
                len(algebra.generators) * algebra.dim
                * source.dim * target.dim)


def split_two_cocycle(algebra, source, target, coch, span):
    """Write a 2-cocycle as sum(lambda_l * basis_l) + coboundary(psi).

    `span` is the block's two_cocycle_span.  Returns (lambdas, psi).
    Raises when the class is outside the span, which would mean the
    Ext^2 basis is incomplete.  The coordinates are read on the pairs
    (g, b) only; by Lemma 1 they are those on all pairs.
    """
    f = algebra.field
    di, dj = source.dim, target.dim
    sol = span.coords(flatten2(algebra, source, target, coch))
    if sol is None:
        raise InternalInvariantError(
            "2-cocycle not in span(Ext^2 basis) + coboundaries")
    size = di * dj
    psi = [Mat.of_flat(f, sol[a * size:(a + 1) * size], di, dj)
           for a in range(algebra.dim)]
    return sol[algebra.dim * size:], psi
