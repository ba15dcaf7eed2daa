"""Bridge between resolution cocycles and Hochschild-style cochains.

An Ext^1 class becomes a derivation psi: A -> Hom_k(Mi, Mj) with
psi(ab) = eta_i(a) psi(b) + psi(a) eta_j(b); an Ext^2 class becomes a
2-cochain c: A x A -> Hom_k(Mi, Mj).  Both come from an explicit chain
map out of the bar resolution, built from deterministic linear solves,
so classes are preserved on the nose.  The hull's obstruction calculus
consumes and produces these forms.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .ext import _row_image
from .linalg import (
    Mat,
    Span,
    _Echelon,
    kernel_basis,
    quotient_basis,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)


class BarComparison:
    """Chain data sigma, nu, mu comparing the bar resolution of a module
    with its stored minimal resolution (degrees 0..2)."""

    def __init__(self, resolution):
        self.res = resolution
        module = resolution.module
        algebra = module.algebra
        f = algebra.field
        self.module = module
        self.algebra = algebra
        eps = resolution.diffs[0]
        d1 = resolution.diffs[1]
        d2 = resolution.diffs[2]
        p0, p1, p2 = resolution.terms[0], resolution.terms[1], resolution.terms[2]

        # coordinates in the rows of eps, d1 and d2 (row convention: a
        # preimage of y under D is x with x.D = y)
        eps_span = Span(f, eps.data, eps.cols)
        d1_span = Span(f, d1.data, d1.cols)
        d2_span = Span(f, d2.data, d2.cols)

        # sigma: k-linear section of eps (rows indexed by module basis)
        self.sigma = []
        for m in range(module.dim):
            sol = eps_span.coords(unit_vec(f, module.dim, m))
            if sol is None:
                raise InternalInvariantError("augmentation is not surjective")
            self.sigma.append(sol)

        # nu[m][a]: d1-preimage of sigma(m . a) - sigma(m) . a
        self.nu = []
        for m in range(module.dim):
            row = []
            for a in range(algebra.dim):
                ma = module.action[a].transpose().apply_col(
                    unit_vec(f, module.dim, m))
                rhs = [f.sub(x, y) for x, y in zip(
                    self._sigma_of(ma),
                    p0.act(algebra.basis_vector(a)).transpose().apply_col(
                        self.sigma[m]))]
                sol = d1_span.coords(rhs)
                if sol is None:
                    raise InternalInvariantError("nu lift failed")
                row.append(sol)
            self.nu.append(row)

        # mu[m][a][b]: d2-preimage of nu(m.a, b) - nu(m, ab) + nu(m, a).b
        self.mu = []
        for m in range(module.dim):
            rows = []
            for a in range(algebra.dim):
                cell = []
                for b in range(algebra.dim):
                    ma = module.action[a].transpose().apply_col(
                        unit_vec(f, module.dim, m))
                    t1 = self._nu_of(ma, algebra.basis_vector(b))
                    ab = algebra.table[a][b]
                    t2 = self._nu_of(unit_vec(f, module.dim, m), ab)
                    t3 = p1.act(algebra.basis_vector(b)).transpose().apply_col(
                        self.nu[m][a]) if p1.dim else []
                    w = [f.add(f.sub(x, y), z) for x, y, z in zip(t1, t2, t3)]
                    sol = d2_span.coords(w)
                    if sol is None:
                        raise InternalInvariantError("mu lift failed")
                    cell.append(sol)
                rows.append(cell)
            self.mu.append(rows)

    def _sigma_of(self, mvec):
        f = self.algebra.field
        out = zero_vec(f, self.res.terms[0].dim)
        for c, row in zip(mvec, self.sigma):
            if not f.is_zero(c):
                out = vec_add(f, out, vec_scale(f, c, row))
        return out

    def _nu_of(self, mvec, avec):
        f = self.algebra.field
        out = zero_vec(f, self.res.terms[1].dim)
        for mi, cm in enumerate(mvec):
            if f.is_zero(cm):
                continue
            for ai, ca in enumerate(avec):
                if f.is_zero(ca):
                    continue
                out = vec_add(f, out,
                              vec_scale(f, f.mul(cm, ca), self.nu[mi][ai]))
        return out

    def derivation_of(self, cocycle_mat):
        """Ext^1 cochain (P1 -> N) to a derivation: list of Mats over the
        algebra basis, each module.dim x target.dim."""
        f = self.algebra.field
        target_dim = cocycle_mat.cols
        out = []
        for a in range(self.algebra.dim):
            rows = [_row_image(f, cocycle_mat, self.nu[m][a])
                    for m in range(self.module.dim)]
            out.append(Mat(f, rows, cols=target_dim))
        return out

    def two_cochain_of(self, cocycle_mat):
        """Ext^2 cochain (P2 -> N) to a Hochschild 2-cochain on basis pairs."""
        f = self.algebra.field
        target_dim = cocycle_mat.cols
        out = {}
        for a in range(self.algebra.dim):
            for b in range(self.algebra.dim):
                rows = [_row_image(f, cocycle_mat, self.mu[m][a][b])
                        for m in range(self.module.dim)]
                out[(a, b)] = Mat(f, rows, cols=target_dim)
        return out


# -- Hochschild cochain calculus -------------------------------------------


def coboundary_1(algebra, source, target, psi):
    """delta(psi)(a,b) = eta_i(a) psi(b) - psi(ab) + psi(a) eta_j(b)."""
    f = algebra.field
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


def is_two_cocycle(algebra, source, target, coch):
    """eta(a) c(b,g) - c(ab,g) + c(a,bg) - c(a,b) eta(g) = 0 on basis triples."""
    f = algebra.field
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
                total = t1.sub(t2).add(t3).sub(t4)
                if not total.is_zero():
                    return False
    return True


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


def flatten2(algebra, coch):
    """Flat coordinates of a basis-indexed 2-cochain, pairs (a, b) in
    order, each block row by row."""
    n = algebra.dim
    return [x for a in range(n) for b in range(n)
            for row in coch[(a, b)].data for x in row]


def coboundary_columns(algebra, source, target):
    """flatten2 of delta(psi) for the unit 1-cochains psi, whose single
    nonzero entry psi(a)[r][c] = 1 runs over (a, r, c) in order."""
    f = algebra.field
    n = algebra.dim
    di, dj = source.dim, target.dim
    out = []
    for idx in range(n * di * dj):
        a0, rest = divmod(idx, di * dj)
        r0, c0 = divmod(rest, dj)
        psi = [Mat.zeros(f, di, dj) for _ in range(n)]
        psi[a0].data[r0][c0] = f.one
        out.append(flatten2(algebra, coboundary_1(algebra, source, target,
                                                  psi)))
    return out


def two_cocycle_classes_independent(algebra, source, target, cochains):
    """Are the given 2-cocycles linearly independent modulo coboundaries?"""
    ech = _Echelon(algebra.field,
                   algebra.dim ** 2 * source.dim * target.dim)
    for v in coboundary_columns(algebra, source, target):
        ech.insert(v)
    return all(ech.insert(flatten2(algebra, c)) is not None
               for c in cochains)


def two_cocycle_span(algebra, source, target, hh2_basis):
    """The Span over [Ext^2 basis | coboundary_columns] that
    split_two_cocycle reads coordinates from; one per block (i, j)."""
    return Span(algebra.field,
                [flatten2(algebra, c) for c in hh2_basis]
                + coboundary_columns(algebra, source, target),
                algebra.dim ** 2 * source.dim * target.dim)


def split_two_cocycle(algebra, source, target, coch, span):
    """Write a 2-cocycle as sum(lambda_l * basis_l) + coboundary(psi).

    `span` is the block's two_cocycle_span.  Returns (lambdas, psi).
    Raises when the class is outside the span, which would mean the
    Ext^2 basis is incomplete.
    """
    f = algebra.field
    di, dj = source.dim, target.dim
    sol = span.coords(flatten2(algebra, coch))
    if sol is None:
        raise InternalInvariantError(
            "2-cocycle not in span(Ext^2 basis) + coboundaries")
    nl = span.count - algebra.dim * di * dj
    psi = [Mat(f, [sol[nl + (a * di + r) * dj:nl + (a * di + r + 1) * dj]
                   for r in range(di)], cols=dj)
           for a in range(algebra.dim)]
    return sol[:nl], psi
