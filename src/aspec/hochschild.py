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
from .linalg import (
    Mat,
    Span,
    _add_scaled,
    _combination,
    unit_vec,
    vec_add,
    vec_sub,
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
                ma = module.action[a].data[m]
                rhs = vec_sub(f, self._sigma_of(ma),
                              p0.action[a].apply_row(self.sigma[m]))
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
                ma = module.action[a].data[m]
                for b in range(algebra.dim):
                    t1 = self._nu_of(ma, algebra.basis_vector(b))
                    ab = algebra.table[a][b]
                    t2 = self._nu_of(unit_vec(f, module.dim, m), ab)
                    t3 = p1.action[b].apply_row(self.nu[m][a]) if p1.dim else []
                    w = vec_add(f, vec_sub(f, t1, t2), t3)
                    sol = d2_span.coords(w)
                    if sol is None:
                        raise InternalInvariantError("mu lift failed")
                    cell.append(sol)
                rows.append(cell)
            self.mu.append(rows)

    def _sigma_of(self, mvec):
        return _combination(self.algebra.field, mvec, self.sigma,
                            self.res.terms[0].dim)

    def _nu_of(self, mvec, avec):
        f = self.algebra.field
        out = zero_vec(f, self.res.terms[1].dim)
        a_terms = [(ai, ca) for ai, ca in enumerate(avec) if ca]
        for cm, nu_m in zip(mvec, self.nu):
            if cm:
                for ai, ca in a_terms:
                    _add_scaled(f, out, f.mul(cm, ca), nu_m[ai])
        return out

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
        """Ext^2 cochain (P2 -> N) to a Hochschild 2-cochain on basis pairs."""
        f = self.algebra.field
        target_dim = cocycle_mat.cols
        out = {}
        for a in range(self.algebra.dim):
            for b in range(self.algebra.dim):
                rows = [cocycle_mat.apply_row(self.mu[m][a][b])
                        for m in range(self.module.dim)]
                out[(a, b)] = Mat(f, rows, cols=target_dim)
        return out


# -- Hochschild cochain calculus -------------------------------------------


def _products_onto(algebra):
    """{e: [(x, y, coefficient of basis e in x*y)]}, the nonzero
    structure constants read by target basis element."""
    out = {}
    for x, row in enumerate(algebra.products):
        for y, terms in enumerate(row):
            for e, c in terms:
                out.setdefault(e, []).append((x, y, c))
    return out


def _unit_coboundary(algebra, source, target, onto, args, r0, c0):
    """delta of the unit p-cochain (p = len(args)) whose one nonzero
    entry is c(args)[r0][c0] = 1, as {(basis tuple, r, c): coeff}:
    eta_i(x) c(...) + sum_k (-1)^(k+1) c(.., x_k x_(k+1), ..)
    + (-1)^(p+1) c(...) eta_j(x).  The actions are read from their
    nonzero entries."""
    f = algebra.field
    out = {}

    def put(key, x):
        out[key] = f.add(out.get(key, f.zero), x)

    for x, entries in enumerate(source._entries):
        for r, c, v in entries:
            if c == r0:
                put(((x,) + args, r, c0), v)
    for k, e in enumerate(args):
        for x, y, v in onto.get(e, ()):
            put((args[:k] + (x, y) + args[k + 1:], r0, c0),
                v if k % 2 else f.neg(v))
    for x, entries in enumerate(target._entries):
        for r, c, v in entries:
            if r == c0:
                put((args + (x,), r0, c), v if len(args) % 2 else f.neg(v))
    return out


def _flat_index(n, di, dj, key):
    """Position of entry (r, c) at the basis tuple args in the flat layout
    of flatten2: tuples in lexicographic order, each block row by row."""
    args, r, c = key
    idx = 0
    for x in args:
        idx = idx * n + x
    return (idx * di + r) * dj + c


def is_two_cocycle(algebra, source, target, coch):
    """eta(a) c(b,g) - c(ab,g) + c(a,bg) - c(a,b) eta(g) = 0 on basis
    triples: delta of c summed over its nonzero entries, each the unit
    2-cochain it scales.  A pair missing from `coch` is zero."""
    f = algebra.field
    onto = _products_onto(algebra)
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
    """Flat coordinates of a basis-indexed 2-cochain, pairs (a, b) in
    order, each block row by row; a pair missing from `coch` is zero."""
    n = algebra.dim
    zero = [algebra.field.zero] * (source.dim * target.dim)
    out = []
    for a in range(n):
        for b in range(n):
            m = coch.get((a, b))
            out += zero if m is None else [x for row in m.data for x in row]
    return out


def coboundary_columns(algebra, source, target):
    """flatten2 of delta(psi) for the unit 1-cochains psi, whose single
    nonzero entry psi(a)[r][c] = 1 runs over (a, r, c) in order."""
    f = algebra.field
    n, di, dj = algebra.dim, source.dim, target.dim
    onto = _products_onto(algebra)
    out = []
    for a in range(n):
        for r in range(di):
            for c in range(dj):
                col = [f.zero] * (n * n * di * dj)
                for key, v in _unit_coboundary(algebra, source, target,
                                               onto, (a,), r, c).items():
                    col[_flat_index(n, di, dj, key)] = v
                out.append(col)
    return out


def two_cocycle_span(algebra, source, target, hh2_basis):
    """The Span over [coboundary_columns | Ext^2 basis] that
    split_two_cocycle reads coordinates from; one per block (i, j).
    The Ext^2 basis is independent modulo coboundaries exactly when the
    span keeps every one of its vectors (`Span.kept`)."""
    return Span(algebra.field,
                coboundary_columns(algebra, source, target)
                + [flatten2(algebra, source, target, c) for c in hh2_basis],
                algebra.dim ** 2 * source.dim * target.dim)


def split_two_cocycle(algebra, source, target, coch, span):
    """Write a 2-cocycle as sum(lambda_l * basis_l) + coboundary(psi).

    `span` is the block's two_cocycle_span.  Returns (lambdas, psi).
    Raises when the class is outside the span, which would mean the
    Ext^2 basis is incomplete.
    """
    f = algebra.field
    di, dj = source.dim, target.dim
    sol = span.coords(flatten2(algebra, source, target, coch))
    if sol is None:
        raise InternalInvariantError(
            "2-cocycle not in span(Ext^2 basis) + coboundaries")
    nd = algebra.dim * di * dj
    psi = [Mat(f, [sol[(a * di + r) * dj:(a * di + r + 1) * dj]
                   for r in range(di)], cols=dj)
           for a in range(algebra.dim)]
    return sol[nd:], psi
