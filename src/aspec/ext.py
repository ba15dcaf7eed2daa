"""Minimal projective resolutions and Ext^1/Ext^2 with explicit cocycles.

Projectives are direct sums of the e_i A; maps between them are stored
through generator images and expanded to k-linear matrices in the row
convention (image of row x is x.D).  Ext^d(M, N) is computed from

    Z^d = {f in Hom_A(P_d, N) : f vanishes on ker d_d},
    B^d = image of precomposition with d_d,

which only needs the resolution up to homological degree d.
"""

from __future__ import annotations

from .errors import InternalInvariantError, ValidationError
from .linalg import (
    Mat,
    Span,
    _Echelon,
    _add_scaled,
    _combination,
    kernel_basis,
    quotient_basis,
    row_space_basis,
    unit_vec,
    vec_is_zero,
    zero_vec,
)
from .modules import ModuleRep


class ProjectiveModule(ModuleRep):
    """Direct sum of the indecomposable projectives e_{v_s} A."""

    def __init__(self, algebra, slots):
        self.slots = list(slots)
        idems = algebra.ensure_idempotents()
        f = algebra.field
        self.slot_bases = []
        for v in self.slots:
            e = idems[v]
            rows = [algebra.mul(e, algebra.basis_vector(b))
                    for b in range(algebra.dim)]
            self.slot_bases.append(row_space_basis(f, rows, length=algebra.dim))
        self._slot_spans = [Span(f, base, algebra.dim)
                            for base in self.slot_bases]
        offsets = [0]
        for base in self.slot_bases:
            offsets.append(offsets[-1] + len(base))
        self.offsets = offsets
        total = offsets[-1]
        mats = []
        for b in range(algebra.dim):
            big = Mat.zeros(f, total, total)
            for s, base in enumerate(self.slot_bases):
                off = self.offsets[s]
                for r, w in enumerate(base):
                    img = algebra.mul(w, algebra.basis_vector(b))
                    coeffs = self._slot_spans[s].coords(img)
                    if coeffs is None:
                        raise InternalInvariantError("e_v A not action-closed")
                    for c, val in enumerate(coeffs):
                        big.data[off + r][off + c] = val
            mats.append(big)
        super().__init__(algebra, mats, name=f"P({slots})", validate=False)

    def generator_row(self, s):
        """Coordinates of the slot-s generator e_{v_s}."""
        f = self.algebra.field
        idems = self.algebra.ensure_idempotents()
        e = idems[self.slots[s]]
        coeffs = self._slot_spans[s].coords(e)
        row = zero_vec(f, self.dim)
        for c, val in enumerate(coeffs):
            row[self.offsets[s] + c] = val
        return row

def module_map_from_generators(proj, target, gen_images):
    """k-matrix (proj.dim x target.dim, row convention) of the A-map
    sending the slot generators to the given target rows."""
    f = proj.algebra.field
    out = Mat.zeros(f, proj.dim, target.dim)
    for s, base in enumerate(proj.slot_bases):
        img = gen_images[s]
        for r, w in enumerate(base):
            # generator * w = basis row (s, r); its image is img * w
            out.data[proj.offsets[s] + r] = target.act(w).apply_row(img)
    return out


class Resolution:
    """Minimal projective resolution M <- P0 <- P1 <- P2 (right modules)."""

    def __init__(self, module):
        self.module = module
        algebra = module.algebra
        f = algebra.field
        self.terms = []          # ProjectiveModule per degree
        self.diffs = []          # k-matrices: diffs[0] = eps, diffs[d] = d_d
        self.kernels = []        # kernels[d] = ker(diffs[d]) rows in P_d

        target = module
        target_rows = None       # rows of the submodule being covered
        for degree in range(3):
            slots, gen_images = _cover_data(algebra, target, target_rows)
            proj = ProjectiveModule(algebra, slots)
            dmat = module_map_from_generators(proj, target, gen_images)
            self.terms.append(proj)
            self.diffs.append(dmat)
            ker = kernel_basis(dmat.transpose())
            ker = row_space_basis(f, ker, length=proj.dim)
            self.kernels.append(ker)
            target = proj
            target_rows = ker
            if not ker:
                # remaining terms are zero; pad with empty projectives
                for _ in range(degree + 1, 3):
                    empty = ProjectiveModule(algebra, [])
                    self.terms.append(empty)
                    self.diffs.append(Mat.zeros(f, 0, self.terms[-2].dim))
                    self.kernels.append([])
                break
        self.check()

    def check(self):
        f = self.module.algebra.field
        # d1 then eps is zero, d2 then d1 is zero; image = kernel by ranks
        for d in range(1, len(self.terms)):
            comp = self.diffs[d].mul(self.diffs[d - 1])
            if not comp.is_zero():
                raise InternalInvariantError("differentials do not compose to 0")
            im = row_space_basis(f, [list(r) for r in self.diffs[d].data],
                                 length=self.diffs[d].cols)
            ker = self.kernels[d - 1]
            if len(im) != len(ker):
                raise InternalInvariantError("resolution not exact")
        # minimality: rows of every differential land in P_{d-1} * rad
        algebra = self.module.algebra
        rad = algebra.radical_basis()
        for d in range(1, len(self.terms)):
            prev = self.terms[d - 1]
            rad_span = _Echelon(f, prev.dim)
            rad_acts = [prev.act(r) for r in rad]
            for i in range(prev.dim):
                for act in rad_acts:
                    rad_span.insert(act.data[i])
            for row in self.diffs[d].data:
                if not rad_span.contains(row):
                    raise InternalInvariantError(
                        "resolution differential not radical-valued (not minimal)")

    @property
    def p0(self):
        return self.terms[0]

    @property
    def p1(self):
        return self.terms[1]

    @property
    def p2(self):
        return self.terms[2]


def _cover_data(algebra, target, target_rows):
    """Projective cover slots and generator images for a module or a
    submodule (given by rows of the ambient target)."""
    f = algebra.field
    idems = algebra.ensure_idempotents()
    rad = algebra.radical_basis()
    if target_rows is None:
        ambient_rows = [unit_vec(f, target.dim, i) for i in range(target.dim)]
    else:
        ambient_rows = [list(r) for r in target_rows]
    slots = []
    gen_images = []
    for i, e in enumerate(idems):
        act_e = target.act(e)
        rows_e = [act_e.apply_row(r) for r in ambient_rows]
        rows_e = row_space_basis(f, rows_e, length=target.dim)
        rad_acts = [target.act(algebra.mul(x, e)) for x in rad]
        rad_rows = [act.apply_row(r) for r in ambient_rows for act in rad_acts]
        rad_rows = row_space_basis(f, rad_rows, length=target.dim)
        reps = quotient_basis(f, rows_e, rad_rows, length=target.dim)
        for rep in reps:
            slots.append(i)
            gen_images.append(rep)
    return slots, gen_images


class ExtSpace:
    """Ext^degree(source, target) with explicit cochain representatives."""

    def __init__(self, degree, source, target, resolution, cocycles,
                 hom_basis, boundary_ech, z_ech):
        self.degree = degree
        self.source = source
        self.target = target
        self.resolution = resolution
        self.cocycles = cocycles      # list of k-matrices P_degree -> target
        self.dimension = len(cocycles)
        self._hom_basis = hom_basis
        self._boundary_ech = boundary_ech
        self._z_ech = z_ech

    def class_of(self, cochain_matrix):
        """Coordinates of a cocycle's class in the chosen basis."""
        f = self.target.algebra.field
        vec = _flatten(cochain_matrix)
        reduced = self._boundary_ech.reduce(vec)
        reps = [self._boundary_ech.reduce(_flatten(c)) for c in self.cocycles]
        coeffs = Span(f, reps, len(vec)).coords(reduced)
        if coeffs is None:
            raise InternalInvariantError(
                "cochain is not a cocycle modulo boundaries")
        return coeffs

    def is_cocycle(self, cochain_matrix):
        vec = _flatten(cochain_matrix)
        return self._z_ech.contains(vec)


def _flatten(mat):
    return [x for row in mat.data for x in row]


def _hom_space_basis(proj, target):
    """Basis of Hom_A(proj, target): per slot, rows of target*e_{v}."""
    f = proj.algebra.field
    idems = proj.algebra.ensure_idempotents()
    out = []
    for s, v in enumerate(proj.slots):
        rows = row_space_basis(f, target.act(idems[v]).data, length=target.dim)
        for r in rows:
            images = [zero_vec(f, target.dim) for _ in proj.slots]
            images[s] = r
            out.append(module_map_from_generators(proj, target, images))
    return out


def ext(source, target, degree, resolution=None):
    """Ext^degree(source, target) for degree in {1, 2}."""
    if degree not in (1, 2):
        raise ValidationError("only Ext^1 and Ext^2 are computed")
    algebra = source.algebra
    f = algebra.field
    if not algebra.radical_basis():
        # semisimple: all higher Ext vanish; no resolution needed
        empty_ech = _Echelon(f, max(source.dim * target.dim, 1))
        return ExtSpace(degree, source, target, None, [], [], empty_ech,
                        empty_ech)
    res = resolution or Resolution(source)
    proj = res.terms[degree]
    prev = res.terms[degree - 1]
    if proj.dim == 0 or target.dim == 0:
        empty_ech = _Echelon(f, 1)
        return ExtSpace(degree, source, target, res, [], [], empty_ech,
                        empty_ech)
    hom_basis = _hom_space_basis(proj, target)
    ncoords = proj.dim * target.dim

    # cocycles: maps vanishing on ker d_degree
    ker_rows = res.kernels[degree]
    z_basis = []
    if hom_basis:
        cond_rows = []
        for kr in ker_rows:
            images = [phi.apply_row(kr) for phi in hom_basis]
            cond_rows.extend([img[j] for img in images]
                             for j in range(target.dim))
        if cond_rows:
            m = Mat(f, cond_rows, cols=len(hom_basis))
            coeff_kernel = kernel_basis(m)
        else:
            coeff_kernel = [unit_vec(f, len(hom_basis), i)
                            for i in range(len(hom_basis))]
        z_basis = [_combine(f, hom_basis, coeffs, proj.dim, target.dim)
                   for coeffs in coeff_kernel]

    # coboundaries: precompositions of Hom(P_{degree-1}, target) with d
    prev_homs = _hom_space_basis(prev, target)
    b_basis = [res.diffs[degree].mul(phi) for phi in prev_homs]

    z_flat = [_flatten(m) for m in z_basis]
    b_flat = [_flatten(m) for m in b_basis]
    reps_flat = quotient_basis(f, z_flat, b_flat, length=ncoords)
    rep_mats = []
    for vec in reps_flat:
        rep_mats.append(Mat(f, [vec[i * target.dim:(i + 1) * target.dim]
                                for i in range(proj.dim)], cols=target.dim))
    bech = _Echelon(f, ncoords)
    for v in b_flat:
        bech.insert(v)
    zech = _Echelon(f, ncoords)
    for v in z_flat:
        zech.insert(v)
    return ExtSpace(degree, source, target, res, rep_mats, hom_basis, bech,
                    zech)


def _lift_through(proj, target_res, rhs_rows, depth):
    """Per-slot lift: images y_s in (target term_depth) * e_{v_s} with
    y_s . D = rhs_s, where D is the depth-differential of target_res."""
    f = proj.algebra.field
    term = target_res.terms[depth]
    dmat = target_res.diffs[depth]
    idems = proj.algebra.ensure_idempotents()
    images = []
    for s, v in enumerate(proj.slots):
        sub_rows = row_space_basis(f, term.act(idems[v]).data, length=term.dim)
        rhs = rhs_rows[s]
        if not sub_rows:
            if not vec_is_zero(f, rhs):
                raise InternalInvariantError("lift has empty source subspace")
            images.append(zero_vec(f, term.dim))
            continue
        sol = Span(f, [dmat.apply_row(r) for r in sub_rows],
                   dmat.cols).coords(rhs)
        if sol is None:
            raise InternalInvariantError("projective lift failed")
        images.append(_combination(f, sol, sub_rows, term.dim))
    return images


def cup_product(xi_ext, xi_coords, zeta_ext, zeta_coords):
    """Yoneda product Ext^1(Mi,Mj) x Ext^1(Mj,Ml) -> Ext^2(Mi,Ml).

    Elements are given by coordinates in the fixed bases; the result is
    an Ext^2 element (ExtSpace plus coordinate vector).
    """
    if xi_ext.target is not zeta_ext.source:
        same = (xi_ext.target.algebra is zeta_ext.source.algebra
                and xi_ext.target.dim == zeta_ext.source.dim
                and all(a == b for a, b in zip(xi_ext.target.action,
                                               zeta_ext.source.action)))
        if not same:
            raise ValidationError("cup product needs a composable pair")
    mi, mj, ml = xi_ext.source, xi_ext.target, zeta_ext.target
    f = mi.algebra.field
    res_i = xi_ext.resolution
    res_j = zeta_ext.resolution or Resolution(mj)

    phi = _combine(f, xi_ext.cocycles, xi_coords,
                   res_i.terms[1].dim, mj.dim)
    zeta = _combine(f, zeta_ext.cocycles, zeta_coords,
                    res_j.terms[1].dim, ml.dim)

    # phi0: P1(Mi) -> P0(Mj) with phi0 . eps_j = phi
    p1i = res_i.terms[1]
    rhs0 = [phi.apply_row(p1i.generator_row(s)) for s in range(len(p1i.slots))]
    images0 = _lift_through(p1i, res_j, rhs0, 0)
    phi0 = module_map_from_generators(p1i, res_j.terms[0], images0)

    # phi1: P2(Mi) -> P1(Mj) with phi1 . d1_j = d2_i . phi0
    p2i = res_i.terms[2]
    comp = res_i.diffs[2].mul(phi0)
    rhs1 = [comp.apply_row(p2i.generator_row(s))
            for s in range(len(p2i.slots))]
    images1 = _lift_through(p2i, res_j, rhs1, 1)
    phi1 = module_map_from_generators(p2i, res_j.terms[1], images1)

    cochain = phi1.mul(zeta)
    ext2 = ext(mi, ml, 2, resolution=res_i)
    if not ext2.is_cocycle(cochain):
        raise InternalInvariantError("cup product is not a cocycle")
    return ext2, ext2.class_of(cochain)


def _combine(field, mats, coords, rows, cols):
    """sum_k coords[k] * mats[k], accumulated in one rows x cols buffer."""
    out = Mat.zeros(field, rows, cols)
    for c, m in zip(coords, mats):
        if c:
            for orow, mrow in zip(out.data, m.data):
                _add_scaled(field, orow, c, mrow)
    return out
