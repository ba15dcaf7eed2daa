"""Minimal projective resolutions and Ext^1/Ext^2 with explicit cocycles.

Projectives are direct sums of the e_i A; maps between them are stored
through generator images and expanded to k-linear matrices in the row
convention (image of row x is x.D).  Ext^d(M, N) is computed from

    Z^d = {f in Hom_A(P_d, N) : f vanishes on ker d_d},
    B^d = image of precomposition with d_d,

which only needs the resolution up to homological degree d.  Into a
target N killed by the radical (N G = 0, so N rad = 0) the cocycles are
read off the resolution: `Resolution.check` proves that every kernel
ker d_d, and so the image of d_{d+1}, lies in P_d rad, and an A-map f
into N has f(x r) = f(x) r = 0.  So Z^d = Hom_A(P_d, N) and B^d = 0,
and the Hom basis is the cocycle basis, the general path's own answer.

G spans rad modulo rad^2, so rad = A G and T rad = T G for a submodule
T.  A cover of T reads T e modulo T (G e), and minimality is checked
against the radical rows e_v rad = (e_v A) G.  Each indecomposable
projective e_v A (its basis, the action of the algebra on it and its
radical rows) and the products g e are built once per algebra and
idempotent, and every resolution over that algebra reads them.  A
projective keeps the sparse actions of its slots, and rows are acted
on through `ModuleRep.apply`, so no dense action matrix of a projective
is built.  Hom_A(P_d, N) is built once per resolution and target, so
Ext^1 and Ext^2 share Hom(P_1, N).
"""

from __future__ import annotations

import functools

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


class _VertexProjective:
    """The indecomposable projective e A of an idempotent e: its basis
    rows, the coordinates of e in them, per algebra basis element b the
    nonzero coordinates (c, x) of w * b for each basis row w, and the
    echelon of e rad = (e A) G in those coordinates (G from
    `Algebra.radical_generators`, so rad = A G)."""

    def __init__(self, algebra, e):
        f = algebra.field
        n = algebra.dim
        self.basis = row_space_basis(
            f, [algebra.times_basis(e, b) for b in range(n)])
        self.dim = len(self.basis)
        # the basis is in rref: a vector of e A has its coordinates at
        # the pivot columns
        pivots = [next(j for j, x in enumerate(w) if x) for w in self.basis]

        def coords(v):
            out = [v[j] for j in pivots]
            if _combination(f, out, self.basis, n) != v:
                raise InternalInvariantError("e_v A not action-closed")
            return out

        # e A is closed under the right action of A once it is closed
        # under the generators (the a with (e A) a in e A form a
        # subalgebra); the other products are read at the pivots
        first = algebra.generator_position
        self.generator = coords(e)
        self.action = []
        for b in range(n):
            rows = []
            for w in self.basis:
                img = algebra.times_basis(w, b)
                img = coords(img) if b in first and any(img) else \
                    [img[j] for j in pivots]
                rows.append([(c, x) for c, x in enumerate(img) if x])
            self.action.append(rows)
        add, mul = f.add, f.mul
        gens = algebra.radical_generators()
        self.radical = _Echelon(f, self.dim)
        for r in range(self.dim):
            for g in gens:
                # w_r * g = sum_b g_b (w_r * b), in the coordinates of e A
                row = zero_vec(f, self.dim)
                for gb, rows in zip(g, self.action):
                    if gb:
                        for c, x in rows[r]:
                            t = mul(gb, x)
                            o = row[c]
                            row[c] = add(o, t) if o else t
                self.radical.insert(row)


def _radical_times(algebra, e):
    """The nonzero products g e, g in G, formed once per algebra and
    idempotent (keyed like `_vertex_projective`)."""
    key = tuple(e)
    out = algebra._radical_times.get(key)
    if out is None:
        f = algebra.field
        out = algebra._radical_times[key] = [
            ge for ge in (algebra.mul(g, e)
                          for g in algebra.radical_generators())
            if not vec_is_zero(f, ge)]
    return out


def _vertex_projective(algebra, e):
    """e A, built once per algebra and idempotent.  The key is e's
    coordinates, not its index: an algebra's idempotents may be
    replaced after some e A was built."""
    key = tuple(e)
    block = algebra._projectives.get(key)
    if block is None:
        block = algebra._projectives[key] = _VertexProjective(algebra, e)
    return block


class ProjectiveModule(ModuleRep):
    """Direct sum of the indecomposable projectives e_{v_s} A, kept as
    the sparse actions of its slots: no dense action matrix is built
    unless `act` is asked for one."""

    def __init__(self, algebra, slots):
        self.algebra = algebra
        self.slots = list(slots)
        self.name = f"P({slots})"
        idems = algebra.ensure_idempotents()
        self._blocks = [_vertex_projective(algebra, idems[v])
                        for v in self.slots]
        self.slot_bases = [blk.basis for blk in self._blocks]
        offsets = [0]
        for blk in self._blocks:
            offsets.append(offsets[-1] + blk.dim)
        self.offsets = offsets
        self.dim = offsets[-1]
        self._entries = []
        for b in range(algebra.dim):
            entries = {}
            for blk, off in zip(self._blocks, offsets):
                for r, row in enumerate(blk.action[b]):
                    if row:
                        entries[off + r] = [(off + c, x) for c, x in row]
            self._entries.append(entries)

    def generator_row(self, s):
        """Coordinates of the slot-s generator e_{v_s}."""
        row = zero_vec(self.algebra.field, self.dim)
        row[self.offsets[s]:self.offsets[s + 1]] = self._blocks[s].generator
        return row

    def is_radical_valued(self, row):
        """Whether a row lies in P rad, the sum of the e_{v_s} rad."""
        return all(blk.radical.contains(row[lo:hi]) for blk, lo, hi in
                   zip(self._blocks, self.offsets, self.offsets[1:]))


def module_map_from_generators(proj, target, gen_images):
    """k-matrix (proj.dim x target.dim, row convention) of the A-map
    sending the slot generators to the given target rows."""
    # generator * w = basis row (s, r); its image is img * w
    rows = [target.apply(img, w)
            for base, img in zip(proj.slot_bases, gen_images) for w in base]
    return Mat._of(proj.algebra.field, rows, target.dim)


class Resolution:
    """Minimal projective resolution M <- P0 <- P1 <- P2 (right modules)."""

    def __init__(self, module):
        self.module = module
        algebra = module.algebra
        f = algebra.field
        self.terms = []          # ProjectiveModule per degree
        self.diffs = []          # k-matrices: diffs[0] = eps, diffs[d] = d_d
        self.kernels = []        # kernels[d] = ker(diffs[d]) rows in P_d
        self._homs = {}          # (degree, id(N)) -> (N, Hom_A(P_degree, N))

        target = module
        target_rows = None       # rows of the submodule being covered
        for degree in range(3):
            slots, gen_images = _cover_data(algebra, target, target_rows)
            proj = ProjectiveModule(algebra, slots)
            dmat = module_map_from_generators(proj, target, gen_images)
            self.terms.append(proj)
            self.diffs.append(dmat)
            ker = kernel_basis(dmat.transpose())
            ker = row_space_basis(f, ker)
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
            im = row_space_basis(f, [list(r) for r in self.diffs[d].data])
            ker = self.kernels[d - 1]
            if len(im) != len(ker):
                raise InternalInvariantError("resolution not exact")
        # minimality: every kernel lies in P_d rad.  For d < 2 this says
        # that the rows of d_{d+1}, which span ker d_d, land there; for
        # d = 2 that P_2 covers ker d_1 minimally
        for proj, ker in zip(self.terms, self.kernels):
            for row in ker:
                if not proj.is_radical_valued(row):
                    raise InternalInvariantError(
                        "resolution kernel not radical-valued (not minimal)")

    def homs(self, degree, target):
        """Basis of Hom_A(P_degree, target), built once per target: Ext^1
        and Ext^2 into the same module both read Hom(P_1, target)."""
        key = (degree, id(target))
        entry = self._homs.get(key)
        if entry is None:
            entry = self._homs[key] = (
                target, _hom_space_basis(self.terms[degree], target))
        return entry[1]

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
    submodule T (given by rows of the ambient target): per idempotent e,
    a basis of T e modulo T rad e = T (G e), where rad = A G."""
    f = algebra.field
    idems = algebra.ensure_idempotents()
    if target_rows is None:
        ambient_rows = [unit_vec(f, target.dim, i) for i in range(target.dim)]
    else:
        ambient_rows = target_rows
    slots = []
    gen_images = []
    for i, e in enumerate(idems):
        rows_e = row_space_basis(
            f, [target.apply(r, e) for r in ambient_rows])
        if not rows_e:
            continue
        rad_rows = row_space_basis(
            f, [target.apply(r, ge) for r in ambient_rows
                for ge in _radical_times(algebra, e)])
        reps = quotient_basis(f, rows_e, rad_rows, length=target.dim)
        for rep in reps:
            slots.append(i)
            gen_images.append(rep)
    return slots, gen_images


class ExtSpace:
    """Ext^degree(source, target) with explicit cochain representatives:
    `cocycles` is a basis of Z^degree modulo B^degree.  The echelons of
    the spans of Z and B, which only `is_cocycle` and `class_of` read,
    are built on first use."""

    def __init__(self, degree, source, target, resolution, cocycles,
                 z_basis=(), b_basis=()):
        self.degree = degree
        self.source = source
        self.target = target
        self.resolution = resolution
        self.cocycles = cocycles      # list of k-matrices P_degree -> target
        self.dimension = len(cocycles)
        self._z_basis = z_basis       # k-matrices spanning Z^degree
        self._b_basis = b_basis       # k-matrices spanning B^degree

    @functools.cached_property
    def _z_ech(self):
        return _echelon_of(self.target.algebra.field, self._z_basis)

    @functools.cached_property
    def _boundary_ech(self):
        return _echelon_of(self.target.algebra.field, self._b_basis)

    def class_of(self, cochain_matrix):
        """Coordinates of a cocycle's class in the chosen basis."""
        f = self.target.algebra.field
        vec = cochain_matrix.flat()
        reduced = self._boundary_ech.reduce(vec)
        reps = [self._boundary_ech.reduce(c.flat()) for c in self.cocycles]
        coeffs = Span(f, reps, len(vec)).coords(reduced)
        if coeffs is None:
            raise InternalInvariantError(
                "cochain is not a cocycle modulo boundaries")
        return coeffs

    def is_cocycle(self, cochain_matrix):
        vec = cochain_matrix.flat()
        return self._z_ech.contains(vec)


def _echelon_of(field, mats):
    flats = [m.flat() for m in mats]
    ech = _Echelon(field, len(flats[0]) if flats else 0)
    for v in flats:
        ech.insert(v)
    return ech


def _hom_space_basis(proj, target):
    """Basis of Hom_A(proj, target): per slot, rows of target*e_{v}."""
    f = proj.algebra.field
    idems = proj.algebra.ensure_idempotents()
    out = []
    for s, v in enumerate(proj.slots):
        rows = row_space_basis(f, target.act(idems[v]).data)
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
        return ExtSpace(degree, source, target, None, [])
    res = resolution or Resolution(source)
    proj = res.terms[degree]
    if proj.dim == 0 or target.dim == 0:
        return ExtSpace(degree, source, target, res, [])
    hom_basis = res.homs(degree, target)
    if target.killed_by_radical():
        # Z = Hom and B = 0, as the module docstring proves
        return ExtSpace(degree, source, target, res, list(hom_basis),
                        hom_basis)

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
    prev_homs = res.homs(degree - 1, target)
    b_basis = [res.diffs[degree].mul(phi) for phi in prev_homs]

    reps_flat = quotient_basis(f, [m.flat() for m in z_basis],
                               [m.flat() for m in b_basis],
                               length=proj.dim * target.dim)
    rep_mats = [Mat.of_flat(f, vec, proj.dim, target.dim)
                for vec in reps_flat]
    return ExtSpace(degree, source, target, res, rep_mats, z_basis, b_basis)


def _lift_through(proj, target_res, rhs_rows, depth):
    """Per-slot lift: images y_s in (target term_depth) * e_{v_s} with
    y_s . D = rhs_s, where D is the depth-differential of target_res."""
    f = proj.algebra.field
    term = target_res.terms[depth]
    dmat = target_res.diffs[depth]
    idems = proj.algebra.ensure_idempotents()
    images = []
    for s, v in enumerate(proj.slots):
        sub_rows = row_space_basis(
            f, [term.apply(unit_vec(f, term.dim, i), idems[v])
                for i in range(term.dim)])
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
