"""The ringed space aSpec A on finite point sets.

Points are spectral modules (all simples in the split scope plus any
user-declared ones); the topology is generated by the injectivity loci
D(f); sections over an open are the O-algebra of its point family, and
restriction maps come from the universal property (rho_U(a) -> rho_V(a),
with the kernel inclusion verified rather than assumed).
"""

from __future__ import annotations

from .errors import (
    InputError,
    InternalInvariantError,
    UnsupportedAlgebraError,
    ValidationError,
)
from .hull import hull, o_algebra
from .linalg import Mat, Span, kernel_basis, rank, row_space_basis, unit_vec
from .modules import (
    ModuleRep,
    SpectralPoint,
    check_algebra_map,
    is_isomorphic,
    is_simple,
    simple_modules,
)
from .polyring import PointModule, PolyOAlgebra, is_poly_ring


class SectionData:
    """Sections over one open: a finite-dimensional O-algebra (or zero)."""

    def __init__(self, kind, o, point_indices):
        self.kind = kind          # "findim" | "poly" | "zero"
        self.o = o
        self.point_indices = point_indices

    @property
    def dim(self):
        return 0 if self.kind == "zero" else self.o.dim


class StalkData:
    """Stalk at a finite point set with its comparison to O^A(P)."""

    def __init__(self, subset, minimal_open, stalk_sections, direct_sections,
                 comparison_is_iso):
        self.subset = subset
        self.minimal_open = minimal_open
        self.stalk_sections = stalk_sections
        self.direct_sections = direct_sections
        self.comparison_is_iso = comparison_is_iso


class ASpecSpace:
    """aSpec A restricted to an explicit finite set of spectral points."""

    def __init__(self, algebra, points, extra_elements=(), order=None):
        self.algebra = algebra
        self.points = list(points)
        if not self.points:
            raise InputError("aSpec needs at least one point")
        self.order = order
        self.extra_elements = [list(e) for e in extra_elements]
        self._sections_cache = {}
        self._restriction_cache = {}
        self._subbasis = None
        self._opens = None

    # -- topology ----------------------------------------------------------

    def d_set(self, elem):
        """Indices of points on which elem acts injectively."""
        out = []
        for idx, pt in enumerate(self.points):
            mat = pt.module.act(elem)
            if rank(mat) == mat.rows:
                out.append(idx)
        return frozenset(out)

    def subbasis_elements(self):
        if is_poly_ring(self.algebra):
            f = self.algebra.field
            elems = [[f.zero, f.one]]       # x
            # separators: prod_{j != i} (x - a_j)
            for i in range(len(self.points)):
                poly = [f.one]
                for j, pt in enumerate(self.points):
                    if j == i:
                        continue
                    poly = self.algebra.mul(
                        poly, [f.neg(pt.module.point), f.one])
                elems.append(poly)
            return elems + self.extra_elements
        elems = [list(self.algebra.basis_vector(i))
                 for i in range(self.algebra.dim)]
        # the primitive idempotents separate the vertex simples; they are
        # honest elements of A even when the chosen basis is monomial
        try:
            elems.extend([list(e) for e in self.algebra.ensure_idempotents()])
        except UnsupportedAlgebraError:
            pass
        return elems + self.extra_elements

    def subbasis(self):
        if self._subbasis is None:
            sets = {self.d_set(e) for e in self.subbasis_elements()}
            self._subbasis = sorted(sets, key=lambda s: (len(s), sorted(s)))
        return self._subbasis

    def opens(self):
        """The full open-set lattice, deterministically ordered."""
        if self._opens is not None:
            return self._opens
        base = set(self.subbasis())
        # finite intersections
        changed = True
        inter_closed = set(base) | {frozenset(range(len(self.points)))}
        while changed:
            changed = False
            for a in list(inter_closed):
                for b in list(inter_closed):
                    c = a & b
                    if c not in inter_closed:
                        inter_closed.add(c)
                        changed = True
        # arbitrary (finite) unions
        opens = set(inter_closed) | {frozenset()}
        changed = True
        while changed:
            changed = False
            for a in list(opens):
                for b in list(opens):
                    c = a | b
                    if c not in opens:
                        opens.add(c)
                        changed = True
        opens.add(frozenset(range(len(self.points))))
        self._opens = sorted(opens, key=lambda s: (len(s), sorted(s)))
        return self._opens

    def is_open(self, subset):
        return frozenset(subset) in set(self.opens())

    def closed_points_report(self):
        """Which simple points have open complement."""
        all_pts = frozenset(range(len(self.points)))
        report = {}
        opens = set(self.opens())
        for idx, pt in enumerate(self.points):
            if not is_simple_point(pt):
                continue
            report[idx] = (all_pts - {idx}) in opens
        return report

    # -- sections ----------------------------------------------------------

    def sections(self, subset):
        key = frozenset(subset)
        if key not in self._sections_cache:
            if not self.is_open(key):
                raise InputError("sections requested on a non-open subset")
            self._sections_cache[key] = self._sections_for(key)
        return self._sections_cache[key]

    def family_o_algebra(self, subset):
        """O^A of an arbitrary finite point subset (not necessarily open)."""
        key = frozenset(subset)
        if not key:
            return SectionData("zero", None, key)
        idxs = sorted(key)
        if is_poly_ring(self.algebra):
            pts = [self.points[i].module for i in idxs]
            o = PolyOAlgebra(self.algebra, pts, self.order or 4)
            return SectionData("poly", o, key)
        fam = [self.points[i].module for i in idxs]
        tower, ohat = hull(self.algebra, fam, self.order)
        return SectionData("findim", o_algebra(ohat), key)

    def _sections_for(self, key):
        return self.family_o_algebra(key)

    def sections_simples_only(self, subset):
        """The presheaf limit taken over simple points only (reported
        alongside the all-points version; the definitions differ on
        spaces with non-simple spectral points)."""
        simple_idx = frozenset(i for i in subset
                               if is_simple_point(self.points[i]))
        if not simple_idx:
            return SectionData("zero", None, frozenset())
        return self.family_o_algebra(simple_idx)

    # -- restriction maps ----------------------------------------------------

    def restriction(self, bigger, smaller):
        key = (frozenset(bigger), frozenset(smaller))
        if key in self._restriction_cache:
            return self._restriction_cache[key]
        if not frozenset(smaller) <= frozenset(bigger):
            raise InputError("restriction needs nested opens")
        sec_u = self.sections(bigger)
        sec_v = self.sections(smaller)
        mat = restriction_matrix(self.algebra, sec_u, sec_v)
        self._restriction_cache[key] = mat
        return mat

    # -- the sheaf (compatible families over minimal neighborhoods) ---------

    def minimal_neighborhood(self, idx):
        out = frozenset(range(len(self.points)))
        for u in self.opens():
            if idx in u:
                out = out & u
        return out

    def sheaf_sections(self, subset):
        """The sheafified sections over an open: families (s_x), x in U,
        with s_x in O(U_x), compatible on intersections of the minimal
        neighborhoods.  Returns (basis rows, per-point offsets)."""
        key = ("sheaf", frozenset(subset))
        if key in self._sections_cache:
            return self._sections_cache[key]
        u = frozenset(subset)
        if not self.is_open(u):
            raise InputError("sheaf sections on a non-open subset")
        f = self.base_field()
        idxs = sorted(u)
        neigh = {x: self.minimal_neighborhood(x) for x in idxs}
        dims = [self.sections(neigh[x]).dim for x in idxs]
        offsets = [0]
        for d in dims:
            offsets.append(offsets[-1] + d)
        total = offsets[-1]
        pair_rows = []
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                inter = neigh[idxs[a]] & neigh[idxs[b]]
                ra = self.restriction(neigh[idxs[a]], inter)
                rb = self.restriction(neigh[idxs[b]], inter)
                for col in range(ra.cols):
                    row = [f.zero] * total
                    for i in range(dims[a]):
                        row[offsets[a] + i] = ra.data[i][col]
                    for i in range(dims[b]):
                        row[offsets[b] + i] = f.sub(row[offsets[b] + i],
                                                    rb.data[i][col])
                    pair_rows.append(row)
        if total == 0:
            basis = []
        elif pair_rows:
            basis = kernel_basis(Mat(f, pair_rows, cols=total))
            basis = row_space_basis(f, basis, length=total)
        else:
            basis = [unit_vec(f, total, i) for i in range(total)]
        out = {"basis": basis, "offsets": offsets, "indices": idxs,
               "total": total}
        self._sections_cache[key] = out
        return out

    def sheaf_restriction(self, bigger, smaller):
        """Coordinate projection of compatible families, in the bases."""
        f = self.base_field()
        su = self.sheaf_sections(bigger)
        sv = self.sheaf_sections(smaller)
        span = Span(f, sv["basis"], sv["total"])
        rows = []
        for vec in su["basis"]:
            proj = []
            for pos, x in enumerate(sv["indices"]):
                upos = su["indices"].index(x)
                width = su["offsets"][upos + 1] - su["offsets"][upos]
                proj.extend(vec[su["offsets"][upos]:
                                su["offsets"][upos] + width])
            coeffs = span.coords(proj)
            if coeffs is None:
                raise InternalInvariantError(
                    "projected family is not compatible")
            rows.append(coeffs)
        return Mat(f, rows, cols=len(sv["basis"]))

    def base_field(self):
        return self.algebra.field

    def presheaf_is_sheaf_on(self, u, family):
        """Do locality and gluing hold for the raw presheaf on a cover?"""
        ok, why = self._check_cover_generic(
            u, family,
            lambda s: self.sections(s).dim,
            lambda a, b: self.restriction(a, b))
        return ok, why

    def sheafify_check(self, max_points=3):
        """Locality and gluing for the sheaf on every cover of every
        open (exhaustive; capped).  The raw presheaf's failures are
        reported separately as findings, not errors."""
        if len(self.points) > max_points:
            raise InputError(
                f"exhaustive cover enumeration capped at {max_points} points")
        failures = []
        presheaf_findings = []
        opens = self.opens()
        for u in opens:
            proper = [v for v in opens if v < u]
            covers = []
            for mask in range(1, 2 ** len(proper)):
                family = [proper[t] for t in range(len(proper))
                          if mask & (1 << t)]
                if frozenset().union(*family) == u:
                    covers.append(family)
            covers.append([u])
            for family in covers:
                ok, why = self._check_cover_generic(
                    u, family,
                    lambda s: len(self.sheaf_sections(s)["basis"]),
                    lambda a, b: self.sheaf_restriction(a, b))
                if not ok:
                    failures.append({"open": sorted(u),
                                     "cover": [sorted(v) for v in family],
                                     "why": why})
                pok, pwhy = self.presheaf_is_sheaf_on(u, family)
                if not pok:
                    presheaf_findings.append(
                        {"open": sorted(u),
                         "cover": [sorted(v) for v in family],
                         "why": pwhy})
        return {"passed": not failures, "failures": failures,
                "presheaf_findings": presheaf_findings}

    def _check_cover_generic(self, u, family, dim_of, res_of):
        f = self.base_field()
        dim_u = dim_of(u)
        res_mats = [res_of(u, v) for v in family]
        dims = [dim_of(v) for v in family]
        total = sum(dims)
        offsets = [0]
        for d in dims:
            offsets.append(offsets[-1] + d)
        # locality: the joint restriction map is injective
        if dim_u:
            rows = []
            for i in range(dim_u):
                row = []
                for m in res_mats:
                    row.extend(m.data[i])
                rows.append(row)
            big = Mat(f, rows, cols=total)
            if len(kernel_basis(big.transpose())) != 0:
                return False, "locality fails"
        # gluing: image = the compatible-family space
        pair_rows = []
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                inter = family[a] & family[b]
                ra = res_of(family[a], inter)
                rb = res_of(family[b], inter)
                for col in range(ra.cols):
                    row = [f.zero] * total
                    for i in range(dims[a]):
                        row[offsets[a] + i] = ra.data[i][col]
                    for i in range(dims[b]):
                        row[offsets[b] + i] = f.sub(row[offsets[b] + i],
                                                    rb.data[i][col])
                    pair_rows.append(row)
        if total == 0:
            return (dim_u == 0), ("" if dim_u == 0 else "gluing fails")
        if pair_rows:
            compat = kernel_basis(Mat(f, pair_rows, cols=total))
        else:
            compat = [unit_vec(f, total, i) for i in range(total)]
        compat_dim = len(row_space_basis(f, compat, length=total))
        images = []
        for i in range(dim_u):
            row = []
            for m in res_mats:
                row.extend(m.data[i])
            images.append(row)
        img_dim = len(row_space_basis(f, images, length=total)) if images \
            else 0
        if img_dim != dim_u:
            return False, "locality fails (restriction map not injective)"
        if img_dim != compat_dim:
            return False, "gluing fails"
        joined = row_space_basis(f, compat + images, length=total)
        if len(joined) != compat_dim:
            return False, "restrictions are not compatible"
        return True, ""

    # -- stalks ----------------------------------------------------------------

    def minimal_open_containing(self, subset):
        subset = frozenset(subset)
        out = frozenset(range(len(self.points)))
        for u in self.opens():
            if subset <= u:
                out = out & u
        return out

    def stalk(self, subset):
        subset = frozenset(subset)
        if not subset <= frozenset(range(len(self.points))):
            raise InputError("stalk at unknown points")
        u0 = self.minimal_open_containing(subset)
        stalk_sections = self.sections(u0)
        direct = self.family_o_algebra(subset)
        iso = compare_section_algebras(self.algebra, stalk_sections, direct)
        return StalkData(subset, u0, stalk_sections, direct, iso)


def is_simple_point(pt):
    if isinstance(pt.module, PointModule):
        return True
    if not hasattr(pt, "_is_simple"):
        pt._is_simple = is_simple(pt.module)
    return pt._is_simple


def space_of_simples(algebra, extra_elements=(), order=None):
    pts = [SpectralPoint(m, provenance="simple", name=m.name)
           for m in simple_modules(algebra)]
    return ASpecSpace(algebra, pts, extra_elements=extra_elements,
                      order=order)


def _rho_flats(algebra, sec):
    """Images of the algebra basis in the section algebra, as coords."""
    out = []
    for i in range(algebra.dim):
        out.append(sec.o.rho_coords(list(algebra.basis_vector(i))))
    return out


def restriction_matrix(algebra, sec_u, sec_v):
    """O(U) -> O(V) from the universal property: rho_U(a) -> rho_V(a)."""
    f = algebra.field if not is_poly_ring(algebra) else algebra.field
    if sec_v.kind == "zero":
        return Mat.zeros(f, sec_u.dim, 0)
    if sec_u.kind == "zero":
        raise InputError("no restriction from the empty open to a nonempty one")
    if sec_u.kind == "poly":
        # coordinate projection onto the surviving points
        idx_u = sorted(sec_u.point_indices)
        idx_v = sorted(sec_v.point_indices)
        order = sec_u.o.order
        m = Mat.zeros(f, sec_u.dim, sec_v.dim)
        for vpos, pidx in enumerate(idx_v):
            upos = idx_u.index(pidx)
            for s in range(order + 1):
                m.data[upos * (order + 1) + s][vpos * (order + 1) + s] = f.one
        return m
    return _universal_map(f, _rho_flats(algebra, sec_u),
                          _rho_flats(algebra, sec_v), sec_u.dim, sec_v.dim,
                          "restriction")


def _universal_map(field, src, dst, src_dim, dst_dim, name):
    """O_src -> O_dst from the universal property, rho_src(a) -> rho_dst(a).

    src[k] and dst[k] are the coordinates of the images of the same
    algebra element a_k.  Raises when the map is not well defined
    (ker(rho_src) escapes ker(rho_dst)) or rho_src does not span.
    Returns the matrix in the row convention.
    """
    f = field
    span = Span(f, src, src_dim)

    def image(coeffs):
        out = [f.zero] * dst_dim
        for c, row in zip(coeffs, dst):
            if not f.is_zero(c):
                out = [f.add(x, f.mul(c, y)) for x, y in zip(out, row)]
        return out

    # ker(rho_src) is spanned by e_k - coords(src[k]), one per src[k]
    # that depends on the earlier ones
    for v, w in zip(src, dst):
        if image(span.coords(v)) != list(w):
            raise InternalInvariantError(
                f"{name} is not well defined: ker(rho) of the source "
                "escapes ker(rho) of the target")
    rows = []
    for i in range(src_dim):
        coeffs = span.coords(unit_vec(f, src_dim, i))
        if coeffs is None:
            raise InternalInvariantError(
                f"{name}: rho does not span the source sections")
        rows.append(image(coeffs))
    return Mat(f, rows, cols=dst_dim)


def compare_section_algebras(algebra, sec_a, sec_b):
    """Canonical-map isomorphism check between two section algebras of
    the same base: dimension equality plus bijectivity."""
    if sec_a.kind == "zero" or sec_b.kind == "zero":
        return sec_a.dim == sec_b.dim
    if sec_a.dim != sec_b.dim:
        return False
    try:
        mat = restriction_matrix(algebra, sec_a, sec_b)
    except InternalInvariantError:
        return False
    return rank(mat) == sec_a.dim


# -- morphisms of spaces -----------------------------------------------------


def aspec_morphism(phi_rows, source_algebra, target_algebra, space):
    """aSpec(phi) for phi: B -> A: restrict every point of the space
    over A to a B-module; returns the point map, the target space, and
    the per-open section maps (verified to commute with restrictions).

    phi_rows: image of each B-basis vector in A (list of coordinate
    rows).  The paper's diagram convention: a map B -> A induces
    aSpec A -> aSpec B by restriction of scalars.
    """
    A = target_algebra
    B = source_algebra
    apply = check_algebra_map(phi_rows, B, A)
    f = B.field
    restricted = []
    for pt in space.points:
        mats = [pt.module.act(apply(B.basis_vector(i)))
                for i in range(B.dim)]
        restricted.append(ModuleRep(B, mats, name=f"{pt.name}|B"))
    # dedupe isomorphic restricted points
    reps = []
    point_map = []
    for m in restricted:
        found = None
        for ridx, r in enumerate(reps):
            if is_isomorphic(m, r):
                found = ridx
                break
        if found is None:
            reps.append(m)
            found = len(reps) - 1
        point_map.append(found)
    target_points = [SpectralPoint(m, provenance="contraction",
                                   witness={"along": phi_rows}, name=m.name)
                     for m in reps]
    target_space = ASpecSpace(B, target_points, order=space.order)
    # continuity: the preimage of every subbasis D_B(g) is D_A(phi(g))
    for g in target_space.subbasis_elements():
        img_set = target_space.d_set(g)
        preimage = frozenset(i for i in range(len(space.points))
                             if point_map[i] in img_set)
        direct = space.d_set(apply(g))
        if preimage != direct:
            raise InternalInvariantError(
                "continuity fails: preimage of D_B(g) is not D_A(phi(g))")
        if not space.is_open(preimage):
            raise InternalInvariantError("preimage of a subbasis set not open")
    # section maps on matching opens
    section_maps = {}
    for v in target_space.opens():
        u = frozenset(i for i in range(len(space.points))
                      if point_map[i] in v)
        if not space.is_open(u):
            raise InternalInvariantError("preimage of an open is not open")
        sec_v = target_space.sections(v)
        sec_u = space.sections(u)
        if sec_v.kind == "zero":
            section_maps[v] = Mat.zeros(f, 0, sec_u.dim)
            continue
        if sec_u.kind == "zero":
            raise InternalInvariantError(
                "nonempty target open with empty preimage sections")
        flats_b = [sec_v.o.rho_coords(list(B.basis_vector(i)))
                   for i in range(B.dim)]
        flats_a = [sec_u.o.rho_coords(list(apply(B.basis_vector(i))))
                   for i in range(B.dim)]
        section_maps[v] = _universal_map(f, flats_b, flats_a, sec_v.dim,
                                         sec_u.dim, "section map")
    # compatibility with restrictions on nested opens
    for v in target_space.opens():
        for w in target_space.opens():
            if not (w < v):
                continue
            u_v = frozenset(i for i in range(len(space.points))
                            if point_map[i] in v)
            u_w = frozenset(i for i in range(len(space.points))
                            if point_map[i] in w)
            left = target_space.restriction(v, w).mul(section_maps[w])
            right = section_maps[v].mul(space.restriction(u_v, u_w))
            if left != right:
                raise InternalInvariantError(
                    "section maps do not commute with restrictions")
    return point_map, target_space, section_maps


# -- commutative Spec comparison ---------------------------------------------


def spec_compare(algebra, order=None, points=None):
    """aSpec A versus Spec A for commutative A (univariate quotients,
    idempotent-split products, and the k[x] path)."""
    if is_poly_ring(algebra):
        return _spec_compare_poly(algebra, points, order or 4)
    if not algebra.is_commutative():
        raise InputError("spec_compare needs a commutative algebra")
    if getattr(algebra, "poly_data", None) and \
            len(algebra.poly_data["vars"]) == 1:
        return _spec_compare_univariate(algebra, order)
    return _spec_compare_split(algebra, order)


def _spec_compare_univariate(algebra, order):
    from .polyquot import factor_univariate

    f = algebra.field
    gens = algebra.poly_data["groebner"]
    if len(gens) != 1:
        raise InputError("defining ideal is not principal")
    poly = gens[0][0]
    coeffs = [f.zero] * (max(m[0] for m in poly) + 1)
    for mono, c in poly.items():
        coeffs[mono[0]] = c
    factors = factor_univariate(f, coeffs)
    # Spec side: one prime per irreducible factor; localizations by CRT
    spec_points = []
    for g, e in factors:
        spec_points.append({"factor": g, "multiplicity": e})
    # point modules k[x]/(g) with x acting by the companion structure
    pts = []
    separators = []
    for i, (g, e) in enumerate(factors):
        mod = _quotient_point_module(algebra, g, name=f"P{i + 1}")
        pts.append(SpectralPoint(mod, provenance="contraction",
                                 witness={"factor": g, "power": e},
                                 name=mod.name))
        h = [f.one]
        ring_mul = _poly_mul_factory(f)
        for j, (g2, e2) in enumerate(factors):
            if j == i:
                continue
            for _ in range(e2):
                h = ring_mul(h, g2)
        separators.append(_poly_in_algebra(algebra, h))
    if any(len(g) > 2 for g, _e in factors) and \
            any(e > 1 for _g, e in factors):
        raise UnsupportedAlgebraError(
            "mixed non-split and nilpotent factors: stalks need either a "
            "split or a semisimple algebra in this scope")
    space = ASpecSpace(algebra, pts, extra_elements=separators, order=order)
    opens = space.opens()
    discrete = len(opens) == 2 ** len(pts)
    stalk_matches = []
    for i, (g, e) in enumerate(factors):
        sd = space.stalk({i})
        loc_dim = (len(g) - 1) * e
        ge = [f.one]
        ring_mul = _poly_mul_factory(f)
        for _ in range(e):
            ge = ring_mul(ge, g)
        loc_kernel = _ideal_kernel(algebra, ge)
        if sd.direct_sections.kind == "zero":
            stalk_matches.append(False)
            continue
        rho_flats = _rho_flats(algebra, sd.direct_sections)
        mat = Mat(f, [[rho_flats[a][t] for a in range(algebra.dim)]
                      for t in range(sd.direct_sections.dim)],
                  cols=algebra.dim)
        rho_kernel = row_space_basis(f, kernel_basis(mat),
                                     length=algebra.dim)
        same_kernel = _same_span(f, rho_kernel, loc_kernel, algebra.dim)
        stalk_matches.append(
            sd.direct_sections.dim == loc_dim and same_kernel
            and sd.comparison_is_iso)
    return {
        "points_match": len(pts) == len(spec_points),
        "topology_discrete": discrete,
        "stalks_match": all(stalk_matches),
        "stalk_details": stalk_matches,
        "factors": [(g, e) for g, e in factors],
        "passed": len(pts) == len(spec_points) and discrete
        and all(stalk_matches),
    }


def _spec_compare_split(algebra, order):
    idems = algebra.ensure_idempotents()
    f = algebra.field
    simples = simple_modules(algebra)
    space = space_of_simples(algebra, order=order)
    opens = space.opens()
    discrete = len(opens) == 2 ** len(simples)
    stalk_matches = []
    for i, e in enumerate(idems):
        sd = space.stalk({i})
        # localization A_i = e_i A (commutative: a direct factor)
        rows = [algebra.mul(e, algebra.basis_vector(b))
                for b in range(algebra.dim)]
        loc_dim = len(row_space_basis(f, rows, length=algebra.dim))
        stalk_matches.append(sd.direct_sections.dim == loc_dim
                             and sd.comparison_is_iso)
    return {
        "points_match": len(simples) == len(idems),
        "topology_discrete": discrete,
        "stalks_match": all(stalk_matches),
        "passed": len(simples) == len(idems) and discrete
        and all(stalk_matches),
    }


def _spec_compare_poly(ring, points, order):
    if not points:
        raise InputError("the k[x] comparison needs user-supplied points")
    f = ring.field
    pts = [SpectralPoint(p, provenance="user-declared", name=p.name)
           if not isinstance(p, SpectralPoint) else p for p in points]
    space = ASpecSpace(ring, pts, order=order)
    opens = space.opens()
    discrete = len(opens) == 2 ** len(pts)
    stalk_matches = []
    for i, pt in enumerate(pts):
        sd = space.stalk({i})
        ok = sd.direct_sections.dim == order + 1 and sd.comparison_is_iso
        if ok:
            # the jet map must kill exactly (x - a)^{order+1} at low degree
            a = pt.module.point
            power = [f.one]
            for _ in range(order + 1):
                power = ring.mul(power, [f.neg(a), f.one])
            ok = all(f.is_zero(c) for c in
                     sd.direct_sections.o.rho_coords(power))
        stalk_matches.append(ok)
    return {
        "points_match": True,
        "topology_discrete": discrete,
        "stalks_match": all(stalk_matches),
        "passed": discrete and all(stalk_matches),
    }


def _quotient_point_module(algebra, g, name):
    """k[x]/(g) as a module over a univariate quotient algebra."""
    f = algebra.field
    d = len(g) - 1
    monos = algebra.poly_data["monomials"]
    # multiplication-by-x matrix on basis 1, x, ..., x^{d-1} mod g
    xmat = Mat.zeros(f, d, d)
    for r in range(d):
        if r + 1 < d:
            xmat.data[r][r + 1] = f.one
        else:
            for c in range(d):
                xmat.data[r][c] = f.neg(g[c])
    mats = []
    power = Mat.identity(f, d)
    powers = {0: power}
    for s in range(1, max(m[0] for m in monos) + 1):
        powers[s] = powers[s - 1].mul(xmat)
    for m in monos:
        mats.append(powers[m[0]])
    return ModuleRep(algebra, mats, name=name)


def _poly_mul_factory(field):
    def mul(p, q):
        out = [field.zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] = field.add(out[i + j], field.mul(a, b))
        return out
    return mul


def _poly_in_algebra(algebra, coeffs):
    """Image of a polynomial in a univariate quotient algebra."""
    f = algebra.field
    monos = algebra.poly_data["monomials"]
    gens = algebra.poly_data["groebner"]
    from .polyquot import poly_reduce
    poly = {(i,): c for i, c in enumerate(coeffs) if not f.is_zero(c)}
    red = poly_reduce(f, poly, gens)
    index = {m: i for i, m in enumerate(monos)}
    vec = [f.zero] * algebra.dim
    for m, c in red.items():
        vec[index[m]] = c
    return vec


def _ideal_kernel(algebra, ge_coeffs):
    """Basis of the ideal (g^e) inside a univariate quotient algebra."""
    f = algebra.field
    gen = _poly_in_algebra(algebra, ge_coeffs)
    rows = [algebra.mul(gen, algebra.basis_vector(b))
            for b in range(algebra.dim)]
    return row_space_basis(f, rows, length=algebra.dim)


def _same_span(field, a, b, length):
    if len(a) != len(b):
        return False
    joined = row_space_basis(field, [list(v) for v in a] +
                             [list(v) for v in b], length=length)
    return len(joined) == len(a)


# -- global sections roundtrip -------------------------------------------------


def global_sections_roundtrip(space):
    """X ~ aSpec(O_X(X)): rebuild the space over the global sections and
    match points, opens, and section algebras."""
    algebra = space.algebra
    if is_poly_ring(algebra):
        raise InputError("roundtrip is for finite-dimensional spaces")
    f = algebra.field
    whole = frozenset(range(len(space.points)))
    sec = space.sections(whole)
    g_alg = sec.o.as_algebra()
    idems = []
    for e in algebra.ensure_idempotents():
        coords = sec.o.rho_coords(list(e))
        if coords is None:
            raise InternalInvariantError("rho(idempotent) escapes O_X(X)")
        idems.append(coords)
    try:
        g_alg.validate_idempotents(idems)
        g_alg.idempotents = idems
    except ValidationError:
        pass
    new_space = space_of_simples(g_alg, order=space.order)
    # match original points with simples of G via the block actions
    basis_elems = sec.o.basis_elements()
    matches = {}
    for i in range(len(space.points)):
        mats = [sec.o.block_action(i, e) for e in basis_elems]
        mod = ModuleRep(g_alg, mats, name=f"P{i}", validate=True)
        found = None
        for j, s in enumerate(new_space.points):
            if is_isomorphic(mod, s.module):
                found = j
                break
        if found is None or found in matches.values():
            return {"passed": False, "reason": "points do not biject"}
        matches[i] = found
    if len(matches) != len(new_space.points):
        return {"passed": False, "reason": "point counts differ"}
    # topologies correspond under the bijection
    mapped = {frozenset(matches[i] for i in u) for u in space.opens()}
    if mapped != set(new_space.opens()):
        return {"passed": False, "reason": "open lattices differ"}
    # sections isomorphic on matching opens (global case via res . rho_G)
    for u in space.opens():
        v = frozenset(matches[i] for i in u)
        sec_u = space.sections(u)
        sec_v = new_space.sections(v)
        if sec_u.dim != sec_v.dim:
            return {"passed": False, "reason": "section dims differ",
                    "open": sorted(u)}
        if sec_u.kind == "zero":
            continue
        # map O_G(V) -> O_A(U): rho_G(g) -> res^X_U(g)
        res = space.restriction(whole, u)
        flats_g = [sec_v.o.rho_coords(list(g_alg.basis_vector(t)))
                   for t in range(g_alg.dim)]
        flats_a = [list(res.data[t]) for t in range(g_alg.dim)]
        try:
            mat = _universal_map(f, flats_g, flats_a, sec_v.dim, sec_u.dim,
                                 "comparison map")
        except InternalInvariantError as exc:
            return {"passed": False, "reason": str(exc), "open": sorted(u)}
        if rank(mat) != sec_u.dim:
            return {"passed": False, "reason": "sections not isomorphic",
                    "open": sorted(u)}
    return {"passed": True, "points": len(space.points),
            "global_dim": sec.dim}
