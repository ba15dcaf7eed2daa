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
)
from .hull import ExtData, base_algebra_of, hull, o_algebra
from .linalg import (
    Mat,
    Span,
    _combination,
    kernel_basis,
    rank,
    row_space_basis,
    unit_vec,
)
from .modules import (
    ModuleRep,
    QuotientModuleRep,
    SpectralPoint,
    check_algebra_map,
    is_isomorphic,
    regular_module,
    simple_modules,
)
from .polyquot import factor_univariate, poly_reduce
from .polyring import PolyOAlgebra, is_poly_ring


# Most points on which sheafify_check enumerates every cover of every
# open; the number of covers grows doubly exponentially with the points.
SHEAF_CHECK_MAX_POINTS = 3


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
        self._ext_data = None     # shared by every hull of the space
        self._subbasis = None
        self._opens = None

    def at_order(self, order):
        """The same points at another truncation order; its hulls read
        this space's Ext store."""
        other = ASpecSpace(self.algebra, self.points, self.extra_elements,
                           order)
        other._ext_data = self._store()
        return other

    def _store(self):
        if self._ext_data is None:
            self._ext_data = ExtData(self.algebra)
        return self._ext_data

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

    # -- sections ----------------------------------------------------------

    def sections(self, subset):
        key = frozenset(subset)
        if not self.is_open(key):
            raise InputError("sections requested on a non-open subset")
        return self.family_o_algebra(key)

    def family_o_algebra(self, subset):
        """O^A of an arbitrary finite point subset (not necessarily open),
        built once per subset; the only place the space builds a hull."""
        key = frozenset(subset)
        if key in self._sections_cache:
            return self._sections_cache[key]
        fam = [self.points[i].module for i in sorted(key)]
        if not fam:
            sec = SectionData("zero", None, key)
        elif is_poly_ring(self.algebra):
            sec = SectionData("poly", PolyOAlgebra(self.algebra, fam,
                                                   self.order or 4), key)
        else:
            tower, ohat = hull(self.algebra, fam, self.order, self._store())
            sec = SectionData("findim", o_algebra(ohat), key)
        self._sections_cache[key] = sec
        return sec

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
        pair_rows = _compatibility_rows(
            f, [neigh[x] for x in idxs], dims, self.restriction)
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
        key = ("sheaf", frozenset(bigger), frozenset(smaller))
        if key in self._restriction_cache:
            return self._restriction_cache[key]
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
        mat = Mat(f, rows, cols=len(sv["basis"]))
        self._restriction_cache[key] = mat
        return mat

    def base_field(self):
        return self.algebra.field

    def presheaf_is_sheaf_on(self, u, family):
        """Do locality and gluing hold for the raw presheaf on a cover?"""
        ok, why = self._check_cover_generic(
            u, family,
            lambda s: self.sections(s).dim,
            lambda a, b: self.restriction(a, b))
        return ok, why

    def sheafify_check(self):
        """Locality and gluing for the sheaf on every cover of every
        open (exhaustive; capped at SHEAF_CHECK_MAX_POINTS points)."""
        if len(self.points) > SHEAF_CHECK_MAX_POINTS:
            raise InputError("exhaustive cover enumeration capped at "
                             f"{SHEAF_CHECK_MAX_POINTS} points")
        failures = []
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
        return {"passed": not failures, "failures": failures}

    def _check_cover_generic(self, u, family, dim_of, res_of):
        f = self.base_field()
        dim_u = dim_of(u)
        res_mats = [res_of(u, v) for v in family]
        dims = [dim_of(v) for v in family]
        total = sum(dims)
        # row i: the restrictions of the i-th section over u to the cover
        images = Mat(f, [[x for m in res_mats for x in m.data[i]]
                         for i in range(dim_u)], cols=total)
        # locality: the joint restriction map is injective
        if rank(images) != dim_u:
            return False, "locality fails"
        # gluing: the image is the space of compatible families, the
        # kernel of the pair rows; of equal dimension, it is that kernel
        # iff every pair row kills it
        pairs = Mat(f, _compatibility_rows(f, family, dims, res_of),
                    cols=total)
        if dim_u != total - rank(pairs):
            return False, "gluing fails"
        if not pairs.mul(images.transpose()).is_zero():
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


def _compatibility_rows(field, opens, dims, res_of):
    """Rows cutting out the compatible families in the direct sum of the
    sections over `opens` (dims[a] = dim of the sections over opens[a]):
    one row per coordinate of s_a - s_b restricted to opens[a] & opens[b]."""
    f = field
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    rows = []
    for a in range(len(opens)):
        for b in range(a + 1, len(opens)):
            inter = opens[a] & opens[b]
            ra = res_of(opens[a], inter)
            rb = res_of(opens[b], inter)
            for col in range(ra.cols):
                row = [f.zero] * offsets[-1]
                for i in range(dims[a]):
                    row[offsets[a] + i] = ra.data[i][col]
                for i in range(dims[b]):
                    row[offsets[b] + i] = f.sub(row[offsets[b] + i],
                                                rb.data[i][col])
                rows.append(row)
    return rows


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
    f = algebra.field
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
        return _combination(f, coeffs, dst, dst_dim)

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
    """aSpec A versus Spec A for commutative A, on the declared points of
    k[x], on one point A/(g) per irreducible factor g of a univariate
    quotient (with the CRT separators), and on the simples otherwise."""
    if is_poly_ring(algebra):
        if not points:
            raise InputError("the k[x] comparison needs user-supplied points")
        pts = [p if isinstance(p, SpectralPoint) else
               SpectralPoint(p, name=p.name) for p in points]
        return compare_with_spec(ASpecSpace(algebra, pts, order=order or 4))
    if not algebra.is_commutative():
        raise InputError("spec_compare needs a commutative algebra")
    data = getattr(algebra, "poly_data", None)
    if not data or len(data["vars"]) != 1:
        return compare_with_spec(space_of_simples(algebra, order=order))
    f = algebra.field
    gens = data["groebner"]
    (poly, _lead), = gens          # a univariate ideal is principal
    coeffs = [f.zero] * (max(m[0] for m in poly) + 1)
    for mono, c in poly.items():
        coeffs[mono[0]] = c
    factors = factor_univariate(f, coeffs)
    if any(len(g) > 2 for g, _e in factors) and \
            any(e > 1 for _g, e in factors):
        raise UnsupportedAlgebraError(
            "mixed non-split and nilpotent factors: stalks need either a "
            "split or a semisimple algebra in this scope")
    x = poly_reduce(f, {(1,): f.one}, gens)
    x = [x.get(m, f.zero) for m in data["monomials"]]
    values = []                 # each factor g evaluated at x, by Horner
    for g, _e in factors:
        acc = [f.zero] * algebra.dim
        for c in reversed(g):
            acc = algebra.add(algebra.mul(acc, x),
                              algebra.scale(c, algebra.unit))
        values.append(acc)
    regular = regular_module(algebra)
    pts = []
    separators = []             # prod over j != i of g_j^e_j
    for i, (g, e) in enumerate(factors):
        ideal = [algebra.mul(values[i], algebra.basis_vector(b))
                 for b in range(algebra.dim)]
        mod = QuotientModuleRep(regular, ideal, name=f"P{i + 1}")
        pts.append(SpectralPoint(mod, provenance="contraction",
                                 witness={"factor": g, "power": e},
                                 name=mod.name))
        sep = list(algebra.unit)
        for j, (_g, e2) in enumerate(factors):
            if j != i:
                sep = algebra.mul(sep, algebra.power(values[j], e2))
        separators.append(sep)
    report = compare_with_spec(ASpecSpace(algebra, pts,
                                          extra_elements=separators,
                                          order=order))
    report["factors"] = factors
    return report


def compare_with_spec(space):
    """aSpec against Spec for a commutative algebra, on the points of the
    space: the topology is discrete and, at each point p, the stalk is
    O^A(p) (the comparison map is an isomorphism) and O^A(p) is the
    localization A_p: its dimension is the codimension of the kernel K
    of A -> A_p, and rho kills K's generators.  A finite-dimensional A
    is the product of its localizations, so its points are all of
    Spec A when those codimensions add up to dim A."""
    algebra = space.algebra
    f = algebra.field
    discrete = len(space.opens()) == 2 ** len(space.points)
    stalks = []
    codims = []
    for i, pt in enumerate(space.points):
        sd = space.stalk({i})
        o = sd.direct_sections.o
        codim, kernel = _localization_kernel(algebra, pt.module, o)
        codims.append(codim)
        stalks.append(sd.comparison_is_iso and o.dim == codim and all(
            f.is_zero(c) for k in kernel for c in o.rho_coords(k)))
    points_match = is_poly_ring(algebra) or sum(codims) == algebra.dim
    return {
        "points_match": points_match,
        "topology_discrete": discrete,
        "stalks_match": all(stalks),
        "stalk_details": stalks,
        "passed": points_match and discrete and all(stalks),
    }


def _localization_kernel(algebra, module, o):
    """(codimension, generators) of the kernel K of A -> A_p at the point
    of `module`.  On k[x], whose O^A(p) are the N-jets at a, K is
    ((x - a)^(N+1)).  On a finite-dimensional A, K is the stable power
    of the point's annihilator ideal, given by a basis."""
    f = algebra.field
    if is_poly_ring(algebra):
        power = [f.one]
        for _ in range(o.order + 1):
            power = algebra.mul(power, [f.neg(module.point), f.one])
        return o.order + 1, [power]
    acts = Mat(f, [[m.data[r][c] for m in module.action]
                   for r in range(module.dim) for c in range(module.dim)],
               cols=algebra.dim)
    ann = kernel_basis(acts)
    ideal = ann
    while True:
        power = row_space_basis(f, [algebra.mul(u, v) for u in ideal
                                    for v in ann], length=algebra.dim)
        if len(power) == len(ideal):
            return algebra.dim - len(ideal), ideal
        ideal = power


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
    g_alg, point_mods = base_algebra_of(
        algebra, sec.o, [f"P{i}" for i in range(len(space.points))])
    new_space = space_of_simples(g_alg, order=space.order)
    # match original points with simples of G via the block actions
    matches = {}
    for i, mod in enumerate(point_mods):
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
