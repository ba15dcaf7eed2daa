"""The ringed space aSpec A on finite point sets.

Points are spectral modules (all simples in the split scope plus any
user-declared ones); the topology is generated by the injectivity loci
D(f); sections over an open are the O-algebra of its point family, and
restriction maps come from the universal property, rho_U(a) -> rho_V(a).
They are read off the echelon of the rho table: the basis element o_i
of O(U) has the preimage P_i, so o_i maps to rho_V(P_i).  The kernel
inclusion ker(rho_U) <= ker(rho_V) is checked, not assumed: the map
must send rho_U(b_k) to rho_V(b_k) for every basis element b_k of A,
and those differences span ker(rho_U) (`_universal_map`).
"""

from __future__ import annotations

from .errors import (
    InputError,
    InternalInvariantError,
    UnsupportedAlgebraError,
)
from .hull import ExtData, base_algebra_of, default_order, hull, o_algebra
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
from .polyquot import factor_univariate, min_poly_of_matrix
from .polyring import PolyOAlgebra, is_poly_ring, poly_order


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
        self._pair_blocks = {}    # of the raw restrictions (sheaf_sections)
        self._ext_data = None     # shared by every hull of the space
        self._subbasis = None
        self._minimal_opens = None
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

    def minimal_opens(self):
        """U_x for each point x: the intersection of the subbasis sets
        that hold x, the smallest open that holds x."""
        if self._minimal_opens is None:
            space = frozenset(range(len(self.points)))
            self._minimal_opens = [
                space.intersection(*(s for s in self.subbasis() if x in s))
                for x in range(len(self.points))]
        return self._minimal_opens

    def opens(self):
        """The full open-set lattice, deterministically ordered: the
        unions of the minimal opens, grown point by point."""
        if self._opens is None:
            opens = {frozenset()}
            for u in self.minimal_opens():
                opens |= {o | u for o in opens}
            self._opens = sorted(opens, key=lambda s: (len(s), sorted(s)))
        return self._opens

    def is_open(self, subset):
        """Whether subset is a set of points that holds the minimal open
        of each of its points."""
        subset = frozenset(subset)
        return subset <= frozenset(range(len(self.points))) and \
            self.minimal_open_containing(subset) == subset

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
            sec = SectionData("poly", PolyOAlgebra(
                self.algebra, fam, poly_order(self.order)), key)
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
        neigh = {x: self.minimal_open_containing({x}) for x in idxs}
        dims = [self.sections(neigh[x]).dim for x in idxs]
        offsets = [0]
        for d in dims:
            offsets.append(offsets[-1] + d)
        total = offsets[-1]
        pair_rows = _compatibility_rows(
            f, [neigh[x] for x in idxs], dims, self.restriction,
            self._pair_blocks)
        if total == 0:
            basis = []
        elif pair_rows:
            basis = kernel_basis(Mat(f, pair_rows, cols=total))
            basis = row_space_basis(f, basis)
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
        su = self.sheaf_sections(bigger)
        sv = self.sheaf_sections(smaller)
        span_key = ("sheaf span", frozenset(smaller))
        span = self._sections_cache.get(span_key)
        if span is None:
            span = self._sections_cache[span_key] = Span(
                self.base_field(), sv["basis"], sv["total"])
        upos = {x: pos for pos, x in enumerate(su["indices"])}
        cuts = [(su["offsets"][upos[x]], su["offsets"][upos[x] + 1])
                for x in sv["indices"]]
        rows = []
        for vec in su["basis"]:
            coeffs = span.coords([c for lo, hi in cuts for c in vec[lo:hi]])
            if coeffs is None:
                raise InternalInvariantError(
                    "projected family is not compatible")
            rows.append(coeffs)
        mat = Mat._of(self.base_field(), rows, len(sv["basis"]))
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
        """Locality and gluing for the sheaf on every cover of every open
        (exhaustive; capped at SHEAF_CHECK_MAX_POINTS points).  A cover
        is a family of nonempty proper opens with union U, or U itself:
        the empty open adds no columns and no pair rows, so a family
        with it gets the verdict of the family without it.  The covers
        of one check share one memo of pair blocks and compatibilities."""
        if len(self.points) > SHEAF_CHECK_MAX_POINTS:
            raise InputError("exhaustive cover enumeration capped at "
                             f"{SHEAF_CHECK_MAX_POINTS} points")
        failures = []
        opens = self.opens()
        memo = {}

        def dim_of(s):
            return len(self.sheaf_sections(s)["basis"])

        for u in opens:
            proper = [v for v in opens if v and v < u]
            covers = []
            for mask in range(1, 2 ** len(proper)):
                family = [proper[t] for t in range(len(proper))
                          if mask & (1 << t)]
                if frozenset().union(*family) == u:
                    covers.append(family)
            covers.append([u])
            for family in covers:
                ok, why = self._check_cover_generic(
                    u, family, dim_of, self.sheaf_restriction, memo)
                if not ok:
                    failures.append({"open": sorted(u),
                                     "cover": [sorted(v) for v in family],
                                     "why": why})
        return {"passed": not failures, "failures": failures}

    def _check_cover_generic(self, u, family, dim_of, res_of, memo=None):
        """(ok, why) for the cover `family` of u, for the presheaf whose
        sections over V have dimension dim_of(V) and whose restrictions
        are res_of(V, W): locality, then gluing, then compatibility.
        `memo` holds the pair blocks and compatibility verdicts already
        decided for this presheaf (keyed by the opens), so the covers of
        one check share them; it must not serve another presheaf."""
        f = self.base_field()
        memo = {} if memo is None else memo
        dim_u = dim_of(u)
        res_mats = [res_of(u, v) for v in family]
        dims = [dim_of(v) for v in family]
        total = sum(dims)
        # row i: the restrictions of the i-th section over u to the cover
        images = Mat._of(f, [[x for m in res_mats for x in m.data[i]]
                             for i in range(dim_u)], total)
        # locality: the joint restriction map is injective
        if rank(images) != dim_u:
            return False, "locality fails"
        # gluing: the image is the space of compatible families, the
        # kernel of the pair rows; of equal dimension, it is that kernel
        # iff every pair row kills it
        pairs = Mat._of(f, _compatibility_rows(f, family, dims, res_of,
                                               memo), total)
        if dim_u != total - rank(pairs):
            return False, "gluing fails"
        # the pair rows kill the image block by block: for V_a, V_b with
        # I = V_a & V_b, res(U, V_a) res(V_a, I) = res(U, V_b) res(V_b, I)
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                key = (u, family[a], family[b])
                if key not in memo:
                    inter = family[a] & family[b]
                    memo[key] = res_mats[a].mul(res_of(family[a], inter)) \
                        == res_mats[b].mul(res_of(family[b], inter))
                if not memo[key]:
                    return False, "restrictions are not compatible"
        return True, ""

    # -- stalks ----------------------------------------------------------------

    def minimal_open_containing(self, subset):
        """The union of the minimal opens of the points of subset."""
        if not frozenset(subset) <= frozenset(range(len(self.points))):
            raise InputError("minimal open at unknown points")
        minimal = self.minimal_opens()
        return frozenset().union(*(minimal[x] for x in subset))

    def stalk(self, subset):
        subset = frozenset(subset)
        if not subset <= frozenset(range(len(self.points))):
            raise InputError("stalk at unknown points")
        u0 = self.minimal_open_containing(subset)
        stalk_sections = self.sections(u0)
        direct = self.family_o_algebra(subset)
        iso = compare_section_algebras(self.algebra, stalk_sections, direct)
        return StalkData(subset, u0, stalk_sections, direct, iso)


def _compatibility_rows(field, opens, dims, res_of, memo):
    """Rows cutting out the compatible families in the direct sum of the
    sections over `opens` (dims[a] = dim of the sections over opens[a]):
    one row per coordinate of s_a - s_b restricted to opens[a] & opens[b].
    Each pair's block is taken from `memo`, keyed by the pair of opens,
    or built into it, and placed at the offsets of the pair."""
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    rows = []
    for a in range(len(opens)):
        for b in range(a + 1, len(opens)):
            key = (opens[a], opens[b])
            if key not in memo:
                memo[key] = _pair_block(field, res_of, *key)
            for left, right in memo[key]:
                row = [field.zero] * offsets[-1]
                row[offsets[a]:offsets[a + 1]] = left
                row[offsets[b]:offsets[b + 1]] = right
                rows.append(row)
    return rows


def _pair_block(field, res_of, va, vb):
    """The compatibility rows of the pair (va, vb) on its own columns:
    per coordinate of the sections over I = va & vb, the column of
    res(va, I) and minus the column of res(vb, I)."""
    inter = va & vb
    ra, rb = res_of(va, inter), res_of(vb, inter)
    neg = field.neg
    return [([row[c] for row in ra.data], [neg(row[c]) for row in rb.data])
            for c in range(ra.cols)]


def space_of_simples(algebra, extra_elements=(), order=None):
    pts = [SpectralPoint(m, provenance="simple", name=m.name)
           for m in simple_modules(algebra)]
    return ASpecSpace(algebra, pts, extra_elements=extra_elements,
                      order=order)


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
    return _universal_map(f, sec_u.o.preimages, sec_u.o.images,
                          sec_v.o.images, sec_v.dim, "restriction")


def _universal_map(field, pre, src, dst, dst_dim, name):
    """O_src -> O_dst from the universal property, rho_src(a) -> rho_dst(a).

    pre[i] holds the coordinates of a preimage P_i of the i-th basis
    element of O_src (`OAlgebra.preimages`); src[k] and dst[k] are the
    coordinates of rho_src(a_k) and rho_dst(a_k) for the same basis
    element a_k.  Row i is rho_dst(P_i) = sum_k P_i[k] dst[k].  With
    Q_k = sum_i src[k][i] P_i, the differences Q_k - a_k lie in
    ker(rho_src) and span it, so the map is well defined (ker(rho_src)
    lies in ker(rho_dst)) exactly when it sends every src[k] to dst[k];
    it raises otherwise.  Returns the matrix in the row convention.
    """
    f = field
    rows = [_combination(f, p, dst, dst_dim) for p in pre]
    for v, w in zip(src, dst):
        if _combination(f, v, rows, dst_dim) != list(w):
            raise InternalInvariantError(
                f"{name} is not well defined: ker(rho) of the source "
                "escapes ker(rho) of the target")
    return Mat._of(f, rows, dst_dim)


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
        flats_a = [sec_u.o.rho_coords(list(apply(B.basis_vector(i))))
                   for i in range(B.dim)]
        section_maps[v] = _universal_map(f, sec_v.o.preimages,
                                         sec_v.o.images, flats_a, sec_u.dim,
                                         "section map")
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
        return compare_with_spec(ASpecSpace(algebra, pts, order=order))
    if not algebra.is_commutative():
        raise InputError("spec_compare needs a commutative algebra")
    data = getattr(algebra, "poly_data", None)
    if not data or len(data["vars"]) != 1:
        return compare_with_spec(space_of_simples(algebra, order=order))
    f = algebra.field
    # A = k[x]/(g): g is the minimal polynomial of x acting on A
    x = data["variables"][0]
    factors = factor_univariate(
        f, min_poly_of_matrix(algebra.left_mult_matrix(x)))
    if any(len(g) > 2 for g, _e in factors) and \
            any(e > 1 for _g, e in factors):
        raise UnsupportedAlgebraError(
            "mixed non-split and nilpotent factors: stalks need either a "
            "split or a semisimple algebra in this scope")
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
        ideal = [algebra.times_basis(values[i], b)
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
    stable = algebra.ideal_powers(kernel_basis(acts))[-1]
    return algebra.dim - len(stable), stable


# -- O_X(X) as a base algebra: closure and the global-sections roundtrip -----


def _space_over_sections(algebra, o, order):
    """aSpec over G = O as a base algebra, on the points P_i: the
    family's modules over G, read off the degree-0 blocks of O and named
    like the family.  `order` None means G's default order.

    G and the P_i are built once per O, and the space once per O and
    order; all are kept on O (`spaces_over`), so `closure_check` and
    `global_sections_roundtrip` on the same O and order read the same
    hulls over G.  The spaces over one O share one Ext store."""
    spaces = o.spaces_over
    if not spaces:
        g_alg, mods = base_algebra_of(algebra, o,
                                      [m.name for m in o.ohat.modules])
        spaces[None] = ASpecSpace(g_alg, [SpectralPoint(m) for m in mods])
    if order is None:
        order = max(2, default_order(spaces[None].algebra))
    if order not in spaces:
        spaces[order] = spaces[None].at_order(order)
    return spaces[order]


def closure_check(algebra, o):
    """O^{O^A(M)}(M) == O^A(M) via the canonical map (dims + bijectivity).

    o is O^A(M), already built; the family M and the truncation order
    are read off it.  O^O(M) is the whole-family section of the space
    over O at that order (`_space_over_sections`), the only hull built
    here; a roundtrip on a space whose global sections are o, at the
    same order, reads the same section."""
    space = _space_over_sections(algebra, o, o.ohat.hull.order)
    o2 = space.family_o_algebra(range(len(space.points))).o
    if o2.dim != o.dim:
        return False, {"reason": "dimension mismatch",
                       "dim_first": o.dim, "dim_second": o2.dim}
    # canonical map: O -> O2 by rho2 on O's basis
    images = [o2.rho_coords(unit_vec(o.field, o.dim, idx))
              for idx in range(o.dim)]
    bij = len(row_space_basis(o.field, images)) == o.dim
    return bij, {"dim_first": o.dim, "dim_second": o2.dim}


def global_sections_roundtrip(space):
    """X ~ aSpec(O_X(X)): match points, opens and section algebras.

    With G = O_X(X) as a base algebra, each point of X, as a G-module
    P_i, must be isomorphic to exactly one simple of G, with no simple
    left over.  Isomorphic families have isomorphic O^G and the same
    D-sets, so aSpec G is then the space over G on the P_i themselves,
    with the identity point map: the space of `_space_over_sections` at
    space.order (None: G's default order), which `closure_check` of the
    same O and order shares.  Its opens must be those of X, and on each
    open U the map O_G(U) -> O_X(U), rho_G(g) -> res^X_U(g), must be a
    well-defined bijection."""
    algebra = space.algebra
    if is_poly_ring(algebra):
        raise InputError("roundtrip is for finite-dimensional spaces")
    f = algebra.field
    whole = frozenset(range(len(space.points)))
    sec = space.sections(whole)
    over = _space_over_sections(algebra, sec.o, space.order)
    simples = simple_modules(over.algebra)
    matched = set()
    for pt in over.points:
        found = next((j for j, s in enumerate(simples)
                      if is_isomorphic(pt.module, s)), None)
        if found is None or found in matched:
            return {"passed": False, "reason": "points do not biject"}
        matched.add(found)
    if len(matched) != len(simples):
        return {"passed": False, "reason": "point counts differ"}
    if set(space.opens()) != set(over.opens()):
        return {"passed": False, "reason": "open lattices differ"}
    for u in space.opens():
        sec_u = space.sections(u)
        sec_g = over.sections(u)
        if sec_u.dim != sec_g.dim:
            return {"passed": False, "reason": "section dims differ",
                    "open": sorted(u)}
        if sec_u.kind == "zero":
            continue
        # G's basis is O_X(X)'s, so res^X_U sends g_t to row t
        res = space.restriction(whole, u)
        try:
            mat = _universal_map(f, sec_g.o.preimages, sec_g.o.images,
                                 res.data, sec_u.dim, "comparison map")
        except InternalInvariantError as exc:
            return {"passed": False, "reason": str(exc), "open": sorted(u)}
        if rank(mat) != sec_u.dim:
            return {"passed": False, "reason": "sections not isomorphic",
                    "open": sorted(u)}
    return {"passed": True, "points": len(space.points),
            "global_dim": sec.dim}
