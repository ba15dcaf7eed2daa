"""Noncommutative deformation hulls and the universal algebra O^A(M).

For a family M_1..M_r, the truncated hull H is a quotient of the free
r-pointed matric algebra on generators dual to the Ext^1 blocks, with
relations accumulated order by order from Ext^2-valued obstructions.
Its words are reduced by the engine of `rewrite`: the lowest word leads
each relation and words longer than N are zero.  The lift
rho: A -> H (x) Hom_k(M_i, M_j) is built in lockstep: at each order the
failure of multiplicativity on the new monomials is a Hochschild
2-cocycle; its Ext^2 component extends the relations and the coboundary
part is absorbed into rho's next coefficients.  Free variables in every
solve are pinned to zero, so the output presentation is deterministic.

The state of the build is a defining system (Laudal; Siqveland): the
relations and a 1-cochain on each free word, set once.  The obstruction
of each stage is a generalized Massey product of the cochains already
chosen, summed over the composable pairs of words of its length; rho
is read once, after the last stage: rho(a) is the normal form of the
free element eta(a) + sum_w psi_w(a) w, and `_verify` proves it
multiplicative.

`RPointedAlgebra` holds only the presentation of H; elements are
computed in `MatricOHat`, the matric algebra with blocks of size
dim M_i.  H itself is the same algebra with every block 1x1.
"""

from __future__ import annotations

from bisect import bisect_left

from .algebra import Algebra, sparse_rows
from .errors import (
    InputError,
    InternalInvariantError,
    NotAUnitError,
    ValidationError,
)
from .ext import Resolution, ext
from .hochschild import (
    BarComparison,
    is_two_cocycle,
    split_two_cocycle,
    two_cocycle_span,
)
from .linalg import (
    Mat,
    Span,
    _add_scaled,
    _Echelon,
    _combination,
    kernel_basis,
    row_space_basis,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .modules import ModuleRep, is_simple
from .rewrite import Rewriter, deglex


# Most words (lengths 1..N, all blocks) a truncated r-pointed algebra
# may list: its irreducible words so far plus the candidates of the next
# layer are counted before that layer is listed.  The hull of the
# Kronecker quiver on S1 + S2, free on two loops, has 4094 words at
# order 11 and is refused at order 12.
WORD_BUDGET = 4096


def _over_budget(order):
    return InputError(f"truncation order {order} needs more words than "
                      f"the budget of {WORD_BUDGET}")


class RPointedAlgebra:
    """Presentation of a truncated r-pointed algebra: generators with
    blocks, monomial words modulo a relation ideal, augmentation onto
    k^r.  Its reduced words are the irreducible words of the relations'
    rewriting system, grown layer by layer.  Elements and their
    arithmetic live in MatricOHat, which is H itself with 1x1 blocks."""

    def __init__(self, field, r, generators, order, relations):
        self.field = field
        self.r = r
        self.generators = list(generators)       # (label, i, j)
        self.order = order                       # truncation N
        self.relations = [dict(rel) for rel in relations]
        self.rewriter = Rewriter(field, order)
        for rel in self.relations:
            self.rewriter.add_relation(rel)
        self.rewriter.complete()
        layers = self.rewriter.irreducible_words(self.generators, order,
                                                 WORD_BUDGET)
        if layers is None:
            raise _over_budget(order)
        self.all_words = [w for candidates, _ in layers for w in candidates]
        self.words_by_len = {length: good
                             for length, (_, good) in enumerate(layers, 1)}
        self.reduced_words = [w for _, good in layers for w in good]
        self._reduced = set(self.reduced_words)
        self._normal_forms = {}
        self.dim = self.r + len(self.reduced_words)

    def word_block(self, word):
        return (self.generators[word[0]][1], self.generators[word[-1]][2])

    def is_reduced(self, word):
        return word in self._reduced

    def normal_form(self, word):
        """{word: scalar} reduced form of one word of length <= order."""
        nf = self._normal_forms.get(word)
        if nf is None:
            nf = self.rewriter.reduce({word: self.field.one})
            self._normal_forms[word] = nf
        return nf

    def presentation_lines(self, format_scalar=None):
        fmt = format_scalar or self.field.format
        lines = []
        for label, i, j in self.generators:
            lines.append(f"generator {label} : {i + 1} -> {j + 1} (degree 1)")
        for rel in sorted(self.relations,
                          key=lambda r: sorted(map(deglex, r))):
            terms = []
            for w in sorted(rel, key=deglex):
                mono = ".".join(self.generators[g][0] for g in w)
                terms.append(f"{fmt(rel[w])}*{mono}")
            lines.append("relation " + " + ".join(terms))
        return lines


class HullTower:
    """H_N and the new relation keys of each stage; the stage H_n of
    H_2 <- ... <- H_N is H_N with words longer than n discarded."""

    def __init__(self, final):
        self.final = final
        self.stabilized = None     # set by hull()
        self.new_relations_by_stage = {}


class MatricOHat:
    """H (x)_{k^r} Hom_k(M_i, M_j) for a hull algebra H and block sizes
    d_i = dim M_i, with the lift rho of eta as a table over the algebra's
    basis.  With every block 1x1 (the default) it is H itself.

    Elements: {key: Mat} with key ('e', i) carrying a d_i x d_i block
    and ('m', word) a d_i x d_j block for the word's ends.

    Products go through one scalar kernel.  An element's blocks become
    term records (key, start block, end block, length, word, row-major
    scalars); the right factor is indexed once by start block and word
    length, so a term of the left factor meets only the terms whose
    blocks compose with it and whose lengths keep the product within the
    order.  Products and linear terms accumulate into one {key: scalars}
    buffer; `_collect` applies the hull's normal forms once and builds a
    Mat only for each nonzero block.
    """

    def __init__(self, hull_alg, dims=None):
        self.hull = hull_alg
        self.order = hull_alg.order
        self.field = hull_alg.field
        self.dims = [1] * hull_alg.r if dims is None else list(dims)
        self.rho_table = []   # per algebra basis element
        self._image = None

    @property
    def image(self):
        """The `RhoImage` of the rho table, eliminated on first use."""
        if self._image is None:
            self._image = RhoImage(self)
        return self._image

    def key_shape(self, key):
        if key[0] == "e":
            return (self.dims[key[1]], self.dims[key[1]])
        i, j = self.hull.word_block(key[1])
        return (self.dims[i], self.dims[j])

    def one(self):
        return {("e", i): Mat.identity(self.field, d)
                for i, d in enumerate(self.dims)}

    def iota(self, alphas):
        f = self.field
        out = {}
        for i, d in enumerate(self.dims):
            a = f.normalize(alphas[i])
            if not f.is_zero(a):
                out[("e", i)] = Mat.identity(f, d).scale(a)
        return out

    def pi(self, elem):
        """Degree-0 part as a list of End_k(M_i) matrices."""
        out = []
        for i, d in enumerate(self.dims):
            out.append(elem.get(("e", i), Mat.zeros(self.field, d, d)))
        return out

    def add(self, x, y):
        out = dict(x)
        for k, m in y.items():
            out[k] = out[k].add(m) if k in out else m
        return {k: m for k, m in out.items() if not m.is_zero()}

    def neg(self, x):
        f = self.field
        return {k: m.scale(f.neg(f.one)) for k, m in x.items()}

    def scale(self, c, x):
        return {k: m.scale(c) for k, m in x.items()}

    def mul(self, x, y):
        buf = {}
        self._product_into(buf, self._terms(x), self._index(self._terms(y)))
        return self._collect(buf)

    # -- the scalar kernel ----------------------------------------------------

    def _terms(self, elem):
        """The blocks of elem as term records (key, start block, end
        block, word length, word, row-major scalars); an idempotent key
        has the empty word."""
        word_block = self.hull.word_block
        out = []
        for key, m in elem.items():
            if key[0] == "e":
                i = j = key[1]
                w = ()
            else:
                w = key[1]
                i, j = word_block(w)
            out.append((key, i, j, len(w), w, m.flat()))
        return out

    @staticmethod
    def _index(terms):
        """{start block: [(length, terms of that length)]}, lengths
        ascending."""
        groups = {}
        for t in terms:
            groups.setdefault(t[1], {}).setdefault(t[3], []).append(t)
        return {i: sorted(g.items()) for i, g in groups.items()}

    def _product_into(self, buf, x_terms, y_index, subtract=False):
        """buf += x y (buf -= x y when subtracting), for x given by its
        terms and y by its `_index`: each term of x visits only the
        terms of y that start where it ends, of length at most the order
        minus its own."""
        f = self.field
        acc = f.sub if subtract else f.add
        mul = f.mul
        zero = f.zero
        dims = self.dims
        order = self.order
        for _, i, j, l1, w1, x in x_terms:
            groups = y_index.get(j)
            if groups is None:
                continue
            budget = order - l1
            rows, inner = dims[i], dims[j]
            for l2, terms in groups:
                if l2 > budget:
                    break
                for _, _, k, _, w2, y in terms:
                    w = w1 + w2
                    key = ("m", w) if w else ("e", i)
                    out = buf.get(key)
                    cols = dims[k]
                    if out is None:
                        out = buf[key] = [zero] * (rows * cols)
                    _mul_into(acc, mul, out, x, y, rows, inner, cols)

    def _collect(self, buf):
        """The element of a buffer: word keys rewritten to the hull's
        normal forms, a Mat for each nonzero block and none for zero.
        This is the one fold from free words to H, for products and for
        rho alike."""
        h = self.hull
        f = self.field
        reduced = h._reduced
        for key in [k for k in buf if k[0] == "m" and k[1] not in reduced]:
            x = buf.pop(key)
            if any(x):
                for w, c in h.normal_form(key[1]).items():
                    _add_block(f, buf, ("m", w), c, x)
        return {key: Mat.of_flat(f, x, *self.key_shape(key))
                for key, x in buf.items() if any(x)}

    def is_zero(self, x):
        return all(m.is_zero() for m in x.values())

    def equal(self, x, y):
        return self.is_zero(self.add(x, self.neg(y)))

    def rho(self, elem_coords):
        """rho of an algebra element given by basis coordinates."""
        return self._collect(self._rho_buffer(elem_coords))

    def _rho_buffer(self, elem_coords):
        """rho of an algebra element as a kernel buffer."""
        f = self.field
        buf = {}
        for c, table_elem in zip(elem_coords, self.rho_table):
            if c:
                for key, m in table_elem.items():
                    _add_block(f, buf, key, c, m.flat())
        return buf

    def _flat_shapes(self, order=None):
        """(key, rows, cols) of the blocks of the flat layout: the
        degree-0 blocks, then the reduced words (of length at most the
        order, when one is given)."""
        keys = [("e", i) for i in range(len(self.dims))] + \
            [("m", w) for w in self.hull.reduced_words
             if order is None or len(w) <= order]
        return [(key, *self.key_shape(key)) for key in keys]

    def flatten(self, elem, order=None):
        """Deterministic flat coordinate vector of an element, each block
        row-major; with an order, its image in the stage of that order
        (longer words discarded)."""
        zero = self.field.zero
        coords = []
        for key, r, c in self._flat_shapes(order):
            m = elem.get(key)
            coords += [zero] * (r * c) if m is None else m.flat()
        return coords

    def unflatten(self, flat):
        """The element with the given flat coordinates (inverse of
        flatten without an order)."""
        out = {}
        pos = 0
        for key, r, c in self._flat_shapes():
            m = Mat.of_flat(self.field, flat[pos:pos + r * c], r, c)
            pos += r * c
            if not m.is_zero():
                out[key] = m
        return out

    def flat_dim(self, order=None):
        return sum(r * c for _, r, c in self._flat_shapes(order))


class RhoImage:
    """im(rho) as one tagged echelon of the flattened rho table.

    flats[k] = flatten(rho(b_k)) is inserted with the unit tag e_k
    appended, and pivots are sought in the flat columns only, as `Span`
    does.  So `rows` is the rref of the flats, which is unique: the
    echelon basis of im(rho).  Each row's tag is an A-coordinate vector
    P_i with rho(P_i) = rows[i], and a vector of im(rho) has its
    coordinates in the rows at the `pivots`.  The flat layout puts the degree-0 blocks
    first and then the reduced words by ascending length, so the stage
    of order n owns a prefix of the columns.
    """

    def __init__(self, ohat):
        f = ohat.field
        self.flats = [ohat.flatten(t) for t in ohat.rho_table]
        n = len(self.flats)
        length = ohat.flat_dim()
        ech = _Echelon(f, length)
        for k, v in enumerate(self.flats):
            ech.insert(v + unit_vec(f, n, k))
        self.pivots = ech.pivots
        self.rows = [row[:length] for row in ech.rows]
        self.tags = [row[length:] for row in ech.rows]

    def dim(self, ncols=None):
        """dim im(rho), or of its image in the stage that owns the first
        ncols columns (`flat_dim` of its order): the pivots among them."""
        if ncols is None:
            return len(self.pivots)
        return bisect_left(self.pivots, ncols)


def invert_unit(ambient, elem):
    """Two-sided inverse of iota(alpha) - x with nilpotent x (unit lemma).

    ambient: a MatricOHat (H itself when its blocks are 1x1); elem's
    degree-0 part must be a nonzero scalar on every block."""
    f = ambient.field
    alphas = []
    for i, m in enumerate(ambient.pi(elem)):
        a = m.data[0][0] if m.rows else f.one
        if m != Mat.identity(f, m.rows).scale(a) or f.is_zero(a):
            raise NotAUnitError(
                f"block {i} is not a nonzero scalar; cannot invert")
        alphas.append(a)
    x = ambient.add(ambient.iota(alphas), ambient.neg(elem))
    # t = (sum_s (u^-1 x)^s) u^-1 with u = iota(alpha); ordered because
    # iota(alpha) is central only when all alpha_i agree
    u_inv = ambient.iota([f.inv(a) for a in alphas])
    y = ambient.mul(u_inv, x)
    series = ambient.one()
    power = dict(y)
    steps = 0
    while not ambient.is_zero(power):
        steps += 1
        if steps > ambient.order + 2:
            raise NotAUnitError("kernel part is not nilpotent in truncation")
        series = ambient.add(series, power)
        power = ambient.mul(power, y)
    t = ambient.mul(series, u_inv)
    left = ambient.mul(elem, t)
    right = ambient.mul(t, elem)
    if not (ambient.equal(left, ambient.one())
            and ambient.equal(right, ambient.one())):
        raise InternalInvariantError("geometric-series inverse failed")
    return t


class _PairExt:
    """Ext^1 and Ext^2 of one ordered pair (M_i, M_j) with their Hochschild
    forms: the Ext^2 basis as 2-cocycles, the Ext^1 derivation seeds and
    the block's two_cocycle_span.  When Ext^2 != 0 the span is built at
    once and must keep every Ext^2 vector (independence in HH^2);
    otherwise on first use."""

    def __init__(self, algebra, source, target, comparison):
        self.algebra = algebra
        self.source = source
        self.target = target
        res = comparison.res if comparison is not None else None
        self.ext1 = ext(source, target, 1, resolution=res)
        self.ext2 = ext(source, target, 2, resolution=res)
        self.hh2 = [comparison.two_cochain_of(c) for c in self.ext2.cocycles]
        self.seeds = [comparison.derivation_of(c)
                      for c in self.ext1.cocycles]
        self._span = None
        if self.hh2:
            span = self.span()
            tail = list(range(span.count - len(self.hh2), span.count))
            if span.kept[-len(tail):] != tail:
                raise InternalInvariantError(
                    "converted Ext^2 basis lost independence in HH^2")

    def span(self):
        if self._span is None:
            self._span = two_cocycle_span(self.algebra, self.source,
                                          self.target, self.hh2)
        return self._span


class ExtData:
    """The Ext data of modules over one algebra, built on first use: per
    module its Resolution and BarComparison, per ordered pair a _PairExt.
    Every hull given the same store reads the same entries, so the hulls
    over the subfamilies of one family resolve each module once.

    Entries are keyed by module identity and hold the modules, so an id
    cannot be reused while the store lives; modules never refer back to
    the store."""

    def __init__(self, algebra):
        self.algebra = algebra
        # a semisimple algebra needs no resolution: Ext^1 = Ext^2 = 0
        self._semisimple = not algebra.radical_basis()
        self._comparisons = {}    # id(M) -> (M, BarComparison or None)
        self._pairs = {}          # (id(M_i), id(M_j)) -> _PairExt

    def _comparison(self, module):
        entry = self._comparisons.get(id(module))
        if entry is None:
            bc = None if self._semisimple else BarComparison(
                Resolution(module))
            entry = self._comparisons[id(module)] = (module, bc)
        return entry[1]

    def pair(self, source, target):
        key = (id(source), id(target))
        entry = self._pairs.get(key)
        if entry is None:
            entry = self._pairs[key] = _PairExt(
                self.algebra, source, target, self._comparison(source))
        return entry


class _HullBuilder:
    """Order-by-order construction of the hull and rho."""

    def __init__(self, algebra, modules, order, ext_data=None):
        if order < 2:
            raise InputError("truncation order must be >= 2")
        if not modules:
            raise InputError("module family is empty")
        if ext_data is None:
            ext_data = ExtData(algebra)
        elif ext_data.algebra is not algebra:
            raise ValidationError("the Ext store belongs to another algebra")
        self.algebra = algebra
        self.modules = list(modules)
        self.dims = [m.dim for m in self.modules]
        self.order = order
        self.field = algebra.field
        self.r = len(modules)
        self.pairs = {(i, j): ext_data.pair(mi, mj)
                      for i, mi in enumerate(self.modules)
                      for j, mj in enumerate(self.modules)}
        self.generators = []
        self.deriv_seed = []      # per generator, its Ext^1 derivation
        for (i, j), pair in self.pairs.items():
            for psi in pair.seeds:
                self.generators.append((f"t{len(self.generators) + 1}", i, j))
                self.deriv_seed.append(psi)

    def build(self):
        hull_alg, C_free, new_by_stage = self._run_stages(self.order)
        ohat = self._matric(hull_alg, C_free)
        self._verify(ohat)
        tower = HullTower(hull_alg)
        tower.new_relations_by_stage = new_by_stage
        # stabilization: last stage added nothing and the image dimension
        # matches the one at order N-1, both read off the one echelon of
        # the rho table; at N = 2 the only finite certificate is vanishing
        # Ext^2 (no relation can ever appear)
        stab = not new_by_stage.get(self.order)
        if stab and self.order >= 3:
            stab = ohat.image.dim() == \
                ohat.image.dim(ohat.flat_dim(self.order - 1))
        elif stab:
            stab = all(p.ext2.dimension == 0 for p in self.pairs.values())
        tower.stabilized = bool(stab)
        return tower, ohat

    def _run_stages(self, last):
        """One pass over stages 2..last, stage n in its own algebra H_n of
        order n on the relations so far.  Lowest-lead rewriting never
        shortens a word, so H_n is H_N cut at n, and stage n reads no
        longer product.  The state is the defining system: the relations
        and C_free, a 1-cochain per free word, seeded on the letters.
        Stage n splits the defect of each reduced word w of length n, a
        Massey sum of C_free (`_stage_defects`), into new relation terms
        and C_free[w], set once.  No stage forms rho; `build` folds C_free
        through the normal forms of H_N once (`_matric`).  Returns (H_N,
        C_free, new relation keys per stage)."""
        f = self.field
        relations = {}        # (i, j, l) -> {word: coeff}
        self.C_free, self._by_len, self._spill = {}, {}, {}
        self._last = (1, {})  # the last stage and its free Massey sum
        for g, psi in enumerate(self.deriv_seed):
            self._set_cochain((g,), psi)
        new_by_stage = {}
        for stage in range(2, last + 1):
            hull_alg = self._algebra(stage, relations)
            # reduced words are closed under factors: an empty layer
            # stays empty at every later length, so no defect is left
            if not hull_alg.words_by_len.get(stage):
                break
            stage_new = []
            for w, (lambdas, psi) in self._stage_classes(
                    hull_alg, self._stage_defects(stage, hull_alg)).items():
                block = hull_alg.word_block(w)
                self._set_cochain(w, psi)
                for l, lam in enumerate(lambdas):
                    if f.is_zero(lam):
                        continue
                    key = (block[0], block[1], l)
                    rel = relations.setdefault(key, {})
                    rel[w] = f.add(rel.get(w, f.zero), lam)
                    stage_new.append((key, w))
            new_by_stage[stage] = stage_new
        return self._algebra(self.order, relations), self.C_free, new_by_stage

    def _algebra(self, order, relations):
        """The r-pointed algebra of the given order on the relations; a
        stage over the word budget is refused at the requested order."""
        try:
            return RPointedAlgebra(self.field, self.r, self.generators,
                                   order, list(relations.values()))
        except InputError:
            raise _over_budget(self.order) from None

    def _stage_classes(self, hull_alg, defects):
        """Split each nonzero stage defect into its Ext^2 coordinates and
        a coboundary part: {word: (lambdas, psi)}."""
        out = {}
        for w, coch in defects.items():
            if not coch:
                continue
            pair = self.pairs[hull_alg.word_block(w)]
            if not is_two_cocycle(self.algebra, pair.source, pair.target,
                                  coch):
                raise InternalInvariantError(
                    "stage defect is not a Hochschild 2-cocycle")
            out[w] = split_two_cocycle(self.algebra, pair.source,
                                       pair.target, coch, pair.span())
        return out

    def _set_cochain(self, w, psi):
        """C_free[w] = psi, indexed by length and start block with its
        nonzero rows as row-major scalars: (w, i, j, [(a, scalars)])."""
        self.C_free[w] = psi
        i, j = self.generators[w[0]][1], self.generators[w[-1]][2]
        rows = [(a, m.flat()) for a, m in enumerate(psi)
                if not m.is_zero()]
        if rows:
            self._by_len.setdefault(len(w), {}).setdefault(i, []).append(
                (w, i, j, rows))

    def _stage_defects(self, stage, hull_alg):
        """Defect 2-cochains on the reduced words of length n = stage,
        each {(a, b): Mat} over its nonzero pairs.  With eta the module
        actions and psi_w = C_free[w], rho(ab) - rho(a) rho(b) is the
        normal form of the free element F(a, b) =
        sum_w [psi_w(ab) - eta(a) psi_w(b) - psi_w(a) eta(b)] w
        - sum_(u, v) psi_u(a) psi_v(b) uv, as normal forms make a ring
        map.  No C_free word has length n yet and no normal form is
        shorter than its word, so the length-n slice is
        D_n = NF_n(-sum_(|u| + |v| = n) psi_u(a) psi_v(b) uv)
        + sum_X F[X] [NF_n(X)]_n, X over the reducible words shorter
        than n: `_massey_sum`, then the spill of `_close_stage`, nonzero
        only where a relation has gained a longer tail.  The slices below
        n are not formed; `_verify` proves them zero.  Every pair is
        formed: the cocycle check reads D(b, e) and D(gb, e) for all b."""
        f = self.field
        self._close_stage(hull_alg)
        free = self._massey_sum(stage)
        self._last = (stage, free)
        buf = {}
        for X, coch in list(free.items()) + list(self._spill.items()):
            nf = ((X, f.one),) if hull_alg.is_reduced(X) else \
                hull_alg.normal_form(X).items()
            for w, c in nf:
                if len(w) == stage:
                    dest = buf.setdefault(w, {})
                    for ab, x in coch.items():
                        _add_block(f, dest, ab, c, x)
        out = {}
        for w in hull_alg.words_by_len.get(stage, []):
            i, j = hull_alg.word_block(w)
            out[w] = {ab: Mat.of_flat(f, x, self.dims[i], self.dims[j])
                      for ab, x in buf.get(w, {}).items() if any(x)}
        return out

    def _massey_sum(self, stage):
        """-sum psi_u(a) psi_v(b) uv over the pairs of C_free words with
        |u| + |v| = stage whose blocks compose, on their nonzero rows,
        before normal forms: {uv: {(a, b): row-major scalars}}."""
        f = self.field
        dims, by_len = self.dims, self._by_len
        out = {}
        for l1 in range(1, stage):
            right = by_len.get(stage - l1, {})
            for group in by_len.get(l1, {}).values() if right else ():
                for u, i, j, xs in group:
                    for v, _, k, ys in right.get(j, ()):
                        dest = out.setdefault(u + v, {})
                        for a, x in xs:
                            for b, y in ys:
                                o = dest.get((a, b))
                                if o is None:
                                    o = dest[(a, b)] = \
                                        [f.zero] * (dims[i] * dims[k])
                                _mul_into(f.sub, f.mul, o, x, y, dims[i],
                                          dims[j], dims[k])
        return out

    def _close_stage(self, hull_alg):
        """Keep F on the words of the last stage that hull_alg reduces,
        fixed from then on: the free Massey sum, plus psi_X(ab) -
        eta(a) psi_X(b) - psi_X(a) eta(b) where that stage set psi_X."""
        f = self.field
        neg = f.neg(f.one)
        onto = self.algebra.products_onto()
        (stage, free), self._last = self._last, (None, {})
        for X in dict.fromkeys(list(free) + [w for w in self.C_free
                                             if len(w) == stage]):
            if hull_alg.is_reduced(X):
                continue
            # the last stage's sum is read for the last time here, so
            # its blocks take the terms below in place
            coch = free.get(X, {})
            eta_i = self.modules[self.generators[X[0]][1]].action
            eta_j = self.modules[self.generators[X[-1]][2]].action
            for k, m in enumerate(self.C_free.get(X, ())):
                if m.is_zero():
                    continue
                terms = [((a, b), c, m) for a, b, c in onto[k]]
                for a in range(self.algebra.dim):
                    terms += [((a, k), neg, eta_i[a].mul(m)),
                              ((k, a), neg, m.mul(eta_j[a]))]
                for ab, c, t in terms:
                    if not t.is_zero():
                        _add_block(f, coch, ab, c, t.flat())
            if any(map(any, coch.values())):
                self._spill[X] = coch

    def _matric(self, hull_alg, C_free):
        """The matric algebra over hull_alg with rho read off the defining
        system: rho(a) is the normal form, read by `_collect`, of the free
        element eta(a) + sum_w psi_w(a) w over the cochains of C_free."""
        ohat = MatricOHat(hull_alg, self.dims)
        for a in range(self.algebra.dim):
            free = {("e", i): m.action[a].flat()
                    for i, m in enumerate(self.modules)}
            for w, psi in C_free.items():
                free[("m", w)] = psi[a].flat()
            ohat.rho_table.append(ohat._collect(free))
        return ohat

    def _verify(self, ohat):
        """rho is unital and multiplicative, and pi . rho = eta exactly.

        This also proves what the stages never formed.  Stage n forms
        only the length-n slice of its defect NF_n(F) (`_stage_defects`).
        The slices of length m < n read only the cochains of words of
        length <= m and the relation words of length <= m, all fixed once
        stage m is done, and H_n is H_N cut at n; so each is the length-m
        slice of the final defect NF_N(F) = rho(ab) - rho(a) rho(b).  The
        final test below, on the generator rows of H_N, proves that
        defect zero on every pair, so no stage left a defect below its
        length."""
        algebra = self.algebra
        f = self.field
        # rho(1) - 1 in one buffer: a valid hull builds no Mat here
        one = ohat._rho_buffer(algebra.unit)
        for i, d in enumerate(ohat.dims):
            x = one.setdefault(("e", i), [f.zero] * (d * d))
            for t in range(0, d * d, d + 1):
                x[t] = f.sub(x[t], f.one)
        if ohat._collect(one):
            raise InternalInvariantError("rho(1) != 1")
        for a, elem in enumerate(ohat.rho_table):
            for i, m in enumerate(self.modules):
                block = elem.get(("e", i))
                if (block != m.action[a] if block is not None
                        else not m.action[a].is_zero()):
                    raise InternalInvariantError("pi . rho != eta")
        # Light's test: the a with rho(ab) = rho(a) rho(b) for all b form
        # a subspace closed under products, as the matric algebra is
        # associative, so the generators' rows suffice
        if _defects(algebra, ohat, algebra.generators):
            raise InternalInvariantError(
                "rho is not multiplicative in the truncation")


def _mul_into(acc, mul, out, x, y, rows, inner, cols):
    """out = acc(out, x y) entrywise, for row-major blocks x (rows x
    inner) and y (inner x cols), on their nonzero scalars."""
    for a in range(rows):
        xa, oa = a * inner, a * cols
        for t in range(inner):
            xv = x[xa + t]
            if xv:
                yt = t * cols
                for b in range(cols):
                    yv = y[yt + b]
                    if yv:
                        o = oa + b
                        out[o] = acc(out[o], mul(xv, yv))


def _add_block(field, dest, key, c, x):
    """dest[key] += c * x for a block's row-major scalars x, in a new
    list when dest has no such key."""
    out = dest.get(key)
    if out is None:
        dest[key] = vec_scale(field, c, x)
    else:
        _add_scaled(field, out, c, x)


def _defects(algebra, ohat, rows):
    """{(a, b): rho(ab) - rho(a) rho(b)} on the pairs where it is
    nonzero, a in `rows` (basis indices), in one buffer
    per pair: rho(ab) summed over the nonzero structure constants of ab,
    the product through the kernel of `MatricOHat`, each table element's
    terms indexed once."""
    terms = [ohat._terms(t) for t in ohat.rho_table]
    index = [ohat._index(t) for t in terms]
    f = algebra.field
    products = algebra.products
    out = {}
    for a in rows:
        x = terms[a]
        for b, y in enumerate(index):
            buf = {}
            for k, c in products[a][b]:
                for t in terms[k]:
                    _add_block(f, buf, t[0], c, t[5])
            ohat._product_into(buf, x, y, subtract=True)
            delta = ohat._collect(buf) if buf else None
            if delta:
                out[(a, b)] = delta
    return out


def default_order(algebra):
    return algebra.radical_index() + 1


def hull(algebra, modules, order=None, ext_data=None):
    """Truncated pro-representing hull and matric algebra with rho.

    ext_data is an ExtData of the algebra to read the Ext blocks from;
    without one the hull builds its own.  The matric algebra returned
    carries the algebra, the family and its Ext blocks as `algebra`,
    `modules`, `ext1` and `ext2`."""
    if order is None:
        order = max(2, default_order(algebra))
    builder = _HullBuilder(algebra, modules, order, ext_data)
    tower, ohat = builder.build()
    # tangent-space correctness: generator counts match Ext^1 dimensions
    counts = {}
    for label, i, j in tower.final.generators:
        counts[(i, j)] = counts.get((i, j), 0) + 1
    for block, pair in builder.pairs.items():
        if counts.get(block, 0) != pair.ext1.dimension:
            raise InternalInvariantError("tangent dimension mismatch")
    ohat.algebra = builder.algebra
    ohat.modules = builder.modules
    ohat.ext1 = {block: p.ext1 for block, p in builder.pairs.items()}
    ohat.ext2 = {block: p.ext2 for block, p in builder.pairs.items()}
    return tower, ohat


def massey_step(algebra, modules, order):
    """Obstruction classes at the given order for the canonical defining
    system: {word: Ext^2 coordinate list}, on the reduced words of that
    length.  The obstruction is the generalized Massey product
    D_n = NF_n(-sum_(|u| + |v| = n) psi_u psi_v uv) + sum_X F[X] [NF_n(X)]_n
    of the cochains chosen at the lower orders, X over the reducible
    words shorter than n (`_HullBuilder._stage_defects`).  At order 2
    this is the cup product on dual generators."""
    builder = _HullBuilder(algebra, modules, max(order, 2))
    f = algebra.field
    hull_alg, _, _ = builder._run_stages(order - 1)
    classes = builder._stage_classes(
        hull_alg, builder._stage_defects(order, hull_alg))
    out = {}
    for w in hull_alg.words_by_len.get(order, []):
        if w in classes:
            out[w] = classes[w][0]
        else:
            out[w] = [f.zero] * len(builder.pairs[hull_alg.word_block(w)].hh2)
    return out


class OAlgebra:
    """O^A(M): the image of rho with inverses of the designated units.

    In the truncated setting every rho(a) with eta(a) a nonzero scalar
    has its inverse already inside im(rho), so O is the span of the rho
    table (`o_algebra` checks each inverse with its series).

    Everything is read off `ohat.image`, the one tagged echelon of the
    flattened rho table.  The basis is its rows; R_k, the O-coordinates
    of rho(b_k), is flats[k] read at the pivots (`images`); and P_i, a
    preimage of the basis element o_i, is the row's tag (`preimages`).
    The structure constants are read off A: o_i o_j = rho(P_i) rho(P_j) =
    rho(P_i P_j) = sum_k (P_i P_j)_k R_k.  This is exact because the hull build ends with `_verify`,
    which proves rho unital and multiplicative on every pair of basis
    elements of A; a hull that fails it never reaches O.  The same
    argument puts 1 = rho(1_A) in O.  `ohat` is a matric algebra
    returned by `hull`, which carries A as `ohat.algebra`.  No matric
    element is formed unless `basis_elements` or `coords_of` is asked.
    """

    def __init__(self, ohat):
        self.ohat = ohat
        self.field = ohat.field
        algebra = ohat.algebra
        image = ohat.image
        self.flat_len = ohat.flat_dim()
        self.basis_flat = image.rows
        self.dim = len(self.basis_flat)
        self.images = [[v[p] for p in image.pivots]           # R_k
                       for v in image.flats]
        self.preimages = pre = image.tags                     # P_i
        self.products = sparse_rows(
            [[self.rho_coords(algebra.mul(p, q)) for q in pre] for p in pre])
        self.unit = self.rho_coords(algebra.unit)
        self._span = None
        self._o_alg = None
        self.spaces_over = {}     # aSpec over O itself, by order (topology)

    def basis_elements(self):
        return [self.ohat.unflatten(v) for v in self.basis_flat]

    def coords_of(self, elem):
        if self._span is None:
            self._span = Span(self.field, self.basis_flat, self.flat_len)
        return self._span.coords(self.ohat.flatten(elem))

    def rho_coords(self, algebra_elem_coords):
        """O-coordinates of rho(x): sum_k x_k R_k."""
        return _combination(self.field, algebra_elem_coords, self.images,
                            self.dim)

    def as_algebra(self):
        """Structure constants of O on its echelon basis, a new Algebra
        on every call."""
        return Algebra(self.field, [f"o{i}" for i in range(self.dim)],
                       self.products, self.unit, validate=False)

    @property
    def o_alg(self):
        """`as_algebra()`, built once and shared by `o_algebra` and
        `maximal_ideals`, which only read it."""
        if self._o_alg is None:
            self._o_alg = self.as_algebra()
        return self._o_alg

    def degree0_blocks(self):
        """pi of the basis, per block i: the d_i x d_i matrices by which
        the basis elements act on M_i.  They are the first sum d_i^2
        columns of each basis row, block by block, row-major."""
        f = self.field
        out = []
        start = 0
        for d in self.ohat.dims:
            out.append([Mat.of_flat(f, row[start:start + d * d], d, d)
                        for row in self.basis_flat])
            start += d * d
        return out


def designated_units(ohat):
    """Basis data for {a : eta(a) = alpha * id on every block}.

    Returns (a0, kernel_vectors) with eta(a0) = id (None when only
    alpha = 0 occurs); a0 + kernel spans the unit locus.  eta(b_k) is
    read off the degree-0 columns of the rho table's flats."""
    f = ohat.field
    n = len(ohat.rho_table)
    d0 = ohat.flat_dim(0)
    cols = [v[:d0] for v in ohat.image.flats]
    id_flat = ohat.flatten(ohat.one(), 0)
    m = Mat(f, [[col[t] for col in cols] + [x]
                for t, x in enumerate(id_flat)], cols=n + 1)
    sols = kernel_basis(m)
    a0 = None
    kern = []
    for v in sols:
        coeff = v[n]
        vec = list(v[:n])
        if f.is_zero(coeff):
            kern.append(vec)
        else:
            scaled = [f.div(f.neg(x), coeff) for x in vec]
            if a0 is None:
                a0 = scaled
            else:
                kern.append([f.sub(x, y) for x, y in zip(scaled, a0)])
    return a0, row_space_basis(f, kern)


def o_algebra(ohat):
    """O^A(M) from the matric algebra, with the unit property enforced.

    Each designated unit u = rho(a), eta(a) = id, is written in
    O-coordinates as sum_k a_k R_k.  `_verify` proved pi . rho = eta, so
    y = 1 - u has no degree-0 part and y^(N+1) = 0 in the truncation of
    order N: t = sum_{s <= N} y^s, formed with O's table, must satisfy
    t u = u t = 1.  This is the geometric series of `invert_unit`, read
    in O: a two-sided inverse of u exists inside O."""
    o = OAlgebra(ohat)
    f = ohat.field
    a0, kern = designated_units(ohat)
    if a0 is not None:
        o_alg = o.o_alg
        candidates = [a0] + [[f.add(x, y) for x, y in zip(a0, v)]
                             for v in kern]
        for coords in candidates:
            if not _series_inverts(o_alg, o.rho_coords(coords), ohat.order):
                raise InternalInvariantError(
                    "unit inverse escapes im(rho) in the truncation")
    return o


def _series_inverts(o_alg, u, order):
    """Whether t = sum_{s <= order} y^s with y = 1 - u is a two-sided
    inverse of u (coordinates) in o_alg.  The powers stop at the first
    zero one, after which every term is zero."""
    f = o_alg.field
    one = o_alg.unit
    y = vec_sub(f, one, u)
    t = vec_add(f, one, y)
    power = y
    for _ in range(order - 1):
        power = o_alg.mul(power, y)
        if vec_is_zero(f, power):
            break
        t = vec_add(f, t, power)
    return o_alg.mul(t, u) == one and o_alg.mul(u, t) == one


def maximal_ideals(o):
    """The r ideals m_i = ker(pi_i) with their verification data.

    Returns a list of dicts: ideal basis (flat coords), quotient
    dimension, whether O/m_i is isomorphic to M_i as a module, and that
    every proper principal ideal lies in some m_i.

    pi_i of each basis element is read off the degree-0 columns of its
    row (`OAlgebra.degree0_blocks`); no matric element is formed.
    pi_i is multiplicative, so m_i is a two-sided ideal and O x O lies in
    m_i exactly when x does: a basis element with some pi_i(x) = 0 passes
    at once, and one outside every m_i passes only if `_two_sided_ideal`
    closes O x O up to all of O.  When every block is irreducible that
    closure always reaches O.  O/m_i has a faithful simple module, so it
    is simple and m_i is maximal.  The intersection K of the m_i holds
    only elements without a degree-0 part, so it is nilpotent: words
    longer than N vanish.  An ideal I in no m_i has I + K = O, since a
    maximal ideal over I + K would hold the product of the m_i, hence
    one m_i, and so equal it.  So I holds 1 - k for some k in K, which
    is a unit, and I = O.  The m_i are then exactly the maximal ideals
    of O.  A reducible block gives no such guarantee, and the closure
    decides."""
    f = o.field
    ohat = o.ohat
    o_alg = o.o_alg
    blocks = o.degree0_blocks()
    out = []
    for i, d in enumerate(ohat.dims):
        mats = blocks[i]
        m = Mat(f, [a.flat() for a in mats], cols=d * d)
        ker = kernel_basis(m.transpose())
        ker = row_space_basis(f, ker)
        image_dim = o.dim - len(ker)
        # module check: O/m_i acts irreducibly and matches M_i
        mod = ModuleRep(o_alg, mats, name=f"M{i + 1}", validate=True)
        simple = is_simple(mod)
        iso = (image_dim == d) and simple
        out.append({
            "ideal_basis": ker,
            "quotient_dim": image_dim,
            "module_dim": d,
            "irreducible": simple,
            "quotient_isomorphic_to_module": iso,
        })
    # every proper principal two-sided ideal sits inside some m_i
    for idx in range(o.dim):
        if any(mats[idx].is_zero() for mats in blocks):
            continue
        if len(_two_sided_ideal(o_alg, idx)) != o.dim:
            raise InternalInvariantError(
                "a proper principal ideal escapes every maximal ideal")
    return out


def _two_sided_ideal(o_alg, idx):
    """Basis (in rref) of O * o_idx * O: span(o_idx) closed under left and
    right multiplication by the basis of O, one layer of new products at
    a time, until a layer adds nothing or the span is all of O."""
    ech = _Echelon(o_alg.field, o_alg.dim)
    basis = [o_alg.basis_vector(t) for t in range(o_alg.dim)]
    layer = [basis[idx]]
    ech.insert(basis[idx])
    while layer and ech.dim() < o_alg.dim:
        new = []
        for x in layer:
            for b in basis:
                for v in (o_alg.mul(b, x), o_alg.mul(x, b)):
                    if ech.insert(v) is not None:
                        new.append(v)
        layer = new
    return ech.rows


def base_algebra_of(algebra, o, names):
    """O as a base algebra: its structure constants, with the images of
    the idempotents of `algebra` as its own when they validate, and the
    family's modules over it read off the degree-0 blocks of O's basis
    rows, named `names`.
    It builds its own `as_algebra()`, because it sets the idempotents."""
    o_alg = o.as_algebra()
    idems = [o.rho_coords(list(e)) for e in algebra.ensure_idempotents()]
    try:
        o_alg.validate_idempotents(idems)
        o_alg.idempotents = idems
    except ValidationError:
        pass  # fall back to lifting inside O
    modules = [ModuleRep(o_alg, mats, name=name, validate=True)
               for mats, name in zip(o.degree0_blocks(), names)]
    return o_alg, modules

