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

`RPointedAlgebra` holds only the presentation of H; elements are
computed in `MatricOHat`, the matric algebra with blocks of size
dim M_i.  H itself is the same algebra with every block 1x1.
"""

from __future__ import annotations

from .algebra import Algebra
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
    _Echelon,
    kernel_basis,
    row_space_basis,
    unit_vec,
)
from .modules import ModuleRep, is_simple
from .rewrite import Rewriter, deglex


# Most words (lengths 1..N, all blocks) a truncated r-pointed algebra
# may enumerate: the first stage has no relations and enumerates them all.
# The double loop at order 11 has 4094 words and its hull takes about
# 0.03 s and 57 MB (CPython 3.11, one Xeon core).
WORD_BUDGET = 4096


def _word_count(r, generators, order):
    """Words of length 1..order: the entry sum of A + A^2 + ... + A^order,
    A the r x r matrix of generator counts per block.  Past WORD_BUDGET + 1
    lengths it stops: every nonzero A^L adds at least one word, so the
    count is then over the budget whatever the order."""
    adj = [[0] * r for _ in range(r)]
    for _, i, j in generators:
        adj[i][j] += 1
    count = 0
    power = adj
    for _ in range(min(order, WORD_BUDGET + 1)):
        count += sum(map(sum, power))
        power = [[sum(row[k] * adj[k][j] for k in range(r))
                  for j in range(r)] for row in power]
    return count


class RPointedAlgebra:
    """Presentation of a truncated r-pointed algebra: generators with
    blocks, monomial words modulo a relation ideal, augmentation onto
    k^r.  Its reduced words are the irreducible words of the relations'
    rewriting system, grown layer by layer.  Elements and their
    arithmetic live in MatricOHat, which is H itself with 1x1 blocks."""

    def __init__(self, field, r, generators, order, relations=()):
        self.field = field
        self.r = r
        self.generators = list(generators)       # (label, i, j)
        self.order = order                       # truncation N
        self.relations = [dict(rel) for rel in relations]
        count = _word_count(r, self.generators, order)
        if count > WORD_BUDGET:
            if order > WORD_BUDGET + 1:
                count = f"more than {WORD_BUDGET}"
            raise InputError(
                f"truncation order {order} gives {count} words, over "
                f"the budget of {WORD_BUDGET}")
        self.rewriter = Rewriter(field, order)
        for rel in self.relations:
            self.rewriter.add_relation(rel)
        self.rewriter.complete()
        layers = self.rewriter.irreducible_words(self.generators, order)
        self.all_words = [w for candidates, _ in layers for w in candidates]
        self.words_by_len = {length: good
                             for length, (_, good) in enumerate(layers, 1)}
        self.reduced_words = [w for _, good in layers for w in good]
        self._reduced = set(self.reduced_words)
        self._normal_forms = {}
        self.basis_keys = [("e", i) for i in range(self.r)] + \
            [("m", w) for w in self.reduced_words]
        self.dim = len(self.basis_keys)

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

    def _key_block(self, key):
        if key[0] == "e":
            return (key[1], key[1])
        return self.word_block(key[1])

    def _compose_keys(self, k1, k2):
        b1 = self._key_block(k1)
        b2 = self._key_block(k2)
        if b1[1] != b2[0]:
            return None
        if k1[0] == "e":
            return k2
        if k2[0] == "e":
            return k1
        w = k1[1] + k2[1]
        if len(w) > self.order:
            return None
        return ("m", w)

    def truncate(self, order):
        """Stage algebra at a lower order (surjection by discarding)."""
        rels = []
        for rel in self.relations:
            tr = {w: c for w, c in rel.items() if len(w) <= order}
            if tr:
                rels.append(tr)
        return RPointedAlgebra(self.field, self.r, self.generators, order,
                               rels)

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
    """Stages H_2 <- H_3 <- ... <- H_N of the truncated hull."""

    def __init__(self, final):
        self.final = final
        self.stabilized = None     # set by hull()
        self.new_relations_by_stage = {}

    def stage(self, n):
        """H_n: the final algebra with words longer than n discarded."""
        if n == self.final.order:
            return self.final
        return self.final.truncate(n)


class MatricOHat:
    """H (x)_{k^r} Hom_k(M_i, M_j) for a hull algebra H and block sizes
    d_i = dim M_i, with the lift rho of eta as a table over the algebra's
    basis.  With every block 1x1 (the default) it is H itself.

    Elements: {key: Mat} with key ('e', i) carrying a d_i x d_i block
    and ('m', word) a d_i x d_j block for the word's ends.
    """

    def __init__(self, hull_alg, dims=None, rho_table=()):
        self.hull = hull_alg
        self.order = hull_alg.order
        self.field = hull_alg.field
        self.dims = [1] * hull_alg.r if dims is None else list(dims)
        self.rho_table = list(rho_table)   # per algebra basis element

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
        h = self.hull
        raw = {}
        for k1, m1 in x.items():
            for k2, m2 in y.items():
                k = h._compose_keys(k1, k2)
                if k is None:
                    continue
                prod = m1.mul(m2)
                raw[k] = raw[k].add(prod) if k in raw else prod
        return self._reduce(raw)

    def _reduce(self, elem):
        """Rewrite word keys to the hull's normal forms."""
        h = self.hull
        out = {}
        for key, m in elem.items():
            if m.is_zero():
                continue
            if key[0] == "e" or h.is_reduced(key[1]):
                out[key] = out[key].add(m) if key in out else m
                continue
            for w, c in h.normal_form(key[1]).items():
                scaled = m.scale(c)
                nk = ("m", w)
                out[nk] = out[nk].add(scaled) if nk in out else scaled
        return {k: m for k, m in out.items() if not m.is_zero()}

    def is_zero(self, x):
        return all(m.is_zero() for m in x.values())

    def equal(self, x, y):
        return self.is_zero(self.add(x, self.neg(y)))

    def rho(self, elem_coords):
        """rho of an algebra element given by basis coordinates."""
        f = self.field
        out = {}
        for c, table_elem in zip(elem_coords, self.rho_table):
            if f.is_zero(c):
                continue
            out = self.add(out, self.scale(c, table_elem))
        return out

    def _flat_words(self, order):
        words = self.hull.reduced_words
        return words if order is None else [w for w in words
                                            if len(w) <= order]

    def flatten(self, elem, order=None):
        """Deterministic flat coordinate vector of an element; with an
        order, its image in the stage of that order (longer words
        discarded)."""
        f = self.field
        coords = []
        for i in range(len(self.dims)):
            m = elem.get(("e", i))
            d = self.dims[i]
            block = m.data if m is not None else [[f.zero] * d] * d
            for row in block:
                coords.extend(row)
        for w in self._flat_words(order):
            key = ("m", w)
            r, c = self.key_shape(key)
            m = elem.get(key)
            block = m.data if m is not None else [[f.zero] * c] * r
            for row in block:
                coords.extend(row)
        return coords

    def unflatten(self, flat):
        """The element with the given flat coordinates (inverse of
        flatten without an order)."""
        f = self.field
        out = {}
        pos = 0
        keys = [("e", i) for i in range(len(self.dims))] + \
            [("m", w) for w in self.hull.reduced_words]
        for key in keys:
            r, c = self.key_shape(key)
            m = Mat(f, [flat[pos + i * c:pos + (i + 1) * c]
                        for i in range(r)], cols=c)
            pos += r * c
            if not m.is_zero():
                out[key] = m
        return out

    def flat_dim(self, order=None):
        total = sum(d * d for d in self.dims)
        for w in self._flat_words(order):
            r, c = self.key_shape(("m", w))
            total += r * c
        return total


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
        hull_alg, C, new_by_stage = self._run_stages(self.order)
        ohat = self._matric(hull_alg, C)
        self._verify(ohat)
        tower = HullTower(hull_alg)
        tower.new_relations_by_stage = new_by_stage
        # stabilization: last stage added nothing and the image dimension
        # matches the one at order N-1, read off the same pass (pivots are
        # the lowest words, so the stage N-1 reduction is this one cut at
        # N-1); at N = 2 the only finite certificate is vanishing Ext^2
        # (no relation can ever appear)
        stab = not new_by_stage.get(self.order)
        if stab and self.order >= 3:
            stab = _image_dim(ohat) == _image_dim(ohat, self.order - 1)
        elif stab:
            stab = all(p.ext2.dimension == 0 for p in self.pairs.values())
        tower.stabilized = bool(stab)
        return tower, ohat

    def _run_stages(self, last):
        """One pass over stages 2..last: correct each defect, extend the
        relations and refold C.  Returns (hull_alg, C, new relation keys
        per stage)."""
        f = self.field
        relations = {}        # (i, j, l) -> {word: coeff}
        hull_alg = RPointedAlgebra(f, self.r, self.generators, self.order, [])
        # C: word -> 1-cochain (list of Mats per algebra basis element)
        C = {(g,): psi for g, psi in enumerate(self.deriv_seed)}
        new_by_stage = {}
        for stage in range(2, last + 1):
            # reduced words are closed under factors: an empty layer
            # stays empty at every later length, so no defect is left
            if not hull_alg.words_by_len.get(stage):
                break
            stage_new = []
            for w, (lambdas, psi) in self._stage_classes(
                    stage, hull_alg, C).items():
                block = hull_alg.word_block(w)
                C[w] = psi
                for l, lam in enumerate(lambdas):
                    if f.is_zero(lam):
                        continue
                    key = (block[0], block[1], l)
                    rel = relations.setdefault(key, {})
                    rel[w] = f.add(rel.get(w, f.zero), lam)
                    stage_new.append((key, w))
            new_by_stage[stage] = stage_new
            if stage_new:
                hull_alg = RPointedAlgebra(
                    f, self.r, self.generators, self.order,
                    list(relations.values()))
                C = self._refold(hull_alg, C)
        return hull_alg, C, new_by_stage

    def _stage_classes(self, stage, hull_alg, C):
        """Split each nonzero defect of the given stage into its Ext^2
        coordinates and a coboundary part: {word: (lambdas, psi)}."""
        out = {}
        for w, coch in self._stage_defects(stage, hull_alg, C).items():
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

    def _stage_defects(self, stage, hull_alg, C):
        """Defect 2-cochains on the reduced words of the given length,
        each {(a, b): Mat} over its nonzero pairs only."""
        algebra = self.algebra
        ohat = self._matric(hull_alg, C)
        words = hull_alg.words_by_len.get(stage, [])
        out = {w: {} for w in words}
        for a in range(algebra.dim):
            rho_a = ohat.rho_table[a]
            for b in range(algebra.dim):
                rho_b = ohat.rho_table[b]
                prod = ohat.mul(rho_a, rho_b)
                target = ohat.rho(algebra.table[a][b])
                delta = ohat.add(target, ohat.neg(prod))
                for key, m in delta.items():
                    if key[0] == "e":
                        raise InternalInvariantError(
                            "defect has a degree-0 component")
                    if len(key[1]) < stage:
                        raise InternalInvariantError(
                            "defect below the current stage")
                for w in words:
                    m = delta.get(("m", w))
                    if m is not None and not m.is_zero():
                        out[w][(a, b)] = m
        return out

    def _matric(self, hull_alg, C):
        """The matric algebra over hull_alg with rho read off C."""
        table = []
        for a in range(self.algebra.dim):
            elem = {}
            for i, m in enumerate(self.modules):
                blockm = m.action[a]
                if not blockm.is_zero():
                    elem[("e", i)] = blockm
            for w, psi in C.items():
                if not hull_alg.is_reduced(w):
                    continue
                mat = psi[a]
                if not mat.is_zero():
                    elem[("m", w)] = mat
            table.append(elem)
        return MatricOHat(hull_alg, [m.dim for m in self.modules], table)

    def _refold(self, hull_alg, C):
        """Re-express C on the new reduced words after a relation update."""
        out = {}
        for w, psi in C.items():
            for nw, c in hull_alg.normal_form(w).items():
                scaled = [m.scale(c) for m in psi]
                if nw in out:
                    out[nw] = [a.add(b) for a, b in zip(out[nw], scaled)]
                else:
                    out[nw] = scaled
        return out

    def _verify(self, ohat):
        """rho is unital and multiplicative, and pi . rho = eta exactly."""
        algebra = self.algebra
        one = ohat.rho(list(algebra.unit))
        if not ohat.equal(one, ohat.one()):
            raise InternalInvariantError("rho(1) != 1")
        for a in range(algebra.dim):
            pi_a = ohat.pi(ohat.rho_table[a])
            for i, m in enumerate(self.modules):
                if pi_a[i] != m.action[a]:
                    raise InternalInvariantError("pi . rho != eta")
            for b in range(algebra.dim):
                prod = ohat.mul(ohat.rho_table[a], ohat.rho_table[b])
                target = ohat.rho(algebra.table[a][b])
                if not ohat.equal(prod, target):
                    raise InternalInvariantError(
                        "rho is not multiplicative in the truncation")


def _image_dim(ohat, order=None):
    """dim im(rho), or of its image in the stage of the given order."""
    flats = [ohat.flatten(t, order) for t in ohat.rho_table]
    return len(row_space_basis(ohat.field, flats,
                               length=ohat.flat_dim(order)))


def default_order(algebra):
    return algebra.radical_index() + 1


def hull(algebra, modules, order=None, ext_data=None):
    """Truncated pro-representing hull and matric algebra with rho.

    ext_data is an ExtData of the algebra to read the Ext blocks from;
    without one the hull builds its own."""
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
    ohat.modules = builder.modules
    ohat.ext1 = {block: p.ext1 for block, p in builder.pairs.items()}
    ohat.ext2 = {block: p.ext2 for block, p in builder.pairs.items()}
    return tower, ohat


def massey_step(algebra, modules, order):
    """Obstruction classes at the given order for the canonical defining
    system: {word: Ext^2 coordinate list}, on the reduced words of that
    length.  At order 2 this is the cup product on dual generators."""
    builder = _HullBuilder(algebra, modules, max(order, 2))
    f = algebra.field
    hull_alg, C, _ = builder._run_stages(order - 1)
    classes = builder._stage_classes(order, hull_alg, C)
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
    has its geometric-series inverse already inside im(rho), so O is
    the span of the rho table; the inverses are still computed and
    their membership asserted.
    """

    def __init__(self, ohat):
        self.ohat = ohat
        self.field = ohat.field
        flats = [ohat.flatten(t) for t in ohat.rho_table]
        self.flat_len = ohat.flat_dim()
        self.basis_flat = row_space_basis(self.field, flats,
                                          length=self.flat_len)
        self.dim = len(self.basis_flat)
        self._span = Span(self.field, self.basis_flat, self.flat_len)
        self._elems = [ohat.unflatten(v) for v in self.basis_flat]
        # the structure table is the closure check: every product of two
        # basis elements has coordinates in the basis
        self.table = []
        for x in self._elems:
            row = []
            for y in self._elems:
                coords = self.coords_of(ohat.mul(x, y))
                if coords is None:
                    raise InternalInvariantError(
                        "im(rho) span is not multiplicatively closed")
                row.append(coords)
            self.table.append(row)
        self.unit = self.coords_of(ohat.one())
        if self.unit is None:
            raise InternalInvariantError("O does not contain 1")

    def basis_elements(self):
        return list(self._elems)

    def coords_of(self, elem):
        return self._span.coords(self.ohat.flatten(elem))

    def contains(self, elem):
        return self._span.contains(self.ohat.flatten(elem))

    def rho_coords(self, algebra_elem_coords):
        return self.coords_of(self.ohat.rho(algebra_elem_coords))

    def as_algebra(self, labels=None):
        """Structure constants of O on its echelon basis."""
        labels = labels or [f"o{i}" for i in range(self.dim)]
        return Algebra(self.field, labels, self.table, self.unit,
                       validate=False)

    def block_action(self, i, elem):
        """pi_i of an O element: its action on M_i."""
        return self.ohat.pi(elem)[i]


def designated_units(ohat):
    """Basis data for {a : eta(a) = alpha * id on every block}.

    Returns (a0, kernel_vectors) with eta(a0) = id (None when only
    alpha = 0 occurs); a0 + kernel spans the unit locus."""
    f = ohat.field
    n = len(ohat.rho_table)
    cols = [ohat.flatten(t, 0) for t in ohat.rho_table]
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
    return a0, row_space_basis(f, kern, length=n)


def o_algebra(ohat):
    """O^A(M) from the matric algebra, with the unit property enforced."""
    o = OAlgebra(ohat)
    f = ohat.field
    # designated units: rho(a) for eta(a) = id * alpha, alpha != 0
    a0, kern = designated_units(ohat)
    if a0 is not None:
        candidates = [a0] + [[f.add(x, y) for x, y in zip(a0, v)]
                             for v in kern]
        for coords in candidates:
            elem = ohat.rho(coords)
            inv = invert_unit(ohat, elem)
            if not o.contains(inv):
                raise InternalInvariantError(
                    "unit inverse escapes im(rho) in the truncation")
    return o


def maximal_ideals(o):
    """The r ideals m_i = ker(pi_i) with their verification data.

    Returns a list of dicts: ideal basis (flat coords), quotient
    dimension, whether O/m_i is isomorphic to M_i as a module, and that
    every proper principal ideal lies in some m_i."""
    f = o.field
    ohat = o.ohat
    r = len(ohat.dims)
    elems = o.basis_elements()
    o_alg = o.as_algebra()
    out = []
    ideal_spans = []
    for i in range(r):
        rows = []
        for e in elems:
            rows.append(sum(ohat.pi(e)[i].data, []))
        m = Mat(f, rows, cols=ohat.dims[i] ** 2)
        ker = kernel_basis(m.transpose())
        ker = row_space_basis(f, ker, length=o.dim)
        image_dim = o.dim - len(ker)
        # module check: O/m_i acts irreducibly and matches M_i
        mats = [ohat.pi(elems[idx])[i] for idx in range(o.dim)]
        mod = ModuleRep(o_alg, mats, name=f"M{i + 1}", validate=True)
        simple = is_simple(mod)
        iso = (image_dim == ohat.dims[i]) and simple
        out.append({
            "ideal_basis": ker,
            "quotient_dim": image_dim,
            "module_dim": ohat.dims[i],
            "irreducible": simple,
            "quotient_isomorphic_to_module": iso,
        })
        ideal_spans.append(Span(f, ker, o.dim))
    # every proper principal two-sided ideal sits inside some m_i
    for idx in range(o.dim):
        span = _two_sided_ideal(o_alg, idx)
        if len(span) == o.dim:
            continue
        if not any(all(ideal.contains(v) for v in span)
                   for ideal in ideal_spans):
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
    family's modules over it read off the block actions, named `names`."""
    o_alg = o.as_algebra()
    idems = []
    for e in algebra.ensure_idempotents():
        coords = o.rho_coords(list(e))
        if coords is None:
            raise InternalInvariantError("rho(idempotent) escapes O")
        idems.append(coords)
    try:
        o_alg.validate_idempotents(idems)
        o_alg.idempotents = idems
    except ValidationError:
        pass  # fall back to lifting inside O
    elems = o.basis_elements()
    modules = [ModuleRep(o_alg, [o.block_action(i, e) for e in elems],
                         name=name, validate=True)
               for i, name in enumerate(names)]
    return o_alg, modules


def closure_check(algebra, o):
    """O^{O^A(M)}(M) == O^A(M) via the canonical map (dims + bijectivity).

    o is O^A(M), already built; the family M and the truncation order
    are read off it, and only the hull over O is built here."""
    o_alg, new_modules = base_algebra_of(
        algebra, o, [m.name for m in o.ohat.modules])
    order = o.ohat.hull.order
    tower2, ohat2 = hull(o_alg, new_modules, order)
    o2 = o_algebra(ohat2)
    if o2.dim != o.dim:
        return False, {"reason": "dimension mismatch",
                       "dim_first": o.dim, "dim_second": o2.dim}
    # canonical map: O -> O2 by rho2 on O's basis
    images = []
    for idx in range(o.dim):
        coords = unit_vec(o.field, o.dim, idx)
        img = o2.rho_coords(list(coords))
        if img is None:
            raise InternalInvariantError("canonical map escapes O2")
        images.append(img)
    bij = len(row_space_basis(o.field, images, length=o2.dim)) == o.dim
    return bij, {"dim_first": o.dim, "dim_second": o2.dim}
