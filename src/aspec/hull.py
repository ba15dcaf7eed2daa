"""Noncommutative deformation hulls and the universal algebra O^A(M).

For a family M_1..M_r, the truncated hull H is a quotient of the free
r-pointed matric algebra on generators dual to the Ext^1 blocks, with
relations accumulated order by order from Ext^2-valued obstructions.
The lift rho: A -> H (x) Hom_k(M_i, M_j) is built in lockstep: at each
order the failure of multiplicativity on the new monomials is a
Hochschild 2-cocycle; its Ext^2 component extends the relations and the
coboundary part is absorbed into rho's next coefficients.  Free
variables in every solve are pinned to zero, so the output presentation
is deterministic.
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
    two_cocycle_classes_independent,
    two_cocycle_span,
)
from .linalg import (
    Mat,
    Span,
    _Echelon,
    row_space_basis,
    unit_vec,
)


def _word_sort_key(word):
    return (len(word), word)


class RPointedAlgebra:
    """Truncated r-pointed algebra: generators with blocks, monomial
    words modulo a relation ideal, augmentation onto k^r."""

    def __init__(self, field, r, generators, order, relations=()):
        self.field = field
        self.r = r
        self.generators = list(generators)       # (label, i, j)
        self.order = order                       # truncation N
        self.relations = [dict(rel) for rel in relations]
        self._build_words()
        self._build_reduction()

    def _build_words(self):
        words = {1: [(g,) for g in range(len(self.generators))]}
        for length in range(2, self.order + 1):
            layer = []
            for w in words[length - 1]:
                tail_block = self.generators[w[-1]][2]
                for g, (_, i, j) in enumerate(self.generators):
                    if i == tail_block:
                        layer.append(w + (g,))
            words[length] = sorted(layer)
        self.words_by_len = words
        self.all_words = []
        for length in range(1, self.order + 1):
            self.all_words.extend(sorted(words[length]))

    def word_block(self, word):
        return (self.generators[word[0]][1], self.generators[word[-1]][2])

    def _build_reduction(self):
        """Echelonize the relation ideal per block; pivots are the
        lowest words (adic convention: rewrite low degree upward)."""
        f = self.field
        per_block_words = {}
        for w in self.all_words:
            per_block_words.setdefault(self.word_block(w), []).append(w)
        for block in per_block_words:
            per_block_words[block].sort(key=_word_sort_key)
        self.block_words = per_block_words
        spans = {}
        for rel in self.relations:
            if not rel:
                continue
            block = self.word_block(next(iter(rel)))
            for u, v, prod in self._frames(rel, block):
                spans.setdefault(self.word_block(next(iter(prod))),
                                 []).append(prod)
        self._ech = {}
        for block, vecs in spans.items():
            coords = self.block_words[block]
            index = {w: k for k, w in enumerate(coords)}
            ech = _Echelon(self.field, len(coords))
            for vec in vecs:
                row = [f.zero] * len(coords)
                for w, c in vec.items():
                    row[index[w]] = f.add(row[index[w]], c)
                ech.insert(row)
            self._ech[block] = ech
        self.reduced_words = [w for w in self.all_words
                              if not self._is_pivot(w)]
        self.basis_keys = [("e", i) for i in range(self.r)] + \
            [("m", w) for w in self.reduced_words]
        self.dim = len(self.basis_keys)

    def _frames(self, rel, block):
        """All truncated products u * rel * v over monomial frames."""
        f = self.field
        lowdeg = min(len(w) for w in rel)
        out = []
        lefts = [()] + [w for w in self.all_words
                        if self.word_block(w)[1] == block[0]]
        rights = [()] + [w for w in self.all_words
                         if self.word_block(w)[0] == block[1]]
        for u in lefts:
            for v in rights:
                if len(u) + lowdeg + len(v) > self.order:
                    continue
                prod = {}
                for w, c in rel.items():
                    nw = u + w + v
                    if len(nw) <= self.order:
                        prod[nw] = f.add(prod.get(nw, f.zero), c)
                prod = {w: c for w, c in prod.items() if not f.is_zero(c)}
                if prod:
                    out.append((u, v, prod))
        return out

    def _is_pivot(self, word):
        block = self.word_block(word)
        ech = self._ech.get(block)
        if ech is None:
            return False
        coords = self.block_words[block]
        pos = coords.index(word)
        return pos in ech.pivots

    def reduce_scalar_dict(self, elem):
        """Reduce {key: scalar} modulo the ideal and the truncation."""
        f = self.field
        by_block = {}
        diag = {}
        for key, c in elem.items():
            if f.is_zero(c):
                continue
            if key[0] == "e":
                diag[key] = f.add(diag.get(key, f.zero), c)
            else:
                w = key[1]
                by_block.setdefault(self.word_block(w), {})[w] = f.add(
                    by_block.get(self.word_block(w), {}).get(w, f.zero), c)
        out = dict(diag)
        for block, vec in by_block.items():
            coords = self.block_words[block]
            index = {w: k for k, w in enumerate(coords)}
            row = [f.zero] * len(coords)
            for w, c in vec.items():
                row[index[w]] = c
            ech = self._ech.get(block)
            if ech is not None:
                row = ech.reduce(row)
            for w, c in zip(coords, row):
                if not f.is_zero(c):
                    out[("m", w)] = c
        return out

    # -- element arithmetic (elements: {key: scalar}) ----------------------

    def one(self):
        return {("e", i): self.field.one for i in range(self.r)}

    def iota(self, alphas):
        f = self.field
        return {("e", i): f.normalize(alphas[i]) for i in range(self.r)
                if not f.is_zero(f.normalize(alphas[i]))}

    def pi(self, elem):
        f = self.field
        return [elem.get(("e", i), f.zero) for i in range(self.r)]

    def add(self, x, y):
        f = self.field
        out = dict(x)
        for k, c in y.items():
            out[k] = f.add(out.get(k, f.zero), c)
        return {k: c for k, c in out.items() if not f.is_zero(c)}

    def scale(self, c, x):
        f = self.field
        return {k: f.mul(c, v) for k, v in x.items() if not f.is_zero(f.mul(c, v))}

    def neg(self, x):
        f = self.field
        return {k: f.neg(v) for k, v in x.items()}

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

    def mul(self, x, y):
        f = self.field
        out = {}
        for k1, c1 in x.items():
            for k2, c2 in y.items():
                k = self._compose_keys(k1, k2)
                if k is None:
                    continue
                out[k] = f.add(out.get(k, f.zero), f.mul(c1, c2))
        return self.reduce_scalar_dict(out)

    def is_zero(self, x):
        return all(self.field.is_zero(c) for c in x.values())

    def equal(self, x, y):
        return self.is_zero(self.add(x, self.neg(y)))

    def generator_element(self, g):
        return self.reduce_scalar_dict({("m", (g,)): self.field.one})

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
                          key=lambda r: sorted(map(_word_sort_key, r))):
            terms = []
            for w in sorted(rel, key=_word_sort_key):
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

    def check_smallness(self):
        """(ker pi_{n-1}) * m_n = 0 inside each stage H_n, evaluated in the
        final algebra by discarding words longer than n."""
        h = self.final
        f = h.field
        for n in range(3, h.order + 1):
            mword = [("m", w) for w in h.reduced_words if len(w) <= n]
            for w in h.reduced_words:
                if len(w) != n:
                    continue
                for mk in mword:
                    prod = h.mul({("m", w): f.one}, {mk: f.one})
                    if any((k[0] == "e" or len(k[1]) <= n)
                           and not f.is_zero(c) for k, c in prod.items()):
                        return False
        return True


class MatricOHat:
    """H (x)_{k^r} Hom_k(M_i, M_j) with the lift rho of eta.

    Elements: {key: Mat} with key ('e', i) carrying a d_i x d_i block
    and ('m', word) a d_i x d_j block for the word's ends.
    """

    def __init__(self, hull_alg, modules, rho_table):
        self.hull = hull_alg
        self.modules = modules
        self.rho_table = rho_table        # per algebra basis element
        self.field = hull_alg.field
        self.dims = [m.dim for m in modules]

    def key_shape(self, key):
        if key[0] == "e":
            return (self.dims[key[1]], self.dims[key[1]])
        i, j = self.hull.word_block(key[1])
        return (self.dims[i], self.dims[j])

    def zero_like(self, key):
        r, c = self.key_shape(key)
        return Mat.zeros(self.field, r, c)

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
        """Rewrite word keys through the hull's relation echelon."""
        h = self.hull
        f = self.field
        out = {}
        for key, m in elem.items():
            if m.is_zero():
                continue
            if key[0] == "e" or not h._is_pivot(key[1]):
                out[key] = out[key].add(m) if key in out else m
                continue
            # pivot word: rewrite each scalar entry through the echelon
            expansion = h.reduce_scalar_dict({key: f.one})
            for nk, c in expansion.items():
                scaled = m.scale(c)
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

    def flat_dim(self, order=None):
        total = sum(d * d for d in self.dims)
        for w in self._flat_words(order):
            r, c = self.key_shape(("m", w))
            total += r * c
        return total


def invert_unit(ambient, elem):
    """Two-sided inverse of iota(alpha) - x with nilpotent x (unit lemma).

    ambient: RPointedAlgebra or MatricOHat; elem's degree-0 part must be
    a nonzero scalar on every block."""
    f = ambient.field
    alphas = []
    pi_part = ambient.pi(elem)
    if isinstance(ambient, MatricOHat):
        for i, m in enumerate(pi_part):
            d = m.rows
            a = m.data[0][0] if d else f.one
            scalar = Mat.identity(f, d).scale(a)
            if m != scalar or f.is_zero(a):
                raise NotAUnitError(
                    f"block {i} is not a nonzero scalar; cannot invert")
            alphas.append(a)
    else:
        for i, a in enumerate(pi_part):
            if f.is_zero(a):
                raise NotAUnitError(f"diagonal scalar {i} vanishes")
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
        if steps > ambient_order(ambient) + 2:
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


def ambient_order(ambient):
    return ambient.order if isinstance(ambient, RPointedAlgebra) \
        else ambient.hull.order


class _HullBuilder:
    """Order-by-order construction of the hull and rho."""

    def __init__(self, algebra, modules, order):
        if order < 2:
            raise InputError("truncation order must be >= 2")
        if not modules:
            raise InputError("module family is empty")
        self.algebra = algebra
        self.modules = list(modules)
        self.order = order
        self.field = algebra.field
        self.r = len(modules)
        self._split_spans = {}
        self._prepare_ext()

    def _prepare_ext(self):
        self.resolutions = {}
        self.ext1 = {}
        self.ext2 = {}
        self.ext2_hh = {}
        self.deriv_seed = {}
        generators = []
        semisimple = not self.algebra.radical_basis()
        for i, mi in enumerate(self.modules):
            if not semisimple:
                res = Resolution(mi)
                self.resolutions[i] = res
                bc = BarComparison(res)
            for j, mj in enumerate(self.modules):
                if semisimple:
                    e1 = ext(mi, mj, 1)
                    e2 = ext(mi, mj, 2)
                else:
                    e1 = ext(mi, mj, 1, resolution=self.resolutions[i])
                    e2 = ext(mi, mj, 2, resolution=self.resolutions[i])
                self.ext1[(i, j)] = e1
                self.ext2[(i, j)] = e2
                hh2 = [] if semisimple else [
                    bc.two_cochain_of(c) for c in e2.cocycles]
                if hh2 and not two_cocycle_classes_independent(
                        self.algebra, mi, mj, hh2):
                    raise InternalInvariantError(
                        "converted Ext^2 basis lost independence in HH^2")
                self.ext2_hh[(i, j)] = hh2
                for s, coc in enumerate(e1.cocycles):
                    label = f"t{len(generators) + 1}"
                    generators.append((label, i, j))
                    self.deriv_seed[len(generators) - 1] = \
                        bc.derivation_of(coc)
        self.generators = generators

    def build(self):
        hull_alg, C, new_by_stage = self._run_stages(self.order)
        ohat = MatricOHat(hull_alg, self.modules,
                          self._rho_table(hull_alg, C))
        self._verify(ohat)
        tower = HullTower(hull_alg)
        tower.new_relations_by_stage = new_by_stage
        if not tower.check_smallness():
            raise InternalInvariantError("tower smallness condition fails")
        # stabilization: last stage added nothing and the image dimension
        # matches the one at order N-1, read off the same pass (pivots are
        # the lowest words, so the stage N-1 reduction is this one cut at
        # N-1); at N = 2 the only finite certificate is vanishing Ext^2
        # (no relation can ever appear)
        stab = not new_by_stage.get(self.order)
        if stab and self.order >= 3:
            stab = _image_dim(ohat) == _image_dim(ohat, self.order - 1)
        elif stab:
            stab = all(e.dimension == 0 for e in self.ext2.values())
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
        C = {(g,): psi for g, psi in self.deriv_seed.items()}
        new_by_stage = {}
        for stage in range(2, last + 1):
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
            if all(m.is_zero() for m in coch.values()):
                continue
            block = hull_alg.word_block(w)
            mi, mj = self.modules[block[0]], self.modules[block[1]]
            if not is_two_cocycle(self.algebra, mi, mj, coch):
                raise InternalInvariantError(
                    "stage defect is not a Hochschild 2-cocycle")
            if block not in self._split_spans:
                self._split_spans[block] = two_cocycle_span(
                    self.algebra, mi, mj, self.ext2_hh[block])
            out[w] = split_two_cocycle(self.algebra, mi, mj, coch,
                                       self._split_spans[block])
        return out

    def _stage_defects(self, stage, hull_alg, C):
        """Defect 2-cochains on the reduced words of the given length."""
        f = self.field
        algebra = self.algebra
        ohat = MatricOHat(hull_alg, self.modules,
                          self._rho_table(hull_alg, C))
        words = [w for w in hull_alg.reduced_words if len(w) == stage]
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
                    block = hull_alg.word_block(w)
                    di = self.modules[block[0]].dim
                    dj = self.modules[block[1]].dim
                    m = delta.get(("m", w))
                    out[w][(a, b)] = m if m is not None else \
                        Mat.zeros(f, di, dj)
        return out

    def _rho_table(self, hull_alg, C):
        f = self.field
        table = []
        for a in range(self.algebra.dim):
            elem = {}
            for i, m in enumerate(self.modules):
                blockm = m.action[a]
                if not blockm.is_zero():
                    elem[("e", i)] = blockm
            for w, psi in C.items():
                if hull_alg._is_pivot(w):
                    continue
                mat = psi[a]
                if not mat.is_zero():
                    elem[("m", w)] = mat
            table.append(elem)
        return table

    def _refold(self, hull_alg, C):
        """Re-express C on the new reduced words after a relation update."""
        f = self.field
        out = {}
        for w, psi in C.items():
            if not hull_alg._is_pivot(w):
                if w in out:
                    out[w] = [a.add(b) for a, b in zip(out[w], psi)]
                else:
                    out[w] = list(psi)
                continue
            expansion = hull_alg.reduce_scalar_dict({("m", w): f.one})
            for key, c in expansion.items():
                if key[0] == "e":
                    raise InternalInvariantError(
                        "word reduced to degree zero")
                nw = key[1]
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


def hull(algebra, modules, order=None):
    """Truncated pro-representing hull and matric algebra with rho."""
    if order is None:
        order = max(2, default_order(algebra))
    builder = _HullBuilder(algebra, modules, order)
    tower, ohat = builder.build()
    # tangent-space correctness: generator counts match Ext^1 dimensions
    counts = {}
    for label, i, j in tower.final.generators:
        counts[(i, j)] = counts.get((i, j), 0) + 1
    for (i, j), e in builder.ext1.items():
        if counts.get((i, j), 0) != e.dimension:
            raise InternalInvariantError("tangent dimension mismatch")
    ohat.ext1 = builder.ext1
    ohat.ext2 = builder.ext2
    return tower, ohat


def compute_rho(algebra, modules, tower):
    """Recompute rho against a frozen tower (relations fixed).

    An unsolvable lift here means the tower's relations are inconsistent
    with the obstruction calculus: internal error."""
    builder = _HullBuilder(algebra, modules, tower.final.order)
    t2, ohat = builder.build()
    if sorted(map(sorted, (r.items() for r in t2.final.relations))) != \
            sorted(map(sorted, (r.items() for r in tower.final.relations))):
        raise InternalInvariantError(
            "frozen tower disagrees with the obstruction calculus")
    return ohat


def massey_step(algebra, modules, order):
    """Obstruction classes at the given order for the canonical defining
    system: {word: Ext^2 coordinate list}, on the reduced words of that
    length.  At order 2 this is the cup product on dual generators."""
    builder = _HullBuilder(algebra, modules, max(order, 2))
    f = algebra.field
    hull_alg, C, _ = builder._run_stages(order - 1)
    classes = builder._stage_classes(order, hull_alg, C)
    out = {}
    for w in hull_alg.reduced_words:
        if len(w) != order:
            continue
        if w in classes:
            out[w] = classes[w][0]
        else:
            out[w] = [f.zero] * len(builder.ext2_hh[hull_alg.word_block(w)])
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
        self._check_closure()

    def _check_closure(self):
        f = self.field
        elems = [self._unflatten(v) for v in self.basis_flat]
        for x in elems:
            for y in elems:
                prod = self.ohat.mul(x, y)
                if self.coords_of(prod) is None:
                    raise InternalInvariantError(
                        "im(rho) span is not multiplicatively closed")
        if self.coords_of(self.ohat.one()) is None:
            raise InternalInvariantError("O does not contain 1")

    def _unflatten(self, flat):
        f = self.field
        out = {}
        pos = 0
        dims = self.ohat.dims
        for i, d in enumerate(dims):
            block = [flat[pos + r * d:pos + (r + 1) * d] for r in range(d)]
            pos += d * d
            m = Mat(f, block, cols=d)
            if not m.is_zero():
                out[("e", i)] = m
        for w in self.ohat.hull.reduced_words:
            r, c = self.ohat.key_shape(("m", w))
            block = [flat[pos + rr * c:pos + (rr + 1) * c] for rr in range(r)]
            pos += r * c
            m = Mat(f, block, cols=c)
            if not m.is_zero():
                out[("m", w)] = m
        return out

    def basis_elements(self):
        return [self._unflatten(v) for v in self.basis_flat]

    def coords_of(self, elem):
        return self._span.coords(self.ohat.flatten(elem))

    def contains(self, elem):
        return self._span.contains(self.ohat.flatten(elem))

    def rho_coords(self, algebra_elem_coords):
        return self.coords_of(self.ohat.rho(algebra_elem_coords))

    def as_algebra(self, labels=None):
        """Structure constants of O on its echelon basis."""
        f = self.field
        elems = self.basis_elements()
        labels = labels or [f"o{i}" for i in range(self.dim)]
        table = []
        for x in elems:
            row = []
            for y in elems:
                coords = self.coords_of(self.ohat.mul(x, y))
                if coords is None:
                    raise InternalInvariantError("closure lost")
                row.append(coords)
            table.append(row)
        unit = self.coords_of(self.ohat.one())
        return Algebra(f, labels, table, unit, validate=False)

    def block_action(self, i, elem):
        """pi_i of an O element: its action on M_i."""
        return self.ohat.pi(elem)[i]


def designated_units(ohat):
    """Basis data for {a : eta(a) = alpha * id on every block}.

    Returns (a0, kernel_vectors) with eta(a0) = id (None when only
    alpha = 0 occurs); a0 + kernel spans the unit locus."""
    f = ohat.field
    n = len(ohat.rho_table)
    total = sum(d * d for d in ohat.dims)
    cols = []
    for a in range(n):
        flat = []
        pi_a = ohat.pi(ohat.rho_table[a])
        for i in range(len(ohat.dims)):
            flat.extend(sum(pi_a[i].data, []))
        cols.append(flat)
    id_flat = []
    for d in ohat.dims:
        id_flat.extend(sum(Mat.identity(f, d).data, []))
    m = Mat(f, [[cols[a][t] for a in range(n)] + [id_flat[t]]
                for t in range(total)], cols=n + 1)
    from .linalg import kernel_basis
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
    from .linalg import kernel_basis
    from .modules import ModuleRep, is_simple
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
    for idx, x in enumerate(elems):
        span = _two_sided_ideal(o, x)
        if len(span) == o.dim:
            continue
        if not any(all(ideal.contains(v) for v in span)
                   for ideal in ideal_spans):
            raise InternalInvariantError(
                "a proper principal ideal escapes every maximal ideal")
    return out


def _two_sided_ideal(o, x):
    f = o.field
    elems = o.basis_elements()
    vecs = []
    for u in elems:
        for v in elems:
            prod = o.ohat.mul(o.ohat.mul(u, x), v)
            vecs.append(o.coords_of(prod))
    return row_space_basis(f, [v for v in vecs if v is not None],
                           length=o.dim)


def closure_check(algebra, modules, order=None):
    """O^{O^A(M)}(M) == O^A(M) via the canonical map (dims + bijectivity)."""
    if order is None:
        order = max(2, default_order(algebra))
    tower, ohat = hull(algebra, modules, order)
    o = o_algebra(ohat)
    o_alg = o.as_algebra()
    # idempotents of O: images of the base idempotents
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
    from .modules import ModuleRep
    new_modules = []
    for i, m in enumerate(modules):
        mats = [o.block_action(i, e) for e in o.basis_elements()]
        new_modules.append(ModuleRep(o_alg, mats, name=m.name, validate=True))
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
