"""Path algebras of quivers modulo admissible relations.

Paths compose left to right: p*q traverses p, then q, and needs
target(p) == source(q).  The rewriting engine of `rewrite` (Bergman's
diamond lemma, the highest degree-lexicographic arrow word leading each
rule, no truncation) turns the surviving paths into the algebra basis.
"""

from __future__ import annotations

from .algebra import Algebra
from .errors import InfiniteDimensionalError, InputError, ValidationError
from .fields import QQ
from .linalg import row_space_basis, unit_vec
from .rewrite import Rewriter


class QuiverPresentation:
    """vertices: names; arrows: (name, source, target); relations:
    lists of (coeff, [arrow names]) over parallel composable paths."""

    def __init__(self, vertices, arrows, relations=()):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex names")
        self.arrows = [tuple(a) for a in arrows]
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise InputError("duplicate arrow names")
        vset = set(self.vertices)
        for name, src, tgt in self.arrows:
            if src not in vset or tgt not in vset:
                raise InputError(f"arrow {name!r} references unknown vertex")
        self.relations = [list(terms) for terms in relations]
        self._arrow_index = {a[0]: i for i, a in enumerate(self.arrows)}
        self._check_relations()
        # filled by from_quiver
        self.arrow_ideal_basis = None
        self.vertex_idempotents = None

    def _check_relations(self):
        for terms in self.relations:
            if not terms:
                raise InputError("empty relation")
            ends = None
            for coeff, path in terms:
                if len(path) < 2:
                    raise ValidationError(
                        "relation term of length < 2; relations must lie in "
                        "the square of the arrow ideal")
                prev_tgt = None
                for name in path:
                    if name not in self._arrow_index:
                        raise InputError(f"relation uses unknown arrow {name!r}")
                    _, src, tgt = self.arrows[self._arrow_index[name]]
                    if prev_tgt is not None and src != prev_tgt:
                        raise ValidationError(
                            f"non-composable relation term {'.'.join(path)}")
                    prev_tgt = tgt
                src0 = self.arrows[self._arrow_index[path[0]]][1]
                tgt0 = prev_tgt
                if ends is None:
                    ends = (src0, tgt0)
                elif ends != (src0, tgt0):
                    raise ValidationError("relation terms are not parallel")

    def word_of(self, path_names):
        return tuple(self._arrow_index[n] for n in path_names)


def from_quiver(presentation, field=QQ, max_degree=24, validate=True):
    """Algebra of the quiver modulo its relations.

    Detects (rather than assumes) finite-dimensionality; the error names
    the degree at which irreducible paths persist.
    """
    q = presentation
    rw = Rewriter(field)
    for terms in q.relations:
        poly = {}
        for coeff, path in terms:
            w = q.word_of(path)
            c = field.parse(coeff) if isinstance(coeff, str) else \
                field.normalize(coeff)
            poly[w] = field.add(poly.get(w, field.zero), c)
        rw.add_relation(poly)

    # grow the certified degree until the irreducible words die out and
    # all ambiguities relevant to their products are resolved
    degree_cap = max([4] + [2 * len(w) for w in rw.rules])
    while True:
        rw.complete(degree_cap)
        words_by_len = {length: good for length, (_, good) in enumerate(
            rw.irreducible_words(q.arrows, degree_cap), 1)}
        empty_at = None
        for length in range(1, degree_cap + 1):
            if not words_by_len.get(length):
                empty_at = length
                break
        if empty_at is None:
            if degree_cap >= max_degree:
                raise InfiniteDimensionalError(
                    "path algebra quotient is not finite-dimensional by "
                    f"degree {degree_cap}: irreducible paths of that length "
                    "remain", degree=degree_cap)
            degree_cap = min(max_degree, degree_cap * 2)
            continue
        needed = 2 * max(empty_at - 1, 1)
        if needed <= degree_cap:
            break
        degree_cap = needed

    # assemble the basis: trivial paths first (vertex order), then words
    basis_words = []          # ('e', vertex_index) or ('w', word)
    labels = []
    for vi, v in enumerate(q.vertices):
        basis_words.append(("e", vi))
        labels.append(f"e_{v}")
    for length in range(1, empty_at):
        for w in words_by_len[length]:
            basis_words.append(("w", w))
            labels.append(".".join(q.arrows[i][0] for i in w))
    index = {bw: i for i, bw in enumerate(basis_words)}
    dim = len(basis_words)

    def ends(bw):
        kind, val = bw
        if kind == "e":
            v = q.vertices[val]
            return v, v
        return q.arrows[val[0]][1], q.arrows[val[-1]][2]

    def poly_to_vec(poly):
        vec = [field.zero] * dim
        for w, c in poly.items():
            key = ("w", w) if w else None
            if key is None:
                raise ValidationError("empty word in reduction")
            vec[index[key]] = field.add(vec[index[key]], c)
        return vec

    table = []
    for bi in basis_words:
        row = []
        si, ti = ends(bi)
        for bj in basis_words:
            sj, tj = ends(bj)
            if ti != sj:
                row.append([field.zero] * dim)
                continue
            if bi[0] == "e" and bj[0] == "e":
                row.append(list(unit_vec(field, dim, index[bj])))
            elif bi[0] == "e":
                row.append(list(unit_vec(field, dim, index[bj])))
            elif bj[0] == "e":
                row.append(list(unit_vec(field, dim, index[bi])))
            else:
                concat = bi[1] + bj[1]
                reduced = rw.reduce({concat: field.one})
                row.append(poly_to_vec(reduced))
        table.append(row)
    unit = [field.zero] * dim
    for vi in range(len(q.vertices)):
        unit[index[("e", vi)]] = field.one
    idempotents = [unit_vec(field, dim, index[("e", vi)])
                   for vi in range(len(q.vertices))]

    q.vertex_idempotents = idempotents
    q.arrow_ideal_basis = [unit_vec(field, dim, i)
                           for i, bw in enumerate(basis_words) if bw[0] == "w"]
    q.basis_words = basis_words
    q.vertex_of_basis = [ends(bw) for bw in basis_words]

    alg = Algebra(field, labels, table, unit, idempotents=idempotents,
                  presentation=q, validate=validate)

    # admissibility: the arrow ideal must be nilpotent in the quotient
    arrow_basis = q.arrow_ideal_basis
    power = [list(v) for v in arrow_basis]
    steps = 0
    while power:
        steps += 1
        if steps > dim + 1:
            raise ValidationError(
                "relations are not admissible: the arrow ideal is not "
                "nilpotent in the quotient")
        nxt = []
        for v in power:
            for w in arrow_basis:
                nxt.append(alg.mul(v, w))
        power = row_space_basis(field, nxt)
    return alg
