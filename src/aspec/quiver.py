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
from .linalg import unit_vec
from .rewrite import Rewriter


# irreducible paths undecided at this length are refused as infinite
MAX_DEGREE = 24


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


def from_quiver(presentation, field=QQ):
    """Validated Algebra of the quiver modulo its relations.

    Detects (rather than assumes) finite-dimensionality: the rewriting
    engine reads it off the leads, or refuses when they are still
    undecided at MAX_DEGREE.  Admissibility, a nilpotent arrow ideal, is
    proved by the radical before the costlier associativity check.
    Sets `presentation.basis_words`, the ("e", vertex) and ("w", path)
    entries of the basis, which the radical reads.
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

    words = rw.basis_words(q.arrows, MAX_DEGREE, len(q.vertices))
    if words is None:
        raise InfiniteDimensionalError(
            "path algebra quotient is not finite-dimensional by degree "
            f"{MAX_DEGREE}: irreducible paths of that length remain")

    # assemble the basis: trivial paths first (vertex order), then words
    nv = len(q.vertices)
    paths = [w for layer in words for w in layer]
    basis_words = [("e", vi) for vi in range(nv)] + [("w", w) for w in paths]
    labels = [f"e_{v}" for v in q.vertices] + [
        ".".join(q.arrows[i][0] for i in w) for w in paths]
    products = rw.structure_constants(q.arrows, q.vertices, paths)
    dim = len(basis_words)
    unit = [field.one] * nv + [field.zero] * (dim - nv)
    idempotents = [unit_vec(field, dim, vi) for vi in range(nv)]
    q.basis_words = basis_words

    alg = Algebra(field, labels, products, unit, idempotents=idempotents,
                  presentation=q, validate=False)
    alg.radical()
    alg.validate()
    return alg
