"""Random algebras through the whole pipeline, against what each algebra
is known to be.

Acyclic quivers with monomial zero relations are built over Q and over
F_p for a large prime p.  The Ext dimensions of the simples of a
monomial algebra do not depend on the field; the hull of the simples of
a finite-dimensional basic algebra recovers it, dim H = dim O = dim A;
O has one maximal ideal per simple with that simple as its quotient;
O over O gives O back; and the space checks of `verify` pass on the
space of simples: the sheaf axioms (up to SHEAF_CHECK_MAX_POINTS
points) and the global-sections roundtrip, which read O and its
degree-0 blocks on every open.

Two more generators draw the inputs on which a stage gives a relation of
an earlier stage a longer tail: local quotients k[x,y]/(x^a, y^b, ...)
with inhomogeneous relations, and acyclic quivers with relations between
parallel paths of different lengths.  Each must recover the algebra
(`assert_recovers`) and, wherever the loop that refolds the cochains in
place completes, give the same hull as the defining system on free
words."""

from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.ext import Resolution, ext
from aspec.fields import GF, QQ
from aspec.hull import (
    ExtData,
    default_order,
    hull,
    maximal_ideals,
    o_algebra,
)
from aspec.modules import simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import QuiverPresentation, from_quiver
from aspec.topology import (
    SHEAF_CHECK_MAX_POINTS,
    closure_check,
    global_sections_roundtrip,
    space_of_simples,
)
from oracles import GeneralExt
from test_defining_system import assert_recovers
from test_hull_one_pass import assert_matches_the_in_place_loop
from test_rewrite import acyclic_quivers

FP = GF(2147483647)
F5 = GF(5)
F7 = GF(7)


def over(field, q):
    """The monomial presentation q over `field`."""
    rels = [[(field.one, path) for _, path in terms] for terms in q.relations]
    return from_quiver(QuiverPresentation(q.vertices, q.arrows, rels),
                       field=field)


def ext_dims(simples, store):
    return [(store.pair(s, t).ext1.dimension, store.pair(s, t).ext2.dimension)
            for s in simples for t in simples]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers(fields=(QQ,), monomial=True))
def test_random_monomial_quivers_over_q_and_fp(case):
    _, q = case
    dims = []
    for field in (QQ, FP):
        alg = over(field, q)
        simples = simple_modules(alg)
        assert len(simples) == len(q.vertices)
        store = ExtData(alg)
        dims.append(ext_dims(simples, store))
        tower, ohat = hull(alg, simples, ext_data=store)
        o = o_algebra(ohat)
        assert tower.final.dim == o.dim == alg.dim, field
        infos = maximal_ideals(o)
        assert len(infos) == len(simples)
        assert all(i["quotient_dim"] == i["module_dim"] == 1 and
                   i["quotient_isomorphic_to_module"] for i in infos), field
        ok, info = closure_check(alg, o)
        assert ok, (field, info)
        space = space_of_simples(alg)
        if len(space.points) <= SHEAF_CHECK_MAX_POINTS:
            assert space.sheafify_check()["passed"], field
        roundtrip = global_sections_roundtrip(space)
        assert roundtrip["passed"], (field, roundtrip)
    assert dims[0] == dims[1]


@st.composite
def commutativity_quivers(draw):
    """(vertices, arrows, relations) of an acyclic quiver on 4 or 5
    vertices: the square 0 -> 1 -> 3, 0 -> 2 -> 3 and 0-3 more arrows
    i -> j, i < j, with 1 or 2 relations c1 p - c2 q for parallel paths
    p != q of length >= 2, c1 and c2 integers, many of them divisible
    by 5.  Each relation is [(c1, p), (-c2, q)]."""
    n = draw(st.integers(4, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ends = [(0, 1), (1, 3), (0, 2), (2, 3)] + draw(
        st.lists(st.sampled_from(pairs), max_size=3))
    arrows = [(f"a{k}", str(i), str(j)) for k, (i, j) in enumerate(ends)]
    paths = []
    layer = [[a] for a in arrows]
    while layer:
        paths += [p for p in layer if len(p) >= 2]
        layer = [p + [a] for p in layer for a in arrows if a[1] == p[-1][2]]
    parallel = [(p, q) for k, p in enumerate(paths) for q in paths[:k]
                if (p[0][1], p[-1][2]) == (q[0][1], q[-1][2])]
    coeff = st.sampled_from([1, 2, 3, 4, 5, 6, 10, 15, 25])
    rels = []
    for _ in range(draw(st.integers(1, 2))):
        p, q = draw(st.sampled_from(parallel))
        rels.append([(draw(coeff), [a[0] for a in p]),
                     (-draw(coeff), [a[0] for a in q])])
    return [str(i) for i in range(n)], arrows, rels


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(commutativity_quivers())
def test_commutativity_relations_with_integral_coefficients(case):
    # over F5 a coefficient divisible by 5 drops its path, so the
    # relation may turn monomial or vanish, and Ext^2 with it
    vertices, arrows, rels = case
    for field in (QQ, F5):
        alg = from_quiver(QuiverPresentation(vertices, arrows, [
            [(field.of_int(c), path) for c, path in terms]
            for terms in rels]), field=field)
        simples = simple_modules(alg)
        assert len(simples) == len(vertices)
        for s in simples:
            res = Resolution(s)
            for t in simples:
                for degree in (1, 2):
                    assert ext(s, t, degree, resolution=res).cocycles == \
                        GeneralExt(res, t, degree).cocycles, (field, degree)
        tower, ohat = hull(alg, simples)
        o = o_algebra(ohat)
        assert tower.final.dim == o.dim == alg.dim, field
        infos = maximal_ideals(o)
        assert len(infos) == len(simples)
        assert all(i["quotient_dim"] == i["module_dim"] == 1 and
                   i["quotient_isomorphic_to_module"] for i in infos), field


@st.composite
def local_kxy_quotients(draw):
    """k[x,y]/(x^a, y^b, r_1[, r_2]) over Q, F5 or F7, with a, b in 2..5
    and each r_k of 2 or 3 terms x^i y^j of degree 2..4 with coefficients
    1..4: a local algebra whose relations are mostly inhomogeneous."""
    field = draw(st.sampled_from((QQ, F5, F7)))
    a, b = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    monomials = [(i, d - i) for d in range(2, 5) for i in range(d + 1)]
    rels = [{(a, 0): field.one}, {(0, b): field.one}]
    for _ in range(draw(st.integers(1, 2))):
        terms = draw(st.lists(st.sampled_from(monomials), min_size=2,
                              max_size=3, unique=True))
        rels.append({m: field.of_int(draw(st.integers(1, 4)))
                     for m in terms})
    return from_poly_quotient(field, ["x", "y"], rels)


@st.composite
def different_length_quivers(draw):
    """An acyclic quiver over Q or F5 on 3-5 vertices with 3-7 arrows
    i -> j, i < j: the spine 0 -> 1 -> ... -> n-1 and 1 to 8-n more, so
    that most quivers have parallel paths of different lengths.  It has
    1-3 relations, each c p + c' q for parallel paths p, q of different
    lengths >= 2 where the quiver has such a pair, and otherwise one path
    of length >= 2."""
    field = draw(st.sampled_from((QQ, F5)))
    n = draw(st.integers(3, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    spine = [(i, i + 1) for i in range(n - 1)]
    ends = draw(st.permutations(spine + draw(st.lists(
        st.sampled_from(pairs), min_size=1, max_size=8 - n))))
    arrows = [(f"a{k}", str(i), str(j)) for k, (i, j) in enumerate(ends)]
    paths = []
    layer = [[a] for a in arrows]
    while layer:
        paths += [p for p in layer if len(p) >= 2]
        layer = [p + [a] for p in layer for a in arrows if a[1] == p[-1][2]]
    mixed = [(p, q) for p in paths for q in paths
             if len(p) < len(q) and (p[0][1], p[-1][2]) == (q[0][1], q[-1][2])]
    coeff = st.integers(1, 4).map(field.of_int)
    rels = []
    for _ in range(draw(st.integers(1, 3)) if paths else 0):
        terms = draw(st.sampled_from(mixed)) if mixed else \
            [draw(st.sampled_from(paths))]
        rels.append([(draw(coeff), [a[0] for a in p]) for p in terms])
    q = QuiverPresentation([str(i) for i in range(n)], arrows, rels)
    return from_quiver(q, field=field)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(local_kxy_quotients())
def test_local_kxy_quotients_recover_the_algebra(alg):
    assert_recovers(alg, commutative=True)
    assert_matches_the_in_place_loop(alg, simple_modules(alg),
                                     default_order(alg))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(different_length_quivers())
def test_quivers_with_relations_of_mixed_lengths_recover_the_algebra(alg):
    assert_recovers(alg)
    assert_matches_the_in_place_loop(alg, simple_modules(alg),
                                     default_order(alg))
