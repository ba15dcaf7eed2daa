"""Random acyclic quivers with monomial zero relations, built over Q and
over F_p for a large prime p: the whole pipeline against what the
algebra is known to be.  The Ext dimensions of the simples of a
monomial algebra do not depend on the field; the hull of the simples of
a finite-dimensional basic algebra recovers it, dim H = dim O = dim A;
O has one maximal ideal per simple with that simple as its quotient;
O over O gives O back; and the space checks of `verify` pass on the
space of simples: the sheaf axioms (up to SHEAF_CHECK_MAX_POINTS
points) and the global-sections roundtrip, which read O and its
degree-0 blocks on every open."""

from hypothesis import given, settings

from aspec.fields import GF, QQ
from aspec.hull import ExtData, hull, maximal_ideals, o_algebra
from aspec.modules import simple_modules
from aspec.quiver import QuiverPresentation, from_quiver
from aspec.topology import (
    SHEAF_CHECK_MAX_POINTS,
    closure_check,
    global_sections_roundtrip,
    space_of_simples,
)
from test_rewrite import acyclic_quivers

FP = GF(2147483647)


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
