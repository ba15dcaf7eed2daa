"""Families beyond the corpus: multi-dimensional Ext blocks and
multi-relation obstruction spaces, cross-checked against the lift
enumeration oracle over F5."""

import pytest

from aspec.ext import ext
from aspec.fields import GF, QQ
from aspec.hull import hull, maximal_ideals, o_algebra
from aspec.linalg import row_space_basis
from aspec.modules import simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import QuiverPresentation, from_quiver
from oracles import (
    T2_OBJECT,
    T3_OBJECT,
    count_lift_gauge_classes,
    enumerate_pointed_morphisms,
)
from test_hull_oracle import eta_scalars, target_algebra

P = 5
F5 = GF(P)


def make_kronecker(field=QQ):
    return from_quiver(QuiverPresentation(
        ["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), field=field)


def make_double_loop(field=QQ):
    rels = [
        [(field.one, ["x", "x"])],
        [(field.one, ["x", "y"])],
        [(field.one, ["y", "x"])],
        [(field.one, ["y", "y"])],
    ]
    return from_quiver(QuiverPresentation(
        ["v"], [("x", "v", "v"), ("y", "v", "v")], rels), field=field)


def make_fat_point(field=QQ):
    rels = [{(2, 0): field.one}, {(1, 1): field.one}, {(0, 2): field.one}]
    return from_poly_quotient(field, ["x", "y"], rels)


def test_kronecker_two_dimensional_tangent_block():
    a = make_kronecker()
    s1, s2 = simple_modules(a)
    assert ext(s1, s2, 1).dimension == 2
    tower, ohat = hull(a, [s1, s2], 2)
    h = tower.final
    assert len(h.generators) == 2
    assert h.relations == []
    assert h.dim == 4
    o = o_algebra(ohat)
    assert o.dim == a.dim == 4


def test_double_loop_hull_and_image():
    a = make_double_loop()
    s = simple_modules(a)
    assert len(s) == 1
    assert ext(s[0], s[0], 1).dimension == 2
    d2 = ext(s[0], s[0], 2).dimension
    assert d2 == 4          # one relation per dead length-2 word
    tower, ohat = hull(a, s, 3)
    h = tower.final
    assert len(h.generators) == 2
    assert len(h.relations) == 4
    assert h.dim == 3       # all length-2 words die: e, t, u
    o = o_algebra(ohat)
    assert o.dim == a.dim == 3


def test_fat_point_image_recovers_algebra():
    a = make_fat_point()
    s = simple_modules(a)
    tower, ohat = hull(a, s)
    o = o_algebra(ohat)
    assert o.dim == a.dim == 3
    flats = [o.rho_coords(list(a.basis_vector(i))) for i in range(a.dim)]
    assert len(row_space_basis(a.field, flats)) == a.dim


def make_a4_zero(zero_at, field=QQ):
    """A4 with the zero relation a_k . a_{k+1} at k = zero_at."""
    arrows = [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]
    rel = [(field.one, [arrows[zero_at][0], arrows[zero_at + 1][0]])]
    return from_quiver(QuiverPresentation(
        ["1", "2", "3", "4"], arrows, [rel]), field=field)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("zero_at", [0, 1])
def test_a4_zero_relation_beside_an_arrow(zero_at, field):
    # the hull relation t_k.t_{k+1} has an arrow on one side, so its
    # frame products t.rel and rel.t fall in other blocks than rel
    a = make_a4_zero(zero_at, field)
    s = simple_modules(a)
    tower, ohat = hull(a, s)
    assert tower.final.dim == a.dim == 8
    assert tower.stabilized
    o = o_algebra(ohat)
    assert o.dim == 8
    infos = maximal_ideals(o)
    assert len(infos) == 4
    assert all(i["quotient_isomorphic_to_module"] for i in infos)


def _check_oracle(alg, family, spec_obj, order):
    tower, _ = hull(alg, family, order)
    target = target_algebra(spec_obj)
    morphisms = enumerate_pointed_morphisms(tower.final, target)
    classes = count_lift_gauge_classes(
        alg, [eta_scalars(m, alg.dim) for m in family], spec_obj, P)
    assert len(morphisms) == classes, (len(morphisms), classes)


def test_double_loop_oracle_counts():
    a = make_double_loop(F5)
    s = simple_modules(a)
    _check_oracle(a, s, T2_OBJECT, 3)
    _check_oracle(a, s, T3_OBJECT, 3)


def test_fat_point_oracle_counts():
    a = make_fat_point(F5)
    s = simple_modules(a)
    _check_oracle(a, s, T2_OBJECT, 3)
    _check_oracle(a, s, T3_OBJECT, 3)


def test_kronecker_single_vertex_families_oracle():
    a = make_kronecker(F5)
    s1, s2 = simple_modules(a)
    for s in (s1, s2):
        _check_oracle(a, [s], T2_OBJECT, 3)
        _check_oracle(a, [s], T3_OBJECT, 3)


def test_stress_algebras_verify_pipeline():
    from aspec.hull import maximal_ideals
    from aspec.topology import (
        closure_check,
        global_sections_roundtrip,
        space_of_simples,
    )
    for make in (make_kronecker, make_double_loop, make_fat_point):
        alg = make()
        s = simple_modules(alg)
        tower, ohat = hull(alg, s)
        o = o_algebra(ohat)
        ok, _ = closure_check(alg, o)
        assert ok, make.__name__
        infos = maximal_ideals(o)
        assert len(infos) == len(s)
        space = space_of_simples(alg)
        assert global_sections_roundtrip(space)["passed"], make.__name__
