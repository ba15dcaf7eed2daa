import random

import pytest

from aspec.ext import ext
from aspec.fields import GF, QQ
from aspec.hull import (
    MatricOHat,
    RPointedAlgebra,
    default_order,
    hull,
    invert_unit,
    massey_step,
    maximal_ideals,
    o_algebra,
)
from aspec.errors import NotAUnitError
from aspec.linalg import Mat
from aspec.polyring import PointModule, PolyMatricOHat, PolynomialRing
from aspec.modules import simple_modules
from aspec.topology import closure_check
from conftest import (
    corpus,
    make_a2,
    make_a3_zero_rel,
    make_dual_numbers,
    make_k_times_k,
    make_kx3,
    make_lower_triangular,
)
from oracles import tower_is_small, two_sided_ideal_all_products
from test_hull_stress import (
    make_a4_zero,
    make_double_loop,
    make_fat_point,
    make_kronecker,
)


def test_hull_dual_numbers_is_kt_mod_t2():
    a = make_dual_numbers()
    s = simple_modules(a)
    tower, ohat = hull(a, s, 3)
    h = tower.final
    assert len(h.generators) == 1
    assert len(h.relations) == 1
    rel = h.relations[0]
    assert set(rel) == {(0, 0)}          # the word t.t
    # H = k[t]/(t^2): basis {e, t}
    assert h.dim == 2


def test_hull_a2_free_on_one_generator():
    a = make_a2()
    s = simple_modules(a)
    tower, ohat = hull(a, s, 2)
    h = tower.final
    assert h.r == 2
    assert len(h.generators) == 1
    lab, i, j = h.generators[0]
    assert (i, j) == (0, 1)
    assert h.relations == []
    assert h.dim == 3


def test_hull_k2_trivial():
    a = make_k_times_k()
    s = simple_modules(a)
    tower, ohat = hull(a, s, 2)
    h = tower.final
    assert h.generators == []
    assert h.dim == 2


def test_hull_kx3_is_kt_mod_t3():
    a = make_kx3()
    s = simple_modules(a)
    tower, ohat = hull(a, s, 4)
    h = tower.final
    assert len(h.generators) == 1
    assert len(h.relations) == 1
    rel = h.relations[0]
    # relation with lowest word t^3
    words = sorted(rel, key=len)
    assert len(words[0]) == 3
    assert h.dim == 3           # basis e, t, t^2
    assert tower.stabilized


def test_hull_rho_dual_numbers():
    a = make_dual_numbers()
    s = simple_modules(a)
    tower, ohat = hull(a, s, 3)
    xi = a.labels.index("x")
    rx = ohat.rho_table[xi]
    # rho(x) = t * (1x1 block), no degree-0 part
    assert ("e", 0) not in rx
    assert ("m", (0,)) in rx


def test_hull_rho_is_homomorphism_everywhere():
    for name, alg in corpus():
        s = simple_modules(alg)
        tower, ohat = hull(alg, s)   # default order; _verify runs inside
        assert tower.final.r == len(s), name


def test_tangent_dimensions_match_ext1():
    for name, alg in corpus():
        s = simple_modules(alg)
        tower, ohat = hull(alg, s)
        counts = {}
        for lab, i, j in tower.final.generators:
            counts[(i, j)] = counts.get((i, j), 0) + 1
        for i in range(len(s)):
            for j in range(len(s)):
                assert counts.get((i, j), 0) == \
                    ext(s[i], s[j], 1).dimension, name


def test_tower_smallness():
    for name, alg in corpus():
        s = simple_modules(alg)
        tower, _ = hull(alg, s)
        assert tower_is_small(tower), name


def test_massey_order2_is_cup_dual_numbers():
    a = make_dual_numbers()
    s = simple_modules(a)
    from aspec.ext import cup_product
    e1 = ext(s[0], s[0], 1)
    ext2, cup = cup_product(e1, [QQ.one], e1, [QQ.one])
    obs = massey_step(a, s, 2)
    # single word t.t; its class equals the cup product coordinates
    (w, lam), = obs.items()
    assert len(w) == 2
    assert lam == cup


def test_massey_kx3_vanishes_at_2_fires_at_3():
    a = make_kx3()
    s = simple_modules(a)
    obs2 = massey_step(a, s, 2)
    assert all(all(QQ.is_zero(c) for c in lam) for lam in obs2.values())
    obs3 = massey_step(a, s, 3)
    fired = [lam for lam in obs3.values()
             if any(not QQ.is_zero(c) for c in lam)]
    assert len(fired) == 1


def test_massey_hereditary_all_vanish():
    a = make_a2()
    s = simple_modules(a)
    obs = massey_step(a, s, 2)
    for lam in obs.values():
        assert lam == []          # Ext^2 = 0: no coordinates at all


def test_invert_unit_geometric_series():
    # R = k[x]/(x^3) as a 1-pointed truncation: generator t, relation t^3
    h = MatricOHat(RPointedAlgebra(QQ, 1, [("t", 0, 0)], 3,
                                   [{(0, 0, 0): QQ.one}]))
    one = h.one()
    t = {("m", (0,)): Mat.identity(QQ, 1)}
    elem = h.add(one, h.neg(t))          # 1 - t
    inv = invert_unit(h, elem)
    # 1 + t + t^2
    t2 = h.mul(t, t)
    expect = h.add(one, h.add(t, t2))
    assert h.equal(inv, expect)


def test_invert_unit_iota_only():
    h = MatricOHat(RPointedAlgebra(QQ, 2, [("t", 0, 1)], 2, []))
    elem = h.iota([QQ.of_int(2), QQ.of_int(-3)])
    inv = invert_unit(h, elem)
    assert h.equal(inv, h.iota([QQ.div(1, 2), QQ.neg(QQ.div(1, 3))]))


def test_invert_unit_rejects_zero_scalar():
    h = MatricOHat(RPointedAlgebra(QQ, 1, [("t", 0, 0)], 2, []))
    t = {("m", (0,)): Mat.identity(QQ, 1)}
    with pytest.raises(NotAUnitError):
        invert_unit(h, t)


def test_invert_unit_random_in_hull(qq):
    rng = random.Random(41)
    for name, alg in [("a2", make_a2()), ("kx3", make_kx3())]:
        s = simple_modules(alg)
        tower, ohat = hull(alg, s)
        h = MatricOHat(tower.final)
        for _ in range(25):
            alphas = []
            for i in range(tower.final.r):
                val = 0
                while val == 0:
                    val = rng.randrange(-4, 5)
                alphas.append(qq.of_int(val))
            elem = h.iota(alphas)
            for w in tower.final.reduced_words:
                c = qq.of_int(rng.randrange(-3, 4))
                if not qq.is_zero(c):
                    elem = h.add(elem, {("m", w): Mat(qq, [[c]])})
            inv = invert_unit(h, elem)
            assert h.equal(h.mul(elem, inv), h.one())
            assert h.equal(h.mul(inv, elem), h.one())


def test_invert_unit_in_ohat():
    a = make_a2()
    s = simple_modules(a)
    tower, ohat = hull(a, s, 2)
    elem = ohat.add(ohat.one(), ohat.rho_table[a.labels.index("a")])
    inv = invert_unit(ohat, elem)
    assert ohat.equal(ohat.mul(elem, inv), ohat.one())


def test_invert_unit_on_jets():
    # the jets of k[x] at the points 0 and 1, truncated at order 3
    ring = PolynomialRing(QQ)
    jets = PolyMatricOHat(ring, [PointModule(ring, QQ.of_int(a))
                                 for a in (0, 1)], 3)
    elem = jets.rho_of_poly([QQ.of_int(2), QQ.one])          # 2 + x
    inv = invert_unit(jets, elem)
    assert jets.equal(jets.mul(elem, inv), jets.one())
    assert jets.equal(jets.mul(inv, elem), jets.one())
    with pytest.raises(NotAUnitError):                    # x vanishes at 0
        invert_unit(jets, jets.rho_of_poly([QQ.zero, QQ.one]))


def test_o_algebra_fin_dim_isomorphism():
    # eta: A -> O^A(Simp A) bijective at N = rad index + 1
    for name, alg in corpus():
        s = simple_modules(alg)
        tower, ohat = hull(alg, s, default_order(alg))
        o = o_algebra(ohat)
        assert o.dim == alg.dim, name
        flats = [o.rho_coords(list(alg.basis_vector(i)))
                 for i in range(alg.dim)]
        from aspec.linalg import row_space_basis
        assert len(row_space_basis(alg.field, flats)) == alg.dim, name


def test_o_algebra_product_of_localizations():
    # commutative split: O of both simples is k x k
    from conftest import make_split_quadratic
    a = make_split_quadratic()
    s = simple_modules(a)
    tower, ohat = hull(a, s)
    o = o_algebra(ohat)
    assert o.dim == 2
    o_alg = o.as_algebra()
    assert o_alg.is_commutative()
    assert o_alg.radical_basis() == []


def test_o_algebra_single_factor():
    a = make_k_times_k()
    s = simple_modules(a)
    tower, ohat = hull(a, [s[0]], 2)
    o = o_algebra(ohat)
    assert o.dim == 1


def test_maximal_ideals_counts():
    expected = {
        "k": 1, "k_x_k": 2, "dual_numbers": 1, "kx_cubed": 1,
        "a2": 2, "a3_zero_rel": 3, "split_quadratic": 2,
        "lower_triangular": 2,
    }
    for name, alg in corpus():
        s = simple_modules(alg)
        tower, ohat = hull(alg, s)
        o = o_algebra(ohat)
        infos = maximal_ideals(o)
        assert len(infos) == expected[name], name
        for info in infos:
            assert info["quotient_isomorphic_to_module"], name


def test_closure_corpus():
    for name, alg in corpus():
        s = simple_modules(alg)
        ok, detail = closure_check(alg, o_algebra(hull(alg, s)[1]))
        assert ok, (name, detail)


def test_closure_check_builds_only_the_second_hull(hull_builds):
    a = make_a2()
    o = o_algebra(hull(a, simple_modules(a))[1])
    del hull_builds[:]
    ok, detail = closure_check(a, o)
    assert ok and detail == {"dim_first": 3, "dim_second": 3}
    assert len(hull_builds) == 1
    # the family over O and the order come from the O that was passed
    second = hull_builds[0]
    assert [(m.name, m.dim) for m in second.modules] == \
        [(m.name, m.dim) for m in o.ohat.modules]
    assert second.algebra.dim == o.dim
    assert second.order == o.ohat.hull.order


def test_hull_rejects_bad_order():
    a = make_dual_numbers()
    s = simple_modules(a)
    with pytest.raises(Exception):
        hull(a, s, 1)
    with pytest.raises(Exception):
        hull(a, [], 3)


def test_stabilization_reported():
    a = make_dual_numbers()
    s = simple_modules(a)
    tower, _ = hull(a, s, 3)
    assert tower.stabilized
    a2 = make_a2()
    tower2, _ = hull(a2, simple_modules(a2), 3)
    assert tower2.stabilized


def test_hull_a3_relation_dual_to_ext2():
    a = make_a3_zero_rel()
    s = simple_modules(a)
    tower, ohat = hull(a, s, 3)
    h = tower.final
    # one generator per arrow block, one relation dual to the zero composite
    blocks = sorted((i, j) for _lab, i, j in h.generators)
    assert blocks == [(0, 1), (1, 2)]
    assert len(h.relations) == 1
    rel = h.relations[0]
    (word, coeff), = rel.items()
    assert len(word) == 2
    assert h.word_block(word) == (0, 2)
    assert h.dim == 5


def test_stabilized_false_when_order_too_small():
    # at order 2 the t^3 relation of k[x]/(x^3) is invisible and Ext^2
    # is nonzero, so stabilization must not be claimed
    a = make_kx3()
    s = simple_modules(a)
    tower, _ = hull(a, s, 2)
    assert not tower.stabilized


def test_rho_equals_eta_for_semisimple():
    a = make_k_times_k()
    s = simple_modules(a)
    tower, ohat = hull(a, s, 2)
    for b in range(a.dim):
        elem = ohat.rho_table[b]
        for key in elem:
            assert key[0] == "e"
        for i, m in enumerate(s):
            assert ohat.pi(elem)[i] == m.action[b]


def test_closure_on_subfamilies():
    from conftest import make_split_quadratic
    a2 = make_a2()
    s = simple_modules(a2)
    for fam in ([s[0]], [s[1]]):
        ok, detail = closure_check(a2, o_algebra(hull(a2, fam)[1]))
        assert ok, detail
    sq = make_split_quadratic()
    t = simple_modules(sq)
    ok, detail = closure_check(sq, o_algebra(hull(sq, [t[0]])[1]))
    assert ok, detail


def test_hull_kx4_relation_at_order_four():
    from aspec.polyquot import from_poly_quotient
    from aspec.fields import QQ
    a = from_poly_quotient(QQ, ["x"], [{(4,): QQ.one}])
    s = simple_modules(a)
    tower, ohat = hull(a, s, 5)
    h = tower.final
    assert len(h.relations) == 1
    rel = h.relations[0]
    assert min(len(w) for w in rel) == 4
    assert h.dim == 4
    assert tower.stabilized
    o = o_algebra(ohat)
    assert o.dim == 4


def test_o_algebra_reads_coordinates_from_one_echelon(monkeypatch):
    """Coordinates in O and in the maximal ideals come from one Span per
    basis, not from an elimination per query (309 rref calls before)."""
    import aspec.linalg as linalg
    from aspec.quiver import QuiverPresentation, from_quiver

    a3 = from_quiver(QuiverPresentation(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    tower, ohat = hull(a3, simple_modules(a3))
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or rref(m))
    o = o_algebra(ohat)
    infos = maximal_ideals(o)
    assert o.dim == 6 and len(infos) == 3
    assert len(calls) < 30


def test_maximal_ideals_work_in_o_coordinates(monkeypatch):
    """The principal ideals O * x * O are formed with O's structure
    table, not by products in the matric algebra and a coordinate query
    for each."""
    from aspec.hull import OAlgebra, _two_sided_ideal
    from aspec.linalg import row_space_basis
    from aspec.quiver import QuiverPresentation, from_quiver

    a4 = from_quiver(QuiverPresentation(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]))
    o = o_algebra(hull(a4, simple_modules(a4))[1])
    assert o.dim == 10
    calls = []
    coords_of = OAlgebra.coords_of
    monkeypatch.setattr(OAlgebra, "coords_of",
                        lambda self, e: calls.append(e) or coords_of(self, e))
    infos = maximal_ideals(o)
    assert len(calls) < 20
    assert [(i["quotient_dim"], i["module_dim"], i["irreducible"],
             i["quotient_isomorphic_to_module"]) for i in infos] == \
        [(1, 1, True, True)] * 4
    assert [len(i["ideal_basis"]) for i in infos] == [9] * 4
    # each principal ideal equals the one from products in the matric
    # algebra, read back through coords_of
    elems = o.basis_elements()
    o_alg = o.as_algebra()
    for idx, x in enumerate(elems):
        direct = [coords_of(o, o.ohat.mul(o.ohat.mul(u, x), v))
                  for u in elems for v in elems]
        assert _two_sided_ideal(o_alg, idx) == \
            row_space_basis(o.field, direct)


def _ideal_cases():
    stress = [("kronecker", make_kronecker), ("double_loop", make_double_loop),
              ("fat_point", make_fat_point),
              ("a4_zero_at_0", lambda field: make_a4_zero(0, field)),
              ("a4_zero_at_1", lambda field: make_a4_zero(1, field))]
    out = []
    for field in (QQ, GF(5)):
        out += [pytest.param(alg, id=f"{name}/{field}")
                for name, alg in corpus(field)]
        out += [pytest.param(make(field), id=f"{name}/{field}")
                for name, make in stress]
    return out


@pytest.mark.parametrize("alg", _ideal_cases())
def test_principal_ideals_by_closure_match_all_products(alg):
    from aspec.hull import _two_sided_ideal
    o_alg = o_algebra(hull(alg, simple_modules(alg))[1]).as_algebra()
    for idx in range(o_alg.dim):
        assert _two_sided_ideal(o_alg, idx) == \
            two_sided_ideal_all_products(o_alg, idx), idx
