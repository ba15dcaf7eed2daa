import random

import pytest

from aspec.ext import ext
from aspec.fields import GF, QQ
from aspec.hull import (
    MatricOHat,
    RPointedAlgebra,
    closure_check,
    compute_rho,
    default_order,
    hull,
    invert_unit,
    massey_step,
    maximal_ideals,
    o_algebra,
)
from aspec.errors import NotAUnitError
from aspec.modules import simple_modules
from conftest import (
    corpus,
    make_a2,
    make_a3_zero_rel,
    make_dual_numbers,
    make_k_times_k,
    make_kx3,
    make_lower_triangular,
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
        assert tower.check_smallness(), name


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
    h = RPointedAlgebra(QQ, 1, [("t", 0, 0)], 3,
                        [{(0, 0, 0): QQ.one}])
    one = h.one()
    t = h.generator_element(0)
    elem = h.add(one, h.neg(t))          # 1 - t
    inv = invert_unit(h, elem)
    # 1 + t + t^2
    t2 = h.mul(t, t)
    expect = h.add(one, h.add(t, t2))
    assert h.equal(inv, expect)


def test_invert_unit_iota_only():
    h = RPointedAlgebra(QQ, 2, [("t", 0, 1)], 2, [])
    elem = h.iota([QQ.of_int(2), QQ.of_int(-3)])
    inv = invert_unit(h, elem)
    assert h.equal(inv, h.iota([QQ.one / 2, QQ.neg(QQ.one / 3)]))


def test_invert_unit_rejects_zero_scalar():
    h = RPointedAlgebra(QQ, 1, [("t", 0, 0)], 2, [])
    t = h.generator_element(0)
    with pytest.raises(NotAUnitError):
        invert_unit(h, t)


def test_invert_unit_random_in_hull(qq):
    rng = random.Random(41)
    for name, alg in [("a2", make_a2()), ("kx3", make_kx3())]:
        s = simple_modules(alg)
        tower, ohat = hull(alg, s)
        h = tower.final
        for _ in range(25):
            alphas = []
            for i in range(h.r):
                val = 0
                while val == 0:
                    val = rng.randrange(-4, 5)
                alphas.append(qq.of_int(val))
            elem = h.iota(alphas)
            for w in h.reduced_words:
                c = qq.of_int(rng.randrange(-3, 4))
                if not qq.is_zero(c):
                    elem = h.add(elem, {("m", w): c})
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
        assert len(row_space_basis(alg.field, flats, length=o.dim)) == \
            alg.dim, name


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
        ok, detail = closure_check(alg, s)
        assert ok, (name, detail)


def test_compute_rho_matches_frozen_tower():
    a = make_kx3()
    s = simple_modules(a)
    tower, ohat = hull(a, s, 4)
    ohat2 = compute_rho(a, s, tower)
    for t1, t2 in zip(ohat.rho_table, ohat2.rho_table):
        assert ohat.equal(t1, t2)


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
        ok, detail = closure_check(a2, fam)
        assert ok, detail
    sq = make_split_quadratic()
    t = simple_modules(sq)
    ok, detail = closure_check(sq, [t[0]])
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
