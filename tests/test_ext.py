import random
from itertools import product

import pytest

from aspec.ext import Resolution, cup_product, ext
from aspec.fields import GF, QQ
from aspec.hochschild import BarComparison, is_two_cocycle
from aspec.linalg import Mat
from aspec.modules import simple_modules
from aspec.quiver import QuiverPresentation, from_quiver
from conftest import (
    corpus,
    make_a2,
    make_a3_zero_rel,
    make_dual_numbers,
    make_k_times_k,
    make_kx3,
)
from oracles import coboundary_1, hh1_dimension


def ext_dim_oracle(alg_fp, si, sj, p):
    """Brute-force self-contained count of non-split extensions of S_i by
    S_j over F_p: enumerate derivation tables, quotient by inner ones."""
    dim = alg_fp.dim

    def eta(module, b):
        return int(module.action[b].data[0][0]) % p

    cocycles = []
    for c in product(range(p), repeat=dim):
        ok = True
        for a in range(dim):
            for b in range(dim):
                lhs = 0
                for e, coeff in enumerate(alg_fp.table[a][b]):
                    lhs = (lhs + int(coeff) * c[e]) % p
                rhs = (eta(si, a) * c[b] + c[a] * eta(sj, b)) % p
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            cocycles.append(c)
    inner = set()
    for F in range(p):
        tup = tuple((eta(si, a) * F - F * eta(sj, a)) % p for a in range(dim))
        inner.add(tup)
    # dim = log_p(#Z) - log_p(#B)
    import math
    zdim = round(math.log(len(cocycles), p))
    bdim = round(math.log(len(inner), p))
    return zdim - bdim


def test_resolution_s1_over_a2():
    a = make_a2()
    s1, s2 = simple_modules(a)
    res = Resolution(s1)
    assert res.p0.slots == [0]
    assert res.p1.slots == [1]
    assert res.p2.slots == []


def test_resolution_projective_resolves_itself():
    a = make_a2()
    from aspec.ext import ProjectiveModule
    p = ProjectiveModule(a, [0])
    res = Resolution(p)
    assert res.p1.dim == 0 and res.p2.dim == 0


def test_resolution_periodic_dual_numbers():
    a = make_dual_numbers()
    s = simple_modules(a)[0]
    res = Resolution(s)
    assert res.p0.dim == 2 and res.p1.dim == 2 and res.p2.dim == 2
    # differentials act by x (radical entries)
    assert res.diffs[1].data[0][1] != QQ.zero or res.diffs[1].data[1][0] != QQ.zero


def test_ext_dual_numbers_self():
    a = make_dual_numbers()
    s = simple_modules(a)[0]
    assert ext(s, s, 1).dimension == 1
    assert ext(s, s, 2).dimension == 1


def test_ext_semisimple_zero():
    a = make_k_times_k()
    s1, s2 = simple_modules(a)
    for d in (1, 2):
        for x in (s1, s2):
            for y in (s1, s2):
                assert ext(x, y, d).dimension == 0


def test_ext_a2_direction():
    a = make_a2()
    s1, s2 = simple_modules(a)
    assert ext(s1, s2, 1).dimension == 1
    assert ext(s2, s1, 1).dimension == 0
    assert ext(s1, s1, 1).dimension == 0
    assert ext(s2, s2, 1).dimension == 0
    for x in (s1, s2):
        for y in (s1, s2):
            assert ext(x, y, 2).dimension == 0


def test_ext_dims_match_enumeration_oracle_f5():
    from oracles import FpAlgebra
    p = 5
    f5 = GF(p)
    for name, alg in corpus(f5):
        simples = simple_modules(alg)
        afp = FpAlgebra.from_algebra(alg)
        for i, si in enumerate(simples):
            for j, sj in enumerate(simples):
                got = ext(si, sj, 1).dimension
                want = ext_dim_oracle(afp, si, sj, p)
                assert got == want, (name, i, j)


def test_ext_quiver_arrow_and_relation_counts():
    a = make_a3_zero_rel()
    simples = simple_modules(a)
    dims1 = {(i, j): ext(simples[i], simples[j], 1).dimension
             for i in range(3) for j in range(3)}
    assert dims1[(0, 1)] == 1 and dims1[(1, 2)] == 1
    assert sum(dims1.values()) == 2
    dims2 = {(i, j): ext(simples[i], simples[j], 2).dimension
             for i in range(3) for j in range(3)}
    assert dims2[(0, 2)] == 1
    assert sum(dims2.values()) == 1


def test_ext_kx3():
    a = make_kx3()
    s = simple_modules(a)[0]
    assert ext(s, s, 1).dimension == 1
    assert ext(s, s, 2).dimension == 1


def test_ext_independent_of_vertex_order():
    q1 = QuiverPresentation(["1", "2"], [("a", "1", "2")])
    q2 = QuiverPresentation(["2", "1"], [("a", "1", "2")])
    a1 = from_quiver(q1)
    a2 = from_quiver(q2)
    d1 = sorted(ext(x, y, 1).dimension
                for x in simple_modules(a1) for y in simple_modules(a1))
    d2 = sorted(ext(x, y, 1).dimension
                for x in simple_modules(a2) for y in simple_modules(a2))
    assert d1 == d2


def test_hh1_matches_ext1():
    for name, alg in corpus():
        simples = simple_modules(alg)
        for si in simples:
            for sj in simples:
                assert hh1_dimension(alg, si, sj) == \
                    ext(si, sj, 1).dimension, name


def test_bar_comparison_gives_derivation():
    for name, alg in corpus():
        if not alg.radical_basis():
            continue
        simples = simple_modules(alg)
        for si in simples:
            for sj in simples:
                e = ext(si, sj, 1)
                if e.dimension == 0:
                    continue
                bc = BarComparison(e.resolution)
                for coc in e.cocycles:
                    psi = bc.derivation_of(coc)
                    delta = coboundary_1(alg, si, sj, psi)
                    assert all(m.is_zero() for m in delta.values()), name


def test_bar_comparison_two_cochain_is_cocycle():
    a = make_kx3()
    s = simple_modules(a)[0]
    e2 = ext(s, s, 2)
    bc = BarComparison(e2.resolution)
    coch = bc.two_cochain_of(e2.cocycles[0])
    assert is_two_cocycle(a, s, s, coch)


def test_cup_dual_numbers_square_nonzero():
    a = make_dual_numbers()
    s = simple_modules(a)[0]
    e1 = ext(s, s, 1)
    ext2, coords = cup_product(e1, [QQ.one], e1, [QQ.one])
    assert ext2.dimension == 1
    assert coords[0] != QQ.zero


def test_cup_hereditary_zero():
    a = make_a2()
    s1, s2 = simple_modules(a)
    e12 = ext(s1, s2, 1)
    e22 = ext(s2, s2, 1)
    # the only composable cup lands in Ext^2 = 0
    ext2, coords = cup_product(e12, [QQ.one], ext(s2, s1, 1), [])
    assert ext2.dimension == 0
    assert coords == []


def test_cup_a3_relation_detected():
    a = make_a3_zero_rel()
    s1, s2, s3 = simple_modules(a)
    e12 = ext(s1, s2, 1)
    e23 = ext(s2, s3, 1)
    ext2, coords = cup_product(e12, [QQ.one], e23, [QQ.one])
    assert ext2.dimension == 1
    assert coords[0] != QQ.zero


def test_cup_bilinear_f7():
    f7 = GF(7)
    a = make_kx3(f7)
    s = simple_modules(a)[0]
    e1 = ext(s, s, 1)
    rng = random.Random(3)
    for _ in range(5):
        c1, c2, c3 = (rng.randrange(7) for _ in range(3))
        _, r12 = cup_product(e1, [f7.of_int(c1 + c2)], e1, [f7.of_int(c3)])
        _, r1 = cup_product(e1, [f7.of_int(c1)], e1, [f7.of_int(c3)])
        _, r2 = cup_product(e1, [f7.of_int(c2)], e1, [f7.of_int(c3)])
        assert r12 == [f7.add(x, y) for x, y in zip(r1, r2)]


def test_resolution_exactness_invariants():
    for name, alg in corpus():
        for s in simple_modules(alg):
            res = Resolution(s)   # Resolution.check runs in the constructor
            assert res.diffs[1].mul(res.diffs[0]).is_zero(), name


def test_ext_permuted_vertex_order_pairing():
    # dims equal and the cup pairing has the same rank profile
    q1 = QuiverPresentation(["1", "2", "3"],
                            [("a", "1", "2"), ("b", "2", "3")],
                            relations=[[(QQ.one, ["a", "b"])]])
    q2 = QuiverPresentation(["3", "1", "2"],
                            [("a", "1", "2"), ("b", "2", "3")],
                            relations=[[(QQ.one, ["a", "b"])]])
    outs = []
    for q in (q1, q2):
        alg = from_quiver(q)
        simples = {s.name: s for s in simple_modules(alg)}
        # index simples by their supporting vertex via the idempotent action
        by_vertex = {}
        for s in simples.values():
            for i, e in enumerate(alg.ensure_idempotents()):
                if not s.act(e).is_zero():
                    by_vertex[alg.presentation.vertices[i]] = s
        dims = {}
        for u in ("1", "2", "3"):
            for v in ("1", "2", "3"):
                dims[(u, v, 1)] = ext(by_vertex[u], by_vertex[v], 1).dimension
                dims[(u, v, 2)] = ext(by_vertex[u], by_vertex[v], 2).dimension
        e12 = ext(by_vertex["1"], by_vertex["2"], 1)
        e23 = ext(by_vertex["2"], by_vertex["3"], 1)
        _, coords = cup_product(e12, [QQ.one], e23, [QQ.one])
        pairing_rank = sum(1 for c in coords if not QQ.is_zero(c))
        outs.append((dims, pairing_rank))
    assert outs[0] == outs[1]


def test_concurrent_ext_calls_identical():
    import threading
    a = make_kx3()
    s = simple_modules(a)[0]
    results = [None] * 4

    def work(i):
        e = ext(s, s, 1)
        results[i] = [[list(row) for row in c.data] for c in e.cocycles]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_ext_basis_cocycles_independent_mod_boundaries():
    a = make_kx3()
    s = simple_modules(a)[0]
    for d in (1, 2):
        e = ext(s, s, d)
        for c in e.cocycles:
            assert e.is_cocycle(c)
        # independence: each representative has a unique nonzero class
        for idx, c in enumerate(e.cocycles):
            coords = e.class_of(c)
            assert coords[idx] == QQ.one
            assert all(QQ.is_zero(x) for i, x in enumerate(coords)
                       if i != idx)
