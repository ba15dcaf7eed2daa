"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is exact; the corpus is the eight desk-scale algebras
plus Q[x]/(x^3-1) for the mixed-residue comparison and k[x] for the
symbolic path.
"""

import random
import time

import pytest

from aspec.ext import ext
from aspec.fields import GF, QQ
from aspec.hull import (
    MatricOHat,
    default_order,
    hull,
    invert_unit,
    maximal_ideals,
    o_algebra,
)
from aspec.linalg import Mat, row_space_basis
from aspec.modules import simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.polyring import PointModule, PolynomialRing, hull_poly_ring
from aspec.polyring import PolyOAlgebra
from aspec.topology import (
    closure_check,
    global_sections_roundtrip,
    space_of_simples,
    spec_compare,
)
from conftest import corpus
from oracles import (
    E12_OBJECT,
    T2_OBJECT,
    T3_OBJECT,
    count_lift_gauge_classes,
    enumerate_pointed_morphisms,
)
from test_ext import ext_dim_oracle
from test_hull_oracle import eta_scalars, target_algebra


def _verdict(num, label, ok):
    print(f"criterion {num:>2} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_fin_dim_isomorphism():
    t0 = time.monotonic()
    ok = True
    for name, alg in corpus():
        simples = simple_modules(alg)
        order = default_order(alg)
        tower, ohat = hull(alg, simples, max(2, order))
        o = o_algebra(ohat)
        flats = [o.rho_coords(list(alg.basis_vector(i)))
                 for i in range(alg.dim)]
        inj = len(row_space_basis(alg.field, flats)) == alg.dim
        ok = ok and (o.dim == alg.dim) and inj
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _verdict(1, "fin-dim isomorphism", ok)


def test_criterion_02_hull_oracle_equivalence():
    t0 = time.monotonic()
    p = 5
    f5 = GF(p)
    ok = True
    for name, alg in corpus(f5):
        simples = simple_modules(alg)
        order = max(3, alg.radical_index() + 1)
        for s in simples:
            for spec_obj in (T2_OBJECT, T3_OBJECT):
                tower, _ = hull(alg, [s], order)
                target = target_algebra(spec_obj)
                morphisms = enumerate_pointed_morphisms(tower.final, target)
                classes = count_lift_gauge_classes(
                    alg, [eta_scalars(s, alg.dim)], spec_obj, p)
                ok = ok and (len(morphisms) == classes)
        for i in range(len(simples)):
            for j in range(len(simples)):
                if i == j:
                    continue
                fam = [simples[i], simples[j]]
                tower, _ = hull(alg, fam, order)
                target = target_algebra(E12_OBJECT)
                morphisms = enumerate_pointed_morphisms(tower.final, target)
                classes = count_lift_gauge_classes(
                    alg, [eta_scalars(m, alg.dim) for m in fam],
                    E12_OBJECT, p)
                ok = ok and (len(morphisms) == classes)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _verdict(2, "hull oracle equivalence over F5", ok)


def test_criterion_03_tangent_dimensions():
    from oracles import FpAlgebra
    ok = True
    # generator counts match Ext^1 block dimensions (rational corpus)
    for name, alg in corpus():
        simples = simple_modules(alg)
        tower, _ = hull(alg, simples, max(2, default_order(alg)))
        counts = {}
        for lab, i, j in tower.final.generators:
            counts[(i, j)] = counts.get((i, j), 0) + 1
        for i, si in enumerate(simples):
            for j, sj in enumerate(simples):
                ok = ok and counts.get((i, j), 0) == ext(si, sj, 1).dimension
    # Ext^1 matches the brute-force extension oracle over F5
    f5 = GF(5)
    for name, alg in corpus(f5):
        simples = simple_modules(alg)
        afp = FpAlgebra.from_algebra(alg)
        for si in simples:
            for sj in simples:
                ok = ok and ext(si, sj, 1).dimension == \
                    ext_dim_oracle(afp, si, sj, 5)
    _verdict(3, "tangent dimensions vs extension oracle", ok)


def test_criterion_04_unit_lemma():
    rng = random.Random(2024)
    ok = True
    tried = 0
    hulls = []
    for name, alg in corpus():
        simples = simple_modules(alg)
        tower, ohat = hull(alg, simples, max(2, default_order(alg)))
        hulls.append(MatricOHat(tower.final))
    while tried < 100:
        h = hulls[tried % len(hulls)]
        alphas = []
        for _ in range(h.hull.r):
            v = 0
            while v == 0:
                v = rng.randrange(-5, 6)
            alphas.append(QQ.of_int(v))
        elem = h.iota(alphas)
        for w in h.hull.reduced_words:
            c = QQ.of_int(rng.randrange(-3, 4))
            if not QQ.is_zero(c):
                elem = h.add(elem, {("m", w): Mat(QQ, [[c]])})
        inv = invert_unit(h, elem)
        two_sided = h.equal(h.mul(elem, inv), h.one()) and \
            h.equal(h.mul(inv, elem), h.one())
        ok = ok and two_sided
        tried += 1
    _verdict(4, "unit lemma (100 randomized units)", ok)


def test_criterion_05_r_locality():
    ok = True
    for name, alg in corpus():
        simples = simple_modules(alg)
        tower, ohat = hull(alg, simples, max(2, default_order(alg)))
        o = o_algebra(ohat)
        infos = maximal_ideals(o)
        ok = ok and len(infos) == len(simples)
        ok = ok and all(i["quotient_isomorphic_to_module"] for i in infos)
    _verdict(5, "r-locality and quotient modules", ok)


def test_criterion_06_closure():
    ok = True
    for name, alg in corpus():
        simples = simple_modules(alg)
        passed, _detail = closure_check(
            alg, o_algebra(hull(alg, simples)[1]))
        ok = ok and passed
    _verdict(6, "closure of the O-construction", ok)


def test_criterion_07_commutative_comparison():
    ok = True
    for name, alg in corpus():
        if not alg.is_commutative():
            continue
        report = spec_compare(alg)
        ok = ok and report["passed"]
    rel = {(3,): QQ.one, (0,): QQ.neg(QQ.one)}
    mixed = from_poly_quotient(QQ, ["x"], [rel])
    report = spec_compare(mixed)
    ok = ok and report["passed"]
    degs = sorted(len(g) - 1 for g, e in report["factors"])
    ok = ok and degs == [1, 2]
    _verdict(7, "aSpec vs Spec with localized stalks", ok)


def test_criterion_08_sheaf_axioms():
    ok = True
    for name, alg in corpus():
        space = space_of_simples(alg)
        if len(space.points) > 3:
            continue
        report = space.sheafify_check()
        ok = ok and report["passed"]
    _verdict(8, "sheaf axioms by exhaustive covers", ok)


def test_criterion_09_global_sections_roundtrip():
    ok = True
    for name, alg in corpus():
        space = space_of_simples(alg)
        report = global_sections_roundtrip(space)
        ok = ok and report["passed"]
    _verdict(9, "global sections roundtrip", ok)


def test_criterion_10_poly_ring_path():
    ring = PolynomialRing(QQ)
    ok = True
    for order in range(2, 7):
        m0 = PointModule(ring, QQ.of_int(0))
        tower, ohat = hull_poly_ring(ring, [m0], order)
        h = tower.final
        ok = ok and h.relations == [] and len(h.generators) == 1
        ok = ok and h.dim == order + 1          # k[t]/(t^{order+1})
        # O of two points: the product of truncated localizations
        m1 = PointModule(ring, QQ.of_int(1))
        o = PolyOAlgebra(ring, [m0, m1], order)
        ok = ok and o.dim == 2 * (order + 1)
        o_alg = o.as_algebra()
        idems = o_alg.idempotents
        # orthogonal central idempotents split O into two local factors
        for e in idems:
            ok = ok and o_alg.mul(e, e) == e
            for b in range(o_alg.dim):
                bv = o_alg.basis_vector(b)
                ok = ok and o_alg.mul(e, bv) == o_alg.mul(bv, e)
        for i, e in enumerate(idems):
            rows = [o_alg.mul(e, o_alg.basis_vector(b))
                    for b in range(o_alg.dim)]
            factor_dim = len(row_space_basis(QQ, rows))
            ok = ok and factor_dim == order + 1
        # each factor is k[t]/(t^{order+1}): t_i^order != 0, t_i^{order+1} = 0
        for i in range(2):
            t = o_alg.basis_vector(i * (order + 1) + 1)
            power = list(o_alg.unit)
            for _ in range(order):
                power = o_alg.mul(power, t)
            ok = ok and not o_alg.is_zero_elem(power)
            power = o_alg.mul(power, t)
            ok = ok and o_alg.is_zero_elem(power)
    _verdict(10, "k[x] symbolic path", ok)
