"""O^A(M) read off A's structure constants and the one tagged echelon of
the rho table, against the references in `tests/oracles.py` that
multiply matric elements, rref the rho table and solve in `Span`s: the
image dimensions and the stabilized flag, the preimages P_i, the
coordinates R_k, the degree-0 blocks, the structure table, the unit
inverses and the maximal-ideal sweep, on the corpus, the stress
algebras, random quivers and truncations that do not stabilize;
mutations that each check must stop; and the work the sparse path
does."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.errors import InternalInvariantError
from aspec.fields import GF, QQ
from aspec.hull import (
    MatricOHat,
    OAlgebra,
    _HullBuilder,
    _defects,
    designated_units,
    hull,
    maximal_ideals,
    o_algebra,
)
from aspec.linalg import Mat, Span, rank, unit_vec, vec_add, vec_sub
from aspec.modules import simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import from_quiver
from conftest import corpus, make_a2, make_dual_numbers, make_kx3
from oracles import (
    dense_table,
    has_inverse_by_solve,
    image_dim,
    maximal_ideals_full_sweep,
    o_algebra_by_matric_products,
    stabilized_by_rrefs,
    unit_inverses_by_geometric_series,
)
from test_hull_one_pass import FAMILIES, direct_sum
from test_hull_stress import (
    make_a4_zero,
    make_double_loop,
    make_fat_point,
    make_kronecker,
)
from test_random_corpus import FP, over
from test_rewrite import acyclic_quivers
from test_validate import path_algebra

# the package re-exports `hull`, which shadows the submodule attribute
HULL = sys.modules["aspec.hull"]


def assert_matches_matric_products(o):
    """O's basis, table and unit, and its unit inverses, agree with the
    matric-product references."""
    assert (o.basis_flat, dense_table(o.o_alg), o.unit) == \
        o_algebra_by_matric_products(o.ohat)
    unit_inverses_by_geometric_series(o)


def _units_and_non_units(ohat):
    """A-coordinates of the designated units a0 + v, and of a0 - b for
    each basis element b whose eta(a0 - b) is the identity or singular
    on some block: where pi is the identity or singular, u has an
    inverse in O exactly when pi(u) is the identity."""
    f = ohat.field
    a0, kern = designated_units(ohat)
    if a0 is None:
        return []
    out = [a0] + [vec_add(f, a0, v) for v in kern]
    for b in range(len(a0)):
        acts = [m.action[b] for m in ohat.modules]
        etas = [Mat.identity(f, a.rows).sub(a) for a in acts]
        if all(a.is_zero() for a in acts) or \
                any(rank(e) < e.rows for e in etas):
            out.append(vec_sub(f, a0, unit_vec(f, len(a0), b)))
    return out


def assert_image_matches_references(tower, ohat):
    """The one echelon of the rho table and what O reads off it agree
    with rrefs, `Span` coordinates, unflattened elements and unit
    solves."""
    image = ohat.image
    order = ohat.order
    assert (image.dim(), image.dim(ohat.flat_dim(order - 1)),
            tower.stabilized) == \
        (image_dim(ohat), image_dim(ohat, order - 1),
         stabilized_by_rrefs(tower, ohat))
    o = o_algebra(ohat)
    f = o.field
    assert [o.rho_coords(p) for p in image.tags] == \
        [unit_vec(f, o.dim, i) for i in range(o.dim)]
    span = Span(f, o.basis_flat, o.flat_len)
    assert o.images == [span.coords(v) for v in image.flats]
    blocks = o.degree0_blocks()
    assert [[mats[idx] for mats in blocks] for idx in range(o.dim)] == \
        [ohat.pi(ohat.unflatten(row)) for row in o.basis_flat]
    o_alg = o.o_alg
    for coords in _units_and_non_units(ohat):
        u = o.rho_coords(coords)
        assert HULL._series_inverts(o_alg, u, order) == \
            has_inverse_by_solve(o_alg, u)
    return o


def assert_simples_match_references(alg, order=None):
    o = assert_image_matches_references(*hull(alg, simple_modules(alg),
                                              order))
    assert_matches_matric_products(o)
    assert maximal_ideals(o) == maximal_ideals_full_sweep(o)
    return o


def make_kx8(field):
    return from_poly_quotient(field, ["x"], [{(8,): field.one}])


def _cases():
    stress = [("kronecker", make_kronecker), ("double_loop", make_double_loop),
              ("fat_point", make_fat_point),
              ("a4_zero_at_0", lambda field: make_a4_zero(0, field)),
              ("a4_zero_at_1", lambda field: make_a4_zero(1, field)),
              ("a4", lambda field: path_algebra(4, field))]
    out = []
    for field in (QQ, GF(5)):
        out += [pytest.param(alg, id=f"{name}/{field}")
                for name, alg in corpus(field)]
        out += [pytest.param(make(field), id=f"{name}/{field}")
                for name, make in stress]
    return out


@pytest.mark.parametrize("alg", _cases())
def test_o_algebra_matches_matric_products(alg):
    assert_simples_match_references(alg)


def _truncations():
    makers = [("double_loop", make_double_loop, (QQ, GF(5))),
              ("fat_point", make_fat_point, (QQ, GF(5))),
              ("kx8", make_kx8, (GF(5),))]
    return [pytest.param(make(field), order, id=f"{name}/{field}/{order}")
            for name, make, fields in makers for field in fields
            for order in range(2, 7)]


@pytest.mark.parametrize("alg, order", _truncations())
def test_o_algebra_matches_references_at_low_orders(alg, order):
    assert_simples_match_references(alg, order)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("family", ["sum", "mixed"])
@pytest.mark.parametrize("make", [make_kronecker,
                                  lambda field: path_algebra(3, field)],
                         ids=["kronecker", "a3"])
def test_o_algebra_matches_references_on_reducible_blocks(make, family,
                                                          field):
    # a reducible block makes im(rho) a proper subspace of every stage,
    # so the order N-1 image dimension depends on which columns the
    # stage owns
    alg = make(field)
    assert_image_matches_references(
        *hull(alg, FAMILIES[family](simple_modules(alg)), 3))


def test_low_orders_include_builds_that_do_not_stabilize():
    # k[x]/x^8 below order 7 keeps gaining image; so the truncations
    # above test the certificate on both verdicts
    kx8, loop = make_kx8(GF(5)), make_double_loop()
    assert not any(hull(kx8, simple_modules(kx8), order)[0].stabilized
                   for order in range(2, 7))
    assert hull(loop, simple_modules(loop), 4)[0].stabilized


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers(fields=(QQ,), monomial=True))
def test_o_algebra_matches_matric_products_on_random_quivers(case):
    _, q = case
    for field in (QQ, FP):
        assert_simples_match_references(over(field, q))


def _verdict(sweep, o):
    try:
        return sweep(o)
    except InternalInvariantError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers(), st.sampled_from(["sum", "mixed"]))
def test_o_algebra_matches_matric_products_on_reducible_families(case,
                                                                 family):
    # a direct sum of simples is one reducible block: the sweep may
    # refuse, and it refuses or answers as the full sweep does
    field, q = case
    alg = from_quiver(q, field=field)
    o = assert_image_matches_references(
        *hull(alg, FAMILIES[family](simple_modules(alg)), 3))
    assert_matches_matric_products(o)
    assert _verdict(maximal_ideals, o) == \
        _verdict(maximal_ideals_full_sweep, o)


# -- mutations -------------------------------------------------------------


def _square(alg, ohat):
    """(x, x^2): the basis element whose rho leads with the generator t,
    and the basis element x * x."""
    x = next(b for b, t in enumerate(ohat.rho_table) if ("m", (0,)) in t)
    (x2, _), = alg.products[x][x]
    return x, x2


def test_verify_stops_a_rho_that_is_not_multiplicative():
    # k[x]/x^3 with rho(x^2) doubled: rho stays unital and lifts eta, and
    # rho(x) rho(x) = t^2 differs from rho(x^2) = 2 t^2 on that pair only
    alg = make_kx3()
    builder = _HullBuilder(alg, simple_modules(alg), 4)
    _, ohat = builder.build()
    x, x2 = _square(alg, ohat)
    table = list(ohat.rho_table)
    table[x2] = ohat.scale(alg.field.of_int(2), table[x2])
    broken = MatricOHat(ohat.hull, ohat.dims, table)
    assert list(_defects(alg, broken)) == [(x, x)]
    with pytest.raises(InternalInvariantError, match="not multiplicative"):
        builder._verify(broken)


def test_a_broken_rho_never_reaches_the_sparse_table(monkeypatch):
    # the same break made in the cochain C[t^2] that the build reads rho
    # off: hull() raises before any OAlgebra is formed
    alg = make_kx3()
    _, x2 = _square(alg, hull(alg, simple_modules(alg))[1])
    run = _HullBuilder._run_stages

    def broken_run(self, last):
        hull_alg, C, new = run(self, last)
        psi = list(C[(0, 0)])
        psi[x2] = psi[x2].scale(alg.field.of_int(2))
        return hull_alg, {**C, (0, 0): psi}, new

    formed = []
    init = OAlgebra.__init__
    monkeypatch.setattr(_HullBuilder, "_run_stages", broken_run)
    monkeypatch.setattr(OAlgebra, "__init__",
                        lambda self, ohat: formed.append(ohat)
                        or init(self, ohat))
    with pytest.raises(InternalInvariantError, match="not multiplicative"):
        o_algebra(hull(alg, simple_modules(alg))[1])
    assert formed == []


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_a_designated_unit_without_inverse_is_refused(monkeypatch, field):
    # zero the first block of the designated unit a0: eta(a0 - e_1) is
    # 0 on M_1, so rho(a0 - e_1) has no inverse in O
    alg = path_algebra(3, field)
    _, ohat = hull(alg, simple_modules(alg))
    # the algebra basis element acting as 1 on M_1 and 0 on the others
    e_1 = next(b for b, t in enumerate(ohat.rho_table)
               if [("e", i) in t for i in range(3)] == [True, False, False])
    units = HULL.designated_units

    def tampered(ohat):
        a0, kern = units(ohat)
        a0 = list(a0)
        a0[e_1] = field.sub(a0[e_1], field.one)
        return a0, kern

    monkeypatch.setattr(HULL, "designated_units", tampered)
    with pytest.raises(InternalInvariantError, match="unit inverse"):
        o_algebra(ohat)


def _counting_closures(monkeypatch):
    closed = []
    close = HULL._two_sided_ideal
    monkeypatch.setattr(HULL, "_two_sided_ideal",
                        lambda o_alg, idx: closed.append(idx)
                        or close(o_alg, idx))
    return closed


def _outside_every_ideal(o):
    return [idx for idx, e in enumerate(o.basis_elements())
            if all(not m.is_zero() for m in o.ohat.pi(e))]


@pytest.mark.parametrize("make", [make_dual_numbers, make_kx3])
def test_a_reducible_block_is_still_closed_and_matches(monkeypatch, make):
    # S + S is reducible over O; the element outside m_1 is still closed,
    # and the verdict and data agree with the full sweep
    alg = make()
    s, = simple_modules(alg)
    o = o_algebra(hull(alg, [direct_sum(alg, [s, s])])[1])
    closed = _counting_closures(monkeypatch)
    infos = maximal_ideals(o)
    assert [i["irreducible"] for i in infos] == [False]
    assert closed == _outside_every_ideal(o) == [0]
    assert infos == maximal_ideals_full_sweep(o)


def test_a_reducible_block_with_a_proper_ideal_is_refused():
    # on S1 + S2 as one block, O is the lower-triangular algebra and its
    # only m_1 is 0: O e O is proper for an idempotent e, in both sweeps
    alg = make_a2()
    o = o_algebra(hull(alg, [direct_sum(alg, simple_modules(alg))])[1])
    for sweep in (maximal_ideals, maximal_ideals_full_sweep):
        with pytest.raises(InternalInvariantError, match="principal ideal"):
            sweep(o)


# -- work ------------------------------------------------------------------


def _is_rho_table(rows, flats):
    """Whether the rows of an elimination are the flattened rho table,
    each row cut to a stage or extended by a tag."""
    return len(rows) == len(flats) and all(
        r[:len(v)] == v[:len(r)] for r, v in zip(rows, flats))


@pytest.mark.parametrize("make", [lambda: path_algebra(6),
                                  lambda: make_kx8(GF(5))],
                         ids=["A6/Q", "kx8/F5"])
def test_hull_eliminates_the_rho_table_once_and_o_reads_it(kernel_work,
                                                          make):
    # the stabilization certificate and O read one tagged echelon: no
    # row_space_basis of the flats, no Span and no unflattened element
    alg = make()
    simples = simple_modules(alg)
    for record in kernel_work.values():
        record.clear()
    _, ohat = hull(alg, simples)
    flats = [ohat.flatten(t) for t in ohat.rho_table]
    assert [_is_rho_table(rows, flats)
            for rows in kernel_work["eliminations"]].count(True) == 1
    assert not any(_is_rho_table(v, flats)
                   for v in kernel_work["row_space_bases"])
    kernel_work["spans"].clear()
    kernel_work["unflattens"].clear()
    o = o_algebra(ohat)
    assert len(maximal_ideals(o)) == len(simples)
    assert kernel_work["spans"] == kernel_work["unflattens"] == []


def test_o_algebra_makes_no_matric_product(monkeypatch):
    alg = path_algebra(6)
    _, ohat = hull(alg, simple_modules(alg))
    calls = []
    mul = MatricOHat.mul
    monkeypatch.setattr(MatricOHat, "mul",
                        lambda self, x, y: calls.append(x) or mul(self, x, y))
    o = o_algebra(ohat)
    assert len(maximal_ideals(o)) == 6
    assert o.dim == alg.dim == 21
    assert calls == []


def test_sweep_closes_only_elements_outside_every_ideal(monkeypatch):
    # each echelon basis element of O over A4's simples lies in some m_i,
    # so no ideal is closed (the unconditional sweep closed all 10)
    alg = path_algebra(4)
    o = o_algebra(hull(alg, simple_modules(alg))[1])
    closed = _counting_closures(monkeypatch)
    assert len(maximal_ideals(o)) == 4
    assert closed == _outside_every_ideal(o) == []


def test_o_algebra_and_maximal_ideals_share_one_structure_algebra(
        monkeypatch):
    # A2 has the designated unit 1, so both build O as an Algebra; one
    # as_algebra serves them both
    alg = make_a2()
    _, ohat = hull(alg, simple_modules(alg))
    built = []
    as_algebra = OAlgebra.as_algebra
    monkeypatch.setattr(OAlgebra, "as_algebra",
                        lambda self: built.append(self) or as_algebra(self))
    o = o_algebra(ohat)
    assert len(maximal_ideals(o)) == 2
    assert built == [o]
