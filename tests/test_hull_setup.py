"""The Ext setup a hull reads, at the cost of its nonzero data: the bar
comparison lifts mu only when an Ext^2 cochain is requested and only on
its nonzero cells, each indecomposable projective e_v A is built once
per algebra, and `_verify`'s defects form rho(ab) from the nonzero
structure constants.  The eager all-cells mu of `tests/oracles.py` is the
reference for the lazy one."""

import sys

from hypothesis import given, settings

from aspec.ext import ProjectiveModule, Resolution, ext
from aspec.fields import GF, QQ
from aspec.hochschild import BarComparison, is_two_cocycle
from aspec.hull import MatricOHat, hull
from aspec.modules import simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import from_quiver
from conftest import corpus, make_a2
from oracles import bar_mu_dense, on_generator_pairs, two_cochain_dense
from test_rewrite import acyclic_quivers
from test_validate import path_algebra

F5 = GF(5)
hull_module = sys.modules["aspec.hull"]


def assert_mu_matches_dense(alg):
    """On every simple: the lifted cells of mu are the nonzero cells of
    the eager mu with a generator first, and every Ext^2 cocycle between
    simples gives through mu the eager 2-cochain on the pairs (g, b),
    g a generator; the eager cochain is a cocycle on all pairs."""
    if not alg.radical_basis():
        return
    simples = simple_modules(alg)
    for s in simples:
        bc = BarComparison(Resolution(s))
        dense = bar_mu_dense(bc)
        assert bc.mu == {(m, a, b): sol
                         for m, rows in enumerate(dense)
                         for a, cells in enumerate(rows)
                         for b, sol in enumerate(cells)
                         if any(sol) and a in alg.generators}
        for t in simples:
            for c in ext(s, t, 2, resolution=bc.res).cocycles:
                full = two_cochain_dense(bc, c)
                assert bc.two_cochain_of(c) == on_generator_pairs(alg, full)
                assert is_two_cocycle(alg, s, t, full)


def test_mu_matches_the_eager_lift_on_the_corpus():
    for field in (QQ, F5):
        for name, alg in corpus(field):
            assert_mu_matches_dense(alg)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers())
def test_mu_matches_the_eager_lift_on_random_quivers(case):
    field, q = case
    assert_mu_matches_dense(from_quiver(q, field=field))


def test_a_hereditary_hull_lifts_no_mu_cell(setup_work):
    # A7 is hereditary: Ext^2 = 0, so no Ext^2 cochain is asked for;
    # the eager lift took 7 * 28^2 = 5488 cells
    alg = path_algebra(7)
    hull(alg, simple_modules(alg))
    assert sum(setup_work["mu_cells"]) == 0


def test_a_truncated_polynomial_lifts_only_its_nonzero_cells(setup_work):
    # k[x]/x^8: w is nonzero exactly on (x^i, x^j) with i + j = 8; the
    # eager lift took all 64 cells
    alg = from_poly_quotient(F5, ["x"], [{(8,): F5.one}])
    hull(alg, simple_modules(alg))
    assert 0 < sum(setup_work["mu_cells"]) <= 7


def test_each_projective_is_built_once_per_algebra(setup_work):
    # A7: 13 nonzero slots over the resolutions of its 7 simples, one
    # e_v A per vertex
    alg = path_algebra(7)
    hull(alg, simple_modules(alg))
    built = [tuple(e) for e in setup_work["e_v_A"]]
    assert len(built) == len(set(built)) == 7


def test_projectives_follow_replaced_idempotents(setup_work):
    # A2 = 1 -> 2: e1 A = span(e1, a), e2 A = span(e2); after the
    # idempotents are swapped, slot 0 is e2 A and nothing is rebuilt
    alg = make_a2()
    e1, e2 = alg.ensure_idempotents()
    assert ProjectiveModule(alg, [0, 1]).dim == 3
    assert ProjectiveModule(alg, [0]).dim == 2
    alg.idempotents = [e2, e1]
    assert ProjectiveModule(alg, [0]).dim == 1
    assert len(setup_work["e_v_A"]) == 2


def test_defects_scale_once_per_structure_constant(monkeypatch):
    # rho(ab) is summed over products[a][b]: the blocks of one scaled
    # table element added to the pair's buffer per nonzero structure
    # constant of the rows visited, however many basis elements there
    # are; on k[x]/x^8 every table element is one block, rho(x^k) = t^k.
    # The build makes one `_defects` call, `_verify`'s on the generators'
    # rows 1 and x, and one `_rho_buffer` call, `_verify`'s for rho(1),
    # which scales one block; the stages read their defects off the
    # cochains and scale no table element.  The cochain of t^k is nonzero
    # on x^k only, so the Massey sum of stage n visits one row pair per
    # split t^n = t^k t^(n-k)
    alg = from_poly_quotient(F5, ["x"], [{(8,): F5.one}])
    nonzero = [sum(map(len, row)) for row in alg.products]
    scales = []
    per_call = []
    per_rho = []
    visits = []
    add_block = hull_module._add_block
    defects = hull_module._defects
    rho_buffer = MatricOHat._rho_buffer
    mul_into = hull_module._mul_into
    massey = hull_module._HullBuilder._massey_sum
    monkeypatch.setattr(hull_module, "_mul_into",
                        lambda *args: visits.append(args) or mul_into(*args))
    per_stage = []

    def counted_massey(self, stage):
        before = len(visits)
        out = massey(self, stage)
        per_stage.append(len(visits) - before)
        return out

    monkeypatch.setattr(hull_module._HullBuilder, "_massey_sum",
                        counted_massey)
    monkeypatch.setattr(hull_module, "_add_block",
                        lambda field, dest, key, c, x: scales.append(c) or
                        add_block(field, dest, key, c, x))

    def counted(algebra, ohat, rows=None):
        before = len(scales)
        out = defects(algebra, ohat, rows)
        per_call.append((len(scales) - before, rows))
        return out

    def counted_rho(self, elem_coords):
        before = len(scales)
        out = rho_buffer(self, elem_coords)
        per_rho.append(len(scales) - before)
        return out

    monkeypatch.setattr(hull_module, "_defects", counted)
    monkeypatch.setattr(MatricOHat, "_rho_buffer", counted_rho)
    hull(alg, simple_modules(alg))
    assert alg.generators == [0, 1]
    assert per_call == [(nonzero[0] + nonzero[1], [0, 1])]
    assert per_rho == [1]
    assert per_stage == list(range(1, 8))     # stages 2..8
