"""The scalar product kernel of `MatricOHat` against the `Mat` arithmetic
of `tests/oracles.py`.  Every `_defects` call of a hull build, the one
of `_verify`, must return what `defects_by_mats` returns on the same
matric algebra, and `MatricOHat.mul` must agree with
`matric_mul_by_mats` on every pair of rho table elements.  The families
cover 1x1 blocks (the simples) and larger ones (the regular module, a
direct sum of simples, a declared two-dimensional module).  The work
pins: `_verify` on a valid hull builds no `Mat`, and the kernel visits
exactly the pairs of terms whose blocks compose within the order."""

import sys

import pytest
from hypothesis import given, settings

from aspec.fields import GF, QQ
from aspec.hull import hull
from aspec.linalg import Mat
from aspec.modules import ModuleRep, regular_module, simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import from_quiver
from conftest import corpus, make_a2, make_kx3
from oracles import compose_keys, defects_by_mats, matric_mul_by_mats
from test_hull_one_pass import direct_sum
from test_hull_stress import make_kronecker
from test_resolution_sparse import local_kxy_quotients
from test_rewrite import acyclic_quivers
from test_validate import path_algebra

F5 = GF(5)
hull_module = sys.modules["aspec.hull"]


def compare_defects(monkeypatch):
    """Compares every later `_defects` call with the references, on the
    rows it visits (the generators' rows in `_verify`, every row when
    none are given); returns the list of the largest block side of each
    call."""
    defects = hull_module._defects
    sides = []

    def compared(algebra, ohat, rows=None):
        out = defects(algebra, ohat, rows)
        assert out == {ab: d for ab, d in
                       defects_by_mats(algebra, ohat).items()
                       if rows is None or ab[0] in rows}
        table = ohat.rho_table
        for x in table:
            for y in table:
                assert ohat.mul(x, y) == matric_mul_by_mats(ohat, x, y)
        one = {}
        for c, t in zip(algebra.unit, table):
            one = ohat.add(one, ohat.scale(c, t))
        assert ohat.rho(list(algebra.unit)) == one
        sides.append(max(ohat.dims))
        return out

    monkeypatch.setattr(hull_module, "_defects", compared)
    return sides


@pytest.fixture
def checked(monkeypatch):
    return compare_defects(monkeypatch)


def build(alg, modules, order=None):
    """hull(), with every `_defects` call compared."""
    hull(alg, modules, order)


def two_dimensional_module(field):
    """k[x]/x^2 as a right module over k[x]/x^3: x sends 1 to x."""
    alg = make_kx3(field)
    one, zero = field.one, field.zero
    acts = {"1": [[one, zero], [zero, one]], "x": [[zero, one], [zero, zero]],
            "x^2": [[zero, zero], [zero, zero]]}
    mats = [Mat(field, acts[label]) for label in alg.labels]
    return alg, ModuleRep(alg, mats, name="k[x]/x^2")


# -- differential ----------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_kernel_matches_the_mat_reference_on_the_corpus(checked, field):
    for name, alg in corpus(field):
        simples = simple_modules(alg)
        build(alg, simples)
        if len(simples) > 1:
            build(alg, [direct_sum(alg, simples)])
        build(alg, [regular_module(alg)])
    assert checked and max(checked) >= 3


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_kernel_matches_the_mat_reference_on_larger_blocks(checked, field):
    alg, module = two_dimensional_module(field)
    build(alg, [module])
    build(alg, [module] + simple_modules(alg), 4)
    a2 = make_a2(field)
    build(a2, [direct_sum(a2, simple_modules(a2))], 4)
    kronecker = make_kronecker(field)
    build(kronecker, [direct_sum(kronecker, simple_modules(kronecker))], 3)
    assert checked and min(checked) == 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers())
def test_kernel_matches_the_mat_reference_on_random_quivers(case):
    field, q = case
    with pytest.MonkeyPatch.context() as mp:
        sides = compare_defects(mp)
        alg = from_quiver(q, field=field)
        build(alg, simple_modules(alg))
        assert sides


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(local_kxy_quotients())
def test_kernel_matches_the_mat_reference_on_local_kxy(alg):
    with pytest.MonkeyPatch.context() as mp:
        sides = compare_defects(mp)
        build(alg, simple_modules(alg))
        assert sides


# -- work ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: path_algebra(4),
    lambda: make_kronecker(F5),
    lambda: from_poly_quotient(F5, ["x"], [{(8,): F5.one}]),
], ids=["A4", "kronecker", "kx8"])
def test_verify_on_a_valid_hull_builds_no_mat(monkeypatch, kernel_work, make):
    alg = make()
    simples = simple_modules(alg)
    built = []
    verify = hull_module._HullBuilder._verify

    def counted(self, ohat):
        before = len(kernel_work["mats"])
        verify(self, ohat)
        built.append(len(kernel_work["mats"]) - before)

    monkeypatch.setattr(hull_module._HullBuilder, "_verify", counted)
    hull(alg, simples)
    assert built == [0]


def test_the_kernel_visits_only_composable_pairs(monkeypatch, kernel_work):
    # A5 over its simples: 15 basis elements in 5 blocks; the Mat path
    # tried every pair of keys of rho(a) and rho(b)
    alg = path_algebra(5)
    defects = hull_module._defects
    counts = []

    def counted(algebra, ohat, rows=None):
        h = ohat.hull
        composable = every = 0
        for a, x in enumerate(ohat.rho_table):
            if rows is not None and a not in rows:
                continue
            for y in ohat.rho_table:
                every += len(x) * len(y)
                composable += sum(compose_keys(h, k1, k2) is not None
                                  for k1 in x for k2 in y)
        before = len(kernel_work["visits"])
        out = defects(algebra, ohat, rows)
        counts.append((len(kernel_work["visits"]) - before, composable,
                       every))
        return out

    monkeypatch.setattr(hull_module, "_defects", counted)
    hull(alg, simple_modules(alg))
    assert counts
    for visits, composable, every in counts:
        assert visits == composable < every
