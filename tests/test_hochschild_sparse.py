"""The sparse Hochschild coboundaries against the dense reference in
`tests/oracles.py`, and their use in the hull: one d^2 map per block
whatever the number of stages, and a stage defect that is not a cocycle
still stops the build."""

import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.errors import InternalInvariantError
from aspec.fields import GF, QQ
from aspec.hochschild import (
    coboundary_2,
    coboundary_columns,
    flatten2,
    is_two_cocycle,
)
from aspec.hull import hull
from aspec.linalg import Mat
from aspec.modules import regular_module, simple_modules
from aspec.quiver import QuiverPresentation, from_quiver
from conftest import corpus, make_dual_numbers
from oracles import coboundary_1, is_two_cocycle_dense
from test_hull_one_pass import make_a3, make_kx4
from test_hull_stress import make_double_loop, make_fat_point, make_kronecker

F5 = GF(5)
hull_module = sys.modules["aspec.hull"]

# the regular module (di, dj > 1) joins the simples up to this dimension;
# the dense oracle is cubic in the algebra's dimension
REGULAR_UP_TO = 4


def make_a4(field=QQ):
    return from_quiver(QuiverPresentation(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]), field=field)


def _algebras():
    out = []
    for field in (QQ, F5):
        out += [(f"{name}/{field}", alg) for name, alg in corpus(field)]
        out += [(f"{make.__name__[5:]}/{field}", make(field))
                for make in (make_kx4, make_a3, make_a4, make_kronecker,
                             make_double_loop, make_fat_point)]
    return out


ALGEBRAS = _algebras()


def _modules(alg):
    extra = [regular_module(alg)] if alg.dim <= REGULAR_UP_TO else []
    return simple_modules(alg) + extra


BLOCKS = [(k, i, j) for k, (_, alg) in enumerate(ALGEBRAS)
          for i in range(len(_modules(alg)))
          for j in range(len(_modules(alg)))]


@lru_cache(maxsize=None)
def _block(key):
    """(algebra, source, target, d^2 map, coboundary columns)."""
    k, i, j = key
    alg = ALGEBRAS[k][1]
    mods = _modules(alg)
    si, sj = mods[i], mods[j]
    return (alg, si, sj, coboundary_2(alg, si, sj),
            coboundary_columns(alg, si, sj))


def _cochain(alg, si, sj, vec):
    n, di, dj = alg.dim, si.dim, sj.dim
    return {(a, b): Mat(alg.field,
                        [vec[((a * n + b) * di + r) * dj:
                             ((a * n + b) * di + r + 1) * dj]
                         for r in range(di)], cols=dj)
            for a in range(n) for b in range(n)}


@pytest.mark.parametrize("name, alg", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_coboundary_columns_equal_the_dense_coboundaries(name, alg):
    f = alg.field
    for si in _modules(alg):
        for sj in _modules(alg):
            n, di, dj = alg.dim, si.dim, sj.dim
            dense = []
            for a in range(n):
                for r in range(di):
                    for c in range(dj):
                        psi = [Mat.zeros(f, di, dj) for _ in range(n)]
                        psi[a].data[r][c] = f.one
                        dense.append(flatten2(
                            alg, coboundary_1(alg, si, sj, psi)))
            assert coboundary_columns(alg, si, sj) == dense, name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sparse_cocycle_check_agrees_with_the_dense_one(data):
    alg, si, sj, d2, cols = _block(data.draw(st.sampled_from(BLOCKS)))
    f = alg.field
    size = alg.dim ** 2 * si.dim * sj.dim
    coeff = st.integers(-3, 3).map(f.normalize)
    kind = data.draw(st.sampled_from(["sparse", "coboundary", "perturbed"]))
    if kind == "sparse":
        entries = data.draw(st.dictionaries(
            st.integers(0, size - 1), coeff, min_size=1, max_size=4))
        vec = [entries.get(k, f.zero) for k in range(size)]
    else:
        weights = data.draw(st.lists(coeff, min_size=len(cols),
                                     max_size=len(cols)))
        vec = [f.zero] * size
        for w, col in zip(weights, cols):
            vec = [f.add(x, f.mul(w, y)) for x, y in zip(vec, col)]
        if kind == "perturbed":
            k = data.draw(st.integers(0, size - 1))
            vec[k] = f.add(vec[k], f.normalize(data.draw(st.integers(1, 4))))
    coch = _cochain(alg, si, sj, vec)
    sparse = is_two_cocycle(alg, coch, d2)
    assert sparse == is_two_cocycle_dense(alg, si, sj, coch)
    if kind == "coboundary":
        assert sparse


@pytest.mark.parametrize("make, order, maps, checks", [
    (make_double_loop, 5, 1, 4), (make_kx4, 6, 1, 3), (make_a4, 4, 3, 3),
    (make_fat_point, 4, 1, 4)])
def test_hull_builds_one_d2_map_per_block(monkeypatch, make, order, maps,
                                          checks):
    # every defect is checked; the maps are built once per block (i, j)
    # and reused by the defects of every later stage in that block
    blocks = []
    checked = []
    build, check = hull_module.coboundary_2, hull_module.is_two_cocycle
    monkeypatch.setattr(
        hull_module, "coboundary_2",
        lambda alg, si, sj: blocks.append((id(si), id(sj)))
        or build(alg, si, sj))
    monkeypatch.setattr(
        hull_module, "is_two_cocycle",
        lambda alg, coch, d2: checked.append(d2) or check(alg, coch, d2))
    alg = make()
    hull(alg, simple_modules(alg), order)
    assert len(blocks) == len(set(blocks)) == maps
    assert len(checked) == checks


def test_a_defect_that_is_not_a_cocycle_stops_the_hull(monkeypatch):
    # on k[x]/(x^2), the unit 2-cochain at (1, x) is not a cocycle:
    # delta of it is 1 at (1, 1, x)
    alg = make_dual_numbers()
    s = simple_modules(alg)
    defects = hull_module._HullBuilder._stage_defects

    def broken(self, stage, hull_alg, C):
        out = defects(self, stage, hull_alg, C)
        coch = next(iter(out.values()))
        coch[(0, 1)] = coch[(0, 1)].add(Mat.identity(alg.field, 1))
        return out

    monkeypatch.setattr(hull_module._HullBuilder, "_stage_defects", broken)
    with pytest.raises(InternalInvariantError,
                       match="stage defect is not a Hochschild 2-cocycle"):
        hull(alg, s, 3)
