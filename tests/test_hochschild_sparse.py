"""The sparse Hochschild coboundaries, cocycle check and split against
the dense references in `tests/oracles.py`, and their use in the hull:
one coboundary span per block whatever the number of stages, one unit
coboundary per nonzero defect entry, and a stage defect that is not a
cocycle or an Ext^2 basis dependent modulo coboundaries still stops the
build."""

import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.errors import InternalInvariantError
from aspec.fields import GF, QQ
from aspec.hochschild import (
    BarComparison,
    coboundary_columns,
    flatten2,
    is_two_cocycle,
    split_two_cocycle,
)
from aspec.hull import ExtData, hull
from aspec.linalg import Mat
from aspec.modules import regular_module, simple_modules
from aspec.quiver import QuiverPresentation, from_quiver
from conftest import corpus, make_dual_numbers, make_kx3
from oracles import (
    coboundary_1,
    coboundary_columns_dense,
    is_two_cocycle_dense,
    split_two_cocycle_ext2_first,
    two_cocycle_classes_independent,
)
from test_hull_one_pass import make_a3, make_kx4
from test_hull_stress import make_double_loop, make_fat_point, make_kronecker
from test_validate import path_algebra

F5 = GF(5)
hull_module = sys.modules["aspec.hull"]
hochschild_module = sys.modules["aspec.hochschild"]

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
    """(algebra, source, target, coboundary columns)."""
    k, i, j = key
    alg = ALGEBRAS[k][1]
    mods = _modules(alg)
    si, sj = mods[i], mods[j]
    return alg, si, sj, coboundary_columns(alg, si, sj)


def _cochain(alg, si, sj, vec):
    n, di, dj = alg.dim, si.dim, sj.dim
    return {(a, b): Mat(alg.field,
                        [vec[((a * n + b) * di + r) * dj:
                             ((a * n + b) * di + r + 1) * dj]
                         for r in range(di)], cols=dj)
            for a in range(n) for b in range(n)}


@pytest.mark.parametrize("name, alg", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_coboundary_columns_equal_the_dense_coboundaries(name, alg):
    for si in _modules(alg):
        for sj in _modules(alg):
            assert (coboundary_columns(alg, si, sj)
                    == coboundary_columns_dense(alg, si, sj)), name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sparse_cocycle_check_agrees_with_the_dense_one(data):
    alg, si, sj, cols = _block(data.draw(st.sampled_from(BLOCKS)))
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
    sparse = is_two_cocycle(alg, si, sj, coch)
    assert sparse == is_two_cocycle_dense(alg, si, sj, coch)
    if kind == "coboundary":
        assert sparse


@pytest.mark.parametrize("make, order, maps, checks", [
    (make_double_loop, 5, 1, 4), (make_kx4, 6, 1, 3), (make_a4, 4, 3, 3),
    (make_fat_point, 4, 1, 4)])
def test_hull_builds_one_d2_map_per_block(monkeypatch, make, order, maps,
                                          checks):
    # every defect is checked; the coboundary span is built once per
    # block (i, j) and reused by the defects of every later stage in it
    blocks = []
    checked = []
    build, check = hull_module.two_cocycle_span, hull_module.is_two_cocycle
    monkeypatch.setattr(
        hull_module, "two_cocycle_span",
        lambda alg, si, sj, hh2: blocks.append((id(si), id(sj)))
        or build(alg, si, sj, hh2))
    monkeypatch.setattr(
        hull_module, "is_two_cocycle",
        lambda alg, si, sj, coch: checked.append(coch)
        or check(alg, si, sj, coch))
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
        coch[(0, 1)] = coch.get((0, 1), Mat.zeros(alg.field, 1, 1)).add(
            Mat.identity(alg.field, 1))
        return out

    monkeypatch.setattr(hull_module._HullBuilder, "_stage_defects", broken)
    with pytest.raises(InternalInvariantError,
                       match="stage defect is not a Hochschild 2-cocycle"):
        hull(alg, s, 3)


# blocks of the split test: the regular module only up to dimension 2,
# since the reference solves a dense system of n^2 di dj equations
SPLIT_BLOCKS = [(k, i, j) for k, i, j in BLOCKS
                if max(_modules(ALGEBRAS[k][1])[m].dim for m in (i, j)) <= 2]


@lru_cache(maxsize=None)
def _pair(key):
    """The block's _PairExt, from a store of its own."""
    alg, si, sj, _ = _block(key)
    return ExtData(alg).pair(si, sj)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_split_agrees_with_the_ext2_first_reference(data):
    # sum lambda_l basis_l + delta(psi) splits to the same (lambda, psi)
    # over [d^1 | Ext^2] as over the reference order [Ext^2 | d^1]; the
    # defect reaches the split with its zero pairs left out
    key = data.draw(st.sampled_from(SPLIT_BLOCKS))
    alg, si, sj, cols = _block(key)
    pair = _pair(key)
    f = alg.field
    coeff = st.integers(-3, 3).map(f.normalize)
    lambdas = data.draw(st.lists(coeff, min_size=len(pair.hh2),
                                 max_size=len(pair.hh2)))
    weights = data.draw(st.lists(coeff, min_size=len(cols),
                                 max_size=len(cols)))
    size = alg.dim ** 2 * si.dim * sj.dim
    vec = [f.zero] * size
    basis = [flatten2(alg, si, sj, c) for c in pair.hh2]
    for w, col in zip(lambdas + weights, basis + cols):
        vec = [f.add(x, f.mul(w, y)) for x, y in zip(vec, col)]
    coch = _cochain(alg, si, sj, vec)
    sparse = {ab: m for ab, m in coch.items() if not m.is_zero()}
    got_lambdas, psi = split_two_cocycle(alg, si, sj, sparse, pair.span())
    ref = split_two_cocycle_ext2_first(alg, si, sj, pair.hh2, coch)
    assert ref is not None
    assert got_lambdas == ref[0] == lambdas
    assert [x for m in psi for row in m.data for x in row] == ref[1]


@pytest.mark.parametrize("name, alg", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_ext2_bases_are_independent_modulo_coboundaries(name, alg):
    # the store's span keeps every Ext^2 vector exactly where the rank
    # reference finds the basis independent in HH^2
    store = ExtData(alg)
    for si in simple_modules(alg):
        for sj in simple_modules(alg):
            pair = store.pair(si, sj)
            assert two_cocycle_classes_independent(alg, si, sj, pair.hh2)
            if pair.hh2:
                nd = pair.span().count - len(pair.hh2)
                assert [k for k in pair.span().kept if k >= nd] == \
                    list(range(nd, pair.span().count)), name


def test_a_dependent_ext2_basis_is_refused(monkeypatch):
    # k[x]/(x^3): Ext^2(S, S) is one-dimensional; put a coboundary in
    # place of its cochain and the store must refuse the pair
    alg = make_kx3()
    s = simple_modules(alg)[0]
    f = alg.field
    psi = [Mat.zeros(f, 1, 1) for _ in range(alg.dim)]
    psi[2].data[0][0] = f.one
    cob = coboundary_1(alg, s, s, psi)
    assert not all(m.is_zero() for m in cob.values())
    assert not two_cocycle_classes_independent(alg, s, s, [cob])
    monkeypatch.setattr(BarComparison, "two_cochain_of",
                        lambda self, cocycle: cob)
    with pytest.raises(InternalInvariantError,
                       match="converted Ext\\^2 basis lost independence"):
        ExtData(alg).pair(s, s)


def test_a7_checks_each_nonzero_defect_entry_once(monkeypatch):
    # A7 at the default order: 15 defects with 35 nonzero entries; the
    # check evaluates delta of one unit 2-cochain per entry (the d^2 map
    # it replaces had 784 columns per block, 11760 in all), and the d^1
    # columns of each block are eliminated once
    alg = path_algebra(7)
    entries = []
    units = []
    eliminated = []
    defects = hull_module._HullBuilder._stage_defects
    unit = hochschild_module._unit_coboundary
    columns = hochschild_module.coboundary_columns

    def counted_defects(self, stage, hull_alg, C):
        out = defects(self, stage, hull_alg, C)
        entries.extend(x for coch in out.values() for m in coch.values()
                       for row in m.data for x in row if x)
        return out

    monkeypatch.setattr(hull_module._HullBuilder, "_stage_defects",
                        counted_defects)
    monkeypatch.setattr(
        hochschild_module, "_unit_coboundary",
        lambda alg, si, sj, onto, args, r, c:
        (units.append(args) if len(args) == 2 else None)
        or unit(alg, si, sj, onto, args, r, c))
    monkeypatch.setattr(
        hochschild_module, "coboundary_columns",
        lambda alg, si, sj: eliminated.append((id(si), id(sj)))
        or columns(alg, si, sj))
    hull(alg, simple_modules(alg))
    assert len(entries) == len(units) == 35
    assert len(eliminated) == len(set(eliminated)) > 0
