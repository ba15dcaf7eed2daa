"""The setup before the hull stages against its dense references in
`tests/oracles.py`.  Resolutions over sparse vertex projectives must give
the slots, generator images, differentials, kernels and Ext cocycles of
the resolution over dense action matrices, whose covers span every
x * e, x in rad.  Each e A, built from the products by basis elements,
must give the basis, generator, action and radical rows of e A built
through `Algebra.mul`.  Ext into a target killed by the radical, read
off the resolution, must give the cocycles, dimension and classes of the
general path, and a projective target must still take that path.  The
char-p radical, which stops at the first nilpotent two-sided ideal of
the trace chain, must give the basis and index of the whole chain.  The
work pins: k[x]/x^8 over F5 forms no integral matrix product, and the
hull of A7 builds no dense projective action matrix."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.algebra import from_structure_constants
from aspec.ext import (
    ProjectiveModule,
    Resolution,
    _cover_data,
    _vertex_projective,
    ext,
)
from aspec.fields import GF, QQ
from aspec.hull import hull
from aspec.modules import regular_module, simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import QuiverPresentation, from_quiver
from conftest import corpus
from oracles import (
    DenseResolution,
    GeneralExt,
    dense_table,
    ext_cocycles_dense,
    radical_trace_chain,
    vertex_projective_by_mul,
)
from test_hull_stress import make_double_loop
from test_random_corpus import FP, over
from test_rewrite import acyclic_quivers
from test_validate import path_algebra

F5 = GF(5)


def assert_resolution_matches_dense(module, targets):
    """Resolution(module) against DenseResolution(module), degree by
    degree, and its Ext^1 and Ext^2 cocycles into each target."""
    alg = module.algebra
    res, dense = Resolution(module), DenseResolution(module)
    covered = [(module, None)] + list(zip(res.terms[:2], res.kernels[:2]))
    for d in range(3):
        term, ref = res.terms[d], dense.terms[d]
        assert term.slots == ref.slots
        assert term.slot_bases == ref.slot_bases
        assert _cover_data(alg, *covered[d]) == dense.covers[d]
        assert res.diffs[d] == dense.diffs[d]
        assert res.kernels[d] == dense.kernels[d]
        for b in range(alg.dim):
            x = alg.basis_vector(b)
            assert term.act(x) == ref.action[b]
            for s in range(len(term.slots)):
                row = term.generator_row(s)
                assert term.apply(row, x) == ref.action[b].apply_row(row)
    for target in targets:
        for degree in (1, 2):
            cocycles = ext(module, target, degree, resolution=res).cocycles
            assert cocycles == ext_cocycles_dense(dense, target, degree)


def assert_simples_match_dense(alg):
    simples = simple_modules(alg)
    for s in simples:
        assert_resolution_matches_dense(s, simples)


def test_resolutions_match_the_dense_reference_on_the_corpus():
    for field in (QQ, F5):
        for name, alg in corpus(field):
            assert_simples_match_dense(alg)
            assert_resolution_matches_dense(regular_module(alg),
                                            simple_modules(alg))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers())
def test_resolutions_match_the_dense_reference_on_random_quivers(case):
    field, q = case
    assert_simples_match_dense(from_quiver(q, field=field))


@st.composite
def local_kxy_quotients(draw, primes=(2, 3, 5, 7)):
    """k[x, y]/(x^a, y^b, up to two more relations) over F_p, each extra
    relation a combination of monomials of positive degree below
    x^a and y^b, so the quotient is local and finite-dimensional."""
    field = GF(draw(st.sampled_from(primes)))
    a, b = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    rels = [{(a, 0): field.one}, {(0, b): field.one}]
    monos = [(i, j) for i in range(a) for j in range(b) if i + j > 0]
    for _ in range(draw(st.integers(0, 2))):
        terms = draw(st.lists(st.sampled_from(monos), min_size=1,
                              max_size=3, unique=True))
        rels.append({m: field.of_int(draw(st.integers(1, field.p - 1)))
                     for m in terms})
    return from_poly_quotient(field, ["x", "y"], rels)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(local_kxy_quotients())
def test_resolutions_match_the_dense_reference_on_local_kxy(alg):
    assert_simples_match_dense(alg)


# -- e A and Ext into targets killed by the radical ------------------------------


def assert_vertex_projectives_match_mul(alg):
    for e in alg.ensure_idempotents():
        blk = _vertex_projective(alg, e)
        basis, generator, action, radical = vertex_projective_by_mul(alg, e)
        assert blk.basis == basis
        assert blk.generator == generator
        assert blk.action == action
        assert blk.radical.rows == radical


def assert_ext_matches_the_general_path(alg):
    """Ext^1 and Ext^2 between the simples, and from each simple into
    each projective e A that the radical does not kill, against the
    general path: the cocycles entry for entry, and the class of every
    cocycle of Z, plus a coboundary of B, in the cocycle basis."""
    simples = simple_modules(alg)
    projectives = [p for p in (ProjectiveModule(alg, [v])
                               for v in range(len(simples)))
                   if not p.killed_by_radical()]
    assert all(s.killed_by_radical() for s in simples)
    for s in simples:
        res = Resolution(s)
        for target in simples + projectives:
            for degree in (1, 2):
                e = ext(s, target, degree, resolution=res)
                ref = GeneralExt(res, target, degree)
                assert e.cocycles == ref.cocycles
                assert e.dimension == len(ref.cocycles)
                for z in ref.z_basis:
                    assert e.is_cocycle(z)
                    assert e.class_of(z) == ref.class_of(z)
                    for b in ref.b_basis:
                        assert e.class_of(z.add(b)) == ref.class_of(z)


def test_vertex_projectives_and_ext_match_the_general_path_on_the_corpus():
    for field in (QQ, F5):
        for name, alg in corpus(field):
            assert_vertex_projectives_match_mul(alg)
            assert_ext_matches_the_general_path(alg)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers(fields=(QQ,), monomial=True))
def test_ext_matches_the_general_path_on_random_quivers(case):
    _, q = case
    for field in (QQ, FP):
        alg = over(field, q)
        assert_vertex_projectives_match_mul(alg)
        assert_ext_matches_the_general_path(alg)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(local_kxy_quotients(primes=(5,)))
def test_ext_matches_the_general_path_on_f5_poly_quotients(alg):
    assert_vertex_projectives_match_mul(alg)
    assert_ext_matches_the_general_path(alg)


def test_a_projective_target_takes_the_general_path(monkeypatch):
    # A2: e_1 A = <e_1, a> is not killed by a, so Ext^1 into it solves
    # for the cocycles modulo the coboundaries; Ext^1 into the simples
    # reads them off the resolution
    alg = from_quiver(QuiverPresentation(["1", "2"], [("a", "1", "2")]),
                      field=QQ)
    # the package re-exports `ext`, which shadows the submodule
    ext_module = sys.modules["aspec.ext"]
    solved = []
    quotient = ext_module.quotient_basis
    monkeypatch.setattr(ext_module, "quotient_basis",
                        lambda *a, **k: solved.append(a) or quotient(*a, **k))
    simples = simple_modules(alg)
    source = next(s for s in simples if Resolution(s).p1.dim)
    res = Resolution(source)
    solved.clear()
    for target in simples:
        ext(source, target, 1, resolution=res)
    assert solved == []
    target = ProjectiveModule(alg, [0])
    assert not target.killed_by_radical()
    e = ext(source, target, 1, resolution=res)
    assert len(solved) == 1
    assert e.cocycles == GeneralExt(res, target, 1).cocycles


# -- the char-p radical ---------------------------------------------------------


def structure_only(alg):
    """The same structure constants with no presentation, so the radical
    comes from the trace chain."""
    return from_structure_constants(alg.field, alg.labels, dense_table(alg),
                                    alg.unit)


def matrix_algebra(field, n):
    """M_n(k) on the matrix units E_ij: E_ij E_kl = delta_jk E_il."""
    units = [(i, j) for i in range(n) for j in range(n)]
    index = {u: k for k, u in enumerate(units)}

    def vec(u):
        v = [field.zero] * len(units)
        if u is not None:
            v[index[u]] = field.one
        return v

    table = [[vec((i, l) if j == k else None) for (k, l) in units]
             for (i, j) in units]
    unit = [field.one if i == j else field.zero for (i, j) in units]
    return from_structure_constants(field, [f"E{i}{j}" for i, j in units],
                                    table, unit)


def assert_radical_matches_chain(alg):
    assert alg.radical() == radical_trace_chain(alg)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 10), st.data())
def test_radical_of_univariate_quotients_matches_the_whole_chain(p, deg,
                                                                 data):
    field = GF(p)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=deg,
                                max_size=deg))
    rel = {(k,): field.of_int(c) for k, c in enumerate(coeffs) if c}
    rel[(deg,)] = field.one
    assert_radical_matches_chain(from_poly_quotient(field, ["x"], [rel]))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(local_kxy_quotients())
def test_radical_of_two_variable_quotients_matches_the_whole_chain(alg):
    assert_radical_matches_chain(alg)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers(fields=(GF(2), GF(3), F5)))
def test_radical_of_noncommutative_algebras_matches_the_whole_chain(case):
    field, q = case
    assert_radical_matches_chain(structure_only(from_quiver(q, field=field)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_radical_of_small_noncommutative_algebras(p):
    field = GF(p)
    for alg in (matrix_algebra(field, 2), make_double_loop(field)):
        assert_radical_matches_chain(structure_only(alg))


@pytest.mark.parametrize("p, n", [(2, 4), (2, 6), (3, 9), (5, 5)])
def test_the_chain_runs_on_when_p_divides_the_dimension(setup_work, p, n):
    # tr(L_1 L_1) = n = 0 mod p, so R_1 = A is not nilpotent and the
    # chain goes on to the p-th powers of level 2
    field = GF(p)
    alg = from_poly_quotient(field, ["x"], [{(n,): field.one}])
    assert_radical_matches_chain(alg)
    assert setup_work["int_mat_products"]


def test_the_chain_stops_at_level_one_on_kx8_over_f5(setup_work):
    # R_1 is the 7-dimensional radical: the whole chain formed 373
    # integral 8x8 products, 245 of them at level 2
    alg = from_poly_quotient(F5, ["x"], [{(8,): F5.one}])
    basis, index = alg.radical()
    assert (len(basis), index) == (7, 8)
    assert setup_work["int_mat_products"] == []


def test_a7_hull_builds_no_dense_projective_matrix(setup_work):
    alg = path_algebra(7)
    hull(alg, simple_modules(alg))
    assert setup_work["dense_projective_actions"] == []
    assert len(setup_work["e_v_A"]) == 7
