"""The setup before the hull stages against its dense references in
`tests/oracles.py`.  Resolutions over sparse vertex projectives must give
the slots, generator images, differentials, kernels and Ext cocycles of
the resolution over dense action matrices, whose covers span every
x * e, x in rad.  The char-p radical, which stops at the first nilpotent
two-sided ideal of the trace chain, must give the basis and index of the
whole chain.  The work pins: k[x]/x^8 over F5 forms no integral matrix
product, and the hull of A7 builds no dense projective action matrix."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.algebra import Algebra
from aspec.ext import Resolution, _cover_data, ext
from aspec.fields import GF, QQ
from aspec.hull import hull
from aspec.modules import regular_module, simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import from_quiver
from conftest import corpus
from oracles import DenseResolution, ext_cocycles_dense, radical_trace_chain
from test_hull_stress import make_double_loop
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
def local_kxy_quotients(draw):
    """k[x, y]/(x^a, y^b, up to two more relations) over F_p, each extra
    relation a combination of monomials of positive degree below
    x^a and y^b, so the quotient is local and finite-dimensional."""
    field = GF(draw(st.sampled_from([2, 3, 5, 7])))
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


# -- the char-p radical ---------------------------------------------------------


def structure_only(alg):
    """The same structure constants with no presentation, so the radical
    comes from the trace chain."""
    return Algebra(alg.field, alg.labels, alg.table, alg.unit)


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
    return Algebra(field, [f"E{i}{j}" for i, j in units], table, unit)


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
