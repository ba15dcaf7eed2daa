"""The one structure-constant format, `Algebra.products`, built along
generator words by `Rewriter.structure_constants`.

`from_quiver` and `from_poly_quotient` against the reduce-per-pair
builders of `tests/oracles.py`, entry for entry (products, labels, unit
and `poly_data`): on the corpus, the documents of `docs/examples`, the
seeded acyclic quivers and polynomial quotients of `test_rewrite`, and
the commutative double loop.  Also the memory of a build at the basis
budget."""

import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspec.cli as cli_module
import conftest
from aspec.errors import InfiniteDimensionalError, InputError
from aspec.fields import GF, QQ
from aspec.polyquot import from_poly_quotient
from aspec.quiver import QuiverPresentation, from_quiver
from oracles import poly_quotient_by_pairs, quiver_algebra_by_pairs
from test_rewrite import acyclic_quivers, poly_quotients

F5 = GF(5)
EXAMPLES = Path(__file__).parent.parent / "docs" / "examples"


def assert_builds_as_by_pairs(alg, ref):
    assert alg.products == ref.products
    assert alg.labels == ref.labels
    assert alg.unit == ref.unit
    assert getattr(alg, "poly_data", None) == getattr(ref, "poly_data", None)


def checked_quiver(q, field=QQ):
    alg = from_quiver(q, field=field)
    assert_builds_as_by_pairs(alg, quiver_algebra_by_pairs(q, field))
    return alg


def checked_poly_quotient(field, var_names, relations):
    alg = from_poly_quotient(field, var_names, relations)
    assert_builds_as_by_pairs(
        alg, poly_quotient_by_pairs(field, var_names, relations))
    return alg


@pytest.fixture
def checked_builds(monkeypatch):
    """The builders, as `conftest` and `cli` call them, each build
    compared with the reduce-per-pair builder; lists what was built."""
    built = []
    for module in (conftest, cli_module):
        monkeypatch.setattr(module, "from_quiver", lambda *args, **kw:
                            built.append(checked_quiver(*args, **kw))
                            or built[-1])
        monkeypatch.setattr(module, "from_poly_quotient", lambda *args:
                            built.append(checked_poly_quotient(*args))
                            or built[-1])
    return built


@pytest.mark.parametrize("field", [QQ, F5])
def test_the_corpus_builds_as_by_pairs(checked_builds, field):
    conftest.corpus(field)
    # k, k x k, the dual numbers, k[x]/x^3, A2, A3 and the split quadratic
    assert len(checked_builds) == 7


def test_the_examples_build_as_by_pairs(checked_builds):
    paths = sorted(EXAMPLES.glob("*.txt"))
    for path in paths:
        cli_module.parse(path.read_text(encoding="utf-8"))
    # a2_quiver, dual_numbers and local_kxy; lower_triangular is given by
    # its structure constants and poly_ring_two_points is k[x] itself
    assert len(paths) == 5 and len(checked_builds) == 3


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers())
def test_random_acyclic_quivers_build_as_by_pairs(case):
    field, q = case
    checked_quiver(q, field)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(poly_quotients())
def test_random_poly_quotients_build_as_by_pairs(case):
    field, names, rels = case
    try:
        from_poly_quotient(field, names, rels)
    except (InfiniteDimensionalError, InputError):
        return      # refused before any table: infinite, zero or too large
    checked_poly_quotient(field, names, rels)


@st.composite
def dense_poly_quotients(draw):
    """k[x]/(f) for a monic f of degree 2..6 whose other coefficients are
    0..4, or k[x, y]/(x^a, y^b, r) for a, b in 2..5 and r of 2 or 3
    terms of degree 2..4, over Q, F5 or F7: products of basis elements
    with several terms, whose terms times a letter meet."""
    field = draw(st.sampled_from((QQ, F5, GF(7))))
    coeff = st.integers(1, 4).map(field.of_int)
    if draw(st.booleans()):
        degree = draw(st.integers(2, 6))
        rel = {(degree,): field.one}
        for d in range(degree):
            rel[(d,)] = field.of_int(draw(st.integers(0, 4)))
        return field, ["x"], [rel]
    a, b = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    monomials = [(i, d - i) for d in range(2, 5) for i in range(d + 1)]
    terms = draw(st.lists(st.sampled_from(monomials), min_size=2, max_size=3,
                          unique=True))
    return field, ["x", "y"], [{(a, 0): field.one}, {(0, b): field.one},
                               {m: draw(coeff) for m in terms}]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dense_poly_quotients())
def test_dense_poly_quotients_build_as_by_pairs(case):
    checked_poly_quotient(*case)


def commutative_double_loop(n, field=F5):
    """k<a, b>/(a.b - b.a, a^n, b^n): k[a, b]/(a^n, b^n) as a quiver,
    of dimension n^2."""
    one = field.one
    return QuiverPresentation(["v"], [("a", "v", "v"), ("b", "v", "v")], [
        [(one, ["a", "b"]), (field.neg(one), ["b", "a"])],
        [(one, ["a"] * n)], [(one, ["b"] * n)]])


@pytest.mark.parametrize("n", [8, 10, 12])
def test_the_double_loop_builds_as_by_pairs(n):
    assert checked_quiver(commutative_double_loop(n), F5).dim == n * n


def test_the_double_loop_builds_and_validates_in_a_second():
    # one reduction per basis word and letter: 288 at n = 12 where the
    # reduce-per-pair builder made 20476 and took 3.9 s
    start = time.perf_counter()
    alg = from_quiver(commutative_double_loop(12), F5)
    alg.validate()
    assert time.perf_counter() - start < 1.0


def test_a_build_at_the_basis_budget_stays_small():
    # dim 256 with 18496 nonzero structure constants: the dense table
    # and its copy peaked at 154 MB
    tracemalloc.start()
    try:
        alg = from_poly_quotient(F5, ["x", "y"], [{(16, 0): 1}, {(0, 16): 1}])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.dim == 256
    assert peak < 40 << 20, peak
