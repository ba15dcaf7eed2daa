"""Generator-first checks against the all-first references of
`tests/oracles.py`.

An algebra built from a quiver or a polynomial quotient carries the word
of each basis element in its generators (the trivial paths and the
arrows, or 1 and the variables), and every identity in its product is
checked on the pairs (g, b) with g a generator.  Here: the generators
span A under products; the stage defects of a hull split, on the pairs
(g, b), into the same lambdas and psi as the dense split on all pairs
over the eager Ext^2 basis; a table with one constant changed, in a
generator's row or in another row, gets the verdict of the
all-first-index loop; and the dense dim-64 quotient that took 80 s to
validate with every first index builds within a budget."""

import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

import aspec.cli as cli_module
from aspec.algebra import Algebra
from aspec.errors import (
    InfiniteDimensionalError,
    InputError,
    UnsupportedAlgebraError,
)
from aspec.fields import GF, QQ
from aspec.hull import ExtData, hull
from aspec.linalg import Mat
from aspec.modules import simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import from_quiver
from conftest import corpus
from oracles import (
    algebra_validate_all_first,
    generated_dimension,
    on_generator_pairs,
    split_two_cocycle_ext2_first,
    two_cochain_dense,
)
from test_cli import run_python
from test_hochschild_sparse import make_a4
from test_hull_one_pass import make_a3, make_kx4
from test_hull_stress import make_double_loop, make_fat_point, make_kronecker
from test_rewrite import acyclic_quivers, poly_quotients
from test_structure_constants import (
    commutative_double_loop,
    dense_poly_quotients,
)
from test_validate import verdict

F5 = GF(5)
EXAMPLES = Path(__file__).parent.parent / "docs" / "examples"
hull_module = sys.modules["aspec.hull"]


def make_kxy3(field):
    return from_poly_quotient(field, ["x", "y"], [{(3, 0): field.one},
                                                  {(0, 3): field.one}])


def make_commuting_loops(field):
    return from_quiver(commutative_double_loop(3, field), field=field)


def presented(field):
    """The corpus algebras with words and a few larger ones."""
    return [(name, alg) for name, alg in corpus(field) if alg.words] + [
        (make.__name__[5:], make(field))
        for make in (make_kx4, make_a3, make_a4, make_kronecker,
                     make_double_loop, make_fat_point, make_kxy3,
                     make_commuting_loops)]


def built(case):
    """from_quiver or from_poly_quotient of a drawn case, or None when
    the presentation is refused (infinite, zero or too large)."""
    try:
        if len(case) == 2:
            return from_quiver(case[1], field=case[0])
        return from_poly_quotient(*case)
    except (InfiniteDimensionalError, InputError):
        return None


# -- generation ----------------------------------------------------------------


def assert_generated(alg):
    assert alg.words is not None
    assert generated_dimension(alg) == alg.dim
    # words are spelled in the generators, which come first in the basis
    assert alg.generators == list(range(len(alg.generators)))
    assert all(set(w) <= set(alg.generators) for w in alg.words)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_the_generators_span_the_presented_corpus(field):
    for name, alg in presented(field):
        assert_generated(alg)
    # the dual numbers, k[x]/x^3 and the split quadratic: 1 and x
    kx3 = dict(corpus(field))["kx_cubed"]
    assert kx3.generators == [0, 1] and kx3.words[2] == (1, 1)


def test_the_generators_span_the_examples():
    for path in sorted(EXAMPLES.glob("*.txt")):
        alg = cli_module.parse(path.read_text(encoding="utf-8")).algebra
        if not isinstance(alg, Algebra):
            continue        # k[x] itself
        if alg.words is None:
            assert alg.generators == list(range(alg.dim)), path.name
        else:
            assert_generated(alg)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers())
def test_the_generators_span_random_quivers(case):
    assert_generated(built(case))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(poly_quotients())
def test_the_generators_span_random_quotients(case):
    alg = built(case)
    if alg is not None:
        assert_generated(alg)


def test_an_algebra_without_words_keeps_every_element_a_generator():
    alg = dict(corpus(QQ))["lower_triangular"]
    assert alg.words is None
    assert alg.generators == list(range(alg.dim))


# -- stage defects split as on all pairs ------------------------------------------


def hull_with_dense_splits(monkeypatch, alg, order=None):
    """hull() on the simples with every stage defect's (lambdas, psi)
    compared with the dense split of the defect on all pairs over the
    eager Ext^2 basis; returns, per split compared, whether the algebra
    has fewer generators than basis elements."""
    store = ExtData(alg)
    split = hull_module.split_two_cocycle
    eager = {}
    compared = []

    def checked(algebra, source, target, coch, span):
        lambdas, psi = split(algebra, source, target, coch, span)
        pair = store.pair(source, target)
        key = (id(source), id(target))
        if key not in eager:
            bc = store._comparison(source)
            eager[key] = [two_cochain_dense(bc, c)
                          for c in pair.ext2.cocycles]
            assert pair.hh2 == [on_generator_pairs(algebra, c)
                                for c in eager[key]]
        zero = Mat.zeros(algebra.field, source.dim, target.dim)
        full = {(a, b): coch.get((a, b), zero) for a in range(algebra.dim)
                for b in range(algebra.dim)}
        ref = split_two_cocycle_ext2_first(algebra, source, target,
                                           eager[key], full)
        assert ref is not None
        assert lambdas == ref[0]
        assert [x for m in psi for row in m.data for x in row] == ref[1]
        compared.append(len(algebra.generators) < algebra.dim)
        return lambdas, psi

    monkeypatch.setattr(hull_module, "split_two_cocycle", checked)
    hull(alg, simple_modules(alg), order, ext_data=store)
    return compared


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_stage_splits_equal_the_dense_split_on_the_corpus(monkeypatch,
                                                          field):
    restricted = 0
    for name, alg in presented(field):
        if alg.dim > 10:
            continue        # the dense split solves dim^2 equations
        compared = hull_with_dense_splits(monkeypatch, alg)
        restricted += sum(compared)
        monkeypatch.undo()
    # k[x]/x^3, k[x]/x^4, A3, A4 and the two-variable quotients split 27
    # defects with fewer generators than basis elements
    assert restricted == 27


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers())
def test_stage_splits_equal_the_dense_split_on_random_quivers(case):
    with pytest.MonkeyPatch.context() as mp:
        hull_with_dense_splits(mp, built(case))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(poly_quotients(fields=(QQ, F5)))
def test_stage_splits_equal_the_dense_split_on_random_quotients(case):
    alg = built(case)
    assume(alg is not None and 1 < alg.dim <= 9)
    try:
        simple_modules(alg)
    except UnsupportedAlgebraError:
        assume(False)       # A/rad does not split over the field
    with pytest.MonkeyPatch.context() as mp:
        hull_with_dense_splits(mp, alg)


# -- corrupted tables --------------------------------------------------------------


def corrupted(alg, r, s, m, c):
    """A fresh Algebra on alg's table, unit, idempotents and words, with c
    added to the b_m coordinate of b_r b_s; unvalidated."""
    f = alg.field
    products = list(alg.products)
    products[r] = list(products[r])
    coords = dict(products[r][s])
    coords[m] = f.add(coords.get(m, f.zero), c)
    products[r][s] = sorted((k, x) for k, x in coords.items() if x)
    return Algebra(f, alg.labels, products, alg.unit,
                   idempotents=alg.idempotents, words=alg.words,
                   validate=False)


def corrupted_verdicts(alg, rows):
    """Rejections by `Algebra.validate` of every table with one constant
    of the given rows moved by +-1, each with the message of the
    all-first-index loop: {row: (by generation, by the other axioms)}."""
    f = alg.field
    out = {}
    for r in rows:
        by_words = by_axioms = 0
        for s in range(alg.dim):
            for m in range(alg.dim):
                for c in (f.one, f.neg(f.one)):
                    bad = corrupted(alg, r, s, m, c)
                    want = verdict(algebra_validate_all_first, bad)
                    assert verdict(Algebra.validate, bad) == want, (r, s, m)
                    if want is not None:
                        if want.startswith("generation"):
                            by_words += 1
                        else:
                            by_axioms += 1
        out[r] = (by_words, by_axioms)
    return out


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_corrupted_tables_get_the_all_first_verdict(field):
    # the last generator's row and the last row, never a generator's
    # here: k[x]/x^3, k[x]/x^4, A3, A4, k[x,y]/(x^3, y^3) and the
    # commuting loops have fewer generators than basis elements
    found = []
    for name, alg in presented(field):
        if len(alg.generators) == alg.dim:
            continue
        gen = alg.generators[-1]
        other = alg.dim - 1
        verdicts = corrupted_verdicts(alg, [gen, other])
        found.append((verdicts[gen], verdicts[other]))
    assert len(found) == 6
    # both rows are refused by the unit or associativity check, and a
    # constant that spells a word (b_x b_x = b_{x^2}) by generation
    assert all(g[1] > 0 and o[1] > 0 for g, o in found)
    assert any(g[0] > 0 for g, _ in found)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(dense_poly_quotients())
def test_corrupted_dense_quotients_get_the_all_first_verdict(case):
    alg = from_poly_quotient(*case)
    assume(len(alg.generators) < alg.dim <= 12)
    corrupted_verdicts(alg, [alg.generators[-1], alg.dim - 1])


# -- the budget --------------------------------------------------------------------


def test_a_dense_dim_64_quotient_builds_in_a_capped_child():
    # k[x,y]/(x^8 + 2x^5y^2 + 3xy^5 + y^7, y^8 + 4x^3y^5 + x^7) over F5:
    # 61380 nonzero structure constants, 3 generators; validate() took
    # 80 s with every first index
    code = (
        "from aspec.fields import GF\n"
        "from aspec.polyquot import from_poly_quotient\n"
        "a = from_poly_quotient(GF(5), ['x', 'y'], [\n"
        "    {(8, 0): 1, (5, 2): 2, (1, 5): 3, (0, 7): 1},\n"
        "    {(0, 8): 1, (3, 5): 4, (7, 0): 1}])\n"
        "print(a.dim, len(a.generators))\n")
    proc = run_python(["-c", code], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["64", "3"]
