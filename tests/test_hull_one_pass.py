"""The hull is built in one pass: every lower stage H_n and the image of
rho in it are read off the order-N build by discarding words longer
than n.  These tests compare that against a fresh build at order n, and
the pass over the stage algebras against two reference loops: one that
runs every stage in the order-N algebra, and one that keeps the
cochains on reduced words and refolds them in place, which must agree
wherever it completes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aspec.errors import InputError, InternalInvariantError
from aspec.fields import GF, QQ
from aspec.hull import (
    HullTower,
    RPointedAlgebra,
    _HullBuilder,
    default_order,
    hull,
)
from aspec.linalg import Mat
from aspec.modules import ModuleRep, simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import QuiverPresentation, from_quiver
from conftest import corpus, make_a2
from oracles import (
    in_place_stages,
    order_n_stages,
    tower_is_small,
    tower_stage,
)
from test_defining_system import FIELDS, REPRODUCERS, reproducer
from test_hull_stress import make_double_loop, make_fat_point, make_kronecker
from test_rewrite import acyclic_quivers

F5 = GF(5)


def make_a3(field=QQ):
    return from_quiver(QuiverPresentation(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]), field=field)


def make_kx4(field=QQ):
    return from_poly_quotient(field, ["x"], [{(4,): field.one}])


ORDER = 4


def cases():
    out = [pytest.param(alg, id=f"{name}/{field}")
           for field in (QQ, F5) for name, alg in corpus(field)]
    out += [pytest.param(make(), id=make.__name__)
            for make in (make_kx4, make_a3, make_kronecker,
                         make_double_loop, make_fat_point)]
    return out


def _relations(h):
    return sorted(sorted(rel.items()) for rel in h.relations)


@pytest.mark.parametrize("alg", cases())
def test_truncated_pass_equals_fresh_build(alg):
    s = simple_modules(alg)
    tower, ohat = hull(alg, s, ORDER)
    for n in range(2, ORDER):
        fresh_tower, fresh = hull(alg, s, n)
        fresh_h = fresh_tower.final
        assert [w for w in tower.final.reduced_words if len(w) <= n] == \
            fresh_h.reduced_words
        assert tower_stage(tower, n).reduced_words == fresh_h.reduced_words
        assert _relations(tower_stage(tower, n)) == _relations(fresh_h)
        assert [ohat.flatten(t, n) for t in ohat.rho_table] == \
            [fresh.flatten(t) for t in fresh.rho_table]
        assert ohat.flat_dim(n) == fresh.flat_dim()


def test_hull_builds_one_resolution_per_module(resolutions_built):
    built = resolutions_built["Resolution"]
    a2 = make_a2()
    s = simple_modules(a2)
    built.clear()
    hull(a2, s, 3)
    assert len(built) == 2


def test_tower_stages_are_built_on_demand(monkeypatch):
    # the tower holds H_N only; a lower stage is H_N cut at its order,
    # and no algebra is built until one is asked for
    a = make_kx4()
    tower, _ = hull(a, simple_modules(a), 5)
    built = []
    init = RPointedAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RPointedAlgebra, "__init__", counting_init)
    fresh = HullTower(tower.final)
    assert tower_is_small(fresh)
    assert tower_stage(fresh, 5) is tower.final
    assert built == []
    assert tower_stage(fresh, 3).order == 3
    assert len(built) == 1


def test_the_double_loop_lists_few_words(monkeypatch):
    # the stage algebras list 6 + 6 words and H_11 another 6; an
    # algebra of order 11 without relations would list 4094
    alg = make_double_loop(F5)
    listed = []
    init = RPointedAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        listed.append(len(self.all_words))

    monkeypatch.setattr(RPointedAlgebra, "__init__", counting_init)
    tower, _ = hull(alg, simple_modules(alg), 11)
    assert tower.final.dim == 3
    assert sum(listed) <= 32


def direct_sum(alg, modules):
    """One module with the block-diagonal actions of the given ones."""
    f = alg.field
    dim = sum(m.dim for m in modules)
    actions = []
    for b in range(alg.dim):
        mat = Mat.zeros(f, dim, dim)
        at = 0
        for m in modules:
            for i, row in enumerate(m.action[b].data):
                mat.data[at + i][at:at + m.dim] = row
            at += m.dim
        actions.append(mat)
    return ModuleRep(alg, actions, name="+".join(m.name for m in modules))


FAMILIES = {
    "simples": lambda s: s,
    "sum": lambda s: [direct_sum(s[0].algebra, s)],
    "mixed": lambda s: [direct_sum(s[0].algebra, s[:2])] + s[2:],
}


def _outputs(tower, ohat):
    h = tower.final
    return (h.presentation_lines(), h.reduced_words,
            tower.new_relations_by_stage,
            [ohat.flatten(t) for t in ohat.rho_table], tower.stabilized)


def assert_matches(alg, modules, order, stages, fails=(InputError,)):
    """The hull equals the build whose stage loop is `stages` wherever
    that build raises none of `fails`."""
    reference = _HullBuilder(alg, modules, order)
    reference._run_stages = lambda last: stages(reference, last)
    try:
        want = _outputs(*reference.build())
    except fails:
        return
    assert _outputs(*hull(alg, modules, order)) == want


def assert_matches_the_in_place_loop(alg, modules, order):
    # that loop fails where a stage gives an old relation a longer tail
    assert_matches(alg, modules, order, in_place_stages,
                   (InputError, InternalInvariantError))


QUIVER_ALGEBRAS = st.one_of(
    acyclic_quivers(), acyclic_quivers(monomial=True)).map(
        lambda case: from_quiver(case[1], field=case[0]))


def with_reproducers(test):
    """The test run also on each reproducer of test_defining_system,
    with its simples at its default order."""
    for name in REPRODUCERS:
        for field in FIELDS:
            alg = reproducer(name, field)
            test = example(alg, "simples", default_order(alg))(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(QUIVER_ALGEBRAS, st.sampled_from(sorted(FAMILIES)), st.integers(2, 4))
@with_reproducers
def test_stage_algebras_match_the_order_n_loop(alg, family, order):
    # presentation, reduced words, relations per stage, rho and the
    # stabilized flag agree wherever the reference builds
    assert_matches(alg, FAMILIES[family](simple_modules(alg)), order,
                   order_n_stages)


@pytest.mark.parametrize("alg", cases())
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_free_words_match_the_in_place_loop_on_the_corpus(alg, family):
    assert_matches_the_in_place_loop(
        alg, FAMILIES[family](simple_modules(alg)), ORDER)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(QUIVER_ALGEBRAS, st.sampled_from(sorted(FAMILIES)), st.integers(2, 4))
def test_free_words_match_the_in_place_loop(alg, family, order):
    assert_matches_the_in_place_loop(
        alg, FAMILIES[family](simple_modules(alg)), order)
