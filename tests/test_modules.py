import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.algebra import from_structure_constants
from aspec.errors import UnsupportedAlgebraError, ValidationError
from aspec.fields import GF, QQ
from aspec.linalg import Mat
from aspec.modules import (
    ModuleRep,
    action_of,
    contraction,
    hom_A,
    is_field,
    is_isomorphic,
    is_local,
    is_simple,
    regular_module,
    simple_modules,
)
from aspec.polyquot import from_poly_quotient
from aspec.quiver import QuiverPresentation, from_quiver
from conftest import (
    corpus,
    make_a2,
    make_dual_numbers,
    make_k_times_k,
    make_lower_triangular,
    make_split_quadratic,
)
from oracles import dense_table, simple_modules_by_corners
from test_resolution_sparse import local_kxy_quotients
from test_rewrite import acyclic_quivers


def test_simple_modules_a2():
    a = make_a2()
    simples = simple_modules(a)
    assert len(simples) == 2
    assert all(s.dim == 1 for s in simples)
    e1 = a.element_from_label("e_1")
    arrow = a.element_from_label("a")
    assert action_of(simples[0], e1).data == [[QQ.one]]
    assert action_of(simples[0], arrow).data == [[QQ.zero]]
    assert action_of(simples[1], e1).data == [[QQ.zero]]


def test_simple_modules_dual_numbers():
    a = make_dual_numbers()
    simples = simple_modules(a)
    assert len(simples) == 1
    x = a.element_from_label("x")
    assert action_of(simples[0], x).data == [[QQ.zero]]


def test_simple_modules_k2():
    a = make_k_times_k()
    assert len(simple_modules(a)) == 2


def test_simple_modules_counts_match_idempotents():
    for name, alg in corpus():
        simples = simple_modules(alg)
        assert len(simples) == len(alg.ensure_idempotents()), name
        # pairwise non-isomorphic
        for i, s in enumerate(simples):
            for j, t in enumerate(simples):
                expected = 1 if i == j else 0
                assert len(hom_A(s, t)) == expected, name


def test_simple_modules_refuse_idempotents_that_are_not_primitive(
        monkeypatch):
    # k x k with 1 declared as its only idempotent: A/rad is k^2, not k^1;
    # the count is read off dim A - dim rad, with no quotient built
    one = QQ.one
    a = from_structure_constants(
        QQ, ["e1", "e2"], [[[one, 0], [0, 0]], [[0, 0], [0, one]]],
        [one, one], idempotents=[[one, one]])
    monkeypatch.setattr(type(a), "semisimple_quotient", None)
    with pytest.raises(UnsupportedAlgebraError, match="not basic split"):
        simple_modules(a)


def test_simple_modules_nonsplit_errors():
    rel = {(3,): QQ.one, (0,): QQ.neg(QQ.one)}
    a = from_poly_quotient(QQ, ["x"], [rel])
    with pytest.raises(UnsupportedAlgebraError):
        simple_modules(a)


def test_is_simple_on_vertex_simples():
    for name, alg in corpus():
        for s in simple_modules(alg):
            assert is_simple(s), name


def test_regular_module_not_simple():
    a = make_a2()
    assert not is_simple(regular_module(a))
    b = make_dual_numbers()
    assert not is_simple(regular_module(b))


def test_is_simple_nonsplit_point():
    # Q(omega) as a module over Q[x]/(x^3-1): simple of dimension 2
    rel = {(3,): QQ.one, (0,): QQ.neg(QQ.one)}
    a = from_poly_quotient(QQ, ["x"], [rel])
    # action of x on Q[x]/(x^2+x+1): companion matrix
    one = Mat.identity(QQ, 2)
    comp = Mat(QQ, [[0, 1], [-1, -1]])
    mats = [one, comp, comp.mul(comp)]
    m = ModuleRep(a, mats, name="Qomega")
    assert is_simple(m)
    # the direct sum of two copies is not simple
    def block(mat):
        z = [[QQ.zero] * 2] * 2
        top = [list(mat.data[i]) + [QQ.zero, QQ.zero] for i in range(2)]
        bot = [[QQ.zero, QQ.zero] + list(mat.data[i]) for i in range(2)]
        return Mat(QQ, top + bot)
    m2 = ModuleRep(a, [block(x) for x in mats], name="double")
    assert not is_simple(m2)


def test_zero_module_not_simple():
    a = make_k_times_k()
    z = ModuleRep(a, [Mat(QQ, [], cols=0) for _ in range(a.dim)],
                  name="0", validate=False)
    assert not is_simple(z)


def test_module_axiom_validation():
    a = make_dual_numbers()
    bad = [Mat.identity(QQ, 1), Mat(QQ, [[1]])]  # x would act as identity
    with pytest.raises(ValidationError):
        ModuleRep(a, bad)


def test_action_of_regular_module_nilpotent():
    a = make_dual_numbers()
    reg = regular_module(a)
    x = a.element_from_label("x")
    mx = action_of(reg, x)
    assert not mx.is_zero()
    assert mx.mul(mx).is_zero()


def test_hom_contains_identity():
    for name, alg in corpus():
        reg = regular_module(alg)
        homs = hom_A(reg, reg)
        ident = Mat.identity(alg.field, reg.dim)
        # identity is in the span
        from aspec.linalg import Span
        flat = [sum(h.data, []) for h in homs]
        assert Span(alg.field, flat, reg.dim ** 2).coords(
            sum(ident.data, [])) is not None, name


def test_hom_schur_split():
    a = make_lower_triangular()
    s1, s2 = simple_modules(a)
    assert len(hom_A(s1, s1)) == 1
    assert len(hom_A(s1, s2)) == 0
    assert len(hom_A(s2, s1)) == 0


def test_is_isomorphic_simples():
    a = make_k_times_k()
    s1, s2 = simple_modules(a)
    assert is_isomorphic(s1, s1)
    assert not is_isomorphic(s1, s2)


def semisimple_module(alg, types):
    """S_types[0] + S_types[1] + ... over k x ... x k, e_i acting as 1 on
    the summands S_i and as 0 on the others."""
    n = len(types)
    return ModuleRep(alg, [Mat(QQ, [[int(r == c and t == i) for c in range(n)]
                                     for r, t in enumerate(types)])
                           for i in range(alg.dim)])


def test_is_isomorphic_semisimple_without_an_invertible_basis_hom():
    # over k x k x k, no basis hom of the regular module and no sum of
    # two of them is invertible: dim Hom decides
    alg = from_quiver(QuiverPresentation(["1", "2", "3"], []))
    reg = regular_module(alg)
    assert len(hom_A(reg, reg)) == 3
    assert is_isomorphic(reg, reg)
    assert is_isomorphic(reg, semisimple_module(alg, [2, 0, 1]))
    m = semisimple_module(alg, [0, 0, 1])
    n = semisimple_module(alg, [0, 1, 2])
    assert (len(hom_A(m, m)), len(hom_A(m, n)), len(hom_A(n, n))) == \
        (5, 3, 3)
    assert not is_isomorphic(m, n) and not is_isomorphic(n, m)
    assert is_isomorphic(m, semisimple_module(alg, [1, 0, 0]))


def test_is_local():
    assert is_local(make_dual_numbers())
    assert not is_local(make_k_times_k())
    assert not is_local(make_a2())
    rel = {(2,): QQ.one, (1,): QQ.one, (0,): QQ.one}  # x^2+x+1 irreducible
    assert is_local(from_poly_quotient(QQ, ["x"], [rel]))


def test_is_field():
    rel = {(2,): QQ.one, (1,): QQ.one, (0,): QQ.one}
    assert is_field(from_poly_quotient(QQ, ["x"], [rel]))
    assert not is_field(make_k_times_k())
    f5 = GF(5)
    rel5 = {(2,): f5.one, (0,): f5.of_int(2)}  # x^2+2 irreducible mod 5
    assert is_field(from_poly_quotient(f5, ["x"], [rel5]))
    rel5b = {(2,): f5.one, (0,): f5.of_int(-1)}  # x^2-1 splits
    assert not is_field(from_poly_quotient(f5, ["x"], [rel5b]))


def test_contraction_identity_on_local():
    a = make_dual_numbers()
    ident = [list(a.basis_vector(i)) for i in range(a.dim)]
    pt = contraction(ident, a, a, name="Mc")
    assert pt.provenance == "contraction"
    assert pt.module.dim == 1
    s = simple_modules(a)[0]
    assert is_isomorphic(pt.module, s)


def test_contraction_along_projection():
    # A = k[x]/(x^2-x) -> B = k via x -> 0
    a = make_split_quadratic()
    b = from_poly_quotient(QQ, ["x"], [{(1,): QQ.one}])
    assert b.dim == 1
    # map: 1 -> 1, x -> 0
    fmap = [[QQ.one], [QQ.zero]]
    pt = contraction(fmap, a, b)
    assert pt.module.dim == 1
    x = a.element_from_label("x")
    assert action_of(pt.module, x).is_zero()


def test_contraction_corner_of_a2():
    a = make_a2()
    k = from_poly_quotient(QQ, ["x"], [{(1,): QQ.one}])
    # corner projection at vertex 1: e1 -> 1, e2 -> 0, arrow -> 0
    rows = {"e_1": [QQ.one], "e_2": [QQ.zero], "a": [QQ.zero]}
    fmap = [rows[lab] for lab in a.labels]
    pt = contraction(fmap, a, k)
    s1 = simple_modules(a)[0]
    assert is_isomorphic(pt.module, s1)


def test_contraction_rejects_non_homomorphism():
    a = make_split_quadratic()
    k = from_poly_quotient(QQ, ["x"], [{(1,): QQ.one}])
    fmap = [[QQ.one], [QQ.div(1, 2)]]  # x -> 1/2 is not multiplicative
    with pytest.raises(ValidationError):
        contraction(fmap, a, k)


def test_contraction_rejects_non_local():
    a = make_k_times_k()
    ident = [list(a.basis_vector(i)) for i in range(a.dim)]
    with pytest.raises(ValidationError):
        contraction(ident, a, a)


def test_eta_homomorphism_invariant():
    for name, alg in corpus():
        reg = regular_module(alg)
        table = dense_table(alg)
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = reg.action[i].mul(reg.action[j])
                rhs = reg.act(table[i][j])
                assert lhs == rhs, name


def test_spectral_witness_recheck():
    from oracles import verify_spectral_witness
    a = make_dual_numbers()
    ident = [list(a.basis_vector(i)) for i in range(a.dim)]
    pt = contraction(ident, a, a)
    assert verify_spectral_witness(pt, a)


def test_is_simple_eta_surjective_matrix_algebra():
    # the 2-dim simple over M_2(Q): eta is surjective, End = k
    f = QQ

    def vec(i):
        return [f.one if j == i else f.zero for j in range(4)]

    z = [f.zero] * 4
    # basis E11, E12, E21, E22 with E_{ij} E_{kl} = delta_{jk} E_{il}
    names = ["E11", "E12", "E21", "E22"]
    pos = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    table = []
    for (i, j) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        row = []
        for (k, l) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            row.append(vec(pos[(i, l)]) if j == k else list(z))
        table.append(row)
    unit = [f.one, f.zero, f.zero, f.one]
    m2 = from_structure_constants(f, names, table, unit)
    # natural right module: row vectors k^2, E_{ij} sends e_i to e_j
    acts = {
        "E11": Mat(f, [[1, 0], [0, 0]]),
        "E12": Mat(f, [[0, 1], [0, 0]]),
        "E21": Mat(f, [[0, 0], [1, 0]]),
        "E22": Mat(f, [[0, 0], [0, 1]]),
    }
    m = ModuleRep(m2, [acts[n] for n in names], name="row2")
    assert is_simple(m)


def test_contraction_rejects_noncomposable_relation_terms():
    from aspec.quiver import QuiverPresentation
    from aspec.errors import ValidationError as VE
    with pytest.raises(VE):
        QuiverPresentation(
            ["1", "2", "3"],
            [("a", "1", "2"), ("b", "2", "3")],
            relations=[[(QQ.one, ["b", "a"])]])


# -- the simples from one span against the per-simple corners ----------------


def simples_or_error(make):
    try:
        return make()
    except UnsupportedAlgebraError as exc:
        return str(exc)


def assert_simples_match_corners(alg):
    got = simples_or_error(
        lambda: [m.action for m in simple_modules(alg)])
    assert got == simples_or_error(lambda: simple_modules_by_corners(alg))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_simple_modules_match_the_corners_on_the_corpus(field):
    for name, alg in corpus(field):
        assert_simples_match_corners(alg)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers())
def test_simple_modules_match_the_corners_on_random_quivers(case):
    field, q = case
    assert_simples_match_corners(from_quiver(q, field=field))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([QQ, GF(5)]),
       st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 3)),
                min_size=1, max_size=3))
def test_simple_modules_match_the_corners_on_split_quotients(field, roots):
    # k[x]/prod (x - r)^m: the simples are the points r, over Q and F5
    rel = {(0,): field.one}
    for r, m in roots:
        for _ in range(m):
            shifted = {}
            for (k,), c in rel.items():
                for e, d in (((k + 1,), field.one), ((k,), field.of_int(-r))):
                    shifted[e] = field.add(shifted.get(e, field.zero),
                                           field.mul(c, d))
            rel = {e: c for e, c in shifted.items() if c}
    assert_simples_match_corners(from_poly_quotient(field, ["x"], [rel]))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(local_kxy_quotients())
def test_simple_modules_match_the_corners_on_local_kxy(alg):
    assert_simples_match_corners(alg)
