import random
from itertools import combinations

import pytest

import aspec.topology as topology_module
from aspec.errors import InputError, ValidationError
from aspec.fields import GF, QQ
from aspec.hull import ExtData, hull, o_algebra
from aspec.linalg import Mat
from aspec.modules import SpectralPoint, simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.polyring import PointModule, PolynomialRing, taylor_shift
from aspec.quiver import QuiverPresentation, from_quiver
from aspec.topology import (
    ASpecSpace,
    aspec_morphism,
    closure_check,
    compare_with_spec,
    global_sections_roundtrip,
    space_of_simples,
    spec_compare,
)
from conftest import (
    corpus,
    make_a2,
    make_dual_numbers,
    make_k_times_k,
    make_kx3,
    make_split_quadratic,
)
from oracles import (
    closed_points_report,
    opens_by_closure,
    sections_simples_only,
)


def make_a3_path():
    """The path algebra of 1 -a-> 2 -b-> 3, without relations."""
    return from_quiver(QuiverPresentation(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))


def test_d_sets_split_quadratic():
    a = make_split_quadratic()
    space = space_of_simples(a)
    x = a.element_from_label("x")
    dx = space.d_set(x)
    # x acts as 0 on one simple and as 1 on the other
    assert len(dx) == 1
    assert space.d_set(a.unit) == frozenset(range(2))
    assert space.d_set([QQ.zero, QQ.zero]) == frozenset()


def test_topology_k2_discrete():
    a = make_k_times_k()
    space = space_of_simples(a)
    assert len(space.opens()) == 4


def test_topology_single_point():
    a = make_dual_numbers()
    space = space_of_simples(a)
    assert space.opens() == [frozenset(), frozenset({0})]


def test_opens_are_the_unions_of_the_minimal_opens():
    # random subbases on 1-6 points: the opens, the open subsets and the
    # minimal open around each subset agree with the closure loops
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 6)
        space = ASpecSpace(None, range(n))
        space._subbasis = sorted(
            {frozenset(x for x in range(n) if rng.random() < 0.5)
             for _ in range(rng.randint(0, 6))},
            key=lambda s: (len(s), sorted(s)))
        opens = opens_by_closure(space._subbasis, n)
        assert space.opens() == opens
        for k in range(n + 1):
            for subset in map(frozenset, combinations(range(n), k)):
                assert space.is_open(subset) == (subset in opens)
                assert space.minimal_open_containing(subset) == \
                    frozenset(range(n)).intersection(
                        *(u for u in opens if subset <= u))
        assert not space.is_open({n})
        for outside in (n, -1):
            with pytest.raises(InputError, match="unknown points"):
                space.minimal_open_containing({outside})


def test_closed_points():
    for name, alg in corpus():
        space = space_of_simples(alg)
        report = closed_points_report(space)
        assert all(report.values()), name


def test_sections_whole_space_is_A():
    for name, alg in corpus():
        space = space_of_simples(alg)
        sec = space.sections(frozenset(range(len(space.points))))
        assert sec.dim == alg.dim, name


def test_sections_empty_is_zero():
    a = make_k_times_k()
    space = space_of_simples(a)
    assert space.sections(frozenset()).dim == 0


def test_sections_k2_point():
    a = make_k_times_k()
    space = space_of_simples(a)
    sec = space.sections(frozenset({0}))
    assert sec.dim == 1


def test_sections_split_quadratic_product():
    a = make_split_quadratic()
    space = space_of_simples(a)
    whole = space.sections(frozenset({0, 1}))
    assert whole.dim == 2
    o_alg = whole.o.as_algebra()
    assert o_alg.is_commutative()
    assert o_alg.radical_basis() == []   # k x k


def test_restriction_composes():
    a = make_k_times_k()
    space = space_of_simples(a)
    whole = frozenset({0, 1})
    u = frozenset({0})
    res1 = space.restriction(whole, u)
    res2 = space.restriction(u, u)
    comp = res1.mul(res2)
    assert comp == res1


def test_restrictions_compose_three_levels():
    a = make_a2()
    space = space_of_simples(a)
    opens = space.opens()
    for u in opens:
        for v in opens:
            for w in opens:
                if w <= v <= u and space.sections(u).dim:
                    left = space.restriction(u, w)
                    right = space.restriction(u, v).mul(
                        space.restriction(v, w))
                    assert left == right


def test_sheaf_axioms_corpus():
    for name, alg in corpus():
        space = space_of_simples(alg)
        if len(space.points) > 3:
            continue
        report = space.sheafify_check()
        assert report["passed"], (name, report["failures"])


def _cover_verdict(dims, restrictions):
    """_check_cover_generic on U = {0, 1, 2} covered by A = {0, 1} and
    B = {1, 2}, with I = A & B, from hand-made section dimensions and
    restriction matrices in place of a sheaf's."""
    f = QQ
    opens = {"U": {0, 1, 2}, "A": {0, 1}, "B": {1, 2}, "I": {1}}
    names = {frozenset(v): k for k, v in opens.items()}
    space = space_of_simples(make_k_times_k())

    def res_of(x, y):
        rows = restrictions[names[x] + names[y]]
        return Mat(f, [[f.of_int(c) for c in row] for row in rows],
                   cols=dims[names[y]])

    return space._check_cover_generic(
        frozenset(opens["U"]), [frozenset(opens["A"]), frozenset(opens["B"])],
        lambda x: dims[names[x]], res_of)


@pytest.mark.parametrize("dims, restrictions, verdict", [
    # U -> A x B is injective onto {(s, t) : s|I = t|I}
    ({"U": 1, "A": 1, "B": 1, "I": 1},
     {"UA": [[1]], "UB": [[1]], "AI": [[1]], "BI": [[1]]}, (True, "")),
    # both sections of U restrict to the same family
    ({"U": 2, "A": 1, "B": 1, "I": 1},
     {"UA": [[1], [1]], "UB": [[1], [1]], "AI": [[1]], "BI": [[1]]},
     (False, "locality fails")),
    # I has no sections, so every pair (s, t) is compatible: a 2-dim
    # space that the 1-dim U cannot fill
    ({"U": 1, "A": 1, "B": 1, "I": 0},
     {"UA": [[1]], "UB": [[1]], "AI": [[]], "BI": [[]]},
     (False, "gluing fails")),
    # compatible means s = 2t, of the dimension of U, but U gives s = t
    ({"U": 1, "A": 1, "B": 1, "I": 1},
     {"UA": [[1]], "UB": [[1]], "AI": [[1]], "BI": [[2]]},
     (False, "restrictions are not compatible")),
], ids=["sheaf", "locality", "gluing", "compatibility"])
def test_cover_check_reports_each_failure(dims, restrictions, verdict):
    assert _cover_verdict(dims, restrictions) == verdict


def _section_data(o):
    h = o.ohat.hull
    return (h.presentation_lines(), h.dim,
            [o.ohat.flatten(t) for t in o.ohat.rho_table], o.dim)


@pytest.mark.parametrize("largest_first", [True, False])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_space_sections_equal_fresh_hulls(field, largest_first):
    # the space's hulls share one Ext store; a family reads pair entries
    # made by families where its modules sat at other positions
    for name, alg in corpus(field):
        space = space_of_simples(alg)
        n = len(space.points)
        subsets = [frozenset(c) for k in range(1, n + 1)
                   for c in combinations(range(n), k)]
        if largest_first:
            subsets.reverse()
        for subset in subsets:
            sec = space.family_o_algebra(subset)
            fam = [space.points[i].module for i in sorted(subset)]
            fresh = o_algebra(hull(alg, fam, space.order)[1])
            assert _section_data(sec.o) == _section_data(fresh), \
                (name, sorted(subset))


def test_an_ext_store_serves_one_algebra():
    a2, k2 = make_a2(), make_k_times_k()
    store = ExtData(a2)
    with pytest.raises(ValidationError, match="another algebra"):
        hull(k2, simple_modules(k2), 2, store)


def test_presheaf_defect_surfaced_on_a2():
    # the raw presheaf on the discrete two-point space of A2 is not a
    # sheaf (the arrow dies on both singletons); the presheaf check must
    # surface this on the cover by the singletons while the sheafified
    # sections pass
    a = make_a2()
    space = space_of_simples(a)
    report = space.sheafify_check()
    assert report["passed"]
    ok, why = space.presheaf_is_sheaf_on(
        frozenset({0, 1}), [frozenset({0}), frozenset({1})])
    assert not ok and why


def test_sheaf_sections_disjoint_decomposition():
    a = make_a2()
    space = space_of_simples(a)
    whole = space.sheaf_sections(frozenset({0, 1}))
    u = space.sheaf_sections(frozenset({0}))
    v = space.sheaf_sections(frozenset({1}))
    assert len(whole["basis"]) == len(u["basis"]) + len(v["basis"])


def test_sheaf_disjoint_product():
    a = make_k_times_k()
    space = space_of_simples(a)
    whole = space.sections(frozenset({0, 1}))
    u = space.sections(frozenset({0}))
    v = space.sections(frozenset({1}))
    assert whole.dim == u.dim + v.dim


def test_stalk_commutative_split():
    a = make_split_quadratic()
    space = space_of_simples(a)
    sd = space.stalk({0})
    assert sd.comparison_is_iso
    assert sd.direct_sections.dim == 1


def test_stalk_full_subset_is_global():
    a = make_a2()
    space = space_of_simples(a)
    sd = space.stalk({0, 1})
    assert sd.minimal_open == frozenset({0, 1})
    assert sd.comparison_is_iso
    assert sd.direct_sections.dim == a.dim


def test_stalk_local_ring_dual_numbers():
    a = make_dual_numbers()
    space = space_of_simples(a)
    sd = space.stalk({0})
    assert sd.direct_sections.dim == 2
    o_alg = sd.direct_sections.o.as_algebra()
    rad, index = o_alg.radical()
    assert len(rad) == 1     # local with 1-dim radical, like A itself


def test_simples_only_variant_coincides_on_corpus():
    for name, alg in corpus():
        space = space_of_simples(alg)
        whole = frozenset(range(len(space.points)))
        a_all = space.sections(whole)
        a_simp = sections_simples_only(space, whole)
        assert a_all.dim == a_simp.dim, name


def test_aspec_morphism_identity():
    a = make_k_times_k()
    space = space_of_simples(a)
    ident = [list(a.basis_vector(i)) for i in range(a.dim)]
    point_map, target, secmaps = aspec_morphism(ident, a, a, space)
    assert point_map == [0, 1]
    assert len(target.points) == 2


def test_aspec_morphism_k_into_k2():
    a = make_k_times_k()
    from aspec.quiver import QuiverPresentation, from_quiver
    k = from_quiver(QuiverPresentation(["1"], []))
    space = space_of_simples(a)
    # k -> k x k diagonal: 1 -> (1, 1)
    phi = [list(a.unit)]
    point_map, target, secmaps = aspec_morphism(phi, k, a, space)
    assert len(target.points) == 1
    assert point_map == [0, 0]


def test_aspec_morphism_projection():
    # k[x]/(x^2) -> k: the simple of k pulls back along the contraction
    a = make_dual_numbers()
    from aspec.quiver import QuiverPresentation, from_quiver
    k = from_quiver(QuiverPresentation(["1"], []))
    space = space_of_simples(k)
    # phi: A -> k: 1 -> 1, x -> 0
    phi = {"1": [QQ.one], "x": [QQ.zero]}
    rows = [phi[lab] for lab in a.labels]
    point_map, target, secmaps = aspec_morphism(rows, a, k, space)
    assert len(target.points) == 1
    assert target.points[0].module.dim == 1


def test_spec_compare_split_quadratic():
    a = make_split_quadratic()
    report = spec_compare(a)
    assert report["passed"]
    assert report["topology_discrete"]


def test_spec_compare_dual_numbers():
    a = make_dual_numbers()
    report = spec_compare(a)
    assert report["passed"]


def test_spec_compare_x3_minus_1():
    rel = {(3,): QQ.one, (0,): QQ.neg(QQ.one)}
    a = from_poly_quotient(QQ, ["x"], [rel])
    report = spec_compare(a)
    assert report["passed"]
    degs = sorted(len(g) - 1 for g, e in report["factors"])
    assert degs == [1, 2]


def test_spec_compare_k2_structure_constants():
    a = make_k_times_k()
    report = spec_compare(a)
    assert report["passed"]


def test_spec_compare_rejects_noncommutative():
    a = make_a2()
    with pytest.raises(InputError):
        spec_compare(a)


def test_taylor_shift():
    # p = x^2: p(a + t) = a^2 + 2at + t^2
    out = taylor_shift(QQ, [QQ.zero, QQ.zero, QQ.one], QQ.of_int(3))
    assert out == [QQ.of_int(9), QQ.of_int(6), QQ.one]


def test_poly_ring_space_and_stalks():
    ring = PolynomialRing(QQ)
    pts = [PointModule(ring, QQ.of_int(0)), PointModule(ring, QQ.of_int(1))]
    report = spec_compare(ring, points=pts, order=3)
    assert report["passed"]


def test_poly_ring_sections_product():
    ring = PolynomialRing(QQ)
    pts = [SpectralPoint(PointModule(ring, QQ.of_int(0)), name="M0"),
           SpectralPoint(PointModule(ring, QQ.of_int(1)), name="M1")]
    space = ASpecSpace(ring, pts, order=3)
    whole = space.sections(frozenset({0, 1}))
    assert whole.dim == 2 * 4
    one = space.sections(frozenset({0}))
    assert one.dim == 4
    res = space.restriction(frozenset({0, 1}), frozenset({0}))
    assert res.rows == 8 and res.cols == 4


def test_global_sections_roundtrip_corpus():
    for name, alg in corpus():
        space = space_of_simples(alg)
        report = global_sections_roundtrip(space)
        assert report["passed"], (name, report)


def test_spec_compare_repeated_factor():
    # x^2 (x - 1): localizations k[x]/(x^2) and k
    rel = {(3,): QQ.one, (2,): QQ.neg(QQ.one)}
    a = from_poly_quotient(QQ, ["x"], [rel])
    report = spec_compare(a)
    assert report["passed"]
    assert sorted((len(g) - 1, e) for g, e in report["factors"]) == \
        [(1, 1), (1, 2)]


def test_spec_compare_f5_cases():
    f5 = GF(5)
    irreducible = from_poly_quotient(f5, ["x"],
                                     [{(2,): f5.one, (0,): f5.of_int(3)}])
    assert spec_compare(irreducible)["passed"]
    split = from_poly_quotient(f5, ["x"],
                               [{(2,): f5.one, (0,): f5.of_int(-1)}])
    assert spec_compare(split)["passed"]


def test_spec_compare_mixed_nonsplit_unsupported():
    from aspec.errors import UnsupportedAlgebraError
    f5 = GF(5)
    mixed = from_poly_quotient(f5, ["x"],
                               [{(4,): f5.one, (2,): f5.of_int(3)}])
    with pytest.raises(UnsupportedAlgebraError):
        spec_compare(mixed)


def test_spec_comparison_kernel_is_the_stable_power():
    # k[x]/(x^4) is local, so its localization is all of it: the stable
    # power of (x) is 0.  At order 2, O^A of the point is k[x]/(x^3),
    # whose kernel (x^3) is the power m^(N+1), not the localization's.
    a = from_poly_quotient(QQ, ["x"], [{(4,): QQ.one}])
    low = compare_with_spec(space_of_simples(a, order=2))
    assert low["stalk_details"] == [False]
    assert low["points_match"] and not low["passed"]
    assert compare_with_spec(space_of_simples(a))["passed"]


def test_second_sheafify_check_reuses_the_restrictions(monkeypatch):
    # k[x]/(x^4 - x^2): three points, 56 covers; every sheaf restriction
    # is memoized, so a second check builds no coordinate Span
    one = QQ.one
    a = from_poly_quotient(QQ, ["x"], [{(4,): one, (2,): QQ.neg(one)}])
    space = space_of_simples(a)
    first = space.sheafify_check()
    built = []
    span = topology_module.Span
    monkeypatch.setattr(topology_module, "Span",
                        lambda *args: built.append(args) or span(*args))
    assert space.sheafify_check() == first
    assert built == []
    assert first["passed"]


def test_one_sheafify_check_builds_each_pair_block_once(monkeypatch):
    # the covers of a check share their pair blocks, and the sheaf
    # sections of all opens share those of the raw restrictions
    one = QQ.one
    a = from_poly_quotient(QQ, ["x"], [{(4,): one, (2,): QQ.neg(one)}])
    space = space_of_simples(a)
    built = []
    pair_block = topology_module._pair_block

    def counting(field, res_of, va, vb):
        built.append((res_of.__name__, va, vb))
        return pair_block(field, res_of, va, vb)

    monkeypatch.setattr(topology_module, "_pair_block", counting)
    assert space.sheafify_check()["passed"]
    assert {kind for kind, _, _ in built} == {"restriction",
                                               "sheaf_restriction"}
    assert len(built) == len(set(built))


def test_section_maps_build_no_span(kernel_work):
    # restrictions and stalk comparisons read the preimages of the rho
    # echelon; only the hulls of the sections build Spans
    a = make_a3_path()
    space = space_of_simples(a)
    subsets = [frozenset(c) for k in range(1, 4)
               for c in combinations(range(3), k)]
    for subset in subsets:
        space.family_o_algebra(subset)
    kernel_work["spans"].clear()
    opens = space.opens()
    for u in opens:
        for v in opens:
            if u and v <= u:
                space.restriction(u, v)
    for subset in subsets:
        assert space.stalk(subset).comparison_is_iso
    assert kernel_work["spans"] == []


def test_closure_and_roundtrip_build_the_hull_over_o_once(hull_builds):
    a = make_a2()
    space = space_of_simples(a)
    o = space.sections(range(2)).o
    assert closure_check(a, o)[0]
    assert global_sections_roundtrip(space)["passed"]
    whole_over_o = [b for b in hull_builds
                    if b.algebra is not a and len(b.modules) == 2]
    assert len(whole_over_o) == 1
