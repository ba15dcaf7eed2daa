import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspec.quiver as quiver_module
import aspec.rewrite as rewrite_module
from aspec.algebra import Algebra, from_structure_constants
from aspec.errors import InfiniteDimensionalError, InputError, ValidationError
from aspec.fields import GF, QQ
from aspec.linalg import Mat, Span, rank, row_space_basis
from aspec.polyquot import from_poly_quotient
from aspec.quiver import QuiverPresentation, from_quiver
from conftest import (
    corpus,
    make_a2,
    make_a3_zero_rel,
    make_dual_numbers,
    make_field_k,
    make_k_times_k,
    make_kx3,
    make_lower_triangular,
    make_split_quadratic,
)
from oracles import (
    FpAlgebra,
    arrow_ideal_nilpotent_by_powers,
    dense_algebra_mul,
    dense_table,
    enumerate_paths,
    nil_ideal_radical,
    radical_trace_form_dense,
)
from test_hull_stress import make_double_loop, make_fat_point
from test_resolution_sparse import matrix_algebra, structure_only
from test_rewrite import acyclic_quivers

EXAMPLES = Path(__file__).parent.parent / "docs" / "examples"
F5 = GF(5)


def test_one_vertex_is_k():
    a = make_field_k()
    assert a.dim == 1
    assert a.mul(a.unit, a.unit) == a.unit


def test_a2_dim_and_basis():
    a = make_a2()
    assert a.dim == 3
    assert set(a.labels) == {"e_1", "e_2", "a"}
    # path enumeration oracle: paths of length <= 1 survive, none longer
    paths = enumerate_paths(["1", "2"], [("a", "1", "2")], 3)
    alive = len(paths[0]) + len(paths[1]) + len(paths[2])
    assert a.dim == alive


def test_loop_with_square_zero():
    q = QuiverPresentation(["v"], [("x", "v", "v")],
                           relations=[[(QQ.one, ["x", "x"])]])
    a = from_quiver(q)
    assert a.dim == 2
    x = a.element_from_label("x")
    assert a.is_zero_elem(a.mul(x, x))


def test_quiver_infinite_dimensional_detected():
    q = QuiverPresentation(["v"], [("x", "v", "v")])
    with pytest.raises(InfiniteDimensionalError,
                       match="x has unbounded powers"):
        from_quiver(q)


@pytest.mark.parametrize("reverse", [False, True])
def test_quiver_relation_past_the_max_degree_meets_shorter_ones(reverse):
    # a^2 = a^26 = 0 once a^3 = 0, whichever relation comes first
    rels = [[(QQ.one, ["a"] * 26), (QQ.of_int(-1), ["a", "a"])],
            [(QQ.one, ["a"] * 3)]]
    q = QuiverPresentation(["v"], [("a", "v", "v")],
                           rels[::-1] if reverse else rels)
    assert from_quiver(q).labels == ["e_v", "a"]


def a_n_path_modulo_its_longest_path(n):
    arrows = [(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n)]
    return QuiverPresentation([f"v{i}" for i in range(n + 1)], arrows,
                              [[(QQ.one, [a[0] for a in arrows])]])


def test_quiver_paths_past_the_max_degree_are_refused():
    # y^n = 0 builds up to the max degree, though the overlaps of y^24
    # with itself reach y^47; y^25 = 0 and y^26 = 0 leave paths of
    # length 24, their leads past the max degree overlapping themselves
    def loop_power(n):
        return QuiverPresentation(["v"], [("y", "v", "v")],
                                  [[(QQ.one, ["y"] * n)]])
    assert [from_quiver(loop_power(n)).dim for n in (13, 24)] == [13, 24]
    for n in (25, 26):
        with pytest.raises(InfiniteDimensionalError, match="by degree 24"):
            from_quiver(loop_power(n))
    # the 26-arrow path overlaps nothing, so its rules are complete at
    # once, yet its paths of length 24 and 25 survive
    with pytest.raises(InfiniteDimensionalError, match="by degree 24"):
        from_quiver(a_n_path_modulo_its_longest_path(26))
    assert from_quiver(a_n_path_modulo_its_longest_path(6)).dim == \
        7 + 6 + 5 + 4 + 3 + 2


def test_poly_powers_past_the_max_degree_are_refused():
    # x^64 builds, though its overlaps with itself reach x^127
    assert from_poly_quotient(QQ, ["x"], [{(64,): 1}]).dim == 64
    with pytest.raises(InfiniteDimensionalError, match="by degree 64"):
        from_poly_quotient(QQ, ["x"], [{(65,): 1}])


def test_non_admissible_relation_rejected():
    # x^2 = x^3 splits off a copy of k; the arrow ideal is not nilpotent
    q = QuiverPresentation(
        ["v"], [("x", "v", "v")],
        relations=[[(QQ.one, ["x", "x"]), (QQ.neg(QQ.one), ["x", "x", "x"])]])
    with pytest.raises(ValidationError):
        from_quiver(q)


def loop_quiver_sweep(count, seed):
    """count quivers on one or two vertices with one to three arrows
    between them, loops and cycles allowed, over Q or F5, and one to
    three relations of one to three parallel paths of length 2-4 with
    coefficients 1-4, so that a relation may join paths of different
    lengths."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        field = rng.choice([QQ, F5])
        vertices = ["1", "2"][:rng.randint(1, 2)]
        arrows = [(f"a{k}", rng.choice(vertices), rng.choice(vertices))
                  for k in range(rng.randint(1, 3))]
        by_ends = {}
        layer = [[a] for a in arrows]
        for _ in range(3):
            layer = [p + [a] for p in layer for a in arrows
                     if a[1] == p[-1][2]]
            for p in layer:
                by_ends.setdefault((p[0][1], p[-1][2]), []).append(
                    [a[0] for a in p])
        rels = []
        for _ in range(rng.randint(1, 3) if by_ends else 0):
            parallel = by_ends[rng.choice(sorted(by_ends))]
            rels.append([(field.of_int(rng.randint(1, 4)), path)
                         for path in rng.sample(
                             parallel, rng.randint(1, min(3, len(parallel))))])
        cases.append((field, QuiverPresentation(vertices, arrows, rels)))
    return cases


@functools.lru_cache(maxsize=None)
def admissibility_sweep():
    """[(algebra, refused)] for `a^3 = a^2` and the 150 quivers of
    `loop_quiver_sweep(150, 24)` that `from_quiver` builds a table for:
    the algebra as built before its radical, and whether the radical
    refused it as not admissible.  The rewriting budget is cut to 100000
    steps, as a refusal at the full budget takes up to 25 s here; no
    quiver of the sweep that builds needs more."""
    one = QQ.one
    cases = [(QQ, QuiverPresentation(["v"], [("a", "v", "v")], [
        [(one, ["a", "a", "a"]), (QQ.neg(one), ["a", "a"])]]))]
    out = []
    for field, q in cases + loop_quiver_sweep(150, 24):
        built = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rewrite_module, "REWRITE_BUDGET", 100_000)
            mp.setattr(quiver_module, "Algebra", lambda *args, **kwargs:
                       built.append(Algebra(*args, **kwargs)) or built[-1])
            try:
                from_quiver(q, field=field)
                refused = False
            except (InfiniteDimensionalError, InputError):
                continue
            except ValidationError as exc:
                assert str(exc) == ("relations are not admissible: the arrow "
                                    "ideal is not nilpotent in the quotient")
                refused = True
        out.append((built[0], refused))
    return out


def test_admissibility_is_refused_as_the_arrow_ideal_power_loop_refuses():
    # from_quiver proves admissibility by the radical; on every quiver it
    # builds a table for, it refuses exactly where the arrow ideal's
    # powers, multiplied dim + 1 times, stay nonzero
    verdicts = []
    for alg, refused in admissibility_sweep():
        assert refused != arrow_ideal_nilpotent_by_powers(alg), \
            alg.presentation.relations
        verdicts.append(refused)
    assert verdicts[0] and verdicts.count(True) >= 5 and \
        verdicts.count(False) >= 20, verdicts


def test_the_arrow_ideal_powers_by_the_arrows_are_the_powers_by_the_ideal():
    # I^(n+1) = I^n times the arrows, so the chain the radical builds
    # from the arrows has the rows of the chain that multiplies by all
    # of I: the same index, rad^2 and refusals
    quivers = [alg for name, alg in corpus() + corpus(GF(5))
               if alg.presentation is not None]
    cases = [(alg, False) for alg in quivers] + admissibility_sweep()
    for alg, refused in cases:
        # the trivial paths come first, then the paths, each with its
        # word in the arrows
        nv = len(alg.presentation.vertices)
        ideal = [alg.basis_vector(i) for i in range(nv, alg.dim)]
        by_ideal = alg.ideal_powers(ideal)
        assert refused == bool(by_ideal[-1])
        arrows = [alg.basis_vector(i) for i in range(nv, alg.dim)
                  if len(alg.words[i]) == 1]
        assert alg.ideal_powers(ideal, arrows) == by_ideal
        if not refused:
            alg._radical = None
            assert alg.radical() == (ideal, len(by_ideal))
            assert alg._radical_square == (by_ideal[1:] or [[]])[0]


def test_largest_quotient_within_the_basis_budget_builds():
    # the budget counts the basis, the unit and the listed monomials:
    # k[x,y]/(x^8, y^32) has 256 of them; k[x,y]/(x^8, y^33, x*y^32) has
    # the 257th, y^32
    assert from_poly_quotient(F5, ["x", "y"],
                              [{(8, 0): 1}, {(0, 32): 1}]).dim == 256
    with pytest.raises(InputError, match="budget of 256"):
        from_poly_quotient(F5, ["x", "y"],
                           [{(8, 0): 1}, {(0, 33): 1}, {(1, 32): 1}])


def test_the_basis_budget_counts_listed_words_and_vertices():
    # 16 loops build 256 products of two, but with radical square zero
    # none is listed; without relations their cycle is found first
    names = [f"a{i}" for i in range(16)]
    loops = [(n, "v", "v") for n in names]
    zero = [[(QQ.one, [x, y])] for x in names for y in names]
    assert from_quiver(QuiverPresentation(["v"], loops, zero)).dim == 17
    with pytest.raises(InfiniteDimensionalError,
                       match="a0 has unbounded powers"):
        from_quiver(QuiverPresentation(["v"], loops, []))
    # 1 -> 2 -> 3 with 16 arrows a step and every composite zero
    steps = [(f"a{i}", "1", "2") for i in range(16)] + \
        [(f"b{i}", "2", "3") for i in range(16)]
    zero = [[(QQ.one, [f"a{i}", f"b{j}"])] for i in range(16)
            for j in range(16)]
    assert from_quiver(QuiverPresentation(["1", "2", "3"], steps,
                                          zero)).dim == 35
    # the vertices' trivial paths are basis elements too
    with pytest.raises(InputError, match="budget of 256"):
        from_quiver(QuiverPresentation([str(v) for v in range(257)], []))


def test_commutative_square_quiver():
    # two paths 1->2->4 and 1->3->4 agree: dim = 4 vertices + 4 arrows + 1
    q = QuiverPresentation(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
        relations=[[(QQ.one, ["a", "b"]), (QQ.neg(QQ.one), ["c", "d"])]])
    a = from_quiver(q)
    assert a.dim == 9


def test_structure_constants_lower_triangular():
    a = make_lower_triangular()
    assert a.dim == 3
    e21 = a.element_from_label("e21")
    assert a.is_zero_elem(a.mul(e21, e21))
    assert not a.is_commutative()


def test_structure_constants_k2_commutative():
    a = make_k_times_k()
    assert a.is_commutative()


def test_structure_constants_reject_nonassociative():
    f = QQ
    # b1 = 1; b2*b2 = b2 fails associativity unless consistent; build a
    # deliberately broken table: b2*b2 = b1, b2*b1 = 0 (so 1 is not a unit)
    z = [f.zero, f.zero]
    table = [
        [[f.one, f.zero], [f.zero, f.one]],
        [[f.zero, f.one], [f.one, f.zero]],
    ]
    # tweak to break associativity: (b2 b2) b2 = b2, b2 (b2 b2) = b2*b1
    table[1][1] = [f.one, f.zero]
    broken = list(table)
    broken[1] = [
        [f.zero, f.zero],   # b2*b1 = 0 breaks unitality
        [f.one, f.zero],
    ]
    with pytest.raises(ValidationError):
        from_structure_constants(f, ["u", "v"], broken, [f.one, f.zero])


def test_poly_quotient_idempotent_split():
    a = make_split_quadratic()
    assert a.dim == 2
    assert a.is_commutative()


def test_poly_quotient_x_squared():
    a = make_dual_numbers()
    assert a.dim == 2
    x = a.element_from_label("x")
    assert a.is_zero_elem(a.mul(x, x))


def test_poly_quotient_x_cubed_minus_one():
    rel = {(3,): QQ.one, (0,): QQ.neg(QQ.one)}
    a = from_poly_quotient(QQ, ["x"], [rel])
    assert a.dim == 3
    x = a.element_from_label("x")
    assert a.mul(x, a.mul(x, x)) == a.unit


def test_poly_quotient_infinite():
    with pytest.raises(InfiniteDimensionalError):
        from_poly_quotient(QQ, ["x", "y"], [{(2, 0): QQ.one}])


def test_poly_quotient_refuses_the_unit_ideal():
    with pytest.raises(InputError, match="unit ideal"):
        from_poly_quotient(QQ, ["x"], [{(1,): QQ.one, (0,): QQ.of_int(-1)},
                                       {(1,): QQ.one}])


@pytest.mark.parametrize("reverse", [False, True])
def test_poly_quotient_relation_past_the_max_degree_meets_shorter_ones(
        reverse):
    # x = -x^70 = 0 once x^2 = 0, whichever relation comes first
    rels = [{(70,): QQ.one, (1,): QQ.one}, {(2,): QQ.one}]
    a = from_poly_quotient(QQ, ["x"], rels[::-1] if reverse else rels)
    assert a.labels == ["1"]


def test_poly_quotient_refuses_duplicate_variables():
    with pytest.raises(InputError, match="duplicate variable 'x'"):
        from_poly_quotient(QQ, ["x", "x"], [{(2, 0): QQ.one}])


def test_poly_quotient_bivariate():
    rels = [{(2, 0): QQ.one}, {(0, 2): QQ.one}, {(1, 1): QQ.one}]
    a = from_poly_quotient(QQ, ["x", "y"], rels)
    assert a.dim == 3
    assert sorted(a.labels) == ["1", "x", "y"]
    # an overlap to resolve: xy = y together with x^2 = 0 kills y
    rels2 = [{(2, 0): QQ.one}, {(0, 2): QQ.one},
             {(1, 1): QQ.one, (0, 1): QQ.neg(QQ.one)}]
    b = from_poly_quotient(QQ, ["x", "y"], rels2)
    assert b.dim == 2


def test_poly_quotient_recombined_relations_keep_dim():
    """An invertible recombination of x^2, xy, y^2 presents the same
    ideal.  Each sample has two relations with leading monomial x^2: the
    second reduces by the first rule and keeps its own lead."""
    f = GF(5)
    monos = [(2, 0), (1, 1), (0, 2)]
    rng = random.Random(5)
    samples = 0
    while samples < 6:
        mat = [[rng.randrange(5) for _ in monos] for _ in monos]
        if rank(Mat(f, mat)) < 3 or sum(1 for row in mat if row[0]) < 2:
            continue
        samples += 1
        rels = [{m: c for m, c in zip(monos, row) if c} for row in mat]
        a = from_poly_quotient(f, ["x", "y"], rels)
        assert a.dim == 3, mat
        assert sorted(a.labels) == ["1", "x", "y"]


def test_radical_dual_numbers():
    a = make_dual_numbers()
    rad, index = a.radical()
    assert len(rad) == 1
    assert index == 2
    x = a.element_from_label("x")
    assert row_space_basis(QQ, rad + [x]) == row_space_basis(QQ, [x])


def test_radical_semisimple():
    a = make_k_times_k()
    rad, index = a.radical()
    assert rad == []
    assert index == 1


def test_radical_a2():
    a = make_a2()
    rad, index = a.radical()
    assert len(rad) == 1
    assert index == 2


def test_radical_lower_triangular_rational():
    a = make_lower_triangular()
    rad, index = a.radical()
    assert len(rad) == 1 and index == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_radical_char_p_against_enumeration(p):
    f = GF(p)
    a = make_lower_triangular(f)
    rad = a.radical_basis()
    oracle = nil_ideal_radical(FpAlgebra.from_algebra(a))
    assert len(rad) == len(oracle)
    got = row_space_basis(f, [list(v) for v in rad])
    want = row_space_basis(f, [list(v) for v in oracle])
    assert got == want


@pytest.mark.parametrize("p", [2, 3])
def test_radical_char_p_small_char_commutative(p):
    # p <= dim cases where the plain trace form degenerates
    f = GF(p)
    a = from_poly_quotient(f, ["x"], [{(4,): f.one}])
    rad, index = a.radical()
    assert len(rad) == 3
    assert index == 4


def test_radical_char2_k2():
    f = GF(2)
    a = make_k_times_k(f)
    assert a.radical_basis() == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_radical_random_small_algebras_against_oracle(p):
    # random commutative monogenic algebras F_p[x]/(f), dim 3
    rng = random.Random(100 + p)
    f = GF(p)
    for _ in range(4):
        rel = {(3,): f.one}
        for d in range(3):
            rel[(d,)] = rng.randrange(p)
        a = from_poly_quotient(f, ["x"], [rel])
        rad = a.radical_basis()
        oracle = nil_ideal_radical(FpAlgebra.from_algebra(a))
        assert len(rad) == len(oracle)


def test_quiver_roundtrip_structure_constants():
    a = make_a3_zero_rel()
    b = from_structure_constants(a.field, a.labels, dense_table(a), a.unit,
                                 idempotents=a.idempotents)
    assert b.dim == a.dim
    assert dense_table(b) == dense_table(a)


@pytest.mark.parametrize("validate", [True, False])
def test_a_short_structure_constant_vector_is_refused(validate):
    a = make_a3_zero_rel()
    table = dense_table(a)
    table[1][2] = table[1][2][:-1]
    with pytest.raises(ValidationError,
                       match="^structure constant vector length$"):
        from_structure_constants(a.field, a.labels, table, a.unit,
                                 validate=validate)


def test_is_commutative_corpus():
    expected = {
        "k": True, "k_x_k": True, "dual_numbers": True, "kx_cubed": True,
        "a2": False, "a3_zero_rel": False, "split_quadratic": True,
        "lower_triangular": False,
    }
    for name, alg in corpus():
        assert alg.is_commutative() == expected[name], name


def test_radical_is_nilpotent_ideal_and_quotient_semisimple():
    for name, alg in corpus():
        rad, index = alg.radical()
        # rad^index = 0
        cur = [list(v) for v in rad]
        for _ in range(index - 1):
            nxt = []
            for v in cur:
                for w in rad:
                    nxt.append(alg.mul(v, w))
            cur = row_space_basis(alg.field, nxt)
        assert cur == []
        quot, _, _ = alg.semisimple_quotient()
        assert quot.radical_basis() == [], name


def test_ensure_idempotents_poly_quotient():
    a = make_split_quadratic()
    idems = a.ensure_idempotents()
    assert len(idems) == 2
    a.validate_idempotents(idems)


def test_ensure_idempotents_char2_dual_numbers():
    f = GF(2)
    a = make_dual_numbers(f)
    idems = a.ensure_idempotents()
    assert len(idems) == 1
    assert idems[0] == list(a.unit)


def test_lower_triangular_against_matrix_multiplication():
    # oracle: multiply literal 2x2 matrix units and re-read the table
    from fractions import Fraction

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]

    units = {
        "e11": [[1, 0], [0, 0]],
        "e22": [[0, 0], [0, 1]],
        "e21": [[0, 0], [1, 0]],
    }
    a = make_lower_triangular()
    names = a.labels
    for i, n1 in enumerate(names):
        for j, n2 in enumerate(names):
            prod = matmul(units[n1], units[n2])
            expect = [Fraction(0)] * 3
            for k, nk in enumerate(names):
                unit_mat = units[nk]
                coeff = None
                # decompose: the matrix units are linearly independent
                c = sum(prod[r][c2] * unit_mat[r][c2]
                        for r in range(2) for c2 in range(2))
                norm = sum(unit_mat[r][c2] ** 2
                           for r in range(2) for c2 in range(2))
                expect[k] = Fraction(c, norm)
            assert dense_table(a)[i][j] == expect, (n1, n2)


def test_associativity_error_names_triple():
    # 1 is a genuine unit but (a*a)*a = b*a = 0 while a*(a*a) = a*b = 1
    f = QQ
    e = lambda i: [f.one if j == i else f.zero for j in range(3)]
    z = [f.zero] * 3
    table = [
        [e(0), e(1), e(2)],
        [e(1), e(2), e(0)],
        [e(2), z, z],
    ]
    with pytest.raises(ValidationError) as exc:
        from_structure_constants(f, ["one", "a", "b"], table, e(0))
    msg = str(exc.value)
    assert "associativity" in msg and "a" in msg


def _structure_constant_algebras():
    """Every finite-dimensional docs/examples algebra (the poly_ring
    example is k[x], which has no structure table), and A4 over F5."""
    from aspec.cli import parse
    out = []
    for path in sorted(EXAMPLES.glob("*.txt")):
        alg = parse(path.read_text()).algebra
        if isinstance(alg, Algebra):
            out.append(pytest.param(alg, id=path.stem))
    a4 = from_quiver(QuiverPresentation(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]), field=GF(5))
    out.append(pytest.param(a4, id="A4-F5"))
    return out


@pytest.mark.parametrize("alg", _structure_constant_algebras())
def test_sparse_product_matches_the_dense_triple_loop(alg):
    f = alg.field
    rng = random.Random(37)
    scalars = [0, 0, 0, 1, -1, 2, Fraction(1, 2)] if f == QQ else [0, 0] + list(range(5))

    def element():
        return [f.normalize(rng.choice(scalars)) for _ in range(alg.dim)]

    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    pairs = [(x, y) for x in basis for y in basis]
    pairs += [(element(), element()) for _ in range(60)]
    for x, y in pairs:
        assert alg.mul(x, y) == dense_algebra_mul(alg, x, y)


# -- the char-0 trace form against the dense products --------------------------


def assert_trace_form_matches_dense(alg):
    assert alg._radical_trace_form() == radical_trace_form_dense(alg)


def test_trace_form_matches_the_dense_products_over_q():
    for name, alg in corpus(QQ):
        assert_trace_form_matches_dense(alg)
    assert_trace_form_matches_dense(matrix_algebra(QQ, 2))
    assert_trace_form_matches_dense(structure_only(make_double_loop(QQ)))
    assert_trace_form_matches_dense(make_fat_point(QQ))
    for rels in ([{(3, 0): 1}, {(0, 3): 1}, {(2, 0): 1, (0, 2): 1,
                                                (1, 2): 1}],
                 [{(2, 0): 1, (1, 0): Fraction(-1, 2)}, {(0, 2): 1}]):
        assert_trace_form_matches_dense(
            from_poly_quotient(QQ, ["x", "y"], rels))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.data())
def test_trace_form_matches_the_dense_products_on_univariate_quotients(
        deg, data):
    coeffs = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                                min_size=deg, max_size=deg))
    rel = {(k,): QQ.normalize(c) for k, c in enumerate(coeffs) if c}
    rel[(deg,)] = QQ.one
    assert_trace_form_matches_dense(from_poly_quotient(QQ, ["x"], [rel]))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers(fields=(QQ,)))
def test_trace_form_matches_the_dense_products_on_random_quivers(case):
    _, q = case
    assert_trace_form_matches_dense(
        structure_only(from_quiver(q, field=QQ)))


def test_trace_form_forms_no_matrix_product(monkeypatch):
    # k[x]/x^8 over Q: the dense form made 64 products L_i L_j
    alg = from_poly_quotient(QQ, ["x"], [{(8,): QQ.one}])
    products = []
    mul = Mat.mul
    monkeypatch.setattr(Mat, "mul",
                        lambda self, other: products.append(self) or
                        mul(self, other))
    basis, index = alg.radical()
    assert (len(basis), index) == (7, 8)
    assert products == []


# -- products by a basis element ------------------------------------------------


def rebased(alg):
    """The same algebra on the basis c_i = b_i + b_{i+1} + ... + b_n,
    whose products have several terms."""
    f, n = alg.field, alg.dim
    basis = [[f.one if j >= i else f.zero for j in range(n)]
             for i in range(n)]
    span = Span(f, basis, n)
    table = [[span.coords(alg.mul(u, v)) for v in basis] for u in basis]
    return from_structure_constants(f, [f"c{i}" for i in range(n)], table,
                                    span.coords(alg.unit))


@functools.cache
def basis_product_algebras():
    """The corpus, the double loop and the fat point over Q and F7, and
    the last two and the lower triangular matrices rebased."""
    out = []
    for field in (QQ, GF(7)):
        local = [make_double_loop(field), make_fat_point(field),
                 make_lower_triangular(field)]
        out += [a for _, a in corpus(field)] + local
        out += [rebased(a) for a in local]
    return out


@st.composite
def basis_product_cases(draw):
    """(algebra, x, basis index): x is zero one time in four, else a
    vector of small scalars with many zero entries (fractions over Q)."""
    algs = basis_product_algebras()
    alg = algs[draw(st.integers(0, len(algs) - 1))]
    f = alg.field
    scalar = st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(
        lambda nd: f.div(f.of_int(nd[0]), f.of_int(nd[1])))
    entry = st.one_of(st.just(f.zero), st.just(f.zero), scalar)
    x = [f.zero] * alg.dim if draw(st.integers(0, 3)) == 0 else \
        draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim))
    return alg, x, draw(st.integers(0, alg.dim - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(basis_product_cases())
def test_products_by_a_basis_element_match_mul(case):
    alg, x, b = case
    e = alg.basis_vector(b)
    assert alg.times_basis(x, b) == alg.mul(x, e)
    assert alg.basis_times(b, x) == alg.mul(e, x)


def test_multiplication_matrices_match_mul():
    for alg in basis_product_algebras():
        n = alg.dim
        for x in [alg.basis_vector(i) for i in range(n)] + [alg.unit]:
            left = alg.left_mult_matrix(x)
            right = alg.right_mult_matrix(x)
            for j in range(n):
                e = alg.basis_vector(j)
                assert [row[j] for row in left.data] == alg.mul(x, e)
                assert right.data[j] == alg.mul(e, x)
