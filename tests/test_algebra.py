import random
from fractions import Fraction

import pytest

from aspec.algebra import Algebra, from_structure_constants
from aspec.errors import InfiniteDimensionalError, ValidationError
from aspec.fields import GF, QQ
from aspec.linalg import Mat, rank, row_space_basis
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
from oracles import FpAlgebra, enumerate_paths, nil_ideal_radical


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
    with pytest.raises(InfiniteDimensionalError):
        from_quiver(q, max_degree=10)


def test_non_admissible_relation_rejected():
    # x^2 = x^3 splits off a copy of k; the arrow ideal is not nilpotent
    q = QuiverPresentation(
        ["v"], [("x", "v", "v")],
        relations=[[(QQ.one, ["x", "x"]), (QQ.neg(QQ.one), ["x", "x", "x"])]])
    with pytest.raises(ValidationError):
        from_quiver(q)


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


def test_poly_quotient_bivariate():
    rels = [{(2, 0): QQ.one}, {(0, 2): QQ.one}, {(1, 1): QQ.one}]
    a = from_poly_quotient(QQ, ["x", "y"], rels)
    assert a.dim == 3
    assert sorted(a.labels) == ["1", "x", "y"]
    # and the S-polynomial machinery: xy = y together with x^2 = 0 kills y
    rels2 = [{(2, 0): QQ.one}, {(0, 2): QQ.one},
             {(1, 1): QQ.one, (0, 1): QQ.neg(QQ.one)}]
    b = from_poly_quotient(QQ, ["x", "y"], rels2)
    assert b.dim == 2


def test_poly_quotient_recombined_relations_keep_dim():
    """An invertible recombination of x^2, xy, y^2 presents the same
    ideal.  Each sample has two relations with leading monomial x^2,
    which the Groebner interreduction must not cancel against each
    other."""
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
    assert row_space_basis(QQ, rad + [x], length=2) == row_space_basis(
        QQ, [x], length=2)


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
    got = row_space_basis(f, [list(v) for v in rad], length=a.dim)
    want = row_space_basis(f, [list(v) for v in oracle], length=a.dim)
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
    b = from_structure_constants(a.field, a.labels, a.table, a.unit,
                                 idempotents=a.idempotents)
    assert b.dim == a.dim
    assert b.table == a.table


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
            cur = row_space_basis(alg.field, nxt, length=alg.dim)
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
            assert a.table[i][j] == expect, (n1, n2)


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


def test_infinite_dimensional_error_carries_degree():
    q = QuiverPresentation(["v"], [("x", "v", "v")])
    with pytest.raises(InfiniteDimensionalError) as exc:
        from_quiver(q, max_degree=8)
    assert exc.value.degree is not None
