import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.errors import DimensionError, FieldMismatchError, ValidationError
from aspec.fields import GF, QQ
from aspec.linalg import (
    Mat,
    Span,
    kernel_basis,
    quotient_basis,
    rank,
    row_space_basis,
    rref,
)
from oracles import naive_gauss_rank, rank_by_minors, solve_by_augmented_rref


def test_rref_identity():
    m = Mat.identity(QQ, 2)
    r, pivots, rk = rref(m)
    assert r == m
    assert rk == 2
    assert pivots == [0, 1]


def test_rref_rank_one_symmetric():
    m = Mat(QQ, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    r, pivots, rk = rref(m)
    assert rk == 1
    assert r.data == [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(0)]]


def test_rref_idempotent_random():
    rng = random.Random(7)
    f = GF(7)
    for _ in range(25):
        m = Mat(f, [[rng.randrange(7) for _ in range(5)] for _ in range(5)])
        r1, _, rk1 = rref(m)
        r2, _, rk2 = rref(r1)
        assert r1 == r2
        assert rk1 == rk2


def test_rank_against_minor_expansion():
    rng = random.Random(11)
    for _ in range(10):
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(5)]
                for _ in range(5)]
        m = Mat(QQ, rows)
        assert rank(m) == rank_by_minors(rows)


def test_rank_against_naive_gauss_f7():
    rng = random.Random(13)
    f = GF(7)
    for _ in range(30):
        rows = [[rng.randrange(7) for _ in range(6)] for _ in range(6)]
        m = Mat(f, rows)
        assert rank(m) == naive_gauss_rank(rows, p=7)


def test_rank_nullity_on_random_instances():
    rng = random.Random(17)
    f = GF(5)
    for _ in range(30):
        rows = [[rng.randrange(5) for _ in range(4)] for _ in range(3)]
        m = Mat(f, rows)
        assert rank(m) + len(kernel_basis(m)) == m.cols


def test_kernel_identity_empty():
    assert kernel_basis(Mat.identity(QQ, 3)) == []


def test_kernel_rank_one():
    m = Mat(QQ, [[1, 1], [1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] and v[0] != 0


def test_kernel_vectors_annihilate():
    rng = random.Random(19)
    f = GF(5)
    for _ in range(20):
        m = Mat(f, [[rng.randrange(5) for _ in range(5)] for _ in range(3)])
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.apply_col(v))
        # linear independence
        basis = kernel_basis(m)
        if basis:
            assert rank(Mat(f, basis, cols=5)) == len(basis)


# the "solve" tests read x with sum_k x_k * v_k = b off Span(v).coords(b)


def test_solve_identity():
    std = Mat.identity(QQ, 3).data
    b = [Fraction(2), Fraction(-1), Fraction(5)]
    assert Span(QQ, std, 3).coords(b) == b


def test_solve_free_variable_zeroed():
    span = Span(QQ, [[Fraction(1)], [Fraction(1)]], 1)
    assert span.coords([Fraction(0)]) == [Fraction(0), Fraction(0)]
    assert span.coords([Fraction(3)]) == [Fraction(3), Fraction(0)]


def test_solve_inconsistent():
    span = Span(QQ, [[Fraction(1), Fraction(1)]], 2)
    assert span.coords([Fraction(0), Fraction(1)]) is None


def test_solve_dimension_mismatch():
    span = Span(QQ, Mat.identity(QQ, 2).data, 2)
    with pytest.raises(DimensionError):
        span.coords([Fraction(1)])
    with pytest.raises(DimensionError):
        span.contains([Fraction(1)])


@st.composite
def _systems(draw):
    """(p, vectors, b) over Q (p None) or F_p: some vectors are zero or
    combinations of earlier ones, and b is often in their span."""
    p = draw(st.sampled_from([None, 2, 5, 7]))
    entries = st.integers(-3, 3) if p is None else st.integers(0, p - 1)
    length = draw(st.integers(0, 5))
    vectors = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            vectors.append([0] * length)
        elif kind == "combination" and vectors:
            coeffs = [draw(entries) for _ in vectors]
            vectors.append([sum(c * v[i] for c, v in zip(coeffs, vectors))
                            for i in range(length)])
        else:
            vectors.append([draw(entries) for _ in range(length)])
    if vectors and draw(st.booleans()):
        coeffs = [draw(entries) for _ in vectors]
        b = [sum(c * v[i] for c, v in zip(coeffs, vectors))
             for i in range(length)]
    else:
        b = [draw(entries) for _ in range(length)]
    return p, vectors, b


@settings(max_examples=400, deadline=None, database=None)
@given(_systems())
def test_span_coords_against_augmented_rref(system):
    p, vectors, b = system
    f = QQ if p is None else GF(p)
    span = Span(f, [[f.normalize(x) for x in v] for v in vectors], len(b))
    want = solve_by_augmented_rref(vectors, b, p)
    assert span.coords([f.normalize(x) for x in b]) == want
    assert span.contains([f.normalize(x) for x in b]) == (want is not None)


def test_field_mismatch():
    a = Mat.identity(QQ, 2)
    b = Mat.identity(GF(5), 2)
    with pytest.raises(FieldMismatchError):
        a.mul(b)


def test_quotient_basis_full():
    f = QQ
    std = [[f.one, f.zero], [f.zero, f.one]]
    reps = quotient_basis(f, std, [])
    assert len(reps) == 2


def test_quotient_basis_mod_line():
    f = QQ
    std = [[f.one, f.zero], [f.zero, f.one]]
    reps = quotient_basis(f, std, [[f.one, f.zero]])
    assert len(reps) == 1
    assert reps[0][1] != 0


def test_quotient_basis_dim_identity_random():
    rng = random.Random(23)
    f = GF(5)
    for _ in range(20):
        space = [[rng.randrange(5) for _ in range(5)] for _ in range(4)]
        sub = []
        for _ in range(2):
            v = [0] * 5
            for coeff, w in zip([rng.randrange(5) for _ in space], space):
                v = [(a + coeff * b) % 5 for a, b in zip(v, w)]
            sub.append(v)
        reps = quotient_basis(f, space, sub, length=5)
        dim_space = rank(Mat(f, space, cols=5))
        dim_sub = rank(Mat(f, sub, cols=5))
        assert len(reps) == dim_space - dim_sub


def test_quotient_basis_rejects_outside_sub():
    f = QQ
    with pytest.raises(ValidationError):
        quotient_basis(f, [[f.one, f.zero]], [[f.zero, f.one]])


def test_span_contains():
    f = QQ
    a = [[f.one, f.zero, f.zero], [f.zero, f.one, f.zero]]
    span = Span(f, a, 3)
    assert span.contains([f.one, f.one, f.zero])
    assert not span.contains([f.zero, f.zero, f.one])
    assert span.coords([Fraction(2), Fraction(-3), f.zero]) == \
        [Fraction(2), Fraction(-3)]


def test_span_of_nothing():
    span = Span(GF(5), [], 2)
    assert span.coords([0, 0]) == []
    assert span.coords([0, 1]) is None
    assert span.contains([0, 0]) and not span.contains([1, 0])


def test_no_unreduced_fractions():
    m = Mat(QQ, [[Fraction(2, 4), Fraction(6, 3)]])
    r, _, _ = rref(m)
    for row in r.data:
        for x in row:
            assert isinstance(x, Fraction)
            from math import gcd
            assert gcd(x.numerator, x.denominator) == 1


def test_fp_representatives_in_range():
    f = GF(7)
    m = Mat(f, [[13, -1], [7, 8]])
    assert m.data == [[6, 6], [0, 1]]
    r, _, _ = rref(m)
    for row in r.data:
        for x in row:
            assert 0 <= x < 7


def test_rank_f7_against_minor_expansion():
    from oracles import rank_by_minors_mod_p
    rng = random.Random(29)
    f = GF(7)
    for _ in range(8):
        rows = [[rng.randrange(7) for _ in range(5)] for _ in range(5)]
        m = Mat(f, rows)
        assert rank(m) == rank_by_minors_mod_p(rows, 7)
