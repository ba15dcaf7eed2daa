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
from oracles import (
    DenseEchelon,
    abnormal_scalars,
    dense_rref,
    is_normal_rational,
    naive_gauss_rank,
    rank_by_minors,
    solve_by_augmented_rref,
)


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
            assert all(x == 0 for x in m.transpose().apply_row(v))
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


def test_field_mismatch():
    a = Mat.identity(QQ, 2)
    b = Mat.identity(GF(5), 2)
    with pytest.raises(FieldMismatchError):
        a.mul(b)


def test_quotient_basis_full():
    f = QQ
    std = [[f.one, f.zero], [f.zero, f.one]]
    reps = quotient_basis(f, std, [], 2)
    assert len(reps) == 2


def test_quotient_basis_mod_line():
    f = QQ
    std = [[f.one, f.zero], [f.zero, f.one]]
    reps = quotient_basis(f, std, [[f.one, f.zero]], 2)
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
        quotient_basis(f, [[f.one, f.zero]], [[f.zero, f.one]], 2)


def test_span_contains():
    f = QQ
    a = [[f.one, f.zero, f.zero], [f.zero, f.one, f.zero]]
    span = Span(f, a, 3)
    assert span.coords([f.one, f.one, f.zero]) is not None
    assert span.coords([f.zero, f.zero, f.one]) is None
    assert span.coords([Fraction(2), Fraction(-3), f.zero]) == \
        [Fraction(2), Fraction(-3)]


def test_span_of_nothing():
    span = Span(GF(5), [], 2)
    assert span.coords([0, 0]) == []
    assert span.coords([0, 1]) is None
    assert span.coords([1, 0]) is None


def test_no_unreduced_fractions():
    m = Mat(QQ, [[Fraction(2, 4), Fraction(6, 3), Fraction(1, 3)]])
    r, _, _ = rref(m)
    assert r.data == [[1, 4, Fraction(2, 3)]]
    for row in r.data:
        for x in row:
            assert is_normal_rational(x)


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


# -- the zero-skipping kernels against the dense reference ------------------

_Q_NONZERO = [-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def _sparse_systems(draw):
    """(field, rows, ncols, sub, b): a matrix over Q or F_7 with about a
    fifth of its entries nonzero, some rows and columns zero and some
    rows sums of earlier ones; `sub` spans part of its row space and b
    is a combination of its rows or a random vector."""
    f = draw(st.sampled_from([QQ, GF(7)]))
    nonzero = _Q_NONZERO if f == QQ else list(range(1, 7))
    entries = st.sampled_from([0] * (4 * len(nonzero)) + nonzero)
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 8))
    zero_rows = draw(st.sets(st.integers(0, nrows), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    rows = []
    for i in range(nrows):
        if rows and draw(st.integers(0, 4)) == 0:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([f.add(x, y) for x, y in zip(u, v)])
        elif i in zero_rows:
            rows.append([f.zero] * ncols)
        else:
            rows.append([f.zero if j in zero_cols else f.normalize(draw(entries))
                         for j in range(ncols)])

    def combination():
        out = [f.zero] * ncols
        for row in rows:
            c = f.normalize(draw(entries))
            out = [f.add(x, f.mul(c, y)) for x, y in zip(out, row)]
        return out

    sub = [combination() for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        b = combination()
    else:
        b = [f.normalize(draw(entries)) for _ in range(ncols)]
    return f, rows, ncols, sub, b


@settings(max_examples=300, deadline=None, database=None)
@given(_sparse_systems())
def test_sparse_kernels_match_the_dense_reference(system):
    f, rows, ncols, sub, b = system
    # repr tells Fraction(0) from 0, so equal reprs mean equal scalars of
    # equal types
    same = lambda x, y: repr(x) == repr(y)
    want_r, want_pivots = dense_rref(f, rows, ncols)
    r, pivots, rk = rref(Mat(f, rows, cols=ncols))
    assert same(r.data, want_r) and pivots == want_pivots

    want_kernel = []
    for j in range(ncols):
        if j not in want_pivots:
            v = [f.zero] * ncols
            v[j] = f.one
            for i, pc in enumerate(want_pivots):
                v[pc] = f.neg(want_r[i][j])
            want_kernel.append(v)
    kernel = kernel_basis(Mat(f, rows, cols=ncols))
    assert same(kernel, want_kernel)
    basis = row_space_basis(f, rows)
    assert same(basis, want_r[:len(want_pivots)])

    ech = DenseEchelon(f, ncols)
    for v in sub:
        ech.insert(v)
    want_reps = [list(v) for v in rows if ech.insert(v) is not None]
    reps = quotient_basis(f, rows, sub, length=ncols)
    assert same(reps, want_reps)

    # Span: tagged dense rows, solved on the head
    tagged = DenseEchelon(f, ncols)
    for k, v in enumerate(rows):
        tagged.insert(list(v) + [f.one if i == k else f.zero
                                 for i in range(len(rows))])
    span = Span(f, rows, ncols)
    red = tagged.reduce(list(b) + [f.zero] * len(rows))
    if all(f.is_zero(x) for x in red[:ncols]):
        want_coords = [f.neg(x) for x in red[ncols:]]
    else:
        want_coords = None
    coords = span.coords(b)
    assert same(coords, want_coords)
    # no float and no Fraction with denominator 1 in any output
    assert abnormal_scalars([r.data, kernel, basis, reps, coords]) == []


def test_public_mat_normalizes_its_input():
    f5 = GF(5)
    assert Mat(f5, [[7, -1]]).data == [[2, 4]]
    m = Mat(QQ, [[Fraction(4, 2), Fraction(2, 4)], [-2, True]])
    assert m.data == [[2, Fraction(1, 2)], [-2, 1]]
    assert all(is_normal_rational(x) for row in m.data for x in row)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("rows, cols", [(1, 3), (3, 1), (3, 3), (2, 0),
                                        (0, 2)])
def test_flat_and_of_flat_round_trip(field, rows, cols):
    rng = random.Random(rows * 10 + cols)
    m = Mat(field, [[rng.randint(-6, 6) for _ in range(cols)]
                    for _ in range(rows)], cols=cols)
    flat = m.flat()
    assert flat == [x for row in m.data for x in row]
    back = Mat.of_flat(field, flat, rows, cols)
    assert back == m
    assert (back.rows, back.cols) == (rows, cols)
    assert back.flat() == flat
    # flat() is a new list: changing it leaves the matrix as it was
    before = [list(row) for row in m.data]
    assert all(flat is not row for row in m.data)
    if flat:
        flat[0] = field.add(flat[0], field.one)
    flat.append(field.one)
    assert m.data == before
    assert m.flat() is not m.flat()


def test_of_flat_rejects_a_wrong_length():
    with pytest.raises(DimensionError):
        Mat.of_flat(QQ, [QQ.one] * 5, 2, 3)
