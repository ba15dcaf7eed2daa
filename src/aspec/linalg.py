"""Exact linear algebra over the scalar fields, dense rows, zero-skipping.

Everything downstream (Ext groups, hulls, section algebras) reduces to
rref, kernels, quotients and coordinates in a fixed basis (`Span`) over
Q or F_p.  Pivoting is deterministic (first nonzero entry in column
order) so all chosen bases are reproducible run to run.

Rows are dense lists, but every inner loop touches only nonzero
scalars: scalars are normalized (see fields.py), so a falsy entry is a
true zero and is skipped without a field call.  Decisions that shape a
result (the pivot choice, a zero verdict) confirm with `field.is_zero`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

from .errors import DimensionError, ValidationError


class Mat:
    """Immutable-by-convention dense matrix; rows of normalized field
    scalars.  `Mat(field, data)` normalizes its input; results of the
    operations are built by `_of`, which keeps the scalars the field
    operations produced.

    A block's row-major scalars are its only flat layout: `flat()`
    writes them and `of_flat` reads them back."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, cols=None):
        self.field = field
        norm = field.normalize
        self.data = [[norm(x) for x in row] for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            for row in self.data:
                if len(row) != self.cols:
                    raise DimensionError("ragged rows")
        else:
            self.cols = 0 if cols is None else cols

    @classmethod
    def _of(cls, field, data, cols):
        """A matrix over `data` itself: rows of normalized scalars, each
        `cols` long."""
        m = cls.__new__(cls)
        m.field = field
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    @classmethod
    def of_flat(cls, field, scalars, rows, cols):
        """The rows x cols matrix whose row-major scalars are `scalars`,
        kept as they are, as by `_of`."""
        if len(scalars) != rows * cols:
            raise DimensionError(
                f"{len(scalars)} scalars do not fill {rows}x{cols}")
        return cls._of(field, [scalars[r * cols:(r + 1) * cols]
                               for r in range(rows)], cols)

    def flat(self):
        """The row-major scalars, a new list."""
        return list(chain.from_iterable(self.data))

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls._of(field, [[z] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Mat({self.field}, {self.rows}x{self.cols})"

    def is_zero(self):
        is_zero = self.field.is_zero
        return all(not x or is_zero(x) for row in self.data for x in row)

    def add(self, other):
        self._check_shape(other, same=True)
        f = self.field
        return Mat._of(f, [vec_add(f, r1, r2)
                           for r1, r2 in zip(self.data, other.data)], self.cols)

    def sub(self, other):
        self._check_shape(other, same=True)
        f = self.field
        return Mat._of(f, [vec_sub(f, r1, r2)
                           for r1, r2 in zip(self.data, other.data)], self.cols)

    def scale(self, c):
        f = self.field
        if not c:
            return Mat.zeros(f, self.rows, self.cols)
        return Mat._of(f, [vec_scale(f, c, row) for row in self.data], self.cols)

    def mul(self, other):
        self.field.same(other.field)
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        out = Mat.zeros(f, self.rows, other.cols)
        for row, orow in zip(self.data, out.data):
            for a, brow in zip(row, other.data):
                if a:
                    _add_scaled(f, orow, a, brow)
        return out

    def transpose(self):
        if not self.rows:
            return Mat._of(self.field, [[] for _ in range(self.cols)], 0)
        return Mat._of(self.field, [list(col) for col in zip(*self.data)],
                       self.rows)

    def apply_row(self, v):
        """Row vector times matrix: v.M (len rows) -> (len cols)."""
        if len(v) != self.rows:
            raise DimensionError("row-vector length mismatch")
        return _combination(self.field, v, self.data, self.cols)

    def _check_shape(self, other, same=False):
        self.field.same(other.field)
        if same and (self.rows != other.rows or self.cols != other.cols):
            raise DimensionError("shape mismatch")


def _eliminate(field, row, c, prow, support):
    """row -= c * prow in place, on the columns of prow's `support`."""
    sub, mul, neg = field.sub, field.mul, field.neg
    for j in support:
        x = row[j]
        t = mul(c, prow[j])
        row[j] = sub(x, t) if x else neg(t)


def _normalize_pivot(field, row, j):
    """Scale `row` in place so that its entry at the pivot column j is 1;
    return the support of the result (its nonzero columns from j on)."""
    support = [k for k in range(j, len(row)) if row[k]]
    if row[j] != field.one:
        inv = field.inv(row[j])
        mul = field.mul
        for k in support:
            row[k] = mul(inv, row[k])
    return support


def rref(m):
    """Reduced row-echelon form.

    Returns (R, pivot_columns, rank); the row space is preserved and the
    result is idempotent under rref.
    """
    f = m.field
    data = [list(row) for row in m.data]
    nrows = len(data)
    pivots = []
    piv_row = 0
    for col in range(m.cols):
        sel = None
        for i in range(piv_row, nrows):
            x = data[i][col]
            if x and not f.is_zero(x):
                sel = i
                break
        if sel is None:
            continue
        if sel != piv_row:
            data[piv_row], data[sel] = data[sel], data[piv_row]
        prow = data[piv_row]
        support = _normalize_pivot(f, prow, col)
        for i, row in enumerate(data):
            c = row[col]
            if c and i != piv_row:
                _eliminate(f, row, c, prow, support)
        pivots.append(col)
        piv_row += 1
        if piv_row == nrows:
            break
    return Mat._of(f, data, m.cols), pivots, len(pivots)


def rank(m):
    return rref(m)[2]


def kernel_basis(m):
    """Basis of the right null space {v : m.v = 0}; len = cols - rank."""
    f = m.field
    r, pivots, rk = rref(m)
    pivot_set = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = [f.zero] * m.cols
        v[j] = f.one
        for i, pc in enumerate(pivots):
            x = r.data[i][j]
            if x:
                v[pc] = f.neg(x)
        basis.append(v)
    return basis


def row_space_basis(field, vectors):
    """Echelonized basis of the span of the given row vectors, each a
    list of normalized scalars."""
    if not vectors:
        return []
    r, pivots, rk = rref(Mat._of(field, vectors, len(vectors[0])))
    return r.data[:rk]


class _Echelon:
    """Incremental echelon structure for building quotient bases.

    Each row keeps its support, the list of its nonzero columns, so a
    reduction touches only those."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []       # echelonized rows
        self.pivots = []     # pivot column per row
        self.supports = []   # nonzero columns per row, ascending

    def reduce(self, v):
        """v minus its combination of the rows.  A v shorter than the
        rows is reduced on its own columns only (the head of each row)."""
        f = self.field
        v = list(v)
        n = len(v)
        for row, pc, support in zip(self.rows, self.pivots, self.supports):
            c = v[pc]
            if c:
                if len(row) > n:
                    support = support[:bisect_left(support, n)]
                _eliminate(f, v, c, row, support)
        return v

    def insert(self, v):
        """Reduce and insert; returns pivot column or None if v was in span."""
        f = self.field
        v = self.reduce(v)
        j = next((j for j in range(self.ncols)
                  if v[j] and not f.is_zero(v[j])), None)
        if j is None:
            return None
        support = _normalize_pivot(f, v, j)
        # back-substitute into existing rows
        for idx, row in enumerate(self.rows):
            c = row[j]
            if c:
                _eliminate(f, row, c, v, support)
                merged = sorted(set(self.supports[idx]).union(support))
                self.supports[idx] = [k for k in merged if row[k]]
        pos = bisect_left(self.pivots, j)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, j)
        self.supports.insert(pos, support)
        return j

    def contains(self, v):
        return vec_is_zero(self.field, self.reduce(v))

    def dim(self):
        return len(self.rows)


class Span:
    """Coordinates in a fixed list of vectors, echelonized once.

    Each vector is inserted with its unit tag appended, so every echelon
    row records the combination of the inputs it is.  Pivots are sought
    in the first `length` columns only: a vector that depends on earlier
    ones is never inserted and gets coordinate 0.  `coords` is therefore
    the solution supported on the greedy-independent prefix, the pivot
    columns of the matrix whose columns are the vectors.  `kept` lists
    the indices of that prefix in ascending order.
    """

    def __init__(self, field, vectors, length):
        self.field = field
        self.length = length
        self.count = len(vectors)
        self._ech = _Echelon(field, length)
        self.kept = [k for k, v in enumerate(vectors)
                     if self._ech.insert(
                         list(v) + unit_vec(field, self.count, k)) is not None]

    def coords(self, v):
        """x with sum_k x_k * vectors[k] = v, or None when v is outside."""
        f = self.field
        self._check(v)
        r = self._ech.reduce(list(v) + [f.zero] * self.count)
        if not vec_is_zero(f, r[:self.length]):
            return None
        return [f.neg(x) if x else x for x in r[self.length:]]

    def contains(self, v):
        # v is shorter than the tagged rows: reduce() keeps only the head
        self._check(v)
        return vec_is_zero(self.field, self._ech.reduce(v))

    def _check(self, v):
        if len(v) != self.length:
            raise DimensionError("vector length mismatch")


def quotient_basis(field, space, sub, length=None):
    """Vectors of `space` mapping to a basis of span(space)/span(sub).

    Raises ValidationError when sub is not contained in span(space).
    Count equals dim span(space) - dim span(sub).
    """
    if length is None:
        if space:
            length = len(space[0])
        elif sub:
            length = len(sub[0])
        else:
            return []
    space_ech = _Echelon(field, length)
    for v in space:
        space_ech.insert(v)
    for v in sub:
        if not space_ech.contains(v):
            raise ValidationError("sub is not contained in span(space)")
    ech = _Echelon(field, length)
    for v in sub:
        ech.insert(v)
    reps = []
    for v in space:
        if ech.insert(v) is not None:
            reps.append(list(v))
    return reps


def vec_add(field, u, v):
    add = field.add
    return [(add(a, b) if a else b) if b else a for a, b in zip(u, v)]

def vec_sub(field, u, v):
    sub, neg = field.sub, field.neg
    return [(sub(a, b) if a else neg(b)) if b else a for a, b in zip(u, v)]

def vec_scale(field, c, v):
    if not c:
        return [field.zero] * len(v)
    mul = field.mul
    return [mul(c, x) if x else x for x in v]

def _add_scaled(field, out, c, v):
    """out += c * v in place, on the nonzero entries of v."""
    add, mul = field.add, field.mul
    for j, x in enumerate(v):
        if x:
            t = mul(c, x)
            o = out[j]
            out[j] = add(o, t) if o else t

def _combination(field, coeffs, vectors, n):
    """sum_k coeffs[k] * vectors[k] for vectors of length n."""
    out = [field.zero] * n
    for c, v in zip(coeffs, vectors):
        if c:
            _add_scaled(field, out, c, v)
    return out

def vec_is_zero(field, v):
    is_zero = field.is_zero
    return all(not x or is_zero(x) for x in v)

def zero_vec(field, n):
    return [field.zero] * n

def unit_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v
