"""Dense exact linear algebra over the scalar fields.

Everything downstream (Ext groups, hulls, section algebras) reduces to
rref, kernels, quotients and coordinates in a fixed basis (`Span`) over
Q or F_p.  Pivoting is deterministic (first nonzero entry in column
order) so all chosen bases are reproducible run to run.
"""

from __future__ import annotations

from .errors import DimensionError, ValidationError


class Mat:
    """Immutable-by-convention dense matrix; rows of field scalars."""

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
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    def copy(self):
        return Mat(self.field, self.data, cols=self.cols)

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
        f = self.field
        return all(f.is_zero(x) for row in self.data for x in row)

    def add(self, other):
        self._check_shape(other, same=True)
        f = self.field
        return Mat(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)], cols=self.cols)

    def sub(self, other):
        self._check_shape(other, same=True)
        f = self.field
        return Mat(f, [[f.sub(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)], cols=self.cols)

    def scale(self, c):
        f = self.field
        return Mat(f, [[f.mul(c, x) for x in row] for row in self.data], cols=self.cols)

    def mul(self, other):
        self.field.same(other.field)
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        out = Mat.zeros(f, self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = row[k]
                if f.is_zero(a):
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    orow[j] = f.add(orow[j], f.mul(a, brow[j]))
        return out

    def transpose(self):
        return Mat(self.field, [[self.data[i][j] for i in range(self.rows)]
                                for j in range(self.cols)], cols=self.rows)

    def apply_col(self, v):
        """Matrix times column vector: M.v (len cols) -> (len rows)."""
        if len(v) != self.cols:
            raise DimensionError("column-vector length mismatch")
        f = self.field
        out = []
        for row in self.data:
            s = f.zero
            for a, x in zip(row, v):
                if not f.is_zero(a):
                    s = f.add(s, f.mul(a, x))
            out.append(s)
        return out

    def _check_shape(self, other, same=False):
        self.field.same(other.field)
        if same and (self.rows != other.rows or self.cols != other.cols):
            raise DimensionError("shape mismatch")


def rref(m):
    """Reduced row-echelon form.

    Returns (R, pivot_columns, rank); the row space is preserved and the
    result is idempotent under rref.
    """
    f = m.field
    r = m.copy()
    pivots = []
    piv_row = 0
    for col in range(r.cols):
        sel = None
        for i in range(piv_row, r.rows):
            if not f.is_zero(r.data[i][col]):
                sel = i
                break
        if sel is None:
            continue
        if sel != piv_row:
            r.data[piv_row], r.data[sel] = r.data[sel], r.data[piv_row]
        inv = f.inv(r.data[piv_row][col])
        r.data[piv_row] = [f.mul(inv, x) for x in r.data[piv_row]]
        for i in range(r.rows):
            if i == piv_row:
                continue
            c = r.data[i][col]
            if f.is_zero(c):
                continue
            prow = r.data[piv_row]
            r.data[i] = [f.sub(x, f.mul(c, px)) for x, px in zip(r.data[i], prow)]
        pivots.append(col)
        piv_row += 1
        if piv_row == r.rows:
            break
    return r, pivots, len(pivots)


def rank(m):
    return rref(m)[2]


def kernel_basis(m):
    """Basis of the right null space {v : m.v = 0}; len = cols - rank."""
    f = m.field
    r, pivots, rk = rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for j in free:
        v = [f.zero] * m.cols
        v[j] = f.one
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(r.data[i][j])
        basis.append(v)
    return basis


def row_space_basis(field, vectors, length=None):
    """Echelonized basis of the span of the given row vectors."""
    if not vectors:
        return []
    mat = Mat(field, vectors, cols=length)
    r, pivots, rk = rref(mat)
    return [r.data[i] for i in range(rk)]


class _Echelon:
    """Incremental echelon structure for building quotient bases."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []       # echelonized rows
        self.pivots = []     # pivot column per row

    def reduce(self, v):
        f = self.field
        v = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, rx)) for x, rx in zip(v, row)]
        return v

    def insert(self, v):
        """Reduce and insert; returns pivot column or None if v was in span."""
        f = self.field
        v = self.reduce(v)
        for j in range(self.ncols):
            if not f.is_zero(v[j]):
                inv = f.inv(v[j])
                v = [f.mul(inv, x) for x in v]
                # back-substitute into existing rows
                for idx, row in enumerate(self.rows):
                    c = row[j]
                    if not f.is_zero(c):
                        self.rows[idx] = [f.sub(x, f.mul(c, vx))
                                          for x, vx in zip(row, v)]
                pos = 0
                while pos < len(self.pivots) and self.pivots[pos] < j:
                    pos += 1
                self.rows.insert(pos, v)
                self.pivots.insert(pos, j)
                return j
        return None

    def contains(self, v):
        f = self.field
        return all(f.is_zero(x) for x in self.reduce(v))

    def dim(self):
        return len(self.rows)


class Span:
    """Coordinates in a fixed list of vectors, echelonized once.

    Each vector is inserted with its unit tag appended, so every echelon
    row records the combination of the inputs it is.  Pivots are sought
    in the first `length` columns only: a vector that depends on earlier
    ones is never inserted and gets coordinate 0.  `coords` is therefore
    the solution supported on the greedy-independent prefix, the pivot
    columns of the matrix whose columns are the vectors.
    """

    def __init__(self, field, vectors, length):
        self.field = field
        self.length = length
        self.count = len(vectors)
        self._ech = _Echelon(field, length)
        for k, v in enumerate(vectors):
            self._ech.insert(list(v) + unit_vec(field, self.count, k))

    def coords(self, v):
        """x with sum_k x_k * vectors[k] = v, or None when v is outside."""
        f = self.field
        self._check(v)
        r = self._ech.reduce(list(v) + [f.zero] * self.count)
        if not vec_is_zero(f, r[:self.length]):
            return None
        return [f.neg(x) for x in r[self.length:]]

    def contains(self, v):
        # reduce() zips v with the longer tagged rows: only the head is kept
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
    return [field.add(a, b) for a, b in zip(u, v)]

def vec_scale(field, c, v):
    return [field.mul(c, x) for x in v]

def vec_is_zero(field, v):
    return all(field.is_zero(x) for x in v)

def zero_vec(field, n):
    return [field.zero] * n

def unit_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v
