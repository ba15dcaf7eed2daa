"""Finite-dimensional associative unital algebras over exact fields.

An Algebra stores structure constants on a fixed basis plus optional
extras (orthogonal idempotents, a quiver presentation).  All elements
are plain coordinate vectors over the basis.
"""

from __future__ import annotations

from .errors import (
    InputError,
    InternalInvariantError,
    UnsupportedAlgebraError,
    ValidationError,
)
from .fields import characteristic
from .linalg import (
    Mat,
    Span,
    _combination,
    kernel_basis,
    quotient_basis,
    row_space_basis,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)


class Algebra:
    """Associative unital k-algebra given by structure constants.

    table[i][j] is the coordinate vector of basis_i * basis_j, and
    products[i][j] lists its nonzero entries as (k, coefficient).
    """

    def __init__(self, field, labels, table, unit, idempotents=None,
                 presentation=None, validate=True):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.table = [[list(v) for v in row] for row in table]
        self.products = [[[(k, c) for k, c in enumerate(v) if c] for v in row]
                         for row in self.table]
        self.unit = list(unit)
        self.idempotents = [list(e) for e in idempotents] if idempotents else None
        self.presentation = presentation
        self._radical = None
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_index) != self.dim:
            raise ValidationError("duplicate basis labels")
        if validate:
            self.validate()

    # -- element arithmetic ------------------------------------------------

    def mul(self, x, y):
        f = self.field
        add, mul = f.add, f.mul
        out = zero_vec(f, self.dim)
        y_terms = [(j, yj) for j, yj in enumerate(y) if yj]
        for xi, row in zip(x, self.products):
            if not xi:
                continue
            for j, yj in y_terms:
                terms = row[j]
                if not terms:
                    continue
                c = mul(xi, yj)
                for k, t in terms:
                    t = mul(c, t)
                    o = out[k]
                    out[k] = add(o, t) if o else t
        return out

    def add(self, x, y):
        return vec_add(self.field, x, y)

    def scale(self, c, x):
        return vec_scale(self.field, c, x)

    def sub(self, x, y):
        return vec_sub(self.field, x, y)

    def power(self, x, n):
        out = list(self.unit)
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def basis_vector(self, i):
        return unit_vec(self.field, self.dim, i)

    def element_from_label(self, label):
        if label not in self._label_index:
            raise InputError(f"unknown basis label {label!r}")
        return self.basis_vector(self._label_index[label])

    def is_zero_elem(self, x):
        return vec_is_zero(self.field, x)

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y acting on column coordinate vectors."""
        cols = [self.mul(x, self.basis_vector(j)) for j in range(self.dim)]
        return Mat(self.field, [[cols[j][i] for j in range(self.dim)]
                                for i in range(self.dim)], cols=self.dim)

    def right_mult_matrix(self, x):
        """Matrix R with (v*x) = v.R for row coordinate vectors v."""
        rows = [self.mul(self.basis_vector(i), x) for i in range(self.dim)]
        return Mat(self.field, rows, cols=self.dim)

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check the unit axiom, the length of every structure-constant
        vector and associativity, in that order; the error names the
        first failing basis element or triple in basis order.

        The associativity check costs the nonzero structure constants,
        not n^3 products: both sides of (b_i b_j) b_k = b_i (b_j b_k)
        are summed from `products`, so a triple where b_i b_j and
        b_j b_k both vanish is never visited.
        """
        n = self.dim
        if len(self.unit) != n:
            raise ValidationError("unit vector has wrong length")
        for i in range(n):
            b = self.basis_vector(i)
            if self.mul(self.unit, b) != b or self.mul(b, self.unit) != b:
                raise ValidationError(
                    f"unit axiom fails on basis element {self.labels[i]!r}")
        if any(len(self.table[i][j]) != n
               for i in range(n) for j in range(n)):
            raise ValidationError("structure constant vector length")
        failing = self._associator_failures()
        if failing:
            i, j, k = min(failing)
            raise ValidationError(
                "associativity fails on triple "
                f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})")
        if self.idempotents is not None:
            self.validate_idempotents(self.idempotents)

    def _associator_failures(self):
        """The triples (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k).

        Each side is a {(i, j, k, m): scalar} table summed over the
        nonzero structure constants: the left from every nonzero
        b_i b_j = sum c_l b_l and the nonzero rows b_l b_k, the right from
        every nonzero b_j b_k = sum c_l b_l and the nonzero columns
        b_i b_l.  An entry absent from one side is zero there.
        """
        f = self.field
        add, mul = f.add, f.mul
        n = self.dim
        products = self.products
        rows = [[(k, terms) for k, terms in enumerate(products[l]) if terms]
                for l in range(n)]
        cols = [[(i, products[i][l]) for i in range(n) if products[i][l]]
                for l in range(n)]
        left, right = {}, {}

        def accumulate(side, i, j, k, c, terms):
            for m, t in terms:
                t = mul(c, t)
                key = (i, j, k, m)
                o = side.get(key)
                side[key] = add(o, t) if o else t

        for i in range(n):
            for j in range(n):
                for l, c in products[i][j]:
                    for k, terms in rows[l]:
                        accumulate(left, i, j, k, c, terms)
                    for h, terms in cols[l]:
                        accumulate(right, h, i, j, c, terms)
        zero = f.zero
        return {key[:3] for key in left.keys() | right.keys()
                if left.get(key, zero) != right.get(key, zero)}

    def validate_idempotents(self, idems):
        f = self.field
        total = zero_vec(f, self.dim)
        for a, ea in enumerate(idems):
            total = vec_add(f, total, ea)
            for b, eb in enumerate(idems):
                prod = self.mul(ea, eb)
                want = ea if a == b else zero_vec(f, self.dim)
                if prod != want:
                    raise ValidationError(
                        f"idempotents {a} and {b} are not orthogonal idempotents")
        if total != self.unit:
            raise ValidationError("idempotents do not sum to 1")

    def is_commutative(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.table[i][j] != self.table[j][i]:
                    return False
        return True

    # -- radical -----------------------------------------------------------

    def radical(self):
        """Basis of the Jacobson radical plus its nilpotency index.

        Quiver algebras use the arrow ideal; otherwise the trace-form
        kernel (char 0) or the integral trace chain (char p).
        """
        if self._radical is None:
            if self.presentation is not None and getattr(
                    self.presentation, "arrow_ideal_basis", None) is not None:
                basis = [list(v) for v in self.presentation.arrow_ideal_basis]
            elif characteristic(self.field) == 0:
                basis = self._radical_trace_form()
            else:
                basis = self._radical_char_p()
            index = self._nilpotency_index(basis)
            self._radical = (basis, index)
        return self._radical

    def radical_basis(self):
        return self.radical()[0]

    def radical_index(self):
        return self.radical()[1]

    def _nilpotency_index(self, basis):
        if not basis:
            return 1
        f = self.field
        current = [list(v) for v in basis]
        index = 1
        while current:
            index += 1
            nxt = []
            for v in current:
                for w in basis:
                    nxt.append(self.mul(v, w))
            current = row_space_basis(f, nxt, length=self.dim)
            if index > self.dim + 1:
                raise InternalInvariantError("radical candidate is not nilpotent")
        return index

    def _radical_trace_form(self):
        # Dickson: rad = {x : tr(L_x L_y) = 0 for all y}; valid in char 0.
        f = self.field
        lmats = [self.left_mult_matrix(self.basis_vector(i)) for i in range(self.dim)]
        rows = []
        for j in range(self.dim):
            lj = lmats[j]
            row = []
            for i in range(self.dim):
                prod = lmats[i].mul(lj)
                tr = f.zero
                for d in range(self.dim):
                    tr = f.add(tr, prod.data[d][d])
                row.append(tr)
            rows.append(row)
        m = Mat(f, rows, cols=self.dim)
        return row_space_basis(f, kernel_basis(m), length=self.dim)

    def _radical_char_p(self):
        # Descending chain R_0 = A, R_i = {x in R_{i-1} :
        # tr((XY)^{p^{i-1}}) = 0 mod p^i for all y in R_{i-1}} computed on
        # integral lifts of the regular representation; R_{l+1} = rad(A)
        # for p^l <= dim < p^{l+1}.
        f = self.field
        p = f.p
        n = self.dim
        lifts = [self._int_left_mult(self.basis_vector(i)) for i in range(n)]
        current = [unit_vec(f, n, i) for i in range(n)]
        level = 0
        while p ** level <= n:
            level += 1
        for i in range(1, level + 1):
            if not current:
                break
            exponent = p ** (i - 1)
            modulus = p ** i
            cur_lifts = [self._int_combo(lifts, v) for v in current]
            rows = []
            for ylift in cur_lifts:
                row = []
                for xlift in cur_lifts:
                    prod = _int_mat_mul(xlift, ylift)
                    powered = _int_mat_pow(prod, exponent)
                    tr = sum(powered[d][d] for d in range(n))
                    if tr % (modulus // p) != 0:
                        raise InternalInvariantError(
                            "trace chain divisibility failed")
                    row.append((tr // (modulus // p)) % p)
                rows.append(row)
            m = Mat(f, rows, cols=len(current))
            coeff_kernel = kernel_basis(m)
            new = [_combination(f, coeffs, current, n)
                   for coeffs in coeff_kernel]
            current = row_space_basis(f, new, length=n)
        return current

    def _int_left_mult(self, x):
        m = self.left_mult_matrix(x)
        return [[int(v) % self.field.p for v in row] for row in m.data]

    def _int_combo(self, lifts, v):
        n = self.dim
        out = [[0] * n for _ in range(n)]
        for c, lift in zip(v, lifts):
            c = int(c) % self.field.p
            if c == 0:
                continue
            for i in range(n):
                for j in range(n):
                    out[i][j] += c * lift[i][j]
        return out

    # -- semisimple quotient and idempotents --------------------------------

    def semisimple_quotient(self):
        """(quotient Algebra, projection rows, lift vectors) for A/rad."""
        f = self.field
        rad = self.radical_basis()
        std = [self.basis_vector(i) for i in range(self.dim)]
        reps = quotient_basis(f, std, rad, length=self.dim)
        # reps are independent modulo rad: x = sum c_i reps_i + (rad part)
        span = Span(f, reps + rad, self.dim)

        def project(x):
            coeffs = span.coords(x)
            if coeffs is None:
                raise InternalInvariantError("projection failed")
            return coeffs[:len(reps)]

        qdim = len(reps)
        labels = [f"q{i}" for i in range(qdim)]
        table = []
        for i in range(qdim):
            row = []
            for j in range(qdim):
                prod = self.mul(reps[i], reps[j])
                row.append(project(prod))
            table.append(row)
        unit = project(self.unit)
        quot = Algebra(f, labels, table, unit, validate=False)
        return quot, project, reps

    def ensure_idempotents(self):
        """Return a complete set of orthogonal primitive idempotents.

        Uses the stored ones when present; otherwise splits A/rad (which
        must be commutative and split) and lifts along the radical.
        Raises UnsupportedAlgebraError outside that scope.
        """
        if self.idempotents is not None:
            return [list(e) for e in self.idempotents]
        quot, project, reps = self.semisimple_quotient()
        if not quot.is_commutative():
            raise UnsupportedAlgebraError(
                "semisimple quotient is noncommutative; algebra is not basic")
        qidems = split_commutative_semisimple(quot)
        if qidems is None:
            raise UnsupportedAlgebraError(
                "semisimple quotient does not split over the base field")
        f = self.field
        lifted = []
        used = zero_vec(f, self.dim)
        for qi in qidems:
            x = _combination(f, qi, reps, self.dim)
            # move into the corner (1 - E) A (1 - E)
            one_minus = self.sub(self.unit, used)
            x = self.mul(self.mul(one_minus, x), one_minus)
            x = self._lift_idempotent(x)
            lifted.append(x)
            used = vec_add(f, used, x)
        if used != self.unit:
            raise InternalInvariantError("lifted idempotents do not sum to 1")
        self.validate_idempotents(lifted)
        self.idempotents = lifted
        return [list(e) for e in lifted]

    def _lift_idempotent(self, x):
        # e -> 3e^2 - 2e^3 squares the defect ideal in any characteristic
        f = self.field
        for _ in range(2 * self.dim + 4):
            sq = self.mul(x, x)
            if sq == x:
                return x
            cube = self.mul(sq, x)
            x = self.sub(vec_scale(f, f.of_int(3), sq),
                         vec_scale(f, f.of_int(2), cube))
        raise InternalInvariantError("idempotent lifting did not converge")


def split_commutative_semisimple(alg):
    """Primitive idempotents of a commutative semisimple split algebra.

    Returns None when some factor is a proper field extension of k
    (non-split), detected through min-poly factorization of the
    multiplication operators.
    """
    from .polyquot import factor_univariate, min_poly_of_matrix

    f = alg.field
    # eigensplit: refine the decomposition by each basis multiplication op
    blocks = [[alg.basis_vector(i) for i in range(alg.dim)]]
    blocks[0] = row_space_basis(f, blocks[0], length=alg.dim)
    for g in range(alg.dim):
        x = alg.basis_vector(g)
        new_blocks = []
        for block in blocks:
            if len(block) == 1:
                new_blocks.append(block)
                continue
            # matrix of multiplication by x on the block
            mat_rows = []
            span = Span(f, block, alg.dim)
            for v in block:
                coeffs = span.coords(alg.mul(v, x))
                if coeffs is None:
                    raise InternalInvariantError("block not invariant")
                mat_rows.append(coeffs)
            op = Mat(f, mat_rows, cols=len(block))
            mp = min_poly_of_matrix(op)
            factors = factor_univariate(f, mp)
            if any(len(poly) > 2 for poly, _ in factors):
                return None
            if len(factors) == 1:
                new_blocks.append(block)
                continue
            for poly, mult in factors:
                # eigenspace for root -poly[0]/poly[1] (poly is monic linear)
                lam = f.neg(poly[0])
                shifted = Mat(f, [[f.sub(op.data[i][j],
                                         lam if i == j else f.zero)
                                   for j in range(len(block))]
                                  for i in range(len(block))], cols=len(block))
                # generalized eigenspace: kernel of (op - lam)^dim
                powm = Mat.identity(f, len(block))
                for _ in range(len(block)):
                    powm = powm.mul(shifted)
                ker = kernel_basis(powm.transpose())
                sub = row_space_basis(
                    f, [_combination(f, coeffs, block, alg.dim)
                        for coeffs in ker], length=alg.dim)
                if sub:
                    new_blocks.append(sub)
        blocks = new_blocks
        if all(len(b) == 1 for b in blocks):
            break
    if any(len(b) > 1 for b in blocks):
        return None
    # each block is spanned by a single vector v with v^2 = c v; idempotent v/c
    idems = []
    for block in blocks:
        v = block[0]
        sq = alg.mul(v, v)
        coeffs = Span(f, [v], alg.dim).coords(sq)
        if coeffs is None or f.is_zero(coeffs[0]):
            raise InternalInvariantError("semisimple block without idempotent")
        idems.append(vec_scale(f, f.inv(coeffs[0]), v))
    return idems


def from_structure_constants(field, labels, table, unit, idempotents=None,
                             validate=True):
    """Validated Algebra from raw structure constants, normalized."""
    norm = field.normalize
    table = [[[norm(c) for c in v] for v in row] for row in table]
    unit = [norm(c) for c in unit]
    if idempotents:
        idempotents = [[norm(c) for c in e] for e in idempotents]
    return Algebra(field, labels, table, unit, idempotents=idempotents,
                   validate=validate)


def regular_algebra_of_matrices(field, mats, labels=None):
    """Algebra structure on the span of the given square matrices.

    The span must be unital and multiplicatively closed (e.g. the image
    of an algebra homomorphism).  Returns (Algebra, basis_matrices).
    """
    n = mats[0].rows if mats else 0
    flat = [sum(m.data, []) for m in mats]
    basis_flat = row_space_basis(field, flat, length=n * n)
    basis_mats = [Mat(field, [row[i * n:(i + 1) * n] for i in range(n)], cols=n)
                  for row in basis_flat]
    dim = len(basis_mats)
    span = Span(field, basis_flat, n * n)
    labels = labels or [f"m{i}" for i in range(dim)]
    table = []
    for a in basis_mats:
        row = []
        for b in basis_mats:
            prod = a.mul(b)
            coeffs = span.coords(sum(prod.data, []))
            if coeffs is None:
                raise ValidationError("matrix span is not multiplicatively closed")
            row.append(coeffs)
        table.append(row)
    ident = Mat.identity(field, n)
    unit = span.coords(sum(ident.data, []))
    if unit is None:
        raise ValidationError("matrix span does not contain the identity")
    alg = Algebra(field, labels, table, unit, validate=False)
    return alg, basis_mats


def _int_mat_mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k in range(n):
            c = arow[k]
            if c == 0:
                continue
            brow = b[k]
            for j in range(n):
                orow[j] += c * brow[j]
    return out


def _int_mat_pow(m, e):
    n = len(m)
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [row[:] for row in m]
    while e:
        if e & 1:
            result = _int_mat_mul(result, base)
        e >>= 1
        if e:
            base = _int_mat_mul(base, base)
    return result
