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
    _Echelon,
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

    products[i][j] lists the nonzero coordinates of basis_i * basis_j as
    (k, c), ascending in k: the one copy of the structure constants, held
    as given (dense rows come in through `sparse_rows`).

    `times_basis(x, j)` = x b_j and `basis_times(i, y)` = b_i y are read
    straight off `products`: they cost the nonzero coordinates of x (or
    y) times the terms of their products with the basis element, with
    no dense basis vector to scan.  The unit axiom, the multiplication
    matrices, the two-sided ideal test and ext's projectives e A use
    them.

    words[i], when given, is the word of b_i in the generators, as basis
    indices: (i,) for a generator, else w = w'.g with w' the word of a
    basis element and g a generator, which `validate` proves is
    b_{w'} b_g = b_i.  `generators` lists the indices with word (i,);
    without words every basis element is one.  Every identity in the
    product that the engine checks holds on all of A once it holds with
    a generator in the first slot (Light's associativity test), so the
    checks run on the pairs (g, b) only.
    """

    def __init__(self, field, labels, products, unit, idempotents=None,
                 presentation=None, words=None, validate=True):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.products = products
        self.words = words
        self.generators = list(range(self.dim)) if words is None else \
            [i for i, w in enumerate(words) if w == (i,)]
        self.generator_position = {g: p for p, g in
                                   enumerate(self.generators)}
        self._onto = None
        self.unit = list(unit)
        self.idempotents = [list(e) for e in idempotents] if idempotents else None
        self.presentation = presentation
        self._radical = None
        self._radical_square = None
        self._radical_generators = None
        # ext's e_v A blocks and products G e, keyed by the idempotent's
        # coordinates
        self._projectives = {}
        self._radical_times = {}
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

    def times_basis(self, x, j):
        """x * b_j: the terms of b_i b_j scaled by each nonzero x_i."""
        f = self.field
        add, mul = f.add, f.mul
        out = zero_vec(f, self.dim)
        for xi, row in zip(x, self.products):
            if xi:
                for k, t in row[j]:
                    t = mul(xi, t)
                    o = out[k]
                    out[k] = add(o, t) if o else t
        return out

    def basis_times(self, i, y):
        """b_i * y: the terms of b_i b_j scaled by each nonzero y_j."""
        f = self.field
        add, mul = f.add, f.mul
        out = zero_vec(f, self.dim)
        for yj, terms in zip(y, self.products[i]):
            if yj:
                for k, t in terms:
                    t = mul(yj, t)
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
        cols = [self.times_basis(x, j) for j in range(self.dim)]
        return Mat(self.field, [[cols[j][i] for j in range(self.dim)]
                                for i in range(self.dim)], cols=self.dim)

    def right_mult_matrix(self, x):
        """Matrix R with (v*x) = v.R for row coordinate vectors v."""
        rows = [self.basis_times(i, x) for i in range(self.dim)]
        return Mat(self.field, rows, cols=self.dim)

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check the unit axiom, that the generators generate, and then
        associativity; the error names the first failing basis element,
        or the first failing triple with a generator first.

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
            if self.times_basis(self.unit, i) != b or \
                    self.basis_times(i, self.unit) != b:
                raise ValidationError(
                    f"unit axiom fails on basis element {self.labels[i]!r}")
        failing = self._generation_failure()
        if failing is not None:
            raise ValidationError(
                "generation fails on basis element "
                f"{self.labels[failing]!r}: it is not the product of its "
                "word")
        failing = self._associator_failure()
        if failing:
            i, j, k = failing
            raise ValidationError(
                "associativity fails on triple "
                f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})")
        if self.idempotents is not None:
            self.validate_idempotents(self.idempotents)

    def _generation_failure(self):
        """The first basis element b_i whose word w = w'.g does not give
        b_{w'} b_g = b_i exactly, or None: one lookup per basis element.
        A word is a generator's own (i,) or longer, so by induction on
        its length every basis element is a product of generators."""
        if self.words is None:
            return None
        index = {w: i for i, w in enumerate(self.words)}
        one = self.field.one
        for i, w in enumerate(self.words):
            if i in self.generator_position:
                continue
            prefix = index.get(w[:-1]) if len(w) > 1 else None
            if (prefix is None or w[-1] not in self.generator_position
                    or self.products[prefix][w[-1]] != [(i, one)]):
                return i
        return None

    def products_onto(self):
        """Per basis element l, the (j, k, c) with c b_l a term of b_j b_k:
        the nonzero structure constants indexed by target, built once."""
        if self._onto is None:
            onto = [[] for _ in range(self.dim)]
            for j, row in enumerate(self.products):
                for k, terms in enumerate(row):
                    for l, c in terms:
                        onto[l].append((j, k, c))
            self._onto = onto
        return self._onto

    def _associator_failure(self):
        """The first triple (g, j, k), g a generator, with
        (b_g b_j) b_k != b_g (b_j b_k), or None.

        Light's test: S = {a : (a y) z = a (y z) for all y, z} is a
        subspace and is closed under products, since for a, b in S,
        ((ab)y)z = (a(by))z = a((by)z) = a(b(yz)) = (ab)(yz).  Every basis
        element is a product of generators (`_generation_failure`), so
        S = A once every generator lies in S.

        Both sides are summed over the nonzero structure constants, one
        generator g at a time, as {(j, k, m): scalar} tables: the left
        from every nonzero b_g b_j = sum c_l b_l and the nonzero rows
        b_l b_k, the right from every nonzero b_g b_l and the pairs
        (j, k) whose product has a b_l term (`products_onto`).  An entry
        absent from one side is zero there.  The tables of one g hold at
        most n^3 entries, and the check stops at the first g that fails.
        """
        f = self.field
        add, mul = f.add, f.mul
        n = self.dim
        products = self.products
        rows = [[(k, terms) for k, terms in enumerate(products[l]) if terms]
                for l in range(n)]
        having = self.products_onto()

        def accumulate(side, j, k, c, terms):
            for m, t in terms:
                t = mul(c, t)
                key = (j, k, m)
                o = side.get(key)
                side[key] = add(o, t) if o else t

        zero = f.zero
        for i in self.generators:
            left, right = {}, {}
            for j in range(n):
                for l, c in products[i][j]:
                    for k, terms in rows[l]:
                        accumulate(left, j, k, c, terms)
            for l, terms in enumerate(products[i]):
                if terms:
                    for j, k, c in having[l]:
                        accumulate(right, j, k, c, terms)
            failing = [key[:2] for key in left.keys() | right.keys()
                       if left.get(key, zero) != right.get(key, zero)]
            if failing:
                return (i,) + min(failing)
        return None

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
        products = self.products
        return all(products[i][j] == products[j][i]
                   for i in range(self.dim) for j in range(i + 1, self.dim))

    # -- radical -----------------------------------------------------------

    def radical(self):
        """Basis of the Jacobson radical plus its nilpotency index.

        Quiver algebras use the arrow ideal, spanned by the basis paths
        of positive length; it is rad exactly when it is nilpotent, that
        is when the relations are admissible, and a ValidationError says
        so otherwise.  Other algebras use the trace-form kernel (char 0)
        or the integral trace chain of Cohen, Ivanyos and Wales (char p).
        The chain A = R_0 > R_1 > ... ends at rad, and every R_i holds
        rad.  It stops at the first R_i that is a nilpotent two-sided
        ideal: a nilpotent ideal lies in rad, so that R_i is rad, and its
        echelon basis is the one the whole chain returns.  The powers
        that prove it nilpotent give the index.
        """
        if self._radical is None:
            powers = None
            arrows = None
            if self.presentation is not None:
                paths = [(i, val) for i, (kind, val) in
                         enumerate(self.presentation.basis_words)
                         if kind == "w"]
                basis = [self.basis_vector(i) for i, _ in paths]
                arrows = [self.basis_vector(i) for i, w in paths
                          if len(w) == 1]
            elif characteristic(self.field) == 0:
                basis = self._radical_trace_form()
            else:
                basis, powers = self._radical_char_p()
            if powers is None:
                powers = self._nilpotent_powers(basis, arrows)
                if powers is None:
                    if self.presentation is not None:
                        raise ValidationError(
                            "relations are not admissible: the arrow ideal "
                            "is not nilpotent in the quotient")
                    raise InternalInvariantError(
                        "radical candidate is not nilpotent")
            index, self._radical_square = powers
            self._radical = (basis, index)
        return self._radical

    def radical_basis(self):
        return self.radical()[0]

    def radical_index(self):
        return self.radical()[1]

    def radical_generators(self):
        """Rows of the radical basis that span rad modulo rad^2.  For
        such a G, rad = A G: rad = G + rad^2 = G + rad G + rad^3 = ...,
        and rad is nilpotent.  So M rad = M G for any right module M."""
        if self._radical_generators is None:
            basis = self.radical_basis()
            self._radical_generators = quotient_basis(
                self.field, basis, self._radical_square, length=self.dim)
        return self._radical_generators

    def ideal_powers(self, basis, generators=None):
        """The descending chain [I, I^2, ..., I^k] of the two-sided ideal
        I spanned by `basis`, each power after the first the echelon basis
        of the products of the one before with `generators`.  These
        default to `basis`; any vectors that generate I as an algebra
        without unit will do, as the arrows generate the arrow ideal, since
        then I^n times them is I^(n+1).  The chain stops at the first
        power that is zero or no smaller than the one before: from there
        on the powers are equal, so I is nilpotent exactly when the last
        power is zero, and otherwise the last power is the stable one."""
        generators = basis if generators is None else generators
        chain = [basis]
        while chain[-1]:
            chain.append(row_space_basis(
                self.field,
                [self.mul(v, w) for v in chain[-1] for w in generators]))
            if len(chain[-1]) == len(chain[-2]):
                break
        return chain

    def _nilpotent_powers(self, basis, generators=None):
        """(k, basis of I^2) for the two-sided ideal I spanned by `basis`
        when I^k = 0 is its first vanishing power, else None; `generators`
        as for `ideal_powers`."""
        chain = self.ideal_powers(basis, generators)
        if chain[-1]:
            return None
        return len(chain), chain[1] if len(chain) > 1 else []

    def _is_two_sided_ideal(self, basis):
        """Whether span(basis) is closed under multiplication by every
        basis element on either side.  In a validated algebra the a with
        I a in I form a subalgebra, and so do those with a I in I:
        closure under the generators on both sides is enough."""
        ech = _Echelon(self.field, self.dim)
        for v in basis:
            ech.insert(v)
        for v in basis:
            for b in self.generators:
                if not (ech.contains(self.times_basis(v, b))
                        and ech.contains(self.basis_times(b, v))):
                    return False
        return True

    def _trace_form(self):
        """[[tr(L_a L_b) for b >= a] for a]: the trace form on the basis,
        read off the structure constants.  X = L_{b_a} has X_kj = c for
        each term (k, c) of b_a b_j, so tr(L_a L_b) = sum_jk X_kj Y_jk; the
        sums are plain (integral for lifts of F_p scalars)."""
        products = self.products
        n = self.dim
        lookup = [[dict(terms) for terms in row] for row in products]
        return [[sum(c * lookup[b][k].get(j, 0)
                     for j, terms in enumerate(products[a])
                     for k, c in terms)
                 for b in range(a, n)] for a in range(n)]

    def _radical_trace_form(self):
        # Dickson: rad = {x : tr(L_x L_y) = 0 for all y}; valid in char 0.
        f = self.field
        n = self.dim
        rows = [[None] * n for _ in range(n)]
        for a, row in enumerate(self._trace_form()):
            for off, tr in enumerate(row):
                rows[a][a + off] = rows[a + off][a] = tr
        m = Mat(f, rows, cols=n)
        return row_space_basis(f, kernel_basis(m))

    def _radical_char_p(self):
        """(rad, its `_nilpotent_powers`) from the descending chain
        R_0 = A, R_i = {x in R_{i-1} : tr((XY)^{p^{i-1}}) = 0 mod p^i for
        all y in R_{i-1}} on integral lifts of the regular representation,
        where R_{l+1} = rad for p^l <= dim < p^{l+1}.  The trace of
        (XY)^q is symmetric in x and y, so only x <= y is computed; at
        q = 1 it is `_trace_form`, read off the structure constants.
        The chain stops early at a nilpotent two-sided ideal (see
        `radical`); the powers are None when it runs to the end."""
        f = self.field
        p = f.p
        n = self.dim
        current = [unit_vec(f, n, i) for i in range(n)]
        level = 0
        while p ** level <= n:
            level += 1
        lifts = None
        for i in range(1, level + 1):
            exponent = p ** (i - 1)
            divisor = exponent     # p^i // p: the trace is 0 mod this
            if exponent == 1:
                # current is the standard basis
                trace = self._trace_form()
            else:
                if lifts is None:
                    # L_{b_a}: entry (k, j) is the b_k-coordinate of b_a b_j
                    lifts = [[[int(x) for x in row] for row in
                              self.left_mult_matrix(self.basis_vector(a)).data]
                             for a in range(n)]
                cur_lifts = [_int_combo(p, lifts, v) for v in current]
                trace = [[_int_trace(_int_mat_pow(
                    _int_mat_mul(x, y), exponent))
                          for y in cur_lifts[a:]]
                         for a, x in enumerate(cur_lifts)]
            size = len(current)
            rows = [[None] * size for _ in range(size)]
            for a in range(size):
                for off, tr in enumerate(trace[a]):
                    if tr % divisor != 0:
                        raise InternalInvariantError(
                            "trace chain divisibility failed")
                    rows[a][a + off] = rows[a + off][a] = (tr // divisor) % p
            m = Mat(f, rows, cols=size)
            new = [_combination(f, coeffs, current, n)
                   for coeffs in kernel_basis(m)]
            current = row_space_basis(f, new)
            if len(current) < n and self._is_two_sided_ideal(current):
                powers = self._nilpotent_powers(current)
                if powers is not None:
                    return current, powers
        return current, None

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
        products = sparse_rows([[project(self.mul(x, y)) for y in reps]
                                for x in reps])
        unit = project(self.unit)
        quot = Algebra(f, labels, products, unit, validate=False)
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
    blocks[0] = row_space_basis(f, blocks[0])
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
            for poly, _ in factors:
                # eigenspace for root -poly[0]/poly[1] (poly is monic
                # linear); op is diagonalizable, as alg is semisimple and
                # every factor is linear, so it is the generalized one
                lam = f.neg(poly[0])
                shifted = Mat(f, [[f.sub(op.data[i][j],
                                         lam if i == j else f.zero)
                                   for j in range(len(block))]
                                  for i in range(len(block))], cols=len(block))
                ker = kernel_basis(shifted.transpose())
                sub = row_space_basis(
                    f, [_combination(f, coeffs, block, alg.dim)
                        for coeffs in ker])
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


def sparse_rows(table):
    """`Algebra.products` from dense rows of normalized coordinates:
    table[i][j] is the coordinate vector of b_i b_j."""
    return [[[(k, c) for k, c in enumerate(v) if c] for v in row]
            for row in table]


def from_structure_constants(field, labels, table, unit, idempotents=None,
                             validate=True):
    """Algebra from a dense table of raw structure constants, normalized."""
    if any(len(v) != len(labels) for row in table for v in row):
        raise ValidationError("structure constant vector length")
    norm = field.normalize
    table = [[[norm(c) for c in v] for v in row] for row in table]
    unit = [norm(c) for c in unit]
    if idempotents:
        idempotents = [[norm(c) for c in e] for e in idempotents]
    return Algebra(field, labels, sparse_rows(table), unit,
                   idempotents=idempotents, validate=validate)


def regular_algebra_of_matrices(field, mats, labels=None):
    """Algebra structure on the span of the given square matrices.

    The span must be unital and multiplicatively closed (e.g. the image
    of an algebra homomorphism).  Returns (Algebra, basis_matrices).
    """
    n = mats[0].rows if mats else 0
    basis_flat = row_space_basis(field, [m.flat() for m in mats])
    basis_mats = [Mat.of_flat(field, row, n, n) for row in basis_flat]
    dim = len(basis_mats)
    span = Span(field, basis_flat, n * n)
    labels = labels or [f"m{i}" for i in range(dim)]
    table = []
    for a in basis_mats:
        row = []
        for b in basis_mats:
            prod = a.mul(b)
            coeffs = span.coords(prod.flat())
            if coeffs is None:
                raise ValidationError("matrix span is not multiplicatively closed")
            row.append(coeffs)
        table.append(row)
    ident = Mat.identity(field, n)
    unit = span.coords(ident.flat())
    if unit is None:
        raise ValidationError("matrix span does not contain the identity")
    alg = Algebra(field, labels, sparse_rows(table), unit, validate=False)
    return alg, basis_mats


def _int_combo(p, lifts, v):
    """sum_k v_k lifts[k] over the integers, v_k read as 0..p-1."""
    n = len(lifts[0])
    out = [[0] * n for _ in range(n)]
    for c, lift in zip(v, lifts):
        c = int(c) % p
        if c == 0:
            continue
        for orow, lrow in zip(out, lift):
            for j, x in enumerate(lrow):
                if x:
                    orow[j] += c * x
    return out


def _int_trace(m):
    return sum(row[d] for d, row in enumerate(m))


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
