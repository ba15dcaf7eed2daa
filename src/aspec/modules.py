"""Right modules over an Algebra as explicit matrix representations.

Actions are on row vectors: v * action_of(M, a).  The structure map
eta sends a basis element to its action matrix and must be an algebra
homomorphism for the fixed left-to-right composition convention.
"""

from __future__ import annotations

from .algebra import regular_algebra_of_matrices
from .errors import (
    InternalInvariantError,
    UnsupportedAlgebraError,
    ValidationError,
)
from .linalg import (
    Mat,
    Span,
    _Echelon,
    kernel_basis,
    quotient_basis,
    rank,
    row_space_basis,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)


class ModuleRep:
    """Right A-module: one dim x dim action matrix per algebra basis element."""

    def __init__(self, algebra, action_matrices, name="M", validate=True):
        self.algebra = algebra
        self.name = name
        self.action = [m if isinstance(m, Mat) else
                       Mat(algebra.field, m) for m in action_matrices]
        if len(self.action) != algebra.dim:
            raise ValidationError(
                f"module {name!r}: need one action matrix per basis element")
        dims = {(m.rows, m.cols) for m in self.action}
        if len(dims) > 1:
            raise ValidationError(f"module {name!r}: action matrices differ in shape")
        rows, cols = dims.pop() if dims else (0, 0)
        if rows != cols:
            raise ValidationError(f"module {name!r}: action matrices not square")
        self.dim = rows
        if validate:
            self.validate()

    def validate(self):
        A = self.algebra
        f = A.field
        ident = Mat.identity(f, self.dim)
        if self.act(A.unit) != ident:
            raise ValidationError(f"module {self.name!r}: 1 does not act as identity")
        for i in range(A.dim):
            for j in range(A.dim):
                left = self.action[i].mul(self.action[j])
                right = self.act(A.table[i][j])
                if left != right:
                    raise ValidationError(
                        f"module {self.name!r}: eta(b_i)eta(b_j) != eta(b_i b_j) "
                        f"for ({A.labels[i]}, {A.labels[j]})")

    def act(self, elem):
        """Action matrix of a coordinate vector over the algebra basis."""
        f = self.algebra.field
        out = Mat.zeros(f, self.dim, self.dim)
        for c, m in zip(elem, self.action):
            if not f.is_zero(c):
                out = out.add(m.scale(c))
        return out

    def apply(self, v, elem):
        return self.act(elem).transpose().apply_col(list(v))

    def spin(self, vectors):
        """Submodule (row-span basis) generated by the given vectors."""
        f = self.algebra.field
        ech = _Echelon(f, self.dim)
        queue = []
        for v in vectors:
            if ech.insert(v) is not None:
                queue.append(list(v))
        while queue:
            v = queue.pop()
            for bm in self.action:
                w = bm.transpose().apply_col(v)
                if ech.insert(w) is not None:
                    queue.append(w)
        return list(ech.rows)

    def __repr__(self):
        return f"ModuleRep({self.name}, dim={self.dim})"


def action_of(module, elem):
    """Matrix of the action of an algebra element (coordinate vector)."""
    return module.act(elem)


def regular_module(algebra, name=None):
    """A as a right module over itself."""
    mats = [algebra.right_mult_matrix(algebra.basis_vector(i))
            for i in range(algebra.dim)]
    return ModuleRep(algebra, mats, name=name or "A", validate=False)


class QuotientModuleRep(ModuleRep):
    """Quotient of an ambient module by a submodule row-span."""

    def __init__(self, ambient, sub_rows, name="Q"):
        A = ambient.algebra
        f = A.field
        self.ambient = ambient
        std = [unit_vec(f, ambient.dim, i) for i in range(ambient.dim)]
        self.rep_rows = quotient_basis(f, std, sub_rows, length=ambient.dim)
        # rep_rows are independent modulo sub_rows, so their coordinates
        # are those of the class
        self._span = Span(f, self.rep_rows + [list(v) for v in sub_rows],
                          ambient.dim)
        mats = []
        for i in range(A.dim):
            act = ambient.action[i]
            rows = []
            for v in self.rep_rows:
                w = act.transpose().apply_col(v)
                rows.append(self.project(w))
            mats.append(Mat(f, rows, cols=len(self.rep_rows)))
        super().__init__(A, mats, name=name, validate=False)

    def project(self, v):
        coeffs = self._span.coords(v)
        if coeffs is None:
            raise InternalInvariantError("quotient projection failed")
        return coeffs[:len(self.rep_rows)]


def simple_modules(algebra):
    """The one-dimensional vertex simples of a basic split algebra.

    One simple per primitive idempotent, in idempotent order; e_i acts
    as 1, the radical and the other idempotents act as 0.
    """
    f = algebra.field
    idems = algebra.ensure_idempotents()
    quot, project, reps = algebra.semisimple_quotient()
    if len(idems) != quot.dim:
        raise UnsupportedAlgebraError(
            "semisimple quotient is not k^r; algebra is not basic split")
    rad = algebra.radical_basis()
    out = []
    for i, e in enumerate(idems):
        # e_i A e_i = k e_i + (rad part): the scalar through which basis
        # element b acts on the i-th simple is the e_i-coordinate of
        # e_i * b * e_i
        span = Span(f, [e] + rad, algebra.dim)
        mats = []
        for b in range(algebra.dim):
            x = algebra.mul(algebra.mul(e, algebra.basis_vector(b)), e)
            coeffs = span.coords(x)
            if coeffs is None:
                raise InternalInvariantError(
                    f"e_{i + 1} * {algebra.labels[b]} * e_{i + 1} is not in "
                    "k e + rad")
            mats.append(Mat(f, [[coeffs[0]]], cols=1))
        out.append(ModuleRep(algebra, mats, name=f"S{i + 1}", validate=True))
    return out


def image_algebra(module):
    """The image eta(A) inside End_k(M) as an abstract Algebra.

    Returns (Algebra, basis_matrices); faithful by construction.
    """
    return regular_algebra_of_matrices(module.algebra.field, module.action)


def hom_A(m, n):
    """Basis of A-linear maps m -> n, as dim(m) x dim(n) matrices F
    with X_b^m F = F X_b^n for every basis element b."""
    if m.algebra is not n.algebra and m.algebra != n.algebra:
        raise ValidationError("hom_A needs modules over the same algebra")
    f = m.algebra.field
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return []
    rows = []
    for b in range(m.algebra.dim):
        Xm = m.action[b]
        Xn = n.action[b]
        # condition Xm F - F Xn = 0, unknowns F (dm*dn), row per (i,j)
        for i in range(dm):
            for j in range(dn):
                row = [f.zero] * (dm * dn)
                for k in range(dm):
                    row[k * dn + j] = f.add(row[k * dn + j], Xm.data[i][k])
                for k in range(dn):
                    row[i * dn + k] = f.sub(row[i * dn + k], Xn.data[k][j])
                rows.append(row)
    mat = Mat(f, rows, cols=dm * dn)
    out = []
    for v in kernel_basis(mat):
        out.append(Mat(f, [v[i * dn:(i + 1) * dn] for i in range(dm)], cols=dn))
    return out


def is_isomorphic(m, n):
    """Module isomorphism test (complete for semisimple summand scope)."""
    if m.dim != n.dim:
        return False
    if m.dim == 0:
        return True
    homs = hom_A(m, n)
    if not homs:
        return False
    f = m.algebra.field
    # search small combinations for an invertible hom
    candidates = list(homs)
    for i in range(len(homs)):
        for j in range(i + 1, len(homs)):
            candidates.append(homs[i].add(homs[j]))
    for h in candidates:
        if rank(h) == m.dim:
            return True
    # simples: any nonzero hom between simples is invertible
    if is_simple(m) and is_simple(n):
        return True
    return False


def is_simple(module):
    """No proper nonzero submodule.

    Decided exactly: radical of the image algebra gives a witness
    submodule when nonzero; in the semisimple case the split Schur
    criterion (dim End = 1) and the commutative field case decide.
    Also asserts the sufficient criterion: eta surjective => simple.
    """
    if module.dim == 0:
        return False
    if module.dim == 1:
        return True
    f = module.algebra.field
    lam, lam_mats = image_algebra(module)
    eta_surjective = lam.dim == module.dim * module.dim

    result = _is_simple_core(module, lam, lam_mats)
    if eta_surjective and not result:
        raise InternalInvariantError(
            "eta surjective but simplicity test failed")
    return result


def _is_simple_core(module, lam, lam_mats):
    f = module.algebra.field
    rad = lam.radical_basis()
    if rad:
        # M * rad is a proper nonzero submodule (faithful action, Nakayama)
        vecs = []
        for coeffs in rad:
            mat = Mat.zeros(f, module.dim, module.dim)
            for c, bm in zip(coeffs, lam_mats):
                if not f.is_zero(c):
                    mat = mat.add(bm.scale(c))
            vecs.extend(mat.transpose().data)
        span = row_space_basis(f, vecs, length=module.dim)
        if not span:
            raise InternalInvariantError("radical of faithful image acts by zero")
        if len(span) == module.dim:
            raise InternalInvariantError("M*rad(image) is all of M")
        return False
    # semisimple image algebra
    ends = hom_A(module, module)
    if len(ends) == 1:
        return True
    if lam.is_commutative():
        # faithful module over a commutative field: simple iff dims agree
        return lam.dim == module.dim and is_field(lam)
    # noncommutative semisimple image with dim End > 1
    end_alg, _ = regular_algebra_of_matrices(f, ends)
    if end_alg.is_commutative():
        return True  # End is a (commutative) division algebra: multiplicity 1
    raise UnsupportedAlgebraError(
        "simplicity undecidable in this scope: semisimple image with "
        "noncommutative endomorphism algebra")


def is_field(alg):
    """Is this commutative semisimple algebra a field?

    char p: Berlekamp's count (dim of the Frobenius-fixed subspace is
    the number of factors).  char 0: deterministic primitive-element
    search along a Vandermonde line, then irreducibility of its minimal
    polynomial.
    """
    from .fields import characteristic
    from .polyquot import factor_univariate, min_poly_of_matrix

    f = alg.field
    if alg.dim == 1:
        return True
    if not alg.is_commutative():
        raise UnsupportedAlgebraError("is_field needs a commutative algebra")
    p = characteristic(f)
    if p:
        rows = []
        for i in range(alg.dim):
            xp = alg.power(alg.basis_vector(i), p)
            # row of (x^p - x) on basis vectors
            rows.append([f.sub(a, f.one if j == i else f.zero)
                         for j, a in enumerate(xp)])
        fixed = kernel_basis(Mat(f, rows, cols=alg.dim).transpose())
        return len(fixed) == 1
    bound = alg.dim * alg.dim * (alg.dim - 1) // 2 + 2
    for t in range(bound):
        theta = zero_vec(f, alg.dim)
        power = f.one
        for i in range(alg.dim):
            theta = vec_add(f, theta, vec_scale(f, power, alg.basis_vector(i)))
            power = f.mul(power, f.of_int(t))
        mp = min_poly_of_matrix(alg.left_mult_matrix(theta))
        if len(mp) - 1 == alg.dim:
            factors = factor_univariate(f, mp)
            return len(factors) == 1 and factors[0][1] == 1
    raise InternalInvariantError("no primitive element found (char 0 etale)")


class SpectralPoint:
    """A point of aSpec: a module plus how it was obtained."""

    def __init__(self, module, provenance="user-declared", witness=None,
                 name=None):
        self.module = module
        self.provenance = provenance
        self.witness = witness
        self.name = name or module.name

    def __repr__(self):
        return f"SpectralPoint({self.name}, {self.provenance})"


def check_algebra_map(f_map, source, target):
    """Verify a k-linear map (matrix source.dim x target.dim, row
    convention: image of basis_i is row i) is a unital homomorphism."""
    f = source.field
    if f != target.field:
        raise ValidationError("algebra map across different fields")
    def apply(x):
        out = zero_vec(f, target.dim)
        for c, row in zip(x, f_map):
            if not f.is_zero(c):
                out = vec_add(f, out, vec_scale(f, c, row))
        return out
    if apply(source.unit) != target.unit:
        raise ValidationError("map does not preserve 1")
    for i in range(source.dim):
        for j in range(source.dim):
            lhs = apply(source.table[i][j])
            rhs = target.mul(apply(source.basis_vector(i)),
                             apply(source.basis_vector(j)))
            if lhs != rhs:
                raise ValidationError(
                    "not an algebra homomorphism; fails on basis pair "
                    f"({source.labels[i]}, {source.labels[j]})")
    return apply


def is_local(algebra):
    """Local = the quotient by the radical is a division algebra.

    In scope: the quotient is k (split) or a commutative field
    extension; noncommutative division quotients raise."""
    quot, _, _ = algebra.semisimple_quotient()
    if quot.dim == 1:
        return True
    if quot.is_commutative():
        return is_field(quot)
    raise UnsupportedAlgebraError(
        "locality undecidable: noncommutative semisimple quotient")


def verify_spectral_witness(point, source):
    """Re-check a contraction point's stored witness: the map is a
    homomorphism to a local algebra and re-running the contraction gives
    an isomorphic module."""
    if point.provenance != "contraction" or not point.witness:
        raise ValidationError("point carries no contraction witness")
    wit = point.witness
    redone = contraction(wit["map"], source, wit["target"])
    return is_isomorphic(redone.module, point.module)


def contraction(f_map, source, local_target, name=None):
    """Contraction of the unique simple of a local algebra along a map.

    f_map: rows = images of source basis vectors in local_target.
    Returns a SpectralPoint for A/p with p = ker(A -> B/rad B).
    """
    if not is_local(local_target):
        raise ValidationError("target algebra is not local")
    apply = check_algebra_map(f_map, source, local_target)
    f = source.field
    rad = local_target.radical_basis()
    ech = _Echelon(f, local_target.dim)
    for v in rad:
        ech.insert(v)
    # p = preimage of rad(B): kernel of x -> (f(x) mod rad)
    rows = []
    for i in range(source.dim):
        img = ech.reduce(apply(source.basis_vector(i)))
        rows.append(img)
    mat = Mat(f, [[rows[i][j] for j in range(local_target.dim)]
                  for i in range(source.dim)], cols=local_target.dim)
    ker = kernel_basis(mat.transpose())
    reg = regular_module(source)
    quot = QuotientModuleRep(reg, ker, name=name or "Mc")
    return SpectralPoint(quot, provenance="contraction",
                         witness={"map": f_map, "target": local_target},
                         name=name or "Mc")
