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
from .fields import characteristic
from .linalg import (
    Mat,
    Span,
    _Echelon,
    _combination,
    kernel_basis,
    quotient_basis,
    rank,
    row_space_basis,
    unit_vec,
)
from .polyquot import factor_univariate, min_poly_of_matrix


class ModuleRep:
    """Right A-module: one dim x dim action matrix per algebra basis element."""

    _killed_by_radical = None     # set by killed_by_radical

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
        # per basis element, the nonzero entries of its action matrix as
        # {row: [(column, x), ...]}, for act and apply
        self._entries = [{i: [(j, x) for j, x in enumerate(row) if x]
                          for i, row in enumerate(m.data) if any(row)}
                         for m in self.action]
        if validate:
            self.validate()

    def validate(self):
        """Check that 1 acts as the identity and that
        eta(b_g)eta(b_j) = eta(b_g b_j) for every generator g; the error
        names the first failing pair with a generator first.

        Light's test: T = {a : eta(a)eta(b) = eta(ab) for all b} is a
        subspace, and closed under products since A and the matrices are
        associative, so T = A once it holds the generators.  The check
        costs the nonzero actions and structure constants, not n^2
        matrix products: a pair is compared only where both actions are
        nonzero or b_g b_j has a term with a nonzero action, since both
        sides vanish on every other pair.
        """
        A = self.algebra
        f = A.field
        ident = Mat.identity(f, self.dim)
        if self.act(A.unit) != ident:
            raise ValidationError(f"module {self.name!r}: 1 does not act as identity")
        entries = self._entries
        first = A.generator_position
        acting = [i for i, e in enumerate(entries) if e]
        pairs = {(i, j) for i in acting if i in first for j in acting}
        onto = A.products_onto()
        pairs.update((i, j) for l in acting for i, j, _ in onto[l]
                     if i in first)
        zero = Mat.zeros(f, self.dim, self.dim)
        for i, j in sorted(pairs, key=lambda ij: (first[ij[0]], ij[1])):
            left = (self.action[i].mul(self.action[j])
                    if entries[i] and entries[j] else zero)
            if left != self.act(A.basis_times(i, A.basis_vector(j))):
                raise ValidationError(
                    f"module {self.name!r}: eta(b_i)eta(b_j) != eta(b_i b_j) "
                    f"for ({A.labels[i]}, {A.labels[j]})")

    def act(self, elem):
        """Action matrix of a coordinate vector over the algebra basis."""
        f = self.algebra.field
        add, mul = f.add, f.mul
        out = Mat.zeros(f, self.dim, self.dim)
        rows = out.data
        for c, entries in zip(elem, self._entries):
            if c:
                for i, entry_row in entries.items():
                    row = rows[i]
                    for j, x in entry_row:
                        t = mul(c, x)
                        o = row[j]
                        row[j] = add(o, t) if o else t
        return out

    def apply(self, v, elem):
        """The row v.elem, for a row v of the module and a coordinate
        vector over the algebra basis, read off the nonzero entries of
        the actions without building act(elem)."""
        f = self.algebra.field
        add, mul = f.add, f.mul
        out = [f.zero] * self.dim
        support = [(i, x) for i, x in enumerate(v) if x]
        for c, entries in zip(elem, self._entries):
            if not c:
                continue
            for i, x in support:
                entry_row = entries.get(i)
                if entry_row:
                    cx = mul(c, x)
                    for j, y in entry_row:
                        t = mul(cx, y)
                        o = out[j]
                        out[j] = add(o, t) if o else t
        return out

    def killed_by_radical(self):
        """Whether M rad = 0, decided once per module: rad = A G for the
        radical generators G, so M rad = M G is 0 exactly when every g in
        G acts by 0."""
        if self._killed_by_radical is None:
            self._killed_by_radical = all(
                self.act(g).is_zero()
                for g in self.algebra.radical_generators())
        return self._killed_by_radical

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
        for act in ambient.action:
            rows = [self.project(act.apply_row(v)) for v in self.rep_rows]
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
    rad = algebra.radical_basis()
    if len(idems) != algebra.dim - len(rad):
        raise UnsupportedAlgebraError(
            "semisimple quotient is not k^r; algebra is not basic split")
    # A = (+) k e_i (+) rad, and e_i b e_i = c_i e_i + e_i r e_i for
    # b = sum_j c_j e_j + r: so b acts on S_i by its e_i-coordinate c_i
    span = Span(f, idems + rad, algebra.dim)
    coords = [span.coords(algebra.basis_vector(b))
              for b in range(algebra.dim)]
    if None in coords:
        raise InternalInvariantError(
            "the idempotents and the radical do not span the algebra")
    return [ModuleRep(algebra, [Mat(f, [[c[i]]], cols=1) for c in coords],
                      name=f"S{i + 1}", validate=True)
            for i in range(len(idems))]


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
                for k, x in enumerate(Xm.data[i]):
                    if x:
                        row[k * dn + j] = f.add(row[k * dn + j], x)
                for k in range(dn):
                    x = Xn.data[k][j]
                    if x:
                        row[i * dn + k] = f.sub(row[i * dn + k], x)
                rows.append(row)
    mat = Mat(f, rows, cols=dm * dn)
    return [Mat.of_flat(f, v, dm, dn) for v in kernel_basis(mat)]


def is_isomorphic(m, n):
    """Module isomorphism test: an invertible hom among the basis homs
    and their pairwise sums proves it; without one, it is exact when
    both modules are semisimple (killed by the radical) and False
    otherwise.  For M = sum a_i S_i and N = sum b_i S_i with
    d_i = dim End S_i, dim End M - 2 dim Hom(M, N) + dim End N =
    sum d_i (a_i - b_i)^2, so M = N exactly when the three agree."""
    if m.dim != n.dim:
        return False
    if m.dim == 0:
        return True
    homs = hom_A(m, n)
    if not homs:
        return False
    # search small combinations for an invertible hom
    candidates = list(homs)
    for i in range(len(homs)):
        for j in range(i + 1, len(homs)):
            candidates.append(homs[i].add(homs[j]))
    for h in candidates:
        if rank(h) == m.dim:
            return True
    return m.killed_by_radical() and n.killed_by_radical() and \
        len(hom_A(m, m)) == len(homs) == len(hom_A(n, n))


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
        span = row_space_basis(f, vecs)
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
        theta = [f.of_int(t ** i) for i in range(alg.dim)]
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
    convention: image of basis_i is row i) is a unital homomorphism; the
    error names the first failing pair with a generator first."""
    f = source.field
    if f != target.field:
        raise ValidationError("algebra map across different fields")
    def apply(x):
        return _combination(f, x, f_map, target.dim)
    if apply(source.unit) != target.unit:
        raise ValidationError("map does not preserve 1")
    # Light's test: the a with f(ab) = f(a)f(b) for all b form a subspace
    # closed under products, so the generators of the source suffice
    for i in source.generators:
        for j in range(source.dim):
            lhs = apply(source.basis_times(i, source.basis_vector(j)))
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
