"""The symbolic k[x] path: point modules, jets, and their hulls.

k[x] is the one infinite-dimensional algebra supported.  Its spectral
points are user-supplied scalars a (the modules k[x]/(x - a)); hulls of
families of distinct points are free on one diagonal generator per
point, and O^A is the product of truncated localizations, realized as
jet expansions via exact Taylor shifts.  The jets are elements of the
hull's matric algebra `MatricOHat` with every block 1x1, so they share
its arithmetic.
"""

from __future__ import annotations

from .algebra import Algebra, sparse_rows
from .errors import InputError, InternalInvariantError, ValidationError
from .hull import HullTower, MatricOHat, RPointedAlgebra
from .linalg import Mat, row_space_basis


def poly_order(order):
    """The truncation order of k[x] jets: `order`, or 4 when none is
    given (k[x] has no radical index to take a default from)."""
    return 4 if order is None else order


class PolynomialRing:
    """k[x]; elements are coefficient lists, low degree first."""

    is_poly_ring = True

    def __init__(self, field, var="x"):
        self.field = field
        self.var = var

    def normalize(self, coeffs):
        f = self.field
        out = [f.normalize(c) for c in coeffs]
        while out and f.is_zero(out[-1]):
            out.pop()
        return out

    def mul(self, p, q):
        f = self.field
        out = [f.zero] * (len(p) + len(q) + 1)
        for i, a in enumerate(p):
            if f.is_zero(a):
                continue
            for j, b in enumerate(q):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return self.normalize(out)

    def evaluate(self, p, a):
        f = self.field
        acc = f.zero
        for c in reversed(list(p)):
            acc = f.add(f.mul(acc, a), c)
        return acc

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and \
            other.field == self.field and other.var == self.var

    def __hash__(self):
        return hash(("polyring", self.field, self.var))

    def __repr__(self):
        return f"{self.field}[{self.var}]"


def is_poly_ring(algebra):
    return getattr(algebra, "is_poly_ring", False)


class PointModule:
    """k[x]/(x - a): the one-dimensional module at the point a."""

    def __init__(self, ring, a, name=None):
        self.ring = ring
        self.algebra = ring
        self.point = ring.field.normalize(a)
        self.dim = 1
        self.name = name or f"M({ring.field.format(self.point)})"

    def act(self, coeffs):
        return Mat(self.ring.field, [[self.ring.evaluate(coeffs, self.point)]])

    def __repr__(self):
        return f"PointModule({self.name})"


def taylor_shift(field, coeffs, a):
    """Coefficients of p(a + t) as a polynomial in t, by iterated
    synthetic division by (x - a); exact in any characteristic."""
    work = [field.normalize(c) for c in coeffs]
    out = []
    while work:
        rem = field.zero
        quot_rev = []
        for c in reversed(work):
            rem = field.add(c, field.mul(rem, a))
            quot_rev.append(rem)
        out.append(quot_rev[-1])
        work = list(reversed(quot_rev[:-1]))
    return out


def ext_point_modules(ma, mb, degree):
    """dim Ext^degree(M_a, M_b) for degree >= 1: k[x] is hereditary, so
    Ext^2 = 0, and Ext^1(M_a, M_b) = k exactly when a = b."""
    return int(degree == 1 and ma.point == mb.point)


class PolyMatricOHat(MatricOHat):
    """The jets at distinct points: the matric algebra, with 1x1 blocks,
    of the free hull on one loop t_i per point, and the jet map
    rho_of_poly."""

    def __init__(self, ring, points, order):
        if order < 2:
            raise InputError("truncation order must be >= 2")
        seen = set()
        for p in points:
            if p.point in seen:
                raise ValidationError("points of the family must be distinct")
            seen.add(p.point)
        gens = [(f"t{i + 1}", i, i) for i in range(len(points))]
        super().__init__(RPointedAlgebra(ring.field, len(points), gens,
                                         order, []))
        self.ring = ring
        self.points = list(points)

    def rho_of_poly(self, coeffs):
        f = self.field
        out = {}
        for i, pt in enumerate(self.points):
            jet = taylor_shift(f, coeffs, pt.point)
            jet = jet[:self.order + 1]
            if jet and not f.is_zero(jet[0]):
                out[("e", i)] = Mat(f, [[jet[0]]])
            for s, c in enumerate(jet[1:], start=1):
                if not f.is_zero(c):
                    out[("m", (i,) * s)] = Mat(f, [[c]])
        return out


class PolyOAlgebra:
    """O^{k[x]}(points) = product of truncated localizations k[t]/(t^{N+1}).

    Basis keys in order: for each point i, 1_i, t_i, ..., t_i^N.
    The jet map is verified surjective (distinct points), so O = im(rho).
    """

    def __init__(self, ring, points, order):
        self.ohat = PolyMatricOHat(ring, points, order)
        self.ring = ring
        self.field = ring.field
        self.points = list(points)
        self.order = order
        self.dim = len(points) * (order + 1)
        self._verify_surjective()

    def _key_of_index(self, idx):
        i, s = divmod(idx, self.order + 1)
        return ("e", i) if s == 0 else ("m", (i,) * s)

    def flatten(self, elem):
        f = self.field
        out = []
        for idx in range(self.dim):
            m = elem.get(self._key_of_index(idx))
            out.append(m.data[0][0] if m is not None else f.zero)
        return out

    def _verify_surjective(self):
        f = self.field
        rows = []
        coeffs = [f.one]
        for _ in range(self.dim):
            rows.append(self.flatten(self.ohat.rho_of_poly(coeffs)))
            coeffs = [f.zero] + coeffs
        if len(row_space_basis(f, rows)) != self.dim:
            raise InternalInvariantError(
                "jet map is not surjective onto the product of localizations")

    def rho_coords(self, coeffs):
        return self.flatten(self.ohat.rho_of_poly(coeffs))

    def basis_elements(self):
        out = []
        for idx in range(self.dim):
            key = self._key_of_index(idx)
            out.append({key: Mat.identity(self.field, 1)})
        return out

    def coords_of(self, elem):
        return self.flatten(elem)

    def as_algebra(self):
        f = self.field
        labels = []
        for i in range(len(self.points)):
            labels.append(f"one_{i + 1}")
            for s in range(1, self.order + 1):
                labels.append(f"t{i + 1}^{s}")
        elems = self.basis_elements()
        table = [[self.flatten(self.ohat.mul(x, y)) for y in elems]
                 for x in elems]
        unit = self.flatten(self.ohat.one())
        idems = []
        for i in range(len(self.points)):
            v = [f.zero] * self.dim
            v[i * (self.order + 1)] = f.one
            idems.append(v)
        return Algebra(f, labels, sparse_rows(table), unit,
                       idempotents=idems, validate=False)


def hull_poly_ring(ring, points, order):
    """Free tower, jets, and the product O for a family of point modules."""
    ohat = PolyMatricOHat(ring, points, order)
    tower = HullTower(ohat.hull)
    tower.stabilized = True
    tower.new_relations_by_stage = {n: [] for n in range(2, order + 1)}
    return tower, ohat
