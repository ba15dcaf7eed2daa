"""Shared corpus fixtures: the desk-scale algebras exercised everywhere."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from aspec.fields import GF, QQ
from aspec.polyquot import from_poly_quotient
from aspec.quiver import QuiverPresentation, from_quiver


def make_field_k(field=QQ):
    """k itself: one vertex, no arrows."""
    return from_quiver(QuiverPresentation(["1"], []), field=field)


def make_k_times_k(field=QQ):
    return from_quiver(QuiverPresentation(["1", "2"], []), field=field)


def make_dual_numbers(field=QQ):
    """k[x]/(x^2)."""
    return from_poly_quotient(field, ["x"], [{(2,): field.one}])


def make_kx3(field=QQ):
    return from_poly_quotient(field, ["x"], [{(3,): field.one}])


def make_a2(field=QQ):
    return from_quiver(
        QuiverPresentation(["1", "2"], [("a", "1", "2")]), field=field)


def make_a3_zero_rel(field=QQ):
    return from_quiver(
        QuiverPresentation(
            ["1", "2", "3"],
            [("a", "1", "2"), ("b", "2", "3")],
            relations=[[(field.one, ["a", "b"])]]),
        field=field)


def make_split_quadratic(field=QQ):
    """k[x]/(x^2 - x) = k x k with a non-idempotent basis."""
    rel = {(2,): field.one, (1,): field.neg(field.one)}
    return from_poly_quotient(field, ["x"], [rel])


def make_lower_triangular(field=QQ):
    """2x2 lower-triangular matrices on basis (e11, e22, e21)."""
    z = [field.zero] * 3
    one = field.one

    def vec(i):
        v = list(z)
        v[i] = one
        return v

    zero = list(z)
    # e11*e11=e11, e22*e22=e22, e21*e11=e21, e22*e21=e21, rest zero
    # (row convention: table[i][j] = b_i * b_j; e21 maps row 2 to col 1)
    table = [
        [vec(0), zero, zero],
        [zero, vec(1), vec(2)],
        [vec(2), zero, zero],
    ]
    unit = [one, one, field.zero]
    from aspec.algebra import from_structure_constants
    return from_structure_constants(
        field, ["e11", "e22", "e21"], table, unit,
        idempotents=[vec(0), vec(1)])


def corpus(field=QQ):
    """The acceptance corpus in a fixed order."""
    return [
        ("k", make_field_k(field)),
        ("k_x_k", make_k_times_k(field)),
        ("dual_numbers", make_dual_numbers(field)),
        ("kx_cubed", make_kx3(field)),
        ("a2", make_a2(field)),
        ("a3_zero_rel", make_a3_zero_rel(field)),
        ("split_quadratic", make_split_quadratic(field)),
        ("lower_triangular", make_lower_triangular(field)),
    ]


@pytest.fixture
def qq():
    return QQ


@pytest.fixture
def f5():
    return GF(5)


@pytest.fixture
def hull_builds(monkeypatch):
    """The `_HullBuilder`s whose `build` runs during the test, in order.
    (The package re-exports `hull`, which shadows the `aspec.hull`
    submodule attribute, so the module comes from sys.modules.)"""
    builder = sys.modules["aspec.hull"]._HullBuilder
    calls = []
    build = builder.build
    monkeypatch.setattr(builder, "build",
                        lambda self: calls.append(self) or build(self))
    return calls


@pytest.fixture
def resolutions_built(monkeypatch):
    """The arguments of every `Resolution` (a module) and `BarComparison`
    (a resolution) constructed during the test, in order, by class name."""
    from aspec.ext import Resolution
    from aspec.hochschild import BarComparison
    built = {}
    for cls in (Resolution, BarComparison):
        calls = built[cls.__name__] = []

        def counting_init(self, arg, _init=cls.__init__, _calls=calls):
            _calls.append(arg)
            _init(self, arg)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return built


@pytest.fixture
def setup_work(monkeypatch):
    """The Ext setup work done during the test: under "e_v_A" the
    idempotent of every indecomposable projective e_v A built, under
    "mu_cells" the number of cells each bar comparison lifts for mu,
    under "int_mat_products" one entry per integral matrix product the
    char-p radical forms, and under "dense_projective_actions" the
    dimension of every dense action matrix a `ProjectiveModule` builds."""
    import aspec.algebra
    from aspec.ext import ProjectiveModule, _VertexProjective
    from aspec.hochschild import BarComparison
    work = {"e_v_A": [], "mu_cells": [], "int_mat_products": [],
            "dense_projective_actions": []}
    init = _VertexProjective.__init__
    lift = BarComparison._lift_mu
    int_mul = aspec.algebra._int_mat_mul
    act = ProjectiveModule.act

    def counting_init(self, algebra, e):
        work["e_v_A"].append(e)
        init(self, algebra, e)

    def counting_lift(self):
        out = lift(self)
        work["mu_cells"].append(len(out))
        return out

    def counting_int_mul(a, b):
        work["int_mat_products"].append(len(a))
        return int_mul(a, b)

    def counting_act(self, elem):
        work["dense_projective_actions"].append(self.dim)
        return act(self, elem)

    monkeypatch.setattr(_VertexProjective, "__init__", counting_init)
    monkeypatch.setattr(BarComparison, "_lift_mu", counting_lift)
    monkeypatch.setattr(aspec.algebra, "_int_mat_mul", counting_int_mul)
    monkeypatch.setattr(ProjectiveModule, "act", counting_act)
    return work


@pytest.fixture
def field_muls(monkeypatch):
    """One entry per field multiplication (over Q or any F_p) made
    during the test, after the fixture is set up."""
    from aspec.fields import PrimeField, RationalField
    calls = []
    for cls in (RationalField, PrimeField):
        def counting_mul(self, a, b, _mul=cls.mul):
            calls.append(self)
            return _mul(self, a, b)

        monkeypatch.setattr(cls, "mul", counting_mul)
    return calls


@pytest.fixture
def kernel_work(monkeypatch):
    """The matric product and elimination work done during the test:
    under "mats" one entry per `Mat` built (by the constructor or
    `Mat._of`, which `zeros` and `identity` call); under "visits" the
    key of each right-factor term the scalar kernel of `MatricOHat`
    visits, one entry per visited pair of terms; under "spans" the
    vectors of each `Span` built; under "unflattens" the flat vector of
    each `MatricOHat.unflatten` call; under "row_space_bases" the vectors
    of each `row_space_basis` call, wherever it was imported; and under
    "eliminations" the rows of each `rref` and the rows inserted into
    each `_Echelon` (so a `Span` counts too), one list per elimination."""
    import aspec.linalg
    from aspec.hull import MatricOHat
    from aspec.linalg import Mat, Span, _Echelon
    work = {"mats": [], "visits": [], "spans": [], "unflattens": [],
            "row_space_bases": [], "eliminations": []}
    init = Mat.__init__
    of = Mat._of.__func__
    index = MatricOHat._index
    span_init = Span.__init__
    unflatten = MatricOHat.unflatten
    row_space_basis = aspec.linalg.row_space_basis
    rref = aspec.linalg.rref
    echelon_init = _Echelon.__init__
    insert = _Echelon.insert

    class Visited(list):
        def __iter__(self):
            for term in list.__iter__(self):
                work["visits"].append(term[0])
                yield term

    def counting_init(self, *args, **kwargs):
        work["mats"].append(self)
        init(self, *args, **kwargs)

    def counting_of(cls, *args):
        m = of(cls, *args)
        work["mats"].append(m)
        return m

    def visited_index(terms):
        return {i: [(length, Visited(group)) for length, group in groups]
                for i, groups in index(terms).items()}

    def counting_span(self, field, vectors, length):
        work["spans"].append(vectors)
        span_init(self, field, vectors, length)

    def counting_unflatten(self, flat):
        work["unflattens"].append(flat)
        return unflatten(self, flat)

    def counting_row_space_basis(field, vectors):
        work["row_space_bases"].append(vectors)
        return row_space_basis(field, vectors)

    def counting_rref(m):
        work["eliminations"].append(m.data)
        return rref(m)

    def counting_echelon(self, field, ncols):
        echelon_init(self, field, ncols)
        self.inserted = []
        work["eliminations"].append(self.inserted)

    def recording_insert(self, v):
        self.inserted.append(v)
        return insert(self, v)

    monkeypatch.setattr(Mat, "__init__", counting_init)
    monkeypatch.setattr(Mat, "_of", classmethod(counting_of))
    monkeypatch.setattr(MatricOHat, "_index", staticmethod(visited_index))
    monkeypatch.setattr(Span, "__init__", counting_span)
    monkeypatch.setattr(MatricOHat, "unflatten", counting_unflatten)
    monkeypatch.setattr(aspec.linalg, "rref", counting_rref)
    monkeypatch.setattr(_Echelon, "__init__", counting_echelon)
    monkeypatch.setattr(_Echelon, "insert", recording_insert)
    for module in [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "aspec"]:
        if getattr(module, "row_space_basis", None) is row_space_basis:
            monkeypatch.setattr(module, "row_space_basis",
                                counting_row_space_basis)
    return work
