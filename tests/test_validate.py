"""The validity checks of algebras and modules against the dense loops of
`tests/oracles.py`.  `Algebra.validate` and `ModuleRep.validate` read only
the nonzero structure constants and actions; on the corpus and on random
acyclic quivers, over Q and F5, perturbed so that associativity or
multiplicativity fails, they must reject the same inputs with the same
message as the dense loops.  Their work is bounded by the nonzero
structure constants, counted, not timed."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.algebra import Algebra, from_structure_constants
from aspec.errors import ValidationError
from aspec.fields import GF, QQ
from aspec.linalg import Mat, Span
from aspec.modules import ModuleRep, regular_module, simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import QuiverPresentation, from_quiver
from conftest import corpus
from oracles import (
    algebra_validate_dense,
    dense_table,
    module_validate_dense,
)
from test_rewrite import acyclic_quivers

F5 = GF(5)


def verdict(check, obj):
    """The ValidationError message check(obj) raises, or None."""
    try:
        check(obj)
    except ValidationError as exc:
        return str(exc)
    return None


def radical_indices(alg):
    span = Span(alg.field, alg.radical_basis(), alg.dim)
    return [i for i in range(alg.dim)
            if span.coords(alg.basis_vector(i)) is not None]


def perturbed_algebra(alg, r, s, m, c):
    """alg with c * b_m added to the product b_r b_s, unvalidated."""
    f = alg.field
    table = dense_table(alg)
    table[r][s][m] = f.add(table[r][s][m], c)
    return from_structure_constants(f, alg.labels, table, alg.unit,
                                    idempotents=alg.idempotents,
                                    validate=False)


def perturbed_module(mod, b, r, c, x):
    """mod with x added to entry (r, c) of the action of b_b, unvalidated."""
    f = mod.algebra.field
    mats = [[list(row) for row in m.data] for m in mod.action]
    mats[b][r][c] = f.add(mats[b][r][c], x)
    return ModuleRep(mod.algebra, [Mat(f, m) for m in mats], name=mod.name,
                     validate=False)


def count_rejected(check, dense_check, perturb, obj, perturbations):
    """How many perturb(obj, *args) the checks reject; both checks give
    the same verdict on each."""
    rejected = 0
    for args in perturbations:
        bad = perturb(obj, *args)
        want = verdict(dense_check, bad)
        assert verdict(check, bad) == want, args
        rejected += want is not None
    return rejected


def algebra_rejected(alg, perturbations):
    return count_rejected(Algebra.validate, algebra_validate_dense,
                          perturbed_algebra, alg, perturbations)


def module_rejected(mod, perturbations):
    return count_rejected(ModuleRep.validate, module_validate_dense,
                          perturbed_module, mod, perturbations)


def modules_of(alg):
    return simple_modules(alg) + [regular_module(alg)]


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_checks_agree_with_the_dense_loops_on_the_perturbed_corpus(field):
    # every product of two radical basis elements moved by +-b_m (over F5,
    # -1 is 4); every action entry of the simples and the regular module
    # moved by 1
    one, minus = field.one, field.neg(field.one)
    rejected = [0, 0]
    for name, alg in corpus(field):
        assert verdict(algebra_validate_dense, alg) is None, name
        assert verdict(Algebra.validate, alg) is None, name
        rad = radical_indices(alg)
        rejected[0] += algebra_rejected(
            alg, [(r, s, m, c) for r in rad for s in rad
                  for m in range(alg.dim) for c in (one, minus)])
        for mod in modules_of(alg):
            assert verdict(ModuleRep.validate, mod) is None, name
            rejected[1] += module_rejected(
                mod, [(b, r, c, one) for b in range(alg.dim)
                      for r in range(mod.dim) for c in range(mod.dim)])
    assert rejected == [72, 261], rejected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers(), st.randoms(use_true_random=False))
def test_checks_agree_with_the_dense_loops_on_perturbed_quivers(case, rng):
    field, q = case
    alg = from_quiver(q, field=field)
    rad = radical_indices(alg)
    coeff = [field.of_int(c) for c in range(1, 5)]
    algebra_rejected(
        alg, [(rng.choice(rad), rng.choice(rad), rng.randrange(alg.dim),
               rng.choice(coeff)) for _ in range(6)])
    for mod in modules_of(alg):
        module_rejected(
            mod, [(rng.randrange(alg.dim), rng.randrange(mod.dim),
                   rng.randrange(mod.dim), rng.choice(coeff))
                  for _ in range(3)])


def path_algebra(n, field=QQ):
    return from_quiver(QuiverPresentation(
        [str(v) for v in range(n)],
        [(f"a{v}", str(v), str(v + 1)) for v in range(n - 1)]),
        field=field)


def test_validate_work_is_bounded_by_the_nonzero_structure_constants(
        monkeypatch):
    # A7: the dense loops made 2 * 28^3 Algebra.mul calls on top of the
    # unit axiom (2 * 28) and the idempotent check (7^2); the sparse
    # associator makes none
    alg = path_algebra(7)
    muls = []
    mul = Algebra.mul
    monkeypatch.setattr(Algebra, "mul",
                        lambda self, x, y: muls.append(1) or mul(self, x, y))
    alg.validate()
    assert alg.dim == 28
    assert len(muls) <= 2 * alg.dim + len(alg.idempotents) ** 2
    monkeypatch.undo()

    mat_muls = []
    mat_mul = Mat.mul
    monkeypatch.setattr(Mat, "mul",
                        lambda self, other: mat_muls.append(1) or
                        mat_mul(self, other))
    for simple in simple_modules(alg):
        mat_muls.clear()
        simple.validate()
        acting = sum(1 for e in simple._entries if e)
        assert len(mat_muls) <= acting ** 2, simple.name


def test_validate_memory_is_bounded_by_one_first_index_at_a_time():
    # a dense local quotient of dim 25 over F5: tables of both sides for
    # every first index at once peaked at 57 MB, one index at a time
    # peaks at 2.5 MB
    alg = from_poly_quotient(F5, ["x", "y"], [
        {(5, 0): 1, (2, 2): 2, (1, 2): 3, (0, 4): 1},
        {(0, 5): 1, (3, 2): 4, (4, 0): 1}])
    assert alg.dim == 25
    tracemalloc.start()
    try:
        alg.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
