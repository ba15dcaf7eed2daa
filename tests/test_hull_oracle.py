"""Hull oracle equivalence at test scale: gauge classes of brute-force
liftings versus r-pointed morphisms counted from the presentation."""

import pytest

from aspec.fields import GF
from aspec.hull import RPointedAlgebra, hull
from aspec.modules import simple_modules
from conftest import corpus
from oracles import (
    E12_OBJECT,
    T2_OBJECT,
    T3_OBJECT,
    count_lift_gauge_classes,
    enumerate_pointed_morphisms,
)

P = 5
F5 = GF(P)


def target_algebra(spec):
    if spec is T2_OBJECT:
        return RPointedAlgebra(F5, 1, [("t", 0, 0)], 2, [{(0, 0): F5.one}])
    if spec is T3_OBJECT:
        return RPointedAlgebra(F5, 1, [("t", 0, 0)], 3, [{(0, 0, 0): F5.one}])
    return RPointedAlgebra(F5, 2, [("eps", 0, 1)], 2, [])


def eta_scalars(module, dim):
    return [int(module.action[b].data[0][0]) % P for b in range(dim)]


def check_family(alg, family, spec, order):
    tower, _ = hull(alg, family, order)
    target = target_algebra(spec)
    morphisms = enumerate_pointed_morphisms(tower.final, target)
    etas = [eta_scalars(m, alg.dim) for m in family]
    classes = count_lift_gauge_classes(alg, etas, spec, P)
    assert len(morphisms) == classes


@pytest.mark.parametrize("name", [n for n, _ in corpus()])
def test_single_module_families_t2_t3(name):
    alg = dict(corpus(F5))[name]
    simples = simple_modules(alg)
    order = max(3, alg.radical_index() + 1)
    for s in simples:
        check_family(alg, [s], T2_OBJECT, order)
        check_family(alg, [s], T3_OBJECT, order)


@pytest.mark.parametrize("name", ["k_x_k", "a2", "a3_zero_rel",
                                  "split_quadratic", "lower_triangular"])
def test_pair_families_two_pointed(name):
    alg = dict(corpus(F5))[name]
    simples = simple_modules(alg)
    order = max(3, alg.radical_index() + 1)
    for i in range(len(simples)):
        for j in range(len(simples)):
            if i == j:
                continue
            check_family(alg, [simples[i], simples[j]], E12_OBJECT, order)
