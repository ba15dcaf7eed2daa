"""The space checks of `verify` against their first paths in
`tests/oracles.py`, on the corpus and on the random monomial quivers of
`test_random_corpus` over Q and F_p: section maps solved in a `Span` of
the rho images, the sheaf check over every family of proper opens (the
empty open included, each cover on its own), the closure hull on its own
Ext store, and the roundtrip on the simples of O_X(X) with its own
space.  Also the factoring of `polyquot` against sympy expressions, and
on large inputs against a time limit."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from aspec.errors import InternalInvariantError
from aspec.fields import GF, QQ
from aspec.polyquot import factor_univariate
from aspec.topology import (
    SHEAF_CHECK_MAX_POINTS,
    _space_over_sections,
    _universal_map,
    closure_check,
    global_sections_roundtrip,
    restriction_matrix,
    space_of_simples,
)
from conftest import corpus, make_a2, make_k_times_k
from oracles import (
    closure_check_own_hull,
    cover_verdict_dense,
    factor_univariate_by_expressions,
    restriction_matrix_by_span,
    roundtrip_on_simples,
    sheafify_check_all_covers,
    universal_map_by_span,
)
from test_cli import run_python
from test_random_corpus import FP, over
from test_rewrite import acyclic_quivers


def _matrix_or_error(fn, *args):
    try:
        return fn(*args)
    except InternalInvariantError as exc:
        return str(exc)


def assert_paths_agree(alg):
    """Every restriction, stalk comparison and roundtrip comparison map,
    the sheaf report and the closure and roundtrip reports of the space
    of simples equal those of the first paths."""
    f = alg.field
    space = space_of_simples(alg)
    n = len(space.points)
    opens = space.opens()
    whole = frozenset(range(n))
    pairs = [(space.sections(u), space.sections(v))
             for u in opens for v in opens if u and v <= u]
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            u0 = space.minimal_open_containing(subset)
            pairs.append((space.sections(u0), space.family_o_algebra(subset)))
    for sec_a, sec_b in pairs:
        assert _matrix_or_error(restriction_matrix, alg, sec_a, sec_b) == \
            _matrix_or_error(restriction_matrix_by_span, alg, sec_a, sec_b)
    o = space.sections(whole).o
    assert closure_check(alg, o) == closure_check_own_hull(alg, o)
    assert global_sections_roundtrip(space) == roundtrip_on_simples(space)
    over = _space_over_sections(alg, o, space.order)
    for u in opens:
        sec_g = over.sections(u)
        if not u or sec_g.dim != space.sections(u).dim:
            continue
        res = space.restriction(whole, u).data
        assert _matrix_or_error(
            _universal_map, f, sec_g.o.preimages, sec_g.o.images, res,
            len(res[0]), "comparison map") == _matrix_or_error(
            universal_map_by_span, f, sec_g.o.images, res, sec_g.dim,
            len(res[0]), "comparison map")
    if n <= SHEAF_CHECK_MAX_POINTS:
        assert space.sheafify_check() == sheafify_check_all_covers(space)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_corpus_spaces_agree_with_the_first_paths(field):
    for name, alg in corpus(field):
        assert_paths_agree(alg)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers(fields=(QQ,), monomial=True))
def test_random_spaces_agree_with_the_first_paths(case):
    _, q = case
    for field in (QQ, FP):
        assert_paths_agree(over(field, q))


def test_a_kernel_that_escapes_raises_on_both_paths():
    f = QQ
    one, zero = f.one, f.zero
    # A has basis a_0, a_1; rho_src sends both to the one basis element
    # of O_src, whose preimage is a_0, so a_0 - a_1 spans ker(rho_src);
    # rho_dst is injective
    src = [[one], [one]]
    dst = [[one, zero], [zero, one]]
    with pytest.raises(InternalInvariantError, match="not well defined"):
        _universal_map(f, [[one, zero]], src, dst, 2, "restriction")
    with pytest.raises(InternalInvariantError, match="not well defined"):
        universal_map_by_span(f, src, dst, 1, 2, "restriction")
    # on sections of k x k: O({0}) -> O({0, 1}) would have to send the
    # idempotent of the other point, 0 in O({0}), to a nonzero element
    a = make_k_times_k()
    space = space_of_simples(a)
    small, big = space.sections({0}), space.sections({0, 1})
    for fn in (restriction_matrix, restriction_matrix_by_span):
        with pytest.raises(InternalInvariantError,
                           match="restriction is not well defined"):
            fn(a, small, big)


def test_a2_raw_presheaf_fails_on_both_paths():
    a = make_a2()
    space = space_of_simples(a)
    u, cover = frozenset({0, 1}), [frozenset({0}), frozenset({1})]
    verdict = space.presheaf_is_sheaf_on(u, cover)
    assert not verdict[0]
    assert verdict == cover_verdict_dense(
        a.field, u, cover, lambda s: space.sections(s).dim,
        space.restriction)


def _poly_mul(field, p, q):
    out = [field.zero] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def _random_polys(field, rng, count):
    """Products of random factors of degree 1-3 with multiplicities 1-3,
    times a random nonzero constant; some with zero high coefficients."""
    def scalar():
        if field is QQ:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return field.normalize(rng.randint(0, field.p - 1))

    out = []
    for _ in range(count):
        c = scalar()
        poly = [c if c else field.one]
        for _ in range(rng.randint(0, 3)):
            factor = [scalar() for _ in range(rng.randint(1, 3))] + [field.one]
            for _ in range(rng.randint(1, 3)):
                poly = _poly_mul(field, poly, factor)
        if rng.random() < 0.2:
            poly = poly + [field.zero]
        out.append(poly)
    return out


def _power_product(field, factors):
    out = [field.one]
    for poly, mult in factors:
        for _ in range(mult):
            out = _poly_mul(field, out, poly)
    return out


def _fixed_polys(field):
    one, zero, two = field.one, field.zero, field.of_int(2)
    half = field.div(one, two) if two else one
    fixed = [[], [zero], [field.of_int(3)], [one, two],
             [half, field.of_int(3), zero],
             [zero, field.neg(one), zero, one],
             [zero, zero, field.neg(one), zero, one],
             [one, zero, one],
             [two, zero, zero, field.of_int(3)]]
    if field == QQ:
        # Swinnerton-Dyer polynomials: irreducible, split mod every prime
        fixed += [[1, 0, -10, 0, 1], [576, 0, -960, 0, 352, 0, -40, 0, 1]]
        fixed += [[-1] + [0] * (n - 1) + [1] for n in range(1, 25)]
        fixed += [[-1, 0, 4], [Fraction(-1, 4), 0, 1],
                  _poly_mul(QQ, [-10**12, 1], [Fraction(3, 7), 1])]
    elif field.p < 100:
        # x^p - x, and x^p - 2 = (x - 2)^p, whose derivative is 0
        fixed += [[zero, field.neg(one)] + [zero] * (field.p - 2) + [one],
                  [field.neg(two)] + [zero] * (field.p - 1) + [one]]
    if field == GF(3):
        fixed.append(_power_product(field, [([one, zero, one], 3)]))
    return fixed


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7),
                                   GF(2147483647)], ids=str)
def test_factoring_matches_sympy_expressions(field):
    rng = random.Random(f"factor:{field}")
    for coeffs in _fixed_polys(field) + _random_polys(field, rng, 60):
        factors = factor_univariate(field, coeffs)
        assert factors == factor_univariate_by_expressions(field, coeffs), \
            coeffs
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        if coeffs:
            monic = [field.div(c, coeffs[-1]) for c in coeffs]
            assert _power_product(field, factors) == monic, coeffs


LARGE_FACTORING = """
import sys
from aspec.fields import field_from_name
from aspec.polyquot import factor_univariate
field = field_from_name(sys.argv[1])
for poly, mult in factor_univariate(field, map(field.parse, sys.argv[2:])):
    print(*map(field.format, poly), mult)
"""


def _distinct_linear(field, roots):
    assert len(set(roots)) == len(roots)
    return [([field.neg(r), field.one], 1) for r in roots]


@pytest.mark.parametrize("field, factors", [
    (QQ, _distinct_linear(QQ, [i - 32 + Fraction(i % 5, 7)
                               for i in range(64)])),
    (GF(2147483647), _distinct_linear(GF(2147483647),
                                      [pow(7, i, 2147483647)
                                       for i in range(64)])),
    (QQ, [([576, 0, -960, 0, 352, 0, -40, 0, 1], 1)]),
], ids=["Q-linear-64", "F2147483647-linear-64", "Q-swinnerton-dyer-8"])
def test_large_inputs_factor_within_ten_seconds(field, factors):
    poly = _power_product(field, factors)
    proc = run_python(["-c", LARGE_FACTORING, str(field)] +
                      [field.format(c) for c in poly], timeout=10)
    assert proc.returncode == 0, proc.stderr
    want = sorted(factors, key=lambda t: (len(t[0]), [str(c) for c in t[0]]))
    assert proc.stdout.splitlines() == \
        [" ".join([*map(field.format, g), str(e)]) for g, e in want]
