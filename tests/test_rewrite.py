"""The rewriting engine against the frame echelon of `tests/oracles.py`:
the reduced words and normal forms of every hull algebra, random relation
sets with tails over several lengths, and the bases and structure
constants of random acyclic quivers.  Polynomial quotients against
sympy's reduced grlex Groebner basis.  The words the leads decide
against the guessed-degree loop of `tests/oracles.py`, wherever that
loop finishes.  Also: the hull's stage loop stops at the first length
with no reduced word."""

import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.errors import InfiniteDimensionalError, InputError
from aspec.fields import GF, QQ
from aspec.hull import RPointedAlgebra, hull
from aspec.modules import simple_modules
from aspec.polyquot import MAX_DEGREE as POLY_MAX_DEGREE
from aspec.polyquot import from_poly_quotient
from aspec.quiver import MAX_DEGREE as QUIVER_MAX_DEGREE
from aspec.quiver import QuiverPresentation, from_quiver
from aspec.rewrite import Rewriter
from conftest import corpus, make_a2
from oracles import FrameEchelon, dense_table, guessed_degree_basis_words
from test_hull_stress import (
    make_a4_zero,
    make_double_loop,
    make_fat_point,
    make_kronecker,
)

F5 = GF(5)
F7 = GF(7)
hull_module = sys.modules["aspec.hull"]

# invertible over Q and over F5 (determinants -1 and 4)
RECOMBINE_4 = [[1, 1, 0, 0], [0, 1, 2, 0], [1, 0, 0, 1], [0, 0, 1, 3]]
RECOMBINE_3 = [[1, 2, 0], [0, 1, 1], [1, 0, 3]]


def make_double_loop_recombined(field=QQ):
    words = [["x", "x"], ["x", "y"], ["y", "x"], ["y", "y"]]
    rels = [[(field.of_int(c), w) for c, w in zip(row, words) if c]
            for row in RECOMBINE_4]
    return from_quiver(QuiverPresentation(
        ["v"], [("x", "v", "v"), ("y", "v", "v")], rels), field=field)


def make_fat_point_recombined(field=QQ):
    monos = [(2, 0), (1, 1), (0, 2)]
    rels = [{m: field.of_int(c) for c, m in zip(row, monos) if c}
            for row in RECOMBINE_3]
    return from_poly_quotient(field, ["x", "y"], rels)


def hull_cases():
    makes = [
        ("double_loop@5", make_double_loop, 5),
        ("double_loop_recombined@5", make_double_loop_recombined, 5),
        ("fat_point@5", make_fat_point, 5),
        ("fat_point_recombined@5", make_fat_point_recombined, 5),
        ("kronecker@3", make_kronecker, 3),
        ("kx^5", lambda field: from_poly_quotient(
            field, ["x"], [{(5,): field.one}]), None),
        ("kx^3@6", lambda field: from_poly_quotient(
            field, ["x"], [{(3,): field.one}]), 6),
        ("a4_zero_at_0", lambda field: make_a4_zero(0, field), None),
        ("a4_zero_at_1", lambda field: make_a4_zero(1, field), None),
    ]
    out = []
    for field in (QQ, F5):
        out += [pytest.param(field, alg, None, id=f"{name}/{field}")
                for name, alg in corpus(field)]
        out += [pytest.param(field, make(field), order, id=f"{name}/{field}")
                for name, make, order in makes]
    return out


def built_algebras(monkeypatch, alg, order):
    """Every RPointedAlgebra that hull() builds on the simples."""
    built = []
    init = RPointedAlgebra.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RPointedAlgebra, "__init__", recording_init)
    hull(alg, simple_modules(alg), order)
    monkeypatch.undo()
    return built


def assert_same_as_oracle(h, rng=None):
    oracle = FrameEchelon(h.field, h.generators, h.order, h.relations)
    assert h.reduced_words == oracle.reduced_words
    for w in oracle.words:
        assert h.rewriter.reduce({w: h.field.one}) == \
            oracle.reduce({w: h.field.one}), w
        assert h.normal_form(w) == oracle.reduce({w: h.field.one}), w
    for _ in range(10 if rng and oracle.words else 0):
        poly = {w: h.field.of_int(rng.randrange(-3, 4))
                for w in rng.sample(oracle.words,
                                    min(5, len(oracle.words)))}
        assert h.rewriter.reduce(poly) == oracle.reduce(poly)


@pytest.mark.parametrize("field, alg, order", hull_cases())
def test_hull_algebras_reduce_as_the_frame_echelon(monkeypatch, field, alg,
                                                   order):
    built = built_algebras(monkeypatch, alg, order)
    assert built
    rng = random.Random(len(built))
    for h in built:
        assert_same_as_oracle(h, rng)


@st.composite
def relation_sets(draw):
    """Generators over one or two blocks and relations whose lowest words
    share a length and whose tails reach over the longer ones, as the
    hull's relations grow stage by stage."""
    field = draw(st.sampled_from([QQ, F5]))
    r = draw(st.integers(1, 2))
    ngens = draw(st.integers(1, 3 if r == 2 else 2))
    gens = [(f"t{g + 1}", draw(st.integers(0, r - 1)),
             draw(st.integers(0, r - 1))) for g in range(ngens)]
    order = draw(st.integers(3, 5))
    words = FrameEchelon(field, gens, order, []).words
    by_block = {}
    for w in words:
        if len(w) >= 2:
            by_block.setdefault(
                (gens[w[0]][1], gens[w[-1]][2]), []).append(w)
    rels = []
    coeff = st.integers(1, 4).map(field.of_int)
    for _ in range(draw(st.integers(1, 3)) if by_block else 0):
        ws = by_block[draw(st.sampled_from(sorted(by_block)))]
        lengths = sorted({len(w) for w in ws})
        low = draw(st.sampled_from(lengths[:-1] or lengths))
        heads = draw(st.lists(st.sampled_from(
            [w for w in ws if len(w) == low]), min_size=1, max_size=3,
            unique=True))
        longer = [w for w in ws if len(w) > low]
        tails = draw(st.lists(st.sampled_from(longer), max_size=4,
                              unique=True)) if longer else []
        rels.append({w: draw(coeff) for w in heads + tails})
    return field, r, gens, order, rels


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relation_sets())
def test_random_relation_sets_reduce_as_the_frame_echelon(case):
    field, r, gens, order, rels = case
    assert_same_as_oracle(RPointedAlgebra(field, r, gens, order, rels))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relation_sets())
def test_truncated_rewriting_never_shortens_a_word(case):
    # the lowest word leads each rule, so every tail word is at least as
    # long as its lead: a hull tower is small by construction
    field, r, gens, order, rels = case
    h = RPointedAlgebra(field, r, gens, order, rels)
    for w in FrameEchelon(field, gens, order, []).words:
        assert all(len(v) >= len(w)
                   for v in h.rewriter.reduce({w: field.one})), w


@st.composite
def acyclic_quivers(draw, fields=(QQ, F5), monomial=False):
    """3 or 4 vertices and up to 6 arrows i -> j with i < j, two of them
    composable, with monomial and commutativity relations on paths of
    length >= 2; with `monomial`, zero relations only (one path each,
    coefficient 1)."""
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(3, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    i, j, k = sorted(draw(st.lists(st.integers(0, n - 1), min_size=3,
                                   max_size=3, unique=True)))
    ends = draw(st.permutations([(i, j), (j, k)] + draw(
        st.lists(st.sampled_from(pairs), max_size=4))))
    arrows = [(f"a{k}", str(i), str(j)) for k, (i, j) in enumerate(ends)]
    paths = []
    layer = [[a] for a in arrows]
    while layer:
        paths += [p for p in layer if len(p) >= 2]
        layer = [p + [a] for p in layer for a in arrows if a[1] == p[-1][2]]
    by_ends = {}
    for p in paths:
        by_ends.setdefault((p[0][1], p[-1][2]), []).append(p)
    rels = []
    coeff = st.just(field.one) if monomial else \
        st.integers(1, 4).map(field.of_int)
    for _ in range(draw(st.integers(1, 3)) if paths else 0):
        parallel = by_ends[draw(st.sampled_from(sorted(by_ends)))]
        terms = draw(st.lists(st.sampled_from(range(len(parallel))),
                              min_size=1, max_size=1 if monomial else 3,
                              unique=True))
        rels.append([(draw(coeff), [a[0] for a in parallel[t]])
                     for t in terms])
    return field, QuiverPresentation([str(i) for i in range(n)], arrows,
                                     rels)


def oracle_quiver_algebra(field, q):
    """Labels and structure constants of the path algebra modulo its
    relations from the frame echelon, the highest word leading; every
    path of an acyclic quiver is shorter than its vertex count."""
    vindex = {v: i for i, v in enumerate(q.vertices)}
    gens = [(name, vindex[s], vindex[t]) for name, s, t in q.arrows]
    rels = []
    for terms in q.relations:
        rel = {}
        for c, path in terms:
            w = q.word_of(path)
            rel[w] = field.add(rel.get(w, field.zero), c)
        rels.append(rel)
    oracle = FrameEchelon(field, gens, len(q.vertices), rels, lowest=False)
    basis = [("e", v) for v in range(len(q.vertices))] + \
        [("w", w) for w in oracle.reduced_words]
    labels = [f"e_{v}" for v in q.vertices] + \
        [".".join(gens[g][0] for g in w) for w in oracle.reduced_words]
    index = {b: k for k, b in enumerate(basis)}

    def ends(b):
        return (b[1], b[1]) if b[0] == "e" else \
            (gens[b[1][0]][1], gens[b[1][-1]][2])

    def product(x, y):
        if ends(x)[1] != ends(y)[0]:
            return {}
        if x[0] == "e":
            return {y: field.one}
        if y[0] == "e":
            return {x: field.one}
        return {("w", w): c
                for w, c in oracle.reduce({x[1] + y[1]: field.one}).items()}

    table = []
    for x in basis:
        row = []
        for y in basis:
            vec = [field.zero] * len(basis)
            for b, c in product(x, y).items():
                vec[index[b]] = c
            row.append(vec)
        table.append(row)
    return labels, table


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers())
def test_random_acyclic_quivers_match_the_frame_echelon(case):
    field, q = case
    alg = from_quiver(q, field=field)
    labels, table = oracle_quiver_algebra(field, q)
    assert alg.labels == labels
    assert dense_table(alg) == table


@st.composite
def poly_quotients(draw, fields=(QQ, F5, F7)):
    """k[x] or k[x, y] modulo a pure power of each variable (left out one
    time in eight, so some quotients are infinite) and 0-2 relations of
    1-3 terms of degree <= 3, often inhomogeneous: a constant term makes
    some of them the unit ideal.  When every variable has its pure power,
    one relation in four gains a term of degree 65-70, past the degree
    at which `from_poly_quotient` gives up, which the powers reduce."""
    field = draw(st.sampled_from(fields))
    nvars = draw(st.integers(1, 2))
    monos = [m for m in product(range(4), repeat=nvars) if sum(m) <= 3]
    long_monos = [m for m in product(range(71), repeat=nvars)
                  if 65 <= sum(m) <= 70]
    coeff = st.sampled_from([1, 2, 3, -1, -2]).map(field.of_int)
    rels = []
    for v in range(nvars):
        if draw(st.integers(0, 7)):
            power = draw(st.integers(1, 5))
            rels.append({tuple(power * (k == v) for k in range(nvars)):
                         field.one})
    bounded = len(rels) == nvars
    for _ in range(draw(st.integers(0, 2))):
        terms = draw(st.lists(st.sampled_from(monos), min_size=1,
                              max_size=3, unique=True))
        rel = {m: draw(coeff) for m in terms}
        if bounded and not draw(st.integers(0, 3)):
            rel[draw(st.sampled_from(long_monos))] = draw(coeff)
        rels.append(rel)
    return field, ["x", "y"][:nvars], draw(st.permutations(rels))


def assert_quotient_matches_sympy(field, names, rels):
    """Labels, table and unit of k[names]/(rels) against sympy's reduced
    grlex basis (x > y): the labels are its standard monomials and each
    product is `sympy.reduced` to them.  A variable without a pure-power
    lead makes the quotient infinite, and the basis [1] makes it zero."""
    import sympy
    gens = sympy.symbols(names)
    opts = {"domain": "QQ"} if field is QQ else {"modulus": field.p}

    def monomial(m):
        return sympy.Mul(*[g**e for g, e in zip(gens, m)])

    polys = [sum(sympy.Rational(c.numerator, c.denominator) * monomial(m)
                 for m, c in rel.items()) for rel in rels]
    basis = sympy.groebner(polys, *gens, order="grlex", **opts).exprs
    if basis == [1]:
        with pytest.raises(InputError, match="unit ideal"):
            from_poly_quotient(field, names, rels)
        return
    leads = [sympy.Poly(g, *gens, **opts).monoms(order="grlex")[0]
             for g in basis]
    powers = [min((lead[v] for lead in leads if sum(lead) == lead[v]),
                  default=None) for v in range(len(names))]
    if None in powers:
        with pytest.raises(InfiniteDimensionalError):
            from_poly_quotient(field, names, rels)
        return
    standard = sorted(
        (m for m in product(*(range(p) for p in powers))
         if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)),
        key=lambda m: (sum(m), m))
    index = {m: i for i, m in enumerate(standard)}

    def vector(expr):
        vec = [field.zero] * len(standard)
        for m, c in sympy.Poly(expr, *gens, **opts).terms():
            vec[index[m]] = field.normalize(Fraction(int(c.p), int(c.q)))
        return vec

    alg = from_poly_quotient(field, names, rels)
    table = dense_table(alg)
    assert alg.poly_data["monomials"] == standard
    assert alg.labels == [str(monomial(m)).replace("**", "^")
                          for m in standard]
    assert alg.unit == vector(sympy.Integer(1))
    for i, mi in enumerate(standard):
        for j, mj in enumerate(standard):
            _, rem = sympy.reduced(
                monomial(tuple(a + b for a, b in zip(mi, mj))), basis,
                *gens, order="grlex", **opts)
            assert table[i][j] == vector(rem), (mi, mj)


def named_quotient(field, names, *rels):
    return pytest.param(field, names, [
        {m: field.of_int(c) for m, c in rel.items()} for rel in rels],
        id=f"{'+'.join(str(sorted(r)) for r in rels)}/{field}")


NAMED_QUOTIENTS = [
    # valid inputs on which `hull` exits 3, and similar ones it builds
    *[named_quotient(field, ["x", "y"], *rels) for field in (QQ, F5, F7)
      for rels in [
          ({(3, 0): 1}, {(0, 4): 1}, {(2, 1): 1, (0, 2): 1}),
          ({(4, 0): 1}, {(0, 4): 1}, {(3, 1): 1, (0, 3): 4}),
          ({(4, 0): 1}, {(0, 3): 1}, {(1, 1): 1, (3, 0): 1}),
          ({(5, 0): 1}, {(0, 3): 1}, {(0, 2): 1, (3, 0): 1}),
          ({(4, 0): 1}, {(0, 4): 1}, {(3, 1): 1, (1, 3): 4}),
          ({(4, 0): 1}, {(0, 4): 1}, {(2, 1): 1, (0, 3): 1}),
          ({(3, 0): 1}, {(0, 3): 1}, {(2, 0): 1, (0, 2): 1, (1, 2): 1}),
          # the fat point, its generators recombined
          tuple({m: c for m, c in zip([(2, 0), (1, 1), (0, 2)], row) if c}
                for row in RECOMBINE_3),
          # the unit ideal, and y unbounded
          ({(2, 0): 1}, {(0, 2): 1}, {(1, 1): 1, (0, 0): -1}),
          ({(2, 0): 1}, {(1, 1): 1}),
      ]],
    named_quotient(QQ, ["x"], {(1,): 1, (0,): -1}, {(1,): 1}),
    # a lead past the max degree, reduced by the shorter rules
    *[named_quotient(field, names, *rels) for field in (QQ, F5)
      for names, rels in [
          (["x"], ({(70,): 1, (1,): 1}, {(2,): 1})),
          (["x"], ({(2,): 1}, {(70,): 1, (1,): 1})),
          (["x", "y"], ({(66, 0): 1, (0, 1): 1}, {(2, 0): 1}, {(0, 3): 1})),
          (["x", "y"], ({(3, 0): 1}, {(0, 2): 1}, {(1, 65): 1, (1, 0): -1})),
          (["x", "y"], ({(2, 0): 1}, {(0, 2): 1}, {(65, 1): 1, (1, 1): 2})),
      ]],
    named_quotient(F5, ["x"], {(3,): 1, (1,): 2, (0,): 2}),
]


@pytest.mark.parametrize("field, names, rels", NAMED_QUOTIENTS)
def test_named_poly_quotients_match_sympy(field, names, rels):
    assert_quotient_matches_sympy(field, names, rels)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(poly_quotients())
def test_random_poly_quotients_match_sympy(case):
    assert_quotient_matches_sympy(*case)


def quiver_rewriter(field, q):
    """The rewriter of `from_quiver` on q, relations added, not completed."""
    rw = Rewriter(field)
    for terms in q.relations:
        rel = {}
        for c, path in terms:
            w = q.word_of(path)
            rel[w] = field.add(rel.get(w, field.zero), c)
        rw.add_relation(rel)
    return rw


def poly_rewriter(field, names, rels):
    """The rewriter of `from_poly_quotient` on k[names]/(rels) and its
    letters: the last variable is letter 0, and x.y -> y.x."""
    n = len(names)
    rw = Rewriter(field)
    if n == 2:
        rw.add_relation({(1, 0): field.one, (0, 1): field.neg(field.one)})
    for rel in rels:
        rw.add_relation({tuple(g for g in range(n) for _ in range(m[-1 - g])):
                         c for m, c in rel.items()})
    return rw, [(name, "v", "v") for name in reversed(names)]


def assert_words_as_guessed_degrees(make, max_degree):
    """Where the guessed-degree loop finishes with words, the leads give
    the same words.  make() gives a fresh (rewriter, letters)."""
    rw, letters = make()
    reference = guessed_degree_basis_words(rw, letters, max_degree)
    if reference is not None:
        rw, letters = make()
        assert rw.basis_words(letters, max_degree, 1) == reference


@pytest.mark.parametrize("field", [QQ, F5])
def test_corpus_quiver_words_match_the_guessed_degrees(field):
    quivers = [alg.presentation for _, alg in corpus(field)
               if isinstance(alg.presentation, QuiverPresentation)]
    assert quivers
    for q in quivers:
        assert_words_as_guessed_degrees(
            lambda: (quiver_rewriter(field, q), q.arrows), QUIVER_MAX_DEGREE)


def test_powers_match_the_guessed_degrees():
    # a lead of length m overlaps itself up to length 2m - 1, past the
    # max degree for m > 12 (quivers) or m > 32 (polynomials); the
    # guessed-degree loop builds up to m = max degree and refuses beyond
    for n in range(2, QUIVER_MAX_DEGREE + 3):
        q = QuiverPresentation(["v"], [("y", "v", "v")],
                               [[(QQ.one, ["y"] * n)]])
        words = guessed_degree_basis_words(quiver_rewriter(QQ, q), q.arrows,
                                           QUIVER_MAX_DEGREE)
        assert (words is None) == (n > QUIVER_MAX_DEGREE)
        assert quiver_rewriter(QQ, q).basis_words(
            q.arrows, QUIVER_MAX_DEGREE, 1) == words
    for names, rels in [*[(["x"], [{(n,): 1}])
                          for n in range(2, POLY_MAX_DEGREE + 3)],
                        (["x", "y"], [{(40, 0): 1}, {(0, 3): 1}]),
                        (["x", "y"], [{(3, 0): 1}, {(0, 64): 1}]),
                        (["x", "y"], [{(3, 0): 1}, {(0, 65): 1}])]:
        words = guessed_degree_basis_words(*poly_rewriter(QQ, names, rels),
                                           POLY_MAX_DEGREE)
        assert poly_rewriter(QQ, names, rels)[0].basis_words(
            poly_rewriter(QQ, names, rels)[1], POLY_MAX_DEGREE, 1) == words


@pytest.mark.parametrize("rels", [
    # the longest bases (19-23 words) of 200 two-loop quivers over Q drawn
    # as `test_cli.two_loop_sweep` draws its 30
    [{"a.a.a": 2, "b.b.a": 1, "a.b.b": 1}, {"b.b": 3, "b.b.a": 2, "a.b.a": 3}],
    [{"b.b": 2, "b.b.a": 1}, {"a.b.a.b": 1, "a.a.a.a": 1}, {"a.b.a.a": 1}],
    [{"b.b": 1, "a.b.a": 2}, {"a.a.a.a": 1},
     {"b.b.a.a": 2, "a.b.a.a": 1, "b.a.b.b": 3}],
    [{"a.b.a": 2, "b.b.b": 3}, {"a.a.b.a": 1, "a.a": 4, "b.b.a.b": 2}],
])
def test_two_loop_words_match_the_guessed_degrees(rels):
    q = QuiverPresentation(
        ["v"], [("a", "v", "v"), ("b", "v", "v")],
        [[(c, path.split(".")) for path, c in terms.items()]
         for terms in rels])
    words = guessed_degree_basis_words(quiver_rewriter(QQ, q), q.arrows,
                                       QUIVER_MAX_DEGREE)
    assert sum(map(len, words)) >= 19
    assert quiver_rewriter(QQ, q).basis_words(q.arrows, QUIVER_MAX_DEGREE,
                                              1) == words


def test_a_settled_lead_overlaps_every_lead():
    # the 26-letter lead, past the first degree (24), is reduced by the
    # shorter rules into one within it, whose overlaps of every length,
    # not only those past 24, are still to resolve
    path = "b.a.b.a.a.a.b.b.b.a.b.b.a.a.b.a.a.a.b.a.a.a.a.b.a.a"
    q = QuiverPresentation(
        ["v"], [("a", "v", "v"), ("b", "v", "v")],
        [[(F5.one, path.split(".")), (F5.of_int(2), ["a", "a", "a"])],
         [(F5.one, ["b", "b"])],
         [(F5.of_int(2), ["a", "b", "a", "a"]), (F5.of_int(3), ["b", "a"])]])
    words = guessed_degree_basis_words(quiver_rewriter(F5, q), q.arrows,
                                       QUIVER_MAX_DEGREE)
    assert sum(map(len, words)) == 5
    assert quiver_rewriter(F5, q).basis_words(q.arrows, QUIVER_MAX_DEGREE,
                                              1) == words


@pytest.mark.parametrize("field, names, rels", NAMED_QUOTIENTS)
def test_named_quotient_words_match_the_guessed_degrees(field, names, rels):
    assert_words_as_guessed_degrees(
        lambda: poly_rewriter(field, names, rels), POLY_MAX_DEGREE)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(poly_quotients())
def test_random_quotient_words_match_the_guessed_degrees(case):
    assert_words_as_guessed_degrees(lambda: poly_rewriter(*case),
                                    POLY_MAX_DEGREE)


def test_a_long_lead_is_refused_unsearched():
    # a^99999.b leaves its factors of length 24 irreducible, so the
    # quotient is refused at the max degree before the overlaps of the
    # lead, up to 199998 letters long, are sought
    rw = Rewriter(QQ)
    rw.add_relation({(0,) * 99999 + (1,): QQ.one})
    spent, spend = [], rw._spend
    rw._spend = lambda units: spent.append(units) or spend(units)
    assert rw.basis_words([("a", "v", "v"), ("b", "v", "v")], 24, 1) is None
    assert sum(spent) < 1000


def count_stage_defects(monkeypatch):
    calls = []
    builder = hull_module._HullBuilder
    stage_defects = builder._stage_defects
    monkeypatch.setattr(
        builder, "_stage_defects",
        lambda self, stage, *args: calls.append(stage) or
        stage_defects(self, stage, *args))
    return calls


@pytest.mark.parametrize("make, order, calls_made, lines, words, flats", [
    (make_a2, 50, [], ["generator t1 : 1 -> 2 (degree 1)"], [(0,)],
     [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    (make_double_loop, 5, [2],
     ["generator t1 : 1 -> 1 (degree 1)", "generator t2 : 1 -> 1 (degree 1)",
      "relation 1*t1.t1", "relation 1*t1.t2", "relation 1*t2.t1",
      "relation 1*t2.t2"], [(0,), (1,)],
     [[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
], ids=["a2@50", "double_loop@5"])
def test_stage_loop_stops_at_the_first_empty_layer(monkeypatch, make, order,
                                                   calls_made, lines, words,
                                                   flats):
    # A2 has no composable pair, so no word of length 2; the double loop
    # loses its length-2 words at stage 2.  The hull is the one the loop
    # over every stage 2..order gives.
    calls = count_stage_defects(monkeypatch)
    alg = make()
    tower, ohat = hull(alg, simple_modules(alg), order)
    assert calls == calls_made
    h = tower.final
    assert h.presentation_lines() == lines
    assert h.reduced_words == words
    assert tower.stabilized
    assert not tower.new_relations_by_stage.get(order)
    assert [ohat.flatten(t) for t in ohat.rho_table] == flats
