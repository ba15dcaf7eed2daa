"""The rewriting engine against the frame echelon of `tests/oracles.py`:
the reduced words and normal forms of every hull algebra, random relation
sets with tails over several lengths, and the bases and structure
constants of random acyclic quivers.  Also: the hull's stage loop stops
at the first length with no reduced word."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspec.fields import GF, QQ
from aspec.hull import RPointedAlgebra, hull
from aspec.modules import simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import QuiverPresentation, from_quiver
from conftest import corpus, make_a2
from oracles import FrameEchelon
from test_hull_stress import (
    make_a4_zero,
    make_double_loop,
    make_fat_point,
    make_kronecker,
)

F5 = GF(5)
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
    assert alg.table == table


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
