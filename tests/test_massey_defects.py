"""Stage defects read off the defining system as Massey sums, against
the per-stage rho table of `tests/oracles.py`.

Each stage of a hull build forms its defect from the cochains C_free
already chosen: the products psi_u(a) psi_v(b) uv over the composable
free words with |u| + |v| = n, brought to normal form, plus the spill of
the words that an earlier stage made reducible.  The reference forms rho
in the stage algebra and rho(ab) - rho(a) rho(b) on every pair and at
every length, and keeps the length-n part.  Here: the two agree on every
pair at every stage; a build forms rho and its defects once; the Massey
sum visits exactly the composable nonzero rows; k[x,y]/(x^4, y^4,
x^3 y + 4 y^3), whose hull relation t1^3 gains the tail t2^3 t1 at
stage 4, builds; and a corrupted stage still exits 3."""

import sys

import pytest
from hypothesis import assume, given, settings

import aspec.cli as cli_module
from aspec.errors import InputError, UnsupportedAlgebraError
from aspec.fields import GF, QQ
from aspec.hull import hull, o_algebra
from aspec.modules import regular_module, simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.quiver import from_quiver
from conftest import corpus
from oracles import stage_defects_by_rho_table
from test_generator_first import built
from test_hull_one_pass import direct_sum
from test_random_corpus import local_kxy_quotients
from test_rewrite import acyclic_quivers, poly_quotients
from test_structure_constants import commutative_double_loop

F5 = GF(5)
F7 = GF(7)
hull_module = sys.modules["aspec.hull"]
builder_class = hull_module._HullBuilder


def tailed_quotient(field):
    """k[x,y]/(x^4, y^4, x^3 y + 4 y^3)."""
    return from_poly_quotient(field, ["x", "y"], [
        {(4, 0): field.one}, {(0, 4): field.one},
        {(3, 1): field.one, (0, 3): field.of_int(4)}])


def compare_with_rho_table(monkeypatch):
    """Compares every later stage defect, on every pair, with the
    reference on the cochains the stage reads; returns per stage
    compared whether the spill reached its length."""
    stage_defects = builder_class._stage_defects
    seen = []

    def compared(self, stage, hull_alg):
        want = stage_defects_by_rho_table(self, stage, hull_alg,
                                          self.C_free)
        got = stage_defects(self, stage, hull_alg)
        assert got == want
        seen.append(any(len(w) == stage for X in self._spill
                        for w in hull_alg.normal_form(X)))
        return got

    monkeypatch.setattr(builder_class, "_stage_defects", compared)
    return seen


@pytest.fixture
def compared(monkeypatch):
    return compare_with_rho_table(monkeypatch)


def build(alg, modules, order=None):
    """hull(), or nothing where the tower exceeds the word budget."""
    try:
        hull(alg, modules, order)
    except InputError:
        pass


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_massey_sums_match_the_rho_table_on_the_corpus(compared, field):
    for name, alg in corpus(field):
        simples = simple_modules(alg)
        build(alg, simples)
        if len(simples) > 1:
            build(alg, [direct_sum(alg, simples)])
        build(alg, [regular_module(alg)])
    assert compared


@pytest.mark.parametrize("n", [8, 16])
def test_massey_sums_match_the_rho_table_on_truncated_polynomials(compared,
                                                                   n):
    alg = from_poly_quotient(F5, ["x"], [{(n,): F5.one}])
    build(alg, simple_modules(alg))
    assert len(compared) == n - 1


def test_massey_sums_match_the_rho_table_on_the_double_loop(compared):
    for field in (QQ, F5):
        alg = from_quiver(commutative_double_loop(3, field), field=field)
        build(alg, simple_modules(alg))
    assert compared


@pytest.mark.parametrize("field", [QQ, F5, F7], ids=["Q", "F5", "F7"])
def test_the_spill_of_a_longer_tail_matches_the_rho_table(compared, field):
    alg = tailed_quotient(field)
    for order in range(3, 7):
        build(alg, simple_modules(alg), order)
    # stage 5, at orders 5 and 6, reads the tail t2^3 t1 that t1^3 gained
    # at stage 4; H_6 has no word of length 6
    assert compared.count(True) == 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers())
def test_massey_sums_match_the_rho_table_on_random_quivers(case):
    alg = built(case)
    with pytest.MonkeyPatch.context() as mp:
        compare_with_rho_table(mp)
        build(alg, simple_modules(alg))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(poly_quotients(fields=(QQ, F5)))
def test_massey_sums_match_the_rho_table_on_random_quotients(case):
    alg = built(case)
    assume(alg is not None and alg.dim > 1)
    try:
        simples = simple_modules(alg)
    except UnsupportedAlgebraError:
        assume(False)       # A/rad does not split over the field
    with pytest.MonkeyPatch.context() as mp:
        compare_with_rho_table(mp)
        build(alg, simples)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(local_kxy_quotients())
def test_massey_sums_match_the_rho_table_on_local_kxy(alg):
    with pytest.MonkeyPatch.context() as mp:
        compare_with_rho_table(mp)
        build(alg, simple_modules(alg))


# -- work ---------------------------------------------------------------------


def composable_row_pairs(builder, stage):
    """sum over the pairs (u, v) of C_free words with |u| + |v| = stage
    whose blocks compose of the nonzero rows of psi_u times those of
    psi_v."""
    gens = builder.generators
    rows = {w: sum(not m.is_zero() for m in psi)
            for w, psi in builder.C_free.items()}
    return sum(rows[u] * rows[v] for u in rows for v in rows
               if len(u) + len(v) == stage and gens[u[-1]][2] == gens[v[0]][1])


@pytest.mark.parametrize("make", [
    lambda: from_poly_quotient(F5, ["x"], [{(8,): F5.one}]),
    lambda: tailed_quotient(F5),
    lambda: from_quiver(commutative_double_loop(3, F5), field=F5),
    lambda: corpus(QQ)[5][1],
], ids=["kx8", "tailed", "double_loop", "a3_zero_rel"])
def test_a_build_forms_rho_once_and_visits_only_composable_rows(monkeypatch,
                                                                make):
    alg = make()
    matric, defects = builder_class._matric, hull_module._defects
    massey, mul_into = builder_class._massey_sum, hull_module._mul_into
    calls = {"matric": 0, "defects": 0}
    visits = []
    per_stage = []

    def counted_massey(self, stage):
        want = composable_row_pairs(self, stage)
        before = len(visits)
        out = massey(self, stage)
        per_stage.append((len(visits) - before, want))
        return out

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(builder_class, "_matric", counted("matric", matric))
    monkeypatch.setattr(hull_module, "_defects", counted("defects", defects))
    monkeypatch.setattr(builder_class, "_massey_sum", counted_massey)
    monkeypatch.setattr(hull_module, "_mul_into",
                        lambda *args: visits.append(args) or mul_into(*args))
    hull(alg, simple_modules(alg))
    assert calls == {"matric": 1, "defects": 1}
    assert per_stage and all(got == want for got, want in per_stage)
    assert sum(got for got, _ in per_stage) > 0


# -- relations that gain a longer tail ---------------------------------------


@pytest.mark.parametrize("field", [QQ, F5, F7], ids=["Q", "F5", "F7"])
def test_a_relation_with_a_longer_tail_builds(field):
    # t1^3 = t2^3 t1 / 4 holds from stage 4 on; this input once exited 3
    alg = tailed_quotient(field)
    simples = simple_modules(alg)
    tower, ohat = hull(alg, simples, 3)
    assert tower.final.dim == 9
    for order in (4, 5, 6):
        tower, ohat = hull(alg, simples, order)
        assert tower.final.dim == o_algebra(ohat).dim == alg.dim == 11


TAILED_DOC = """field F5
algebra poly_quotient
  var x y
  relation x^4
  relation y^4
  relation x^3*y + 4*y^3
end
"""


@pytest.mark.parametrize("length, message", [
    (2, "stage defect is not a Hochschild 2-cocycle"),
    (4, "rho is not multiplicative in the truncation"),
])
def test_a_corrupted_stage_exits_3(tmp_path, monkeypatch, capsys, length,
                                   message):
    # the cochains of one length doubled as they are set; the last stage
    # (4) is read by no later stage, and `_verify` finds it
    doc = tmp_path / "tailed.txt"
    doc.write_text(TAILED_DOC, encoding="utf-8")
    argv = ["hull", "--input", str(doc), "--order", "4"]
    assert cli_module.main(argv) == 0
    set_cochain = builder_class._set_cochain

    def doubled(self, w, psi):
        if len(w) == length:
            psi = [m.scale(self.field.of_int(2)) for m in psi]
        set_cochain(self, w, psi)

    monkeypatch.setattr(builder_class, "_set_cochain", doubled)
    capsys.readouterr()
    assert cli_module.main(argv) == 3
    assert message in capsys.readouterr().err
