"""The hull's defining system on free words.

Each cochain of the hull is set once, on a free word, and folded through
the current normal forms only when rho is read.  These inputs exited 3
while the cochains were refolded in place onto the reduced words: a
later stage gave an old relation a longer tail, and the cochain of a
word that had reduced to 0 was gone by then.  Here they recover the
algebra over Q and F5, from the library and from the CLI."""

import pytest

from aspec.cli import parse
from aspec.fields import GF, QQ
from aspec.hull import (
    default_order,
    hull,
    massey_step,
    maximal_ideals,
    o_algebra,
)
from aspec.modules import simple_modules
from aspec.topology import closure_check, compare_with_spec, space_of_simples
from conftest import corpus
from test_cli import run_python

F5 = GF(5)


def poly_doc(field, relations):
    return (f"field {field}\nalgebra poly_quotient\n  var x y\n" +
            "".join(f"  relation {r}\n" for r in relations) + "end\n")


def quiver_doc(field, arrows, relations):
    vertices = sorted({v for _, s, t in arrows for v in (s, t)})
    return (f"field {field}\nalgebra quiver\n" +
            "".join(f"  vertex {v}\n" for v in vertices) +
            "".join(f"  arrow {a} {s} {t}\n" for a, s, t in arrows) +
            "".join(f"  relation {r}\n" for r in relations) + "end\n")


# name -> document over a field; the first four are commutative
REPRODUCERS = {
    "x3_y4_x2y+y2": lambda f: poly_doc(f, ["x^3", "y^4", "x^2*y + y^2"]),
    "x4_y4_x3y+4y3": lambda f: poly_doc(f, ["x^4", "y^4", "x^3*y + 4*y^3"]),
    "x4_y3_xy+x3": lambda f: poly_doc(f, ["x^4", "y^3", "x*y + x^3"]),
    "x5_y3_y2+x3": lambda f: poly_doc(f, ["x^5", "y^3", "y^2 + x^3"]),
    "ab_cde": lambda f: quiver_doc(
        f, [("a", "1", "2"), ("b", "2", "5"), ("c", "1", "3"),
            ("d", "3", "4"), ("e", "4", "5")], ["1*a.b - 1*c.d.e"]),
}
COMMUTATIVE = set(list(REPRODUCERS)[:4])
FIELDS = ("Q", "F5")


def reproducer(name, field):
    """The algebra of a reproducer over the field named Q or F5."""
    return parse(REPRODUCERS[name](field)).algebra


def reproducers():
    return [pytest.param(name, field, id=f"{name}/{field}")
            for name in REPRODUCERS for field in FIELDS]


def assert_recovers(alg, commutative=False):
    """The hull of the simples at the default order recovers the algebra: dim H = dim O = dim A, one maximal ideal per
    simple with that simple as its quotient, O over O gives O back, and
    for a commutative algebra aSpec agrees with Spec."""
    simples = simple_modules(alg)
    tower, ohat = hull(alg, simples)
    o = o_algebra(ohat)
    assert tower.final.dim == o.dim == alg.dim
    infos = maximal_ideals(o)
    assert len(infos) == len(simples)
    assert all(i["quotient_dim"] == i["module_dim"] == 1 and
               i["quotient_isomorphic_to_module"] for i in infos)
    ok, info = closure_check(alg, o)
    assert ok, info
    if commutative:
        assert compare_with_spec(space_of_simples(alg))["passed"]


@pytest.mark.parametrize("name,field", reproducers())
def test_reproducers_recover_the_algebra(name, field):
    assert_recovers(reproducer(name, field), name in COMMUTATIVE)


CLI_PROBE = """
import contextlib, io, sys
import aspec.cli
for command in ("hull", "oalg", "verify"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = aspec.cli.main([command, "--input", sys.argv[1]])
    assert code == 0, (command, code)
"""


@pytest.mark.parametrize("name,field", reproducers())
def test_reproducers_exit_0_from_the_cli(tmp_path, name, field):
    # hull, oalg and verify at the default order, in one child process
    doc = tmp_path / "doc.txt"
    doc.write_text(REPRODUCERS[name](field), encoding="utf-8")
    proc = run_python(["-c", CLI_PROBE, str(doc)], timeout=120)
    assert proc.returncode == 0, proc.stderr


def massey_cases():
    out = [pytest.param(reproducer(name, field), id=f"{name}/{field}")
           for name in REPRODUCERS for field in FIELDS]
    out += [pytest.param(alg, id=f"{name}/{field}")
            for field in (QQ, F5) for name, alg in corpus(field)]
    return out


@pytest.mark.parametrize("alg", massey_cases())
def test_massey_step_is_nonzero_exactly_on_the_new_relations(alg):
    # the obstruction at order n of the canonical defining system is the
    # Ext^2 part of stage n of the hull: its nonzero words are the words
    # of that stage's new relations
    f = alg.field
    simples = simple_modules(alg)
    order = max(3, default_order(alg))
    tower, _ = hull(alg, simples, order)
    for n in range(2, order + 1):
        obstruction = massey_step(alg, simples, n)
        nonzero = {w for w, lambdas in obstruction.items()
                   if any(not f.is_zero(c) for c in lambdas)}
        new = tower.new_relations_by_stage.get(n, [])
        assert nonzero == {w for _, w in new}, n
