"""The normal form of Q scalars: an int when the denominator is 1, a
reduced Fraction with denominator > 1 otherwise, never a float.  Over F_p:
an int in 0..p-1, a rational mapped through the inverse of its
denominator, never a float.  Also lints `src/aspec`: no `Fraction(`
outside `fields.py`, no sympy import anywhere, and no dense
`.table` of structure constants."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from aspec.algebra import from_structure_constants
from aspec.cli import _space, parse
from aspec.fields import GF, QQ
from aspec.hull import hull, maximal_ideals, o_algebra
from aspec.linalg import Mat
from aspec.modules import simple_modules
from aspec.polyquot import from_poly_quotient
from aspec.polyring import is_poly_ring
from aspec.quiver import QuiverPresentation, from_quiver
from aspec.topology import closure_check, global_sections_roundtrip
from oracles import abnormal_scalars, is_normal_rational

SRC = Path(__file__).parent.parent / "src" / "aspec"
EXAMPLES = Path(__file__).parent.parent / "docs" / "examples"


def test_normalize_refuses_a_float():
    with pytest.raises(TypeError):
        QQ.normalize(0.5)
    with pytest.raises(TypeError):
        QQ.div(1, 2.0)


def test_prime_field_normalize_maps_rationals_and_refuses_floats():
    f5 = GF(5)
    assert [f5.normalize(x) for x in (7, -1, Fraction(1, 2), Fraction(-3, 4),
                                      Fraction(10, 2))] == [2, 4, 3, 3, 0]
    assert type(f5.normalize(Fraction(1, 2))) is int
    assert Mat(f5, [[Fraction(1, 2), 6]]).data == [[3, 1]]
    with pytest.raises(ZeroDivisionError):
        f5.normalize(Fraction(1, 5))
    with pytest.raises(TypeError):
        f5.normalize(2.5)


@pytest.mark.parametrize("value, want", [
    (QQ.normalize(Fraction(6, 3)), 2),
    (QQ.normalize("-4/6"), Fraction(-2, 3)),
    (QQ.parse(" 6/3 "), 2),
    (QQ.add(Fraction(1, 2), Fraction(1, 2)), 1),
    (QQ.sub(Fraction(1, 3), Fraction(4, 3)), -1),
    (QQ.mul(Fraction(2, 3), 3), 2),
    (QQ.mul(Fraction(2, 3), Fraction(1, 5)), Fraction(2, 15)),
    (QQ.inv(-1), -1),
    (QQ.inv(Fraction(1, 4)), 4),
    (QQ.div(4, 2), 2),
    (QQ.div(2, 4), Fraction(1, 2)),
    (QQ.neg(Fraction(1, 2)), Fraction(-1, 2)),
    (QQ.of_int(7), 7),
    (QQ.zero, 0),
    (QQ.one, 1),
])
def test_operations_return_the_normal_form(value, want):
    assert value == want and type(value) is type(want)
    assert is_normal_rational(value)


def test_constructors_normalize_their_scalars():
    one, zero = Fraction(1), Fraction(0)
    sc = from_structure_constants(
        QQ, ["e", "x"], [[[one, zero], [zero, one]], [[zero, one], [0, 0]]],
        [one, zero])
    quiver = from_quiver(QuiverPresentation(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")],
        [[(Fraction(2), ["a", "b"])]]))
    poly = from_poly_quotient(QQ, ["x"], [{(2,): Fraction(2), (0,): zero}])
    assert sc.dim == 2 and quiver.dim == 5 and poly.dim == 2
    # the quiver algebra keeps the caller's presentation as it was given
    assert abnormal_scalars([sc, poly, quiver.products, quiver.unit,
                             quiver.idempotents]) == []


def golden_objects(path):
    """What the commands of the golden files build on a docs/examples
    document: its space with the sections of every open, and off k[x] the
    global sections roundtrip, the hull of the simples, its O-algebra,
    maximal ideals and closure check."""
    doc = parse(path.read_text(encoding="utf-8"))
    alg = doc.algebra
    space = _space(doc, doc.options["order"])
    objs = [doc, space, [space.sections(u) for u in space.opens()]]
    if not is_poly_ring(alg):
        tower, ohat = hull(alg, simple_modules(alg), doc.options["order"])
        o = o_algebra(ohat)
        objs += [global_sections_roundtrip(space), tower, o,
                 maximal_ideals(o), closure_check(alg, o)]
    return objs


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.txt")),
                         ids=lambda p: p.stem)
def test_no_float_or_integral_fraction_behind_the_goldens(path):
    assert abnormal_scalars(golden_objects(path)) == []


def test_abnormal_scalars_are_found():
    # the scan reaches into containers and the attributes of aspec objects
    m = Mat(QQ, [[1, 2]])
    m.data[0][1] = Fraction(2)
    assert sorted(abnormal_scalars({"x": [(m, 0.5)]}), key=repr) == \
        [0.5, Fraction(2)]


def test_src_builds_no_fraction_and_imports_no_sympy():
    # sympy is a test dependency only: `factor` factors in-tree
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "fields.py":
            assert "Fraction(" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not any(n.split(".")[0] == "sympy" for n in names), \
                path.name


def test_src_holds_the_structure_constants_in_one_format():
    # `Algebra.products` is the only table of structure constants; dense
    # rows come in through `sparse_rows` and `from_structure_constants`
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\.table\b", text), path.name
