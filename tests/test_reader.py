"""Modules read through their generators' actions.

A module block declares one action per generator: vertices (as `1` or
`e_1`) and arrows, variables, or basis labels.  Every basis element then
acts by the product of its generators' actions along its word, and each
declared action must be the action of the element its name stands for.
"""

from pathlib import Path

import pytest

from aspec.cli import _fmt_matrix, main, parse
from aspec.modules import regular_module, simple_modules

EXAMPLES = Path(__file__).parents[1] / "docs" / "examples"

QUIVER_F5 = """\
field F5
algebra quiver
  vertex 1
  vertex 2
  vertex 3
  arrow a 1 2
  arrow c 1 2
  arrow b 2 3
  relation 1*a.b - 2*c.b
end
"""

STRUCTURE_F5 = """\
field F5
algebra structure_constants
  basis u t
  unit 1*u
  mul u u = 1*u
  mul u t = 1*t
  mul t u = 1*t
end
"""

# x - 2*y rewrites x to 2y, so x is no basis element but acts as 2y
POLY_F5 = """\
field F5
algebra poly_quotient
  var x y
  relation x - 2*y
  relation y^3
end
"""

A2 = (EXAMPLES / "a2_quiver.txt").read_text(encoding="utf-8")
DUAL = (EXAMPLES / "dual_numbers.txt").read_text(encoding="utf-8")


def module_block(name, dim, actions):
    return (f"module {name}\n  dim {dim}\n" +
            "".join(f"  action {gen} {mat}\n" for gen, mat in actions) +
            "end\n")


def documents():
    docs = [pytest.param(p.read_text(encoding="utf-8"), id=p.stem)
            for p in sorted(EXAMPLES.glob("*.txt"))
            if "poly_ring" not in p.stem]
    return docs + [pytest.param(QUIVER_F5, id="quiver_f5"),
                   pytest.param(STRUCTURE_F5, id="structure_f5"),
                   pytest.param(POLY_F5, id="poly_quotient_f5")]


@pytest.mark.parametrize("text", documents())
def test_modules_read_back_from_their_generators_actions(text):
    # the simples, and the regular module where dim A <= 8: the regular
    # module acts by products along the words
    doc = parse(text)
    alg = doc.algebra
    modules = simple_modules(alg)
    if alg.dim <= 8:
        modules.append(regular_module(alg, name="R"))
    blocks = "".join(
        module_block(m.name, m.dim, [
            (gen, _fmt_matrix(alg.field, m.act(elem)))
            for gen, elem in doc.generators.items()])
        for m in modules)
    read = parse(text + blocks)
    for m in modules:
        assert read.modules[m.name].action == m.action, m.name


@pytest.mark.parametrize("text, action", [
    # x = 2 and x = 3 in the algebra, so x cannot act by 5 or by 1
    (DUAL.replace("x^2", "x - 2"), "action x [[5]]"),
    (POLY_F5.replace("F5", "Q").replace("x - 2*y", "x - 3").replace(
        "y^3", "y^2"), "action x [[1]]\n  action y [[0]]"),
    # z and c are no generators
    (DUAL, "action x [[0]]\n  action z [[0]]"),
    (A2, "action 1 [[1]]\n  action e_2 [[0]]\n  action a [[0]]\n"
         "  action c [[0]]"),
], ids=["x_is_2", "x_is_3", "z_over_kx", "c_on_a2"])
def test_an_action_that_no_generator_can_have_exits_2(tmp_path, text,
                                                      action):
    doc = tmp_path / "doc.txt"
    doc.write_text(text + f"module M\n  dim 1\n  {action}\nend\n",
                   encoding="utf-8")
    assert main(["simples", "--input", str(doc)]) == 2


def test_a_vertex_acts_as_declared_under_either_name(tmp_path):
    s1 = [("a", "[[0]]"), ("e_2", "[[0]]")]
    as_1 = parse(A2 + module_block("M", 1, s1 + [("1", "[[1]]")]))
    as_e_1 = parse(A2 + module_block("M", 1, s1 + [("e_1", "[[1]]")]))
    assert as_1.modules["M"].action == as_e_1.modules["M"].action
    # both names, two different actions: the second contradicts the first
    both = [("a", "[[0, 0], [0, 0]]"), ("e_2", "[[0, 0], [0, 1]]"),
            ("1", "[[1, 0], [0, 0]]"), ("e_1", "[[1, 0], [0, 1]]")]
    doc = tmp_path / "doc.txt"
    doc.write_text(A2 + module_block("M", 2, both), encoding="utf-8")
    assert main(["simples", "--input", str(doc)]) == 2


def test_a_missing_action_names_the_generator(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text(A2 + module_block("M", 1, [("1", "[[1]]"),
                                              ("a", "[[0]]")]),
                   encoding="utf-8")
    assert main(["simples", "--input", str(doc)]) == 2
    assert capsys.readouterr().err == \
        "input error: line 8: module 'M': missing action for 'e_2'\n"
