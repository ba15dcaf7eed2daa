import subprocess
import sys
from pathlib import Path

import pytest

from aspec.cli import main, parse, run
from aspec.errors import InputError
from aspec.ext import ext
from aspec.hull import hull, o_algebra
from aspec.modules import simple_modules

A2_DOC = """\
field Q
algebra quiver
  vertex 1
  vertex 2
  arrow a 1 2
end
"""

DUAL_DOC = """\
field Q
algebra poly_quotient
  var x
  relation x^2
end
options
  order 3
end
"""

K2_DOC = """\
field Q
algebra structure_constants
  basis u v
  unit 1*u + 1*v
  idempotent 1*u
  idempotent 1*v
  mul u u = 1*u
  mul v v = 1*v
end
"""

POLY_DOC = """\
field Q
algebra poly_ring
  var x
end
point 0
point 1
options
  order 3
end
"""

A3_DOC = """\
field Q
algebra quiver
  vertex 1
  vertex 2
  vertex 3
  arrow a 1 2
  arrow b 2 3
  relation 1*a.b
end
"""

MODULE_DOC = """\
field Q
algebra quiver
  vertex 1
  vertex 2
  arrow a 1 2
end
module N
  dim 2
  action e_1 [[1, 0], [0, 0]]
  action e_2 [[0, 0], [0, 1]]
  action a [[0, 1], [0, 0]]
end
point N
"""

BAD_DIM_DOC = """\
field Q
algebra quiver
  vertex 1
  vertex 2
  arrow a 1 2
end
module N
  dim 2
  action e_1 [[1, 0, 0], [0, 0, 0]]
  action e_2 [[0, 0], [0, 1]]
  action a [[0, 1], [0, 0]]
end
"""


def test_parse_minimal():
    doc = parse("field Q\nalgebra quiver\n  vertex v\nend\n")
    assert doc.algebra.dim == 1


def test_parse_a2():
    doc = parse(A2_DOC)
    assert doc.algebra.dim == 3


def test_parse_dimension_error_names_module():
    with pytest.raises(InputError) as exc:
        parse(BAD_DIM_DOC)
    assert "N" in str(exc.value)


def test_parse_unknown_kind():
    with pytest.raises(InputError):
        parse("field Q\nalgebra banana\nend\n")


def test_roundtrip_parse_serialize():
    from aspec.cli import serialize
    doc = parse(A2_DOC)
    doc2 = parse(serialize(doc))
    assert doc2.digest() == doc.digest()
    assert doc2.algebra.dim == doc.algebra.dim
    assert doc2.algebra.labels == doc.algebra.labels


def test_simples_report():
    doc = parse(A2_DOC)
    report = run("simples", doc)
    text = report.text()
    assert "S1" in text and "S2" in text
    assert "status: OK" in text


def test_hull_report_dual_numbers():
    doc = parse(DUAL_DOC)
    report = run("hull", doc, order=3)
    text = report.text()
    assert "generator t1 : 1 -> 1 (degree 1)" in text
    assert "relation 1*t1.t1" in text


def test_determinism():
    doc = parse(A2_DOC)
    t1 = run("hull", doc, order=3).text()
    t2 = run("hull", doc, order=3).text()
    assert t1 == t2
    tree1 = run("aspec", doc).tree()
    tree2 = run("aspec", doc).tree()
    assert tree1 == tree2


def test_ext_command():
    doc = parse(A3_DOC)
    report = run("ext", doc)
    text = report.text()
    assert "Ext^1(S1,S2): 1" in text
    assert "Ext^2(S1,S3): 1" in text


def test_dset_command():
    doc = parse(K2_DOC)
    report = run("dset", doc, elem_text="1*u")
    assert "S1" in report.text()
    assert "S2" not in report.text().split("points")[1]


def test_stalk_command():
    doc = parse(DUAL_DOC)
    report = run("stalk", doc, module_names=["S1"])
    text = report.text()
    assert "comparison_isomorphism: yes" in text


def test_aspec_command_poly_ring():
    doc = parse(POLY_DOC)
    report = run("aspec", doc, order=3)
    text = report.text()
    assert "sections dim 8" in text


def test_verify_k2():
    doc = parse(K2_DOC)
    report = run("verify", doc)
    text = report.text()
    assert "fin-dim-isomorphism: PASS" in text
    assert "status: OK" in text
    assert not report.failed


def test_verify_a2():
    doc = parse(A2_DOC)
    report = run("verify", doc)
    assert not report.failed


def test_point_declaration_space():
    doc = parse(MODULE_DOC)
    report = run("aspec", doc)
    assert "N" in report.text()


def test_main_exit_codes(tmp_path):
    good = tmp_path / "doc.txt"
    good.write_text(K2_DOC, encoding="utf-8")
    assert main(["simples", "--input", str(good)]) == 0
    assert main(["verify", "--input", str(good)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("field Q\nalgebra banana\nend\n", encoding="utf-8")
    assert main(["simples", "--input", str(bad)]) == 2
    missing = tmp_path / "missing.txt"
    assert main(["simples", "--input", str(missing)]) == 2


def test_seed_flag_is_rejected(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text(K2_DOC, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["simples", "--input", str(doc), "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_console_entrypoint(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text(DUAL_DOC, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "aspec.cli", "hull", "--input", str(doc),
         "--order", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "relation 1*t1.t1" in proc.stdout


def test_output_identical_across_invocations(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text(A2_DOC, encoding="utf-8")
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "aspec.cli", "verify", "--input",
             str(doc), "--format", "tree"],
            capture_output=True, text=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0]


GOLDEN = Path(__file__).parent / "golden"
EXAMPLES = Path(__file__).parent.parent / "docs" / "examples"


@pytest.mark.parametrize("args,golden", [
    (["hull", "--input", str(EXAMPLES / "dual_numbers.txt")],
     "hull_dual_numbers.txt"),
    (["verify", "--input", str(EXAMPLES / "a2_quiver.txt"),
      "--format", "tree"], "verify_a2_tree.txt"),
    (["aspec", "--input", str(EXAMPLES / "poly_ring_two_points.txt")],
     "aspec_poly_ring.txt"),
    (["simples", "--input", str(EXAMPLES / "lower_triangular.txt")],
     "simples_lower_triangular.txt"),
])
def test_golden_outputs(args, golden):
    proc = subprocess.run([sys.executable, "-m", "aspec.cli"] + args,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    expected = (GOLDEN / golden).read_text()
    assert proc.stdout == expected


def test_simples_on_poly_ring_is_an_input_error(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text(POLY_DOC, encoding="utf-8")
    assert main(["simples", "--input", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    import aspec.cli as cli

    def broken_run(*args, **kwargs):
        return 1 // 0

    monkeypatch.setattr(cli, "run", broken_run)
    doc = tmp_path / "doc.txt"
    doc.write_text(K2_DOC, encoding="utf-8")
    assert main(["simples", "--input", str(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.err == \
        "internal error: ZeroDivisionError: integer division or modulo by zero\n"
    assert captured.out == ""


@pytest.mark.parametrize("field,relation", [
    ("Q", "x^3 - 6*x^2 + 12*x - 8"),
    ("F5", "x^3 + 4*x^2 + 2*x + 2"),
])
def test_shifted_cube_simple_acts_by_its_root(field, relation):
    """k[x]/(x - 2)^3: the simple lives at x = 2, not at x = 0."""
    doc = parse(f"field {field}\nalgebra poly_quotient\n  var x\n"
                f"  relation {relation}\nend\n")
    alg = doc.algebra
    simples = simple_modules(alg)
    assert len(simples) == 1
    s = simples[0]
    x = alg.element_from_label("x")
    assert s.act(x).data == [[alg.field.of_int(2)]]
    assert ext(s, s, 1).dimension == 1
    assert ext(s, s, 2).dimension == 1
    tower, ohat = hull(alg, simples)
    assert tower.final.dim == 3
    assert o_algebra(ohat).dim == 3
    report = run("verify", doc)
    verdicts = dict(report.sections[0][1])
    assert verdicts and set(verdicts.values()) == {"PASS"}
    assert not report.failed
