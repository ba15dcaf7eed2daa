import argparse
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import aspec.cli as cli_module
from aspec.cli import main, parse, run
from aspec.errors import InputError
from aspec.ext import ext
from aspec.fields import GF, QQ
from aspec.hull import default_order, hull, o_algebra
from aspec.modules import simple_modules
from aspec.quiver import MAX_DEGREE as QUIVER_MAX_DEGREE
from aspec.quiver import QuiverPresentation
from oracles import guessed_degree_basis_words
from test_rewrite import quiver_rewriter

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

A3_PATH_DOC = """\
field Q
algebra quiver
  vertex 1
  vertex 2
  vertex 3
  arrow a 1 2
  arrow b 2 3
end
"""

KX4_MINUS_X2_DOC = """\
field Q
algebra poly_quotient
  var x
  relation x^4 - x^2
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
    from oracles import serialize
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


# address space of a child process: an engine that runs away fails
# there (MemoryError, exit 3) rather than exhausting the host
CHILD_MEMORY = 2 << 30


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def run_python(args, timeout=None):
    """`python <args>` in a child process that imports the same aspec as
    the tests, installed or not, with its address space capped."""
    src = str(Path(cli_module.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable] + args,
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path),
                          preexec_fn=_cap_memory)


def run_cli(args, timeout=None):
    """`python -m aspec.cli` in a child process."""
    return run_python(["-m", "aspec.cli"] + args, timeout=timeout)


def test_console_entrypoint(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text(DUAL_DOC, encoding="utf-8")
    proc = run_cli(["hull", "--input", str(doc), "--order", "3"])
    assert proc.returncode == 0
    assert "relation 1*t1.t1" in proc.stdout


def test_output_identical_across_invocations(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text(A2_DOC, encoding="utf-8")
    outs = []
    for _ in range(2):
        proc = run_cli(["verify", "--input", str(doc), "--format", "tree"])
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
    (["hull", "--input", str(EXAMPLES / "local_kxy.txt")],
     "hull_local_kxy.txt"),
])
def test_golden_outputs(args, golden):
    proc = run_cli(args)
    assert proc.returncode == 0
    expected = (GOLDEN / golden).read_text()
    assert proc.stdout == expected


SYMPY_PROBE = """
import contextlib, io, sys
import aspec.cli
assert "sympy" not in sys.modules, "import aspec.cli"
assert "aspec.factor" not in sys.modules, "import aspec.cli"
split = sys.argv.index("--factoring")
examples, factoring = sys.argv[1:split], sys.argv[split + 1:]
for path in examples + factoring:
    with open(path, encoding="utf-8") as handle:
        aspec.cli.parse(handle.read())
assert "aspec.factor" not in sys.modules, "parse"
runs = [("verify", path) for path in examples] + [
    (command, path) for path in factoring
    for command in ("simples", "aspec", "verify")]
for command, path in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert aspec.cli.main([command, "--input", path]) == 0, path
    assert "sympy" not in sys.modules, (command, path)
assert "aspec.factor" in sys.modules
"""


def test_the_commands_never_import_sympy(tmp_path):
    # polynomials are factored in-tree, in `aspec.factor`, which neither
    # importing the CLI nor parsing loads
    factoring = []
    for field, relation in [("Q", "x^4 - x^2"), ("F3", "x^3 - x"),
                            ("F2147483647", "x^2 - 1")]:
        doc = tmp_path / f"{field}.txt"
        doc.write_text(DUAL_DOC.replace("Q", field).replace("x^2", relation),
                       encoding="utf-8")
        factoring.append(str(doc))
    proc = run_python(["-c", SYMPY_PROBE] +
                      [str(p) for p in sorted(EXAMPLES.glob("*.txt"))] +
                      ["--factoring"] + factoring)
    assert proc.returncode == 0, proc.stderr


def test_repeated_calls_in_one_process_build_one_parser(tmp_path, capsys,
                                                        monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli_module._parser.cache_clear()
    try:
        doc = tmp_path / "doc.txt"
        doc.write_text(K2_DOC, encoding="utf-8")
        good = ["simples", "--input", str(doc)]
        bad = ["banana", "--input", str(doc)]
        assert main(good) == 0
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        usage = capsys.readouterr().err
        assert main(good) == 0
        assert main(["verify", "--input", str(doc)]) == 0
        assert len(built) == 1
    finally:
        cli_module._parser.cache_clear()
    child = run_cli(bad)
    assert child.returncode == 2
    assert child.stderr == usage


def test_importing_the_cli_builds_no_parser():
    proc = run_python(["-c", "import aspec.cli as c; "
                       "assert c._parser.cache_info().currsize == 0"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("example", sorted(p.name for p in
                                           EXAMPLES.glob("*.txt")))
def test_in_process_calls_print_what_a_fresh_process_prints(capsys,
                                                            example):
    args = ["verify", "--input", str(EXAMPLES / example), "--format", "tree"]
    outs = []
    for _ in range(2):
        assert main(args) == 0
        outs.append(capsys.readouterr().out)
    child = run_cli(args)
    assert child.returncode == 0, child.stderr
    assert outs == [child.stdout] * 2


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


@pytest.mark.parametrize("example,builds", [
    ("a2_quiver.txt", 6),
    ("dual_numbers.txt", 2),
], ids=["a2_quiver", "dual_numbers"])
def test_verify_builds_o_of_the_simples_once(hull_builds, example, builds):
    # the sections of the space of simples, plus the hulls over O(X) of
    # the roundtrip's space, whose whole-family section is the closure
    # check's hull
    doc = parse((EXAMPLES / example).read_text())
    report = run("verify", doc)
    assert not report.failed
    assert len(hull_builds) == builds


def test_verify_a2_field_multiplications(field_muls):
    """A work regression fails here, not only in a benchmark: the field
    multiplications of parsing a2_quiver.txt and running `verify` on it.
    The dense kernels made 2818; the zero-skipping ones make 1146."""
    report = run("verify", parse((EXAMPLES / "a2_quiver.txt").read_text()))
    assert not report.failed
    assert len(field_muls) <= 1700


@pytest.mark.parametrize("command", [
    "ext", "hull", "oalg", "aspec", "dset", "stalk", "verify"])
def test_poly_ring_without_points_has_one_message(tmp_path, capsys, command):
    doc = tmp_path / "doc.txt"
    doc.write_text("field Q\nalgebra poly_ring\n  var x\nend\n",
                   encoding="utf-8")
    extra = ["--elem", "x"] if command == "dset" else []
    assert main([command, "--input", str(doc)] + extra) == 2
    assert capsys.readouterr().err == \
        "input error: poly_ring commands need declared points\n"


@pytest.mark.parametrize("order", ["0", "1"])
@pytest.mark.parametrize("command", ["aspec", "stalk", "verify"])
def test_poly_ring_order_below_two_is_an_input_error(capsys, command, order):
    # k[x]'s default order applies only when no order is given; an
    # explicit order 0 is refused like order 1, not read as the default
    path = str(EXAMPLES / "poly_ring_two_points.txt")
    assert main([command, "--input", path, "--order", order]) == 2
    assert capsys.readouterr().err == \
        "input error: truncation order must be >= 2\n"


@pytest.mark.parametrize("text, command, order, built", [
    ((EXAMPLES / "a2_quiver.txt").read_text(), "aspec", None, 2),
    ((EXAMPLES / "a2_quiver.txt").read_text(), "verify", None, 4),
    (A3_PATH_DOC, "aspec", None, 3),
    (A3_PATH_DOC, "verify", None, 6),
    (A3_PATH_DOC, "verify", 2, 9),
    (A3_PATH_DOC, "ext", None, 3),
    ((EXAMPLES / "dual_numbers.txt").read_text(), "verify", None, 2),
    (KX4_MINUS_X2_DOC, "verify", None, 6),
], ids=["a2-aspec", "a2-verify", "a3-aspec", "a3-verify", "a3-verify-order2",
        "a3-ext", "dual-verify", "kx4-x2-verify"])
def test_each_space_resolves_each_module_once(resolutions_built, text,
                                              command, order, built):
    # aspec: one space of simples, whatever its number of opens.  verify
    # adds the space over O(X), which resolves every point once and
    # serves both the closure check and the roundtrip.  At a run order
    # other than the default, the space checks reuse the space of
    # simples' Ext store, but the roundtrip reads O(X) at the run order,
    # so it gets a space over O(X) of its own.  The Spec comparison of a
    # commutative algebra reads the space of simples.  ext: one
    # resolution per source.
    report = run(command, parse(text), order=order)
    assert not report.failed
    assert len(resolutions_built["Resolution"]) == built
    assert len(resolutions_built["BarComparison"]) == \
        (0 if command == "ext" else built)


@pytest.mark.parametrize("text, builds", [
    ((EXAMPLES / "dual_numbers.txt").read_text(), 2),
    (KX4_MINUS_X2_DOC, 14),
], ids=["dual", "kx4-x2"])
def test_spec_comparison_reads_the_space_of_verify(monkeypatch, hull_builds,
                                                   resolutions_built, text,
                                                   builds):
    # the sheaf check has built the sections over every open of the space
    # of simples, so the comparison on that space builds no hull and
    # resolves no module
    compare = cli_module.compare_with_spec
    during = []

    def counting(space):
        before = len(hull_builds), len(resolutions_built["Resolution"])
        report = compare(space)
        during.append((len(hull_builds) - before[0],
                       len(resolutions_built["Resolution"]) - before[1]))
        return report

    monkeypatch.setattr(cli_module, "compare_with_spec", counting)
    report = run("verify", parse(text))
    assert ("spec-comparison", "PASS") in report.sections[0][1]
    assert during == [(0, 0)]
    assert len(hull_builds) == builds


def test_a3_verify_checks_56_covers(monkeypatch):
    # the covers of every open of the three-point space by nonempty
    # proper opens, plus each open itself (104 with the empty open)
    from aspec.topology import ASpecSpace
    checked = []
    check = ASpecSpace._check_cover_generic

    def counting(self, u, family, *args):
        checked.append((u, tuple(family)))
        return check(self, u, family, *args)

    monkeypatch.setattr(ASpecSpace, "_check_cover_generic", counting)
    report = run("verify", parse(A3_PATH_DOC))
    assert not report.failed
    assert len(checked) == 56 == len(set(checked))


VERIFY_ALL_PASS = """\
command: verify
input: {digest}
[verify]
  fin-dim-isomorphism: PASS
  r-locality: PASS
  closure: PASS
  sheaf-axioms: PASS
  global-sections-roundtrip: PASS
{extra}status: OK
"""


@pytest.mark.parametrize("order", [None, 2, 3, 4], ids=str)
@pytest.mark.parametrize("text, digest, extra", [
    (A3_PATH_DOC, "3cdf0e2738f2f655", ""),
    (KX4_MINUS_X2_DOC, "17dd35614a43a4f5", "  spec-comparison: PASS\n"),
], ids=["a3", "kx4-x2"])
def test_verify_at_each_order(tmp_path, capsys, monkeypatch, text, digest,
                              extra, order):
    # closure runs at the default order and the roundtrip at the run
    # order: they share the space over O(X) only when the two agree
    import aspec.topology
    built = []
    base = aspec.topology.base_algebra_of
    monkeypatch.setattr(aspec.topology, "base_algebra_of",
                        lambda *args: built.append(args) or base(*args))
    doc = tmp_path / "doc.txt"
    doc.write_text(text, encoding="utf-8")
    argv = ["verify", "--input", str(doc)]
    assert main(argv + ([] if order is None else ["--order", str(order)])) \
        == 0
    captured = capsys.readouterr()
    assert captured.out == VERIFY_ALL_PASS.format(digest=digest, extra=extra)
    assert captured.err == ""
    default = max(2, default_order(parse(text).algebra))
    assert len(built) == (1 if order in (None, default) else 2)


def test_spec_comparison_exit_codes(tmp_path, capsys):
    # k[x]/(x^4) at order 2: O of its point is k[x]/(x^3), but the
    # localization is all of k[x]/(x^4), the kernel being the stable
    # power (x)^4 = 0 of the annihilator, not (x)^3
    doc = tmp_path / "kx4.txt"
    doc.write_text(DUAL_DOC.replace("x^2", "x^4"), encoding="utf-8")
    assert main(["verify", "--input", str(doc), "--order", "2"]) == 1
    out = capsys.readouterr().out
    assert "  spec-comparison: FAIL\n" in out
    assert out.count("FAIL") == 2
    # x^3 - 1 over Q: the residue field Q(w) at x^2 + x + 1 does not split
    doc.write_text(DUAL_DOC.replace("x^2", "x^3 - 1"), encoding="utf-8")
    assert main(["verify", "--input", str(doc)]) == 2
    assert capsys.readouterr().err == \
        "input error: semisimple quotient does not split over the base field\n"


@pytest.mark.parametrize("field, relation, code", [
    ("F2", "x^2 + x", 0), ("F3", "x^3 - x", 0), ("F5", "x^5 - x", 0),
    ("F5", "x^5 - 2", 0), ("F7", "x^7 - x", 0),
    ("F2147483647", "x^2 - 1", 0), ("F2147483647", "x^3 - x", 0),
    ("Q", "x^2 - 1/4", 0), ("Q", "4*x^2 - 1", 0),
    # a residue field larger than the base field
    ("F2", "x^4 + x", 2), ("F3", "x^9 - x", 2), ("Q", "x^3 - 2", 2),
    ("Q", "x^4 - 10*x^2 + 1", 2), ("Q", "x^6 - 1", 2), ("Q", "x^5 - x", 2),
])
def test_one_relation_quotients_split_or_are_refused(tmp_path, capsys, field,
                                                     relation, code):
    doc = tmp_path / "doc.txt"
    doc.write_text(poly_quotient_doc("x", [relation]).replace(
        "field Q", f"field {field}"), encoding="utf-8")
    for command in ("simples", "verify"):
        assert main([command, "--input", str(doc)]) == code, command
        assert capsys.readouterr().err == ("" if code == 0 else
                                           "input error: semisimple quotient "
                                           "does not split over the base "
                                           "field\n")


def test_stalk_at_an_open_point_builds_one_hull(hull_builds):
    doc = parse((EXAMPLES / "a2_quiver.txt").read_text())
    report = run("stalk", doc, module_names=["S1"])
    assert "comparison_isomorphism: yes" in report.text()
    assert len(hull_builds) == 1


def _exit_and_error(tmp_path, capsys, text):
    doc = tmp_path / "doc.txt"
    doc.write_text(text, encoding="utf-8")
    code = main(["simples", "--input", str(doc)])
    return code, capsys.readouterr().err


def test_malformed_order_option_is_an_input_error(tmp_path, capsys):
    code, err = _exit_and_error(
        tmp_path, capsys, A2_DOC + "options\n  order x\nend\n")
    assert code == 2
    assert err == "input error: line 8: bad order 'x'\n"


def test_malformed_module_dim_is_an_input_error(tmp_path, capsys):
    code, err = _exit_and_error(
        tmp_path, capsys, MODULE_DOC.replace("dim 2", "dim two"))
    assert code == 2
    assert err == "input error: line 8: bad module dimension 'two'\n"


@pytest.mark.parametrize("term", ["x^a", "x^2^3"])
def test_malformed_exponent_is_an_input_error(tmp_path, capsys, term):
    code, err = _exit_and_error(
        tmp_path, capsys, DUAL_DOC.replace("relation x^2", f"relation {term}"))
    assert code == 2
    assert err == f"input error: line 4: bad exponent in {term!r}\n"


DOUBLE_LOOP_DOC = """\
field F5
algebra quiver
  vertex v
  arrow x v v
  arrow y v v
  relation x.x
  relation x.y
  relation y.x
  relation y.y
end
"""


# one module M = S1 + S2 over the Kronecker quiver: Ext^1(M, M) has two
# loops and Ext^2 vanishes, so the hull is free with 2^(N+1) - 2 words
KRONECKER_SUM_DOC = """\
field F5
algebra quiver
  vertex 1
  vertex 2
  arrow a 1 2
  arrow b 1 2
end
module M
  dim 2
  action e_1 [[1, 0], [0, 0]]
  action e_2 [[0, 0], [0, 1]]
  action a [[0, 0], [0, 0]]
  action b [[0, 0], [0, 0]]
end
"""


@pytest.mark.parametrize("order", ["12", "1000000000"])
def test_oversized_word_count_is_an_input_error(tmp_path, capsys, order):
    # the stage of order 12 would list 4094 + 4096 words: it is refused
    # before its last layer is listed, whatever the requested order
    doc = tmp_path / "doc.txt"
    doc.write_text(KRONECKER_SUM_DOC, encoding="utf-8")
    assert main(["hull", "--input", str(doc), "--modules", "M",
                 "--order", order]) == 2
    assert capsys.readouterr().err == (
        f"input error: truncation order {order} needs more words than "
        "the budget of 4096\n")


def test_a_free_hull_runs_up_to_the_budget(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text(KRONECKER_SUM_DOC, encoding="utf-8")
    assert main(["hull", "--input", str(doc), "--modules", "M",
                 "--order", "11"]) == 0
    assert "  order: 11\n  dim_H: 4095\n" in capsys.readouterr().out


@pytest.mark.parametrize("order", ["12", "25", "10000"])
def test_the_budget_counts_irreducible_words(tmp_path, capsys, order):
    # the double loop loses every word of length 2 at stage 2: dim H is
    # 3 at any order, although 2^(N+1) - 2 words are composable
    doc = tmp_path / "doc.txt"
    doc.write_text(DOUBLE_LOOP_DOC, encoding="utf-8")
    assert main(["hull", "--input", str(doc), "--order", order]) == 0
    assert f"  order: {order}\n  dim_H: 3\n" in capsys.readouterr().out


def test_two_points_of_the_polynomial_ring_at_a_huge_order_are_refused(
        tmp_path, capsys):
    # k[x] at two points: two words per length, 2N in all
    doc = tmp_path / "doc.txt"
    doc.write_text(POLY_DOC, encoding="utf-8")
    assert main(["hull", "--input", str(doc), "--order", "1000000000"]) == 2
    assert capsys.readouterr().err == (
        "input error: truncation order 1000000000 needs more words than "
        "the budget of 4096\n")


def test_word_count_of_a_nilpotent_quiver_stays_under_the_budget(
        tmp_path, capsys):
    # A2 has one generator and no composable pair: one word at any order
    doc = tmp_path / "doc.txt"
    doc.write_text(A2_DOC, encoding="utf-8")
    assert main(["hull", "--input", str(doc), "--order", "4200"]) == 0
    assert "generator t1 : 1 -> 2 (degree 1)\n  order: 4200\n" in \
        capsys.readouterr().out


def poly_quotient_doc(variables, relations):
    return ("field Q\nalgebra poly_quotient\n" + f"  var {variables}\n" +
            "".join(f"  relation {r}\n" for r in relations) + "end\n")


@pytest.mark.parametrize("variables, relations", [
    ("x y", ["x^2", "y^2", "x*y - 1"]),
    ("x", ["x - 1", "x"]),
])
def test_relations_generating_the_unit_ideal_are_an_input_error(
        tmp_path, capsys, variables, relations):
    doc = tmp_path / "doc.txt"
    doc.write_text(poly_quotient_doc(variables, relations), encoding="utf-8")
    assert main(["simples", "--input", str(doc)]) == 2
    assert capsys.readouterr().err == (
        "input error: the relations generate the unit ideal, so the "
        "quotient is zero\n")


def test_an_unbounded_variable_is_named(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text(poly_quotient_doc("x y", ["x^2", "x*y"]),
                   encoding="utf-8")
    assert main(["simples", "--input", str(doc)]) == 2
    assert capsys.readouterr().err == (
        "error: quotient is infinite-dimensional: y has unbounded powers\n")


def test_duplicate_variables_are_an_input_error(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text(poly_quotient_doc("x x", ["x^2"]), encoding="utf-8")
    assert main(["simples", "--input", str(doc)]) == 2
    assert capsys.readouterr().err == "input error: duplicate variable 'x'\n"


@pytest.mark.parametrize("line, message", [
    # the left side names a label outside the basis
    ("mul e12 e11 = 1*e21", "unknown label 'e12' in mul"),
    # a second line for a pair the document already multiplies
    ("mul e22 e21 = 0", "duplicate product e22 e21"),
])
def test_a_bad_mul_line_is_refused_by_its_line(tmp_path, capsys, line,
                                                message):
    text = (EXAMPLES / "lower_triangular.txt").read_text(encoding="utf-8")
    doc = tmp_path / "doc.txt"
    doc.write_text(text.replace("end\n", f"  {line}\nend\n"),
                   encoding="utf-8")
    assert main(["simples", "--input", str(doc)]) == 2
    assert capsys.readouterr().err == f"input error: line 12: {message}\n"


@pytest.mark.parametrize("variables, relations", [
    ("x", ["x^100000"]),
    ("x y", ["x^100000", "y^2"]),
])
def test_oversized_exponents_are_refused_before_allocation(
        tmp_path, variables, relations):
    # only the overlaps of x^100000 with itself within the degree bound
    # are built, so the refusal takes well under a second
    doc = tmp_path / "doc.txt"
    doc.write_text(poly_quotient_doc(variables, relations), encoding="utf-8")
    proc = run_cli(["hull", "--input", str(doc)], timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == \
        "error: quotient not finite-dimensional by degree 64\n"


def test_exponents_past_the_budget_are_an_input_error(tmp_path):
    # x^1000000000 would be a word of 10^9 letters: refused unbuilt
    doc = tmp_path / "doc.txt"
    doc.write_text(poly_quotient_doc("x", ["x^1000000000"]), encoding="utf-8")
    proc = run_cli(["simples", "--input", str(doc)], timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == ("input error: monomial of degree 1000000000 "
                           "exceeds the rewriting budget of 2000000\n")


def double_loop_doc(field, relations):
    return (f"field {field}\nalgebra quiver\n  vertex v\n  arrow a v v\n"
            "  arrow b v v\n" +
            "".join(f"  relation {r}\n" for r in relations) + "end\n")


@pytest.mark.parametrize("relation, seconds, message", [
    # a cycle of the leads once the overlaps of a.b.a are resolved
    ("1*a.b.a + 1*a.a", 5,
     "quotient is infinite-dimensional: a has unbounded powers"),
    # one new rule per degree, each completion twice as long as the last
    ("2*a.b.b + 3*b.a.b + 3*a.a.b", 60,
     "quotient not shown finite-dimensional within the rewriting budget "
     "of 2000000 steps"),
])
def test_double_loop_gets_a_verdict_in_time(tmp_path, relation, seconds,
                                            message):
    doc = tmp_path / "doc.txt"
    doc.write_text(double_loop_doc("Q", [relation]), encoding="utf-8")
    proc = run_cli(["simples", "--input", str(doc)], timeout=seconds)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


def test_a_non_admissible_double_loop_is_refused_before_validation(
        tmp_path):
    # the powers of the arrow ideal refuse it before the associativity
    # check of its 24-dimensional table, which took over 10 s first
    doc = tmp_path / "doc.txt"
    doc.write_text(double_loop_doc("Q", ["2*a.a.a + 1*b.b.a + 1*a.b.b",
                                         "3*b.b + 2*b.b.a + 3*a.b.a"]),
                   encoding="utf-8")
    proc = run_cli(["simples", "--input", str(doc)], timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == ("input error: relations are not admissible: the "
                           "arrow ideal is not nilpotent in the quotient\n")


def test_a_quotient_past_the_basis_budget_is_refused_unbuilt(tmp_path):
    # dimension 1024: its dense table ran out of the capped address space
    doc = tmp_path / "doc.txt"
    doc.write_text(poly_quotient_doc("x y", ["x^32", "y^32"]).replace(
        "field Q", "field F5"), encoding="utf-8")
    proc = run_cli(["simples", "--input", str(doc)], timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == ("input error: quotient needs more basis words "
                           "than the budget of 256\n")


def test_a_quiver_of_more_vertices_than_the_basis_budget_is_refused(
        tmp_path):
    # 600 isolated vertices: the dense table of dim 600 ran out of the
    # capped address space
    doc = tmp_path / "doc.txt"
    doc.write_text("field Q\nalgebra quiver\n" +
                   "".join(f"  vertex v{i}\n" for i in range(600)) +
                   "end\n", encoding="utf-8")
    proc = run_cli(["simples", "--input", str(doc)], timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == ("input error: quotient needs more basis words "
                           "than the budget of 256\n")


def two_loop_sweep():
    """30 one-vertex quivers with loops a and b over Q or F5: 1-3
    relations of 1-3 terms of length 2-4, coefficients 1-4."""
    rng = random.Random(7)
    cases = []
    for _ in range(30):
        field = rng.choice(["Q", "F5"])
        rels = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                path = ".".join(rng.choice("ab")
                                for _ in range(rng.randint(2, 4)))
                terms[path] = rng.randint(1, 4)
            rels.append(terms)
        cases.append((field, rels))
    return cases


LABELS_CHILD = """\
import sys
from aspec.cli import main, parse
code = main(["simples", "--input", sys.argv[1]])
if code == 0:
    with open(sys.argv[1], encoding="utf-8") as fh:
        print("labels", *parse(fh.read()).algebra.labels)
sys.exit(code)
"""


def test_two_loop_quivers_get_a_verdict_as_the_guessed_degrees(tmp_path):
    # each case in its own child, so a run-away case fails alone; where
    # the guessed-degree loop finishes within its budget, its words are
    # the basis
    for k, (field, rels) in enumerate(two_loop_sweep()):
        text = double_loop_doc(field, [
            " + ".join(f"{c}*{path}" for path, c in terms.items())
            for terms in rels])
        doc = tmp_path / f"case{k}.txt"
        doc.write_text(text, encoding="utf-8")
        proc = run_python(["-c", LABELS_CHILD, str(doc)], timeout=60)
        assert proc.returncode in (0, 2), (text, proc.stderr)
        f = QQ if field == "Q" else GF(5)
        pres = QuiverPresentation(
            ["v"], [("a", "v", "v"), ("b", "v", "v")],
            [[(f.of_int(c), path.split(".")) for path, c in terms.items()]
             for terms in rels])
        words = guessed_degree_basis_words(
            quiver_rewriter(f, pres), pres.arrows, QUIVER_MAX_DEGREE, 30000)
        if words is None or words is False:
            continue
        if proc.returncode == 2:
            assert "not admissible" in proc.stderr, text
            continue
        labels = ["e_v"] + [".".join(pres.arrows[g][0] for g in w)
                            for layer in words for w in layer]
        assert proc.stdout.splitlines()[-1].split()[1:] == labels, text


@pytest.mark.parametrize("relations", [
    ["x^100000", "x^2 - x"],
    ["x^2 - x", "x^100000"],
    ["x^100000 - x", "x^3"],
])
def test_oversized_exponents_reduced_by_shorter_relations(tmp_path,
                                                          relations):
    # the quotient is k; x^100000 is reduced through its halves, not one
    # letter at a time
    doc = tmp_path / "doc.txt"
    doc.write_text(poly_quotient_doc("x", relations), encoding="utf-8")
    proc = run_cli(["hull", "--input", str(doc), "--order", "2"], timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(
        "[rho]\n  1: block(1,1) = [[1]]\nstatus: OK\n")
