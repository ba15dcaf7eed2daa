"""Seeded job lists for the three workloads, with independent references.

Every job hands the engine a generated document (text in the grammar of
docs/input-format.md) and nothing else.  The seed changes names, the
declaration order of arrows and equivalent presentations of the same
relations, so different seeds give different inputs of the same cost.
The expected answers come from closed forms (path counts, monomial
counts, arrow and relation counts), from tests/golden and from the
documented exit codes, never from the engine.

Importing this module imports nothing from aspec; `make_jobs` does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"
GOLDEN = ROOT / "tests" / "golden"

WORKLOADS = ("hull_wide_qq", "tower_deep_f5", "cli_space")


class Job:
    """One unit of work: `call()` returns (exit_code, output_text) and
    `check(code, out)` returns None when the answer is right, else why.
    `text` is the document the job parses; `known_defect` says why the
    engine is known to fail on it."""

    def __init__(self, name, call, check, text=None, known_defect=None):
        self.name = name
        self.call = call
        self.check = check
        self.text = text
        self.known_defect = known_defect


def digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()[:16]


# -- seeded documents -----------------------------------------------------------


class Doc:
    """A generated document plus the facts the references need."""

    def __init__(self, name, text, dim=None, simples=None, ext=None,
                 dset=None, kind="findim", points=None, order=None,
                 ext_by_index=True):
        self.name = name
        self.text = text
        self.dim = dim                # dim A = dim H = dim O^A(simples)
        self.simples = simples        # number of simple modules
        self.ext = ext                # {(d, i, j): dim Ext^d(S_i, S_j)}
        self.dset = dset              # (elem, D-set names or its size)
        self.kind = kind
        self.points = points or []
        self.order = order
        # False when the engine's order of the simples is not known here
        self.ext_by_index = ext_by_index


def _names(rng, prefix, count):
    picks = rng.sample(range(10, 100), count)
    return [f"{prefix}{k}" for k in picks]


def _rational(rng):
    """A nonzero rational, as document text."""
    num = rng.choice([1, 2, 3, -1, -2, -3])
    den = rng.choice([1, 1, 2, 3])
    return f"{num}/{den}" if den != 1 else str(num)


def path_quiver(rng, n, zero_at=None, name=None):
    """Linear A_n over Q: v1 -> v2 -> ... -> vn, optionally with the zero
    relation a_k . a_{k+1} (a nonzero scalar times it)."""
    vs = _names(rng, "v", n)
    arrows = list(zip(_names(rng, "a", n - 1), vs[:-1], vs[1:]))
    order = list(arrows)
    rng.shuffle(order)
    lines = ["field Q", "algebra quiver"]
    lines += [f"  vertex {v}" for v in vs]
    lines += [f"  arrow {a} {s} {t}" for a, s, t in order]
    rels = []
    if zero_at is not None:
        a, b = arrows[zero_at][0], arrows[zero_at + 1][0]
        lines.append(f"  relation {_rational(rng)}*{a}.{b}")
        rels.append((zero_at, zero_at + 2))
    lines.append("end")
    # paths i -> j (i <= j) survive unless they pass a zero relation
    dim = sum(1 for i in range(n) for j in range(i, n)
              if not any(i <= s and t <= j for s, t in rels))
    ext = {(1, i, i + 1): 1 for i in range(n - 1)}
    for s, t in rels:
        ext[(2, s, t)] = 1
    return Doc(name or f"A{n}" + ("z" if rels else ""),
               "\n".join(lines) + "\n", dim=dim, simples=n, ext=ext,
               dset=(f"e_{vs[n // 2]}", [f"S{n // 2 + 1}"]))


def kronecker(rng):
    vs = _names(rng, "v", 2)
    arrows = _names(rng, "a", 2)
    text = (f"field Q\nalgebra quiver\n  vertex {vs[0]}\n"
            f"  vertex {vs[1]}\n  arrow {arrows[0]} {vs[0]} {vs[1]}\n"
            f"  arrow {arrows[1]} {vs[0]} {vs[1]}\nend\n")
    return Doc("kronecker", text, dim=4, simples=2, ext={(1, 0, 1): 2},
               dset=(f"e_{vs[1]}", ["S2"]))


def lower_triangular(rng):
    """2x2 lower-triangular matrices over Q as structure constants."""
    e11, e22, e21 = _names(rng, "m", 3)
    text = ("field Q\nalgebra structure_constants\n"
            f"  basis {e11} {e22} {e21}\n  unit 1*{e11} + 1*{e22}\n"
            f"  idempotent 1*{e11}\n  idempotent 1*{e22}\n"
            f"  mul {e11} {e11} = 1*{e11}\n  mul {e22} {e22} = 1*{e22}\n"
            f"  mul {e22} {e21} = 1*{e21}\n  mul {e21} {e11} = 1*{e21}\nend\n")
    return Doc("lower_triangular", text, dim=3, simples=2,
               ext={(1, 1, 0): 1}, dset=(f"1*{e11}", ["S1"]))


def _poly_text(coeffs, var):
    """Low-degree-first coefficients as 'c*x^k + ...' text."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        terms.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(reversed(terms)).replace("+ -", "- ")


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def univariate(rng, name, roots, field="Q", order=None):
    """k[x]/(u * prod (x - r)^m) for roots {r: m} and a unit scalar u.
    The order of the simples is the engine's, so Ext is checked up to
    a permutation of the roots."""
    var = rng.choice(["x", "y", "z", "s"])
    poly = [1]
    for r, m in roots.items():
        for _ in range(m):
            poly = _poly_mul(poly, [-r, 1])
    if field == "Q":
        u = rng.choice([1, 2, -3])
        poly = [c * u for c in poly]
    else:
        p = int(field[1:])
        u = rng.randrange(1, p)
        poly = [c * u % p for c in poly]
    lines = [f"field {field}", "algebra poly_quotient", f"  var {var}",
             f"  relation {_poly_text(poly, var)}", "end"]
    if order is not None:
        lines += ["options", f"  order {order}", "end"]
    # Ext^1 = Ext^2 = 1 at a root of multiplicity > 1, else 0
    ext = {}
    for i, r in enumerate(sorted(roots)):
        if roots[r] > 1:
            ext[(1, i, i)] = ext[(2, i, i)] = 1
    return Doc(name, "\n".join(lines) + "\n", dim=sum(roots.values()),
               simples=len(roots), ext=ext,
               dset=(var, sum(1 for r in roots if r != 0)), order=order,
               ext_by_index=False)


def double_loop(rng, order):
    """F5<x,y>/(all words of length 2), the relations given as a random
    invertible recombination of the four words."""
    x, y = _names(rng, "g", 2)
    words = [f"{x}.{x}", f"{x}.{y}", f"{y}.{x}", f"{y}.{y}"]
    mat = _invertible(rng, 4, 5)
    lines = ["field F5", "algebra quiver", "  vertex v",
             f"  arrow {x} v v", f"  arrow {y} v v"]
    for row in mat:
        terms = [f"{c}*{w}" for c, w in zip(row, words) if c]
        lines.append("  relation " + " + ".join(terms))
    lines.append("end")
    return Doc("double_loop", "\n".join(lines) + "\n", dim=3, simples=1,
               ext={(1, 0, 0): 2, (2, 0, 0): 4}, order=order)


def fat_point(rng, order=None, recombine=False):
    """F5[x,y]/(x^2, xy, y^2), each relation times a nonzero scalar, or
    with recombine=True a random invertible recombination of the three."""
    p = 5
    x, y = rng.sample(["x", "y", "u", "w"], 2)
    monos = [f"{x}^2", f"{x}*{y}", f"{y}^2"]
    if recombine:
        mat = _invertible(rng, 3, p)
    else:
        mat = [[rng.randrange(1, p) if i == j else 0 for j in range(3)]
               for i in range(3)]
    lines = ["field F5", "algebra poly_quotient", f"  var {x} {y}"]
    for row in mat:
        terms = [f"{c}*{m}" for c, m in zip(row, monos) if c]
        lines.append("  relation " + " + ".join(terms))
    lines.append("end")
    if order is not None:
        lines += ["options", f"  order {order}", "end"]
    # as an associative algebra this is k<x,y>/(all words of length 2)
    return Doc("fat_point" + ("_recombined" if recombine else ""),
               "\n".join(lines) + "\n", dim=3, simples=1,
               ext={(1, 0, 0): 2, (2, 0, 0): 4}, dset=(x, 0), order=order)


def _invertible(rng, n, p):
    """A random invertible n x n matrix over F_p, as L * U with L unit
    lower triangular and U upper triangular with a nonzero diagonal."""
    lower = [[1 if i == j else rng.randrange(p) if j < i else 0
              for j in range(n)] for i in range(n)]
    upper = [[rng.randrange(1, p) if i == j else rng.randrange(p) if j > i
              else 0 for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) % p
             for j in range(n)] for i in range(n)]


def poly_ring(rng, npoints, order=4):
    pts = sorted(rng.sample(range(-6, 7), npoints))
    lines = ["field Q", "algebra poly_ring", "  var x", "end"]
    lines += [f"point {a}" for a in pts]
    lines += ["options", f"  order {order}", "end"]
    return Doc(f"kx_{npoints}pts", "\n".join(lines) + "\n", kind="poly",
               points=pts, order=order, dim=npoints * (order + 1),
               dset=(_poly_text([-pts[0], 1], "x"), npoints - 1))


# -- library jobs -------------------------------------------------------------


def library_job(doc, order=None, with_ideals=True, known_defect=None):
    """parse -> simple_modules -> hull -> o_algebra [-> maximal_ideals]."""
    import aspec
    import aspec.cli

    def call():
        # looked up at call time, so a tracer installed later sees them
        d = aspec.cli.parse(doc.text)
        alg = d.algebra
        simples = aspec.simple_modules(alg)
        tower, ohat = aspec.hull(alg, simples, order)
        o = aspec.o_algebra(ohat)
        lines = list(tower.final.presentation_lines(alg.field.format))
        lines += [f"dim_H {tower.final.dim}", f"dim_O {o.dim}",
                  f"simples {len(simples)}"]
        if with_ideals:
            infos = aspec.maximal_ideals(o)
            lines.append(f"maximal_ideals {len(infos)}")
            lines += [f"quotient {i['quotient_dim']} "
                      f"{i['quotient_isomorphic_to_module']}" for i in infos]
        return 0, "\n".join(lines) + "\n"

    def check(code, out):
        want = [f"dim_H {doc.dim}", f"dim_O {doc.dim}",
                f"simples {doc.simples}"]
        if with_ideals:
            want.append(f"maximal_ideals {doc.simples}")
        lines = out.splitlines()
        missing = [w for w in want if w not in lines]
        if missing:
            return f"expected {missing}"
        if with_ideals and any(not ln.endswith("True") for ln in lines
                               if ln.startswith("quotient ")):
            return "a maximal-ideal quotient does not match its simple"
        return None

    name = doc.name if order is None else f"{doc.name}@{order}"
    return Job(name, call, check, text=doc.text, known_defect=known_defect)


def hull_wide_qq(rng):
    """Multi-vertex algebras over Q, one hull call per job, where the
    Hochschild cocycle checks and rref dominate.  A5 is left out: one
    A5 job takes 7-12 s, which leaves too few samples in a run."""
    docs = [path_quiver(rng, 3), path_quiver(rng, 4),
            path_quiver(rng, 3, zero_at=0), kronecker(rng),
            lower_triangular(rng)]
    jobs = [library_job(d) for d in docs]
    z = path_quiver(rng, 4, zero_at=rng.randrange(2), name="A4z")
    jobs.append(library_job(z, known_defect=(
        "RPointedAlgebra files u*rel*v under the block of rel, so a zero "
        "relation with an arrow on either side raises KeyError")))
    return jobs


def tower_deep_f5(rng):
    """Local algebras over F5 at truncation order 7, where the word
    enumeration and echelon of RPointedAlgebra dominate, plus k[x]/x^8
    for the Hochschild stages in F_p.  Order 7 keeps a job near 0.3 s
    (order 8 takes 1-2 s, order 9 7-11 s): the host's speed is sampled
    only between jobs, so longer jobs gave run-to-run spreads near the
    bounds."""
    docs = [double_loop(rng, order=7), fat_point(rng, order=7),
            univariate(rng, "kx^8", {0: 8}, field="F5")]
    return [library_job(d, order=d.order, with_ideals=False) for d in docs]


# -- CLI jobs -------------------------------------------------------------------


COMMANDS = ("simples", "ext", "hull", "oalg", "aspec", "dset", "stalk",
            "verify")


def cli_job(name, argv, check, text=None, known_defect=None):
    import aspec.cli as cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:      # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    return Job(name, call, check, text=text, known_defect=known_defect)


def _fields(out):
    """'  key: value' lines of a text report as a dict."""
    return dict(m.groups() for m in re.finditer(r"^  (.+?): (.*)$", out,
                                                re.M))


def _expect_ok(code, out):
    if code != 0:
        return f"exit {code}, want 0"
    if not out.endswith("status: OK\n"):
        return "status is not OK"
    return None


def doc_checks(doc):
    """command -> check(code, out) for a generated document."""
    def simples(code, out):
        bad = _expect_ok(code, out)
        if bad:
            return bad
        got = [k for k in _fields(out) if re.fullmatch(r"S\d+", k)]
        return None if len(got) == doc.simples else \
            f"{len(got)} simples, want {doc.simples}"

    def ext(code, out):
        bad = _expect_ok(code, out)
        if bad:
            return bad
        if doc.kind == "poly":          # k[x] is hereditary
            want = {(1, i, i): 1 for i in range(len(doc.points))}
        else:
            want = doc.ext
        names = _point_names(doc)
        got = {}
        for key, val in _fields(out).items():
            m = re.fullmatch(r"Ext\^(\d)\((.+),(.+)\)", key)
            if not m:
                return f"unexpected line {key!r}"
            a, b = names.index(m.group(2)), names.index(m.group(3))
            if int(val):
                got[(int(m.group(1)), a, b)] = int(val)
        if not doc.ext_by_index:
            def shape(table):
                return sorted((d, a == b, v) for (d, a, b), v in table.items())
            got, want = shape(got), shape(want)
        return None if got == want else f"Ext table {got}, want {want}"

    def hull(code, out):
        bad = _expect_ok(code, out)
        if bad:
            return bad
        f = _fields(out)
        if f.get("stabilized") != "yes":
            return "hull did not stabilize"
        if doc.kind != "poly" and f.get("dim_H") != str(doc.dim):
            return f"dim_H {f.get('dim_H')}, want {doc.dim}"
        return None

    def oalg(code, out):
        bad = _expect_ok(code, out)
        if bad:
            return bad
        f = _fields(out)
        if f.get("dim") != str(doc.dim):
            return f"dim {f.get('dim')}, want {doc.dim}"
        if doc.kind == "poly":
            return None if f.get("points") == str(len(doc.points)) else \
                "wrong point count"
        if f.get("maximal_ideals") != str(doc.simples):
            return "maximal ideals do not match the simples"
        if any(k.startswith("quotient_") and not v.endswith("module_match yes")
               for k, v in f.items()):
            return "a quotient does not match its simple"
        return None

    def aspec(code, out):
        bad = _expect_ok(code, out)
        if bad:
            return bad
        opens = [(k, v) for k, v in _fields(out).items()
                 if k.startswith("open ")]
        if opens[0] != ("open {}", "sections dim 0"):
            return "the empty open has sections"
        if opens[-1][1] != f"sections dim {doc.dim}":
            return f"global sections {opens[-1][1]}, want dim {doc.dim}"
        return None

    def dset(code, out):
        bad = _expect_ok(code, out)
        if bad:
            return bad
        got = _fields(out)["points"].strip("{}")
        got = [p for p in got.split(", ") if p]
        want = doc.dset[1]
        ok = got == want if isinstance(want, list) else len(got) == want
        return None if ok else f"D-set {got}, want {want}"

    def stalk(code, out):
        bad = _expect_ok(code, out)
        if bad:
            return bad
        return None if _fields(out).get("comparison_isomorphism") == "yes" \
            else "stalk comparison is not an isomorphism"

    def verify(code, out):
        bad = _expect_ok(code, out)
        if bad:
            return bad
        verdicts = _fields(out)
        if not verdicts or any(v != "PASS" for v in verdicts.values()):
            return f"verdicts {verdicts}"
        return None

    return {"simples": simples, "ext": ext, "hull": hull, "oalg": oalg,
            "aspec": aspec, "dset": dset, "stalk": stalk, "verify": verify}


def _point_names(doc):
    if doc.kind == "poly":
        return [f"M({a})" for a in doc.points]
    return [f"S{i + 1}" for i in range(doc.simples)]


def golden_check(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")

    def check(code, out):
        if code != 0:
            return f"exit {code}, want 0"
        return None if out == expected else f"differs from tests/golden/{name}"
    return check


def exit_check(want):
    def check(code, out):
        return None if code == want else f"exit {code}, want {want}"
    return check


def example_docs():
    """The documents of docs/examples with their closed-form facts."""
    def read(name):
        return (EXAMPLES / f"{name}.txt").read_text(encoding="utf-8")
    return [
        Doc("a2_quiver", read("a2_quiver"), dim=3, simples=2,
            ext={(1, 0, 1): 1}, dset=("e_2", ["S2"])),
        Doc("dual_numbers", read("dual_numbers"), dim=2, simples=1,
            ext={(1, 0, 0): 1, (2, 0, 0): 1}, dset=("x", 0)),
        Doc("lower_triangular", read("lower_triangular"), dim=3, simples=2,
            ext={(1, 1, 0): 1}, dset=("1*e11", ["S1"])),
        Doc("poly_ring_two_points", read("poly_ring_two_points"),
            kind="poly", points=[0, 1], order=4, dim=10, dset=("x", 1)),
    ]


# (document, command) -> (extra arguments, golden file)
GOLDEN_RUNS = {
    ("dual_numbers", "hull"): ([], "hull_dual_numbers.txt"),
    ("a2_quiver", "verify"): (["--format", "tree"], "verify_a2_tree.txt"),
    ("poly_ring_two_points", "aspec"): ([], "aspec_poly_ring.txt"),
    ("lower_triangular", "simples"): ([], "simples_lower_triangular.txt"),
}

SIMPLES_ON_POLY_RING = ("PolynomialRing has no ensure_idempotents; the "
                        "AttributeError escapes cli.main")


def cli_space(rng, workdir):
    """Every CLI command in-process on small documents: repeated hull
    builds, aSpec sections, parsing and per-call overhead.  A4 is left
    out: `verify` on it alone takes about 14 s."""
    generated = [path_quiver(rng, 3), path_quiver(rng, 3, zero_at=0),
                 univariate(rng, "kx^4", {0: 4}),
                 univariate(rng, "kx^4-x^2", {0: 2, 1: 1, -1: 1}),
                 univariate(rng, "kx^3-x", {0: 1, 1: 1, -1: 1}),
                 kronecker(rng), fat_point(rng), poly_ring(rng, 3)]
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for doc in generated:
        paths[doc.name] = workdir / f"{doc.name}.txt"
        paths[doc.name].write_text(doc.text, encoding="utf-8")
    for doc in example_docs():
        paths[doc.name] = EXAMPLES / f"{doc.name}.txt"
    jobs = []
    for doc in example_docs() + generated:
        checks = doc_checks(doc)
        for cmd in COMMANDS:
            argv = [cmd, "--input", str(paths[doc.name])]
            check = checks[cmd]
            if cmd == "dset":
                argv += ["--elem", doc.dset[0]]
            if cmd == "stalk":
                argv += ["--modules", _point_names(doc)[-1]]
            if (doc.name, cmd) in GOLDEN_RUNS:
                extra, golden = GOLDEN_RUNS[(doc.name, cmd)]
                argv += extra
                check = golden_check(golden)
            defect = SIMPLES_ON_POLY_RING \
                if cmd == "simples" and doc.kind == "poly" else None
            jobs.append(cli_job(f"{doc.name}:{cmd}", argv, check,
                                text=doc.text, known_defect=defect))
    # documented exit code 2 for input errors
    a3 = paths[generated[0].name]
    bad = workdir / "bad_kind.txt"
    bad.write_text("field Q\nalgebra banana\nend\n", encoding="utf-8")
    jobs += [
        cli_job("error:dset-without-elem", ["dset", "--input", str(a3)],
                exit_check(2)),
        cli_job("error:unknown-point",
                ["stalk", "--input", str(a3), "--modules", "S9"],
                exit_check(2)),
        cli_job("error:bad-kind", ["ext", "--input", str(bad)],
                exit_check(2)),
        cli_job("error:missing-file",
                ["hull", "--input", str(workdir / "missing.txt")],
                exit_check(2)),
    ]
    # further known defects, each on a valid document
    probes = [
        (fat_point(rng, recombine=True), "hull",
         "groebner's interreduction drops generators that share a leading "
         "monomial, so an equivalent presentation reads as infinite"),
        (univariate(rng, "kx^3_shifted", {2: 3}, field="F5"), "simples",
         "over F_p the simple of k[x]/(x-a)^n with a != 0 fails "
         "validation ('1 does not act as identity')"),
    ]
    for doc, cmd, defect in probes:
        path = workdir / f"{doc.name}.txt"
        path.write_text(doc.text, encoding="utf-8")
        jobs.append(cli_job(f"{doc.name}:{cmd}",
                            [cmd, "--input", str(path)], doc_checks(doc)[cmd],
                            text=doc.text, known_defect=defect))
    return jobs


def make_jobs(workload, seed, workdir):
    """The workload's job list for this seed (inputs written to workdir)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hull_wide_qq":
        return hull_wide_qq(rng)
    if workload == "tower_deep_f5":
        return tower_deep_f5(rng)
    if workload == "cli_space":
        return cli_space(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")
