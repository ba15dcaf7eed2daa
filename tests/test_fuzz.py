"""The exit-code contract on mutated and on random documents.

Every document of `docs/examples` is mutated at random, with a fixed
seed: lines are dropped, duplicated, swapped or truncated, numbers
replaced by odd scalars, the field changed, and relation, action,
module, point, var, vertex, arrow, order and elem lines inserted.  Other
documents are written from scratch: a random field (some not fields),
an algebra of each kind with random vertices, arrows, variables, labels
and relations, exponents up to 10^20, names that the grammar forbids or
that nothing declares, and random modules, points and options.  Each
runs one command, some at odd orders.  Whatever the document says, the
CLI answers 0, 1 or 2 and never prints a traceback.
"""

import random
import re
from pathlib import Path

from test_cli import run_cli

EXAMPLES = Path(__file__).parents[1] / "docs" / "examples"

SCALARS = ["0", "-1", "1/2", "3/0", "99999"]
FIELDS = ["F2", "F3", "F4", "F7"]
# lines that start with two spaces go into a block, the others anywhere
INSERTS = ["  relation x^2 - 1", "  relation a.a", "  relation 2*x*y + y^3",
           "  action x [[0, 1], [0, 0]]", "  action a [[1]]",
           "  action e_1 [[1]]", "  var z", "  var y", "  vertex 3",
           "  arrow b 2 1", "  order 0", "  order -3", "  order 40",
           "  elem x + 1", "point M", "point 1/2", "end",
           "module M\n  dim 1\n  action x [[0]]\nend",
           "module M\n  dim 1\n  action 1 [[1]]\n  action e_2 [[0]]\n"
           "  action a [[0]]\nend",
           "module M\n  dim 1\n  action e11 [[1]]\n  action e22 [[0]]\n"
           "  action e21 [[0]]\nend",
           "options\n  order 3\nend"]
COMMANDS = ["simples", "ext", "hull", "oalg", "aspec", "dset", "stalk",
            "verify"]
ORDERS = [None, None, None, "0", "1", "-1", "9"]
ELEMS = ["1", "x", "e_1", "a", "2*x - e11", "1/0"]
NUMBER = re.compile(r"\d+(?:/\d+)?")


def mutate(rng, lines):
    """One random change of a document's lines."""
    lines = list(lines)
    k = rng.randrange(len(lines))
    kind = rng.randrange(7)
    if kind == 0:
        del lines[k]
    elif kind == 1:
        lines.insert(k, lines[k])
    elif kind == 2:
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == 3:
        lines[k] = lines[k][:rng.randrange(len(lines[k]) + 1)]
    elif kind == 4:
        numbered = [i for i, ln in enumerate(lines) if NUMBER.search(ln)]
        if numbered:
            i = rng.choice(numbered)
            spans = [m.span() for m in NUMBER.finditer(lines[i])]
            a, b = rng.choice(spans)
            lines[i] = lines[i][:a] + rng.choice(SCALARS) + lines[i][b:]
    elif kind == 5:
        lines = [f"field {rng.choice(FIELDS)}" if ln.startswith("field ")
                 else ln for ln in lines]
    else:
        line = rng.choice(INSERTS)
        ends = [i for i, ln in enumerate(lines) if ln == "end"]
        if line.startswith("  ") and ends:
            k = rng.choice(ends)
        lines[k:k] = line.split("\n")
    return lines


def fuzz_cases(count, seed):
    """count (document text, argv tail) pairs: an example with one to
    three mutations and one command."""
    rng = random.Random(seed)
    examples = sorted(EXAMPLES.glob("*.txt"))
    cases = []
    for _ in range(count):
        lines = examples[rng.randrange(len(examples))].read_text(
            encoding="utf-8").splitlines()
        for _ in range(rng.randint(1, 3)):
            lines = mutate(rng, lines)
        command = rng.choice(COMMANDS)
        args = [command]
        order = rng.choice(ORDERS)
        if order is not None:
            args += ["--order", order]
        if command == "dset" or rng.random() < 0.1:
            args += ["--elem", rng.choice(ELEMS)]
        cases.append(("\n".join(lines) + "\n", args))
    return cases


def test_mutated_documents_keep_the_exit_code_contract(tmp_path):
    # each case in its own child, so a run-away case fails alone
    doc = tmp_path / "doc.txt"
    for text, args in fuzz_cases(40, 25):
        doc.write_text(text, encoding="utf-8")
        proc = run_cli(args + ["--input", str(doc)], timeout=60)
        assert proc.returncode in (0, 1, 2), (args, text, proc.stderr)
        assert "Traceback" not in proc.stderr, (args, text, proc.stderr)


# -- documents from scratch -----------------------------------------------------

FIELD_NAMES = ["Q", "Q", "Q", "F2", "F3", "F5", "F5", "F7", "F2147483647"]
BAD_FIELDS = ["F4", "F1", "R"]
KINDS = ["quiver", "quiver", "quiver", "poly_quotient", "poly_quotient",
         "structure_constants", "structure_constants", "poly_ring"]
BAD_NAMES = ["x.y", "a-b", "x^2", "2", "x,y", "a=b", "b*c", "end", "+", "zz"]
COEFFS = ["", "", "", "", "1*", "-", "2*", "1/2*", "-7/3*", "3*"]
BAD_COEFFS = ["0*", "3/0*", "100000000000000000000*", "x*"]
EXPONENTS = [1, 1, 1, 2, 2, 3, 4, 7, 10 ** 9, 10 ** 20]


def _pick(rng, good, bad, rate=0.04):
    """Mostly one of `good`, at `rate` one of `bad`: a name the grammar
    forbids or nothing declares, a scalar that is none, a bad field."""
    return rng.choice(bad if rng.random() < rate else good)


def _sum(rng, terms):
    """The signed sum of the given terms with random coefficients."""
    out = ""
    for k, term in enumerate(terms):
        if k:
            out += rng.choice([" + ", " - "])
        out += _pick(rng, COEFFS, BAD_COEFFS) + term
    return out


def _quiver(rng):
    """Vertices 1..n; up to five arrows, mostly i -> j with i < j, one
    in ten a loop or backward; relations along random paths, some with
    a parallel path."""
    n = rng.randint(1, 4)
    arrows = []
    for k in range(rng.randrange(6)):
        if n > 1 and rng.random() < 0.9:
            i, j = sorted(rng.sample(range(1, n + 1), 2))
        else:
            i, j = rng.randint(1, n), rng.randint(1, n)
        arrows.append((f"a{k}", i, j))

    def path():
        p = [rng.choice(arrows)]
        for _ in range(rng.randint(1, 3)):
            after = [b for b in arrows if b[1] == p[-1][2]]
            if not after:
                break
            p.append(rng.choice(after))
        return p

    lines = [f"  vertex {v}" for v in range(1, n + 1)]
    lines += [f"  arrow {_pick(rng, [a], BAD_NAMES)} "
              f"{_pick(rng, [i], BAD_NAMES)} {j}" for a, i, j in arrows]
    for _ in range(rng.randrange(4) if arrows else 0):
        terms = [path()]
        terms += [p for p in (path() for _ in range(rng.randrange(3)))
                  if (p[0][1], p[-1][2]) == (terms[0][0][1], terms[0][-1][2])]
        lines.append("  relation " + _sum(rng, [
            ".".join(_pick(rng, [a[0]], BAD_NAMES) for a in p)
            for p in terms]))
    names = [f"e_{v}" for v in range(1, n + 1)] + [a for a, _, _ in arrows]
    simple = rng.randint(1, n)
    actions = [(f"e_{v}", "[[1]]" if v == simple else "[[0]]")
               for v in range(1, n + 1)] + [(a, "[[0]]") for a, _, _ in arrows]
    return lines, names, actions


def _poly_quotient(rng):
    """One or two variables (a third, repeated or bad one one time in
    ten), a pure power of each four times in five, and up to two
    relations of random monomials whose exponents reach 10^20."""
    variables = ["x", "y"][:rng.randint(1, 2)]
    if rng.random() < 0.1:
        variables.append(rng.choice(["z", "x"] + BAD_NAMES))

    def monomial():
        picked = rng.sample(variables, rng.randint(1, len(variables)))
        return "*".join(v if e == 1 else f"{v}^{e}" for v in picked
                        for e in [rng.choice(EXPONENTS)])

    lines = ["  var " + " ".join(variables)]
    lines += [f"  relation {v}^{rng.randint(2, 5)}" for v in variables
              if rng.random() < 0.8]
    lines += ["  relation " + _sum(rng, [monomial() for _ in
                                         range(rng.randint(1, 3))])
              for _ in range(rng.randrange(3))]
    return lines, variables, [(v, "[[0]]") for v in variables]


def _structure_constants(rng):
    """k[x]/x^n on the powers of x, or k^n on orthogonal idempotents;
    one time in five a product line is dropped or doubled."""
    n = rng.randint(1, 4)
    labels = [f"b{k}" for k in range(n)]
    if rng.random() < 0.5:
        unit = ["b0"]
        muls = [(f"b{i}", f"b{j}", f"b{i + j}") for i in range(n)
                for j in range(n) if i + j < n]
        idempotents = []
    else:
        unit = labels
        muls = [(b, b, b) for b in labels]
        idempotents = labels if rng.random() < 0.5 else []
    if muls and rng.random() < 0.2:
        k = rng.randrange(len(muls))
        if rng.random() < 0.5:
            del muls[k]
        else:
            muls[k] = muls[k][:2] + (f"2*{muls[k][2]}",)
    lines = ["  basis " + " ".join(labels), "  unit " + " + ".join(
        "1*" + _pick(rng, [b], BAD_NAMES) for b in unit)]
    lines += [f"  idempotent 1*{b}" for b in idempotents]
    lines += [f"  mul {_pick(rng, [a], BAD_NAMES)} {b} = {c}"
              for a, b, c in muls]
    return lines, labels, [(b, "[[1]]" if b == "b0" else "[[0]]")
                           for b in labels]


def _poly_ring(rng):
    return ["  var " + _pick(rng, ["x"], ["x y", "2"], rate=0.1)], ["x"], []


def random_document(rng):
    """(document text, argv tail) for one random document."""
    kind = _pick(rng, KINDS, ["banana"])
    body, names, actions = {
        "quiver": _quiver, "poly_quotient": _poly_quotient,
        "structure_constants": _structure_constants,
    }.get(kind, _poly_ring)(rng)
    lines = [f"field {_pick(rng, FIELD_NAMES, BAD_FIELDS)}",
             f"algebra {kind}"] + body + ["end"]
    modules = []
    if actions and rng.random() < 0.2:
        modules.append("M")
        lines += ["module M", "  dim 1"]
        lines += [f"  action {_pick(rng, [a], BAD_NAMES)} "
                  f"{_pick(rng, [m], ['[[2]]', '[[1, 0]]', '[1]'])}"
                  for a, m in actions if rng.random() < 0.95]
        lines.append("end")
    for _ in range(rng.randrange(1, 3) if kind == "poly_ring" else 0):
        lines.append("point " + _pick(rng, ["0", "1", "-1/2", "2"],
                                      ["M", "q", "1/0"]))
    if rng.random() < 0.2:
        lines += ["options", "  order " + _pick(rng, ["2", "3"],
                                                ["0", "x", "10^9"]), "end"]
    command = rng.choice(COMMANDS)
    args = [command]
    order = rng.choice(ORDERS)
    if order is not None:
        args += ["--order", order]
    if command == "dset" or rng.random() < 0.1:
        args += ["--elem", _sum(rng, [_pick(rng, names or ["1"], BAD_NAMES)
                                      for _ in range(rng.randint(1, 2))])]
    if modules and rng.random() < 0.5:
        args += ["--modules", "M"]
    return "\n".join(lines) + "\n", args


def random_cases(count, seed):
    rng = random.Random(seed)
    return [random_document(rng) for _ in range(count)]


def test_random_documents_keep_the_exit_code_contract(tmp_path):
    # each case in its own child, so a run-away case fails alone
    doc = tmp_path / "doc.txt"
    for text, args in random_cases(40, 26):
        doc.write_text(text, encoding="utf-8")
        proc = run_cli(args + ["--input", str(doc)], timeout=60)
        assert proc.returncode in (0, 1, 2), (args, text, proc.stderr)
        assert "Traceback" not in proc.stderr, (args, text, proc.stderr)
