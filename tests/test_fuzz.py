"""The exit-code contract on mutated documents.

Every document of `docs/examples` is mutated at random, with a fixed
seed: lines are dropped, duplicated, swapped or truncated, numbers
replaced by odd scalars, the field changed, and relation, action,
module, point, var, vertex, arrow, order and elem lines inserted; each
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
