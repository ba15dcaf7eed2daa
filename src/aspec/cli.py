"""Batch command-line interface.

Input documents are line-oriented with indented blocks closed by `end`
(grammar in docs/input-format.md).  Reports are plain text with a fixed
section order, or an explicit key-value tree with --format tree; output
is byte-deterministic for a given input (timing is opt-in).

Exit codes: 0 success, 1 verification failure, 2 input error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time

from .algebra import from_structure_constants
from .errors import (
    AspecError,
    InputError,
    InternalInvariantError,
    NotAUnitError,
    UnsupportedAlgebraError,
    ValidationError,
)
from .fields import field_from_name
from .ext import Resolution, ext
from .hull import default_order, hull, maximal_ideals, o_algebra
from .linalg import Mat, _add_scaled, row_space_basis
from .modules import ModuleRep, SpectralPoint, simple_modules
from .polyquot import from_poly_quotient
from .polyring import (
    PointModule,
    PolynomialRing,
    PolyOAlgebra,
    ext_point_modules,
    hull_poly_ring,
    is_poly_ring,
    poly_order,
)
from .quiver import QuiverPresentation, from_quiver
from .topology import (
    SHEAF_CHECK_MAX_POINTS,
    ASpecSpace,
    closure_check,
    compare_with_spec,
    global_sections_roundtrip,
    space_of_simples,
    spec_compare,
)


class InputDocument:
    def __init__(self):
        self.field = None
        self.algebra = None
        self.generators = {}       # generator name -> element of the algebra
        self.modules = {}          # name -> ModuleRep (or PointModule)
        self.points = []           # declared spectral point names/values
        self.options = {"order": None, "elems": []}
        self.text = ""

    def digest(self):
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()[:16]


# -- scalar / element expression parsing ------------------------------------


def _signed_terms(field, text):
    """[(coefficient, name)] for the terms of a signed sum such as
    '1/2*a.b - c*d + 3'.  A term is an optional sign, then a scalar and
    '*' when its first factor starts with a digit, then its name; a
    term of one factor keeps that factor as its name, scalar or not."""
    out = []
    for term in text.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        coeff = field.one
        if term.startswith("-"):
            coeff, term = field.neg(coeff), term[1:].strip()
        head, star, rest = term.partition("*")
        if star and head[:1].isdigit():
            coeff, term = field.mul(coeff, field.parse(head)), rest.strip()
        out.append((coeff, term))
    return out


def parse_combination(field, text, label_to_vec, dim):
    """'1/2*e1 + x - 2*e2' as a coordinate vector; bare scalars mean
    scalar * 1 when a unit vector is supplied under the key '1'."""
    vec = [field.zero] * dim
    terms = _signed_terms(field, text)
    if not terms:
        raise InputError("empty element expression")
    for coeff, label in terms:
        if label not in label_to_vec and label[:1].isdigit():
            coeff, label = field.mul(coeff, field.parse(label)), "1"
        if label not in label_to_vec:
            raise InputError(f"unknown label {label!r} in element")
        _add_scaled(field, vec, coeff, label_to_vec[label])
    return vec


def parse_poly_terms(field, text, var_names):
    """Polynomial text like 'x^2 - x*y + 1/2' into {exponent tuple: coeff}."""
    out = {}
    for coeff, name in _signed_terms(field, text):
        expo = [0] * len(var_names)
        for factor in name.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if "^" in factor:
                base, power = factor.split("^", 1)
                base = base.strip()
                if base not in var_names:
                    raise InputError(f"unknown variable {base!r}")
                try:
                    expo[var_names.index(base)] += int(power)
                except ValueError:
                    raise InputError(f"bad exponent in {factor!r}") from None
            elif factor in var_names:
                expo[var_names.index(factor)] += 1
            else:
                coeff = field.mul(coeff, field.parse(factor))
        key = tuple(expo)
        out[key] = field.add(out.get(key, field.zero), coeff)
    return {k: c for k, c in out.items() if not field.is_zero(c)}


def parse_matrix(field, text):
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise InputError(f"matrix literal expected, got {text!r}")
    rows = []
    for row_text in text[2:-2].split("],"):
        row_text = row_text.strip().lstrip("[").rstrip("]")
        if not row_text:
            rows.append([])
            continue
        rows.append([field.parse(x) for x in row_text.split(",")])
    return rows


# -- document parsing ---------------------------------------------------------


def parse(text):
    doc = InputDocument()
    doc.text = text
    lines = []
    for raw_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            lines.append((raw_no, stripped.strip()))
    pos = 0

    def error(no, msg):
        raise InputError(f"line {no}: {msg}")

    while pos < len(lines):
        no, line = lines[pos]
        head = line.split()
        if head[0] == "field":
            if len(head) != 2:
                error(no, "usage: field <Q|Fp>")
            doc.field = field_from_name(head[1])
            pos += 1
        elif head[0] == "algebra":
            if doc.field is None:
                error(no, "field must be declared before the algebra")
            if len(head) != 2:
                error(no, "usage: algebra <kind>")
            pos = _parse_algebra(doc, lines, pos, head[1], error)
        elif head[0] == "module":
            if doc.algebra is None:
                error(no, "algebra must be declared before modules")
            pos = _parse_module(doc, lines, pos, error)
        elif head[0] == "point":
            if len(head) < 2:
                error(no, "usage: point <module-name | scalar>")
            doc.points.append(" ".join(head[1:]))
            pos += 1
        elif head[0] == "options":
            pos = _parse_options(doc, lines, pos, error)
        else:
            error(no, f"unknown directive {head[0]!r}")
    if doc.field is None or doc.algebra is None:
        raise InputError("document needs a field and an algebra block")
    return doc


def _block(lines, pos, error):
    """Lines of an indented block: from pos+1 until 'end'."""
    start_no = lines[pos][0]
    body = []
    pos += 1
    while pos < len(lines):
        no, line = lines[pos]
        if line == "end":
            return body, pos + 1
        body.append((no, line))
        pos += 1
    error(start_no, "unterminated block (missing 'end')")


def _parse_int(text, no, what, error):
    try:
        return int(text)
    except ValueError:
        error(no, f"bad {what} {text!r}")


def _parse_algebra(doc, lines, pos, kind, error):
    f = doc.field
    no0 = lines[pos][0]
    body, pos = _block(lines, pos, error)
    if kind == "quiver":
        vertices, arrows, relations = [], [], []
        for no, line in body:
            head = line.split()
            if head[0] == "vertex" and len(head) == 2:
                vertices.append(head[1])
            elif head[0] == "arrow" and len(head) == 4:
                arrows.append((head[1], head[2], head[3]))
            elif head[0] == "relation":
                relations.append([
                    (coeff, [a.strip() for a in path.split(".")])
                    for coeff, path in _signed_terms(
                        f, line[len("relation"):])])
            else:
                error(no, f"bad quiver line: {line!r}")
        pres = QuiverPresentation(vertices, arrows, relations)
        alg = doc.algebra = from_quiver(pres, field=f)
        for v in vertices:
            doc.generators[v] = doc.generators[f"e_{v}"] = \
                alg.element_from_label(f"e_{v}")
        for a in arrows:
            doc.generators[a[0]] = alg.element_from_label(a[0])
    elif kind == "structure_constants":
        basis, unit_text, idems, muls = None, None, [], {}
        for no, line in body:
            head = line.split()
            if head[0] == "basis":
                basis = head[1:]
            elif head[0] == "unit":
                unit_text = line[len("unit"):].strip()
            elif head[0] == "idempotent":
                idems.append(line[len("idempotent"):].strip())
            elif head[0] == "mul":
                if "=" not in line:
                    error(no, "usage: mul a b = combination")
                lhs, rhs = line.split("=", 1)
                parts = lhs.split()
                if len(parts) != 3:
                    error(no, "usage: mul a b = combination")
                if (parts[1], parts[2]) in muls:
                    error(no, f"duplicate product {parts[1]} {parts[2]}")
                muls[(parts[1], parts[2])] = (no, rhs.strip())
            else:
                error(no, f"bad structure_constants line: {line!r}")
        if basis is None or unit_text is None:
            error(no0, "structure_constants needs basis and unit")
        dim = len(basis)
        label_to_vec = {lab: [f.one if i == j else f.zero
                              for j in range(dim)]
                        for i, lab in enumerate(basis)}
        for pair, (no, _) in muls.items():
            for lab in pair:
                if lab not in label_to_vec:
                    error(no, f"unknown label {lab!r} in mul")
        table = []
        for a in basis:
            row = []
            for b in basis:
                expr = muls.get((a, b), (None, ""))[1]
                if not expr or expr == "0":
                    row.append([f.zero] * dim)
                else:
                    row.append(parse_combination(f, expr, label_to_vec, dim))
            table.append(row)
        unit = parse_combination(f, unit_text, label_to_vec, dim)
        idem_vecs = [parse_combination(f, t, label_to_vec, dim)
                     for t in idems] or None
        doc.algebra = from_structure_constants(f, basis, table, unit,
                                               idempotents=idem_vecs)
        doc.generators = label_to_vec
    elif kind == "poly_quotient":
        var_names, rels = [], []
        for no, line in body:
            head = line.split()
            if head[0] == "var":
                var_names.extend(head[1:])
            elif head[0] == "relation":
                rels.append((no, line[len("relation"):].strip()))
            else:
                error(no, f"bad poly_quotient line: {line!r}")
        if not var_names:
            error(no0, "poly_quotient needs variables")
        polys = []
        for no, rel in rels:
            try:
                polys.append(parse_poly_terms(f, rel, var_names))
            except InputError as exc:
                error(no, str(exc))
        alg = doc.algebra = from_poly_quotient(f, var_names, polys)
        doc.generators = dict(zip(var_names, alg.poly_data["variables"]))
    elif kind == "poly_ring":
        var = "x"
        for no, line in body:
            head = line.split()
            if head[0] == "var" and len(head) == 2:
                var = head[1]
            else:
                error(no, f"bad poly_ring line: {line!r}")
        doc.algebra = PolynomialRing(f, var)
    else:
        error(no0, f"unknown algebra kind {kind!r}")
    return pos


def _parse_module(doc, lines, pos, error):
    no0, header = lines[pos]
    head = header.split()
    if len(head) != 2:
        error(no0, "usage: module <name>")
    name = head[1]
    body, pos = _block(lines, pos, error)
    f = doc.field
    if is_poly_ring(doc.algebra):
        error(no0, "poly_ring takes points, not module blocks")
    dim = None
    actions = {}
    for no, line in body:
        head = line.split()
        if head[0] == "dim" and len(head) == 2:
            dim = _parse_int(head[1], no, "module dimension", error)
        elif head[0] == "action" and len(head) >= 3:
            gen = head[1]
            mat_text = line.split(None, 2)[2]
            actions[gen] = parse_matrix(f, mat_text)
        else:
            error(no, f"bad module line: {line!r}")
    if dim is None:
        error(no0, f"module {name!r} needs a dim line")
    for gen, rows in actions.items():
        if len(rows) != dim or any(len(r) != dim for r in rows):
            error(no0, f"module {name!r}: action for {gen!r} is not "
                  f"{dim}x{dim}")
        if gen not in doc.generators:
            error(no0, f"module {name!r}: {gen!r} is not a generator of "
                  "the algebra")
    actions = {gen: Mat(f, rows) for gen, rows in actions.items()}
    module = ModuleRep(doc.algebra, _expand_actions(doc, dim, actions, name,
                                                    error, no0), name=name)
    for gen, mat in actions.items():
        if module.act(doc.generators[gen]) != mat:
            error(no0, f"module {name!r}: action for {gen!r} is not the "
                  "action of the element it names")
    doc.modules[name] = module
    return pos


def _expand_actions(doc, dim, actions, name, error, no0):
    """The action of every basis element: the product of its generators'
    actions along its word (`Algebra.words`; without words every basis
    element is its own).  A generator acts as declared under any name of
    the same element (a vertex as `1` or `e_1`); the unit generator whose
    label is no name, a quotient's monomial 1, acts as the identity."""
    alg = doc.algebra
    by_element = {tuple(doc.generators[gen]): mat
                  for gen, mat in actions.items()}
    acting = {}
    for g in alg.generators:
        element = tuple(alg.basis_vector(g))
        acting[g] = Mat.identity(doc.field, dim) if (
            element == tuple(alg.unit)
            and alg.labels[g] not in doc.generators) \
            else by_element.get(element)
    mats = []
    for word in alg.words or [(i,) for i in range(alg.dim)]:
        mat = Mat.identity(doc.field, dim)
        for g in word:
            if acting[g] is None:
                error(no0, f"module {name!r}: missing action for "
                      f"{alg.labels[g]!r}")
            mat = mat.mul(acting[g])
        mats.append(mat)
    return mats


def _parse_options(doc, lines, pos, error):
    body, pos = _block(lines, pos, error)
    for no, line in body:
        head = line.split(None, 1)
        if head[0] == "order" and len(head) == 2:
            doc.options["order"] = _parse_int(head[1], no, "order", error)
        elif head[0] == "elem" and len(head) == 2:
            doc.options["elems"].append(head[1])
        else:
            error(no, f"bad option line: {line!r}")
    return pos


# -- report assembly -----------------------------------------------------------


class Report:
    def __init__(self, command, doc):
        self.command = command
        self.digest = doc.digest()
        self.sections = []       # (title, list of (key, value) or strings)
        self.failed = False
        self.elapsed_ms = None

    def add(self, title, entries):
        self.sections.append((title, entries))

    def text(self, show_timing=False):
        return self._render("[{}]", "", show_timing)

    def tree(self, show_timing=False):
        return self._render("{}:", "- ", show_timing)

    def _render(self, header, bullet, show_timing):
        out = [f"command: {self.command}", f"input: {self.digest}"]
        for title, entries in self.sections:
            out.append(header.format(title))
            for e in entries:
                if isinstance(e, tuple):
                    out.append(f"  {e[0]}: {e[1]}")
                else:
                    out.append(f"  {bullet}{e}")
        out.append(f"status: {'FAIL' if self.failed else 'OK'}")
        if show_timing and self.elapsed_ms is not None:
            out.append(f"time_ms: {self.elapsed_ms}")
        return "\n".join(out) + "\n"


def _poly_points(doc):
    """The point modules of a k[x] document, in declaration order."""
    alg = doc.algebra
    if not doc.points:
        raise InputError("poly_ring commands need declared points")
    return [PointModule(alg, alg.field.parse(p)) for p in doc.points]


def _family(doc, module_names):
    alg = doc.algebra
    if is_poly_ring(alg):
        return _poly_points(doc)
    if module_names:
        fam = []
        simples = {m.name: m for m in simple_modules(alg)}
        for name in module_names:
            if name in doc.modules:
                fam.append(doc.modules[name])
            elif name in simples:
                fam.append(simples[name])
            else:
                raise InputError(f"unknown module {name!r}")
        return fam
    return simple_modules(alg)


def _space(doc, order):
    alg = doc.algebra
    extra = []
    for e in doc.options["elems"]:
        extra.append(_parse_element(doc, e))
    if is_poly_ring(alg):
        pts = [SpectralPoint(m) for m in _poly_points(doc)]
        return ASpecSpace(alg, pts, extra_elements=extra, order=order)
    pts = [SpectralPoint(m, provenance="simple", name=m.name)
           for m in simple_modules(alg)]
    for name in doc.points:
        if name not in doc.modules:
            raise InputError(f"declared point {name!r} is not a module")
        pts.append(SpectralPoint(doc.modules[name], name=name))
    return ASpecSpace(alg, pts, extra_elements=extra, order=order)


def _parse_element(doc, text):
    alg = doc.algebra
    f = doc.field
    if is_poly_ring(alg):
        terms = parse_poly_terms(f, text, [alg.var])
        deg = max((m[0] for m in terms), default=0)
        coeffs = [f.zero] * (deg + 1)
        for m, c in terms.items():
            coeffs[m[0]] = c
        return coeffs
    label_to_vec = {lab: list(alg.basis_vector(i))
                    for i, lab in enumerate(alg.labels)}
    label_to_vec.setdefault("1", list(alg.unit))
    return parse_combination(f, text, label_to_vec, alg.dim)


def _fmt_matrix(field, mat):
    rows = []
    for row in mat.data:
        rows.append("[" + ", ".join(field.format(x) for x in row) + "]")
    return "[" + ", ".join(rows) + "]"


def _fmt_ohat_element(ohat, elem):
    """Block matrices whose entries are hull-monomial combinations."""
    h = ohat.hull
    f = ohat.field
    blocks = {}
    for key in [("e", i) for i in range(len(ohat.dims))] + \
            [("m", w) for w in h.reduced_words]:
        m = elem.get(key)
        if m is None or m.is_zero():
            continue
        if key[0] == "e":
            block, mono = (key[1], key[1]), ""
        else:
            block = h.word_block(key[1])
            mono = "*" + ".".join(h.generators[g][0] for g in key[1])
        entries = blocks.setdefault(block, {})
        for r, row in enumerate(m.data):
            for c, x in enumerate(row):
                if not f.is_zero(x):
                    entries.setdefault((r, c), []).append(f.format(x) + mono)
    parts = []
    for (i, j) in sorted(blocks):
        entries = blocks[(i, j)]
        ri, ci = ohat.dims[i], ohat.dims[j]
        rows = []
        for r in range(ri):
            row = []
            for c in range(ci):
                terms = entries.get((r, c))
                row.append(" + ".join(terms) if terms else "0")
            rows.append("[" + ", ".join(row) + "]")
        parts.append(f"block({i + 1},{j + 1}) = [" + ", ".join(rows) + "]")
    return "; ".join(parts) if parts else "0"


# -- commands ------------------------------------------------------------------


def run(command, doc, order=None, module_names=None, elem_text=None):
    report = Report(command, doc)
    t0 = time.monotonic()
    alg = doc.algebra
    f = doc.field
    if order is None:
        order = doc.options["order"]
    if is_poly_ring(alg):
        order = poly_order(order)
    elif order is None:
        order = max(2, default_order(alg))
    if command == "simples":
        if is_poly_ring(alg):
            raise InputError("simples needs a finite-dimensional algebra; "
                             "a poly_ring document declares its points")
        simples = simple_modules(alg)
        entries = []
        for s in simples:
            acts = "; ".join(
                f"{lab}={_fmt_matrix(f, s.action[i])}"
                for i, lab in enumerate(alg.labels))
            entries.append((s.name, f"dim {s.dim}; {acts}"))
        report.add("simples", entries)
    elif command == "ext":
        fam = _family(doc, module_names)
        entries = []
        if is_poly_ring(alg):
            for a in fam:
                for b in fam:
                    for d in (1, 2):
                        dim = ext_point_modules(a, b, d)
                        entries.append(
                            (f"Ext^{d}({a.name},{b.name})", str(dim)))
        else:
            # one resolution per source module; none when A is semisimple
            semisimple = not alg.radical_basis()
            for a in fam:
                res = None if semisimple else Resolution(a)
                for b in fam:
                    for d in (1, 2):
                        dim = ext(a, b, d, resolution=res).dimension
                        entries.append((f"Ext^{d}({a.name},{b.name})",
                                        str(dim)))
        report.add("ext", entries)
    elif command == "hull":
        if is_poly_ring(alg):
            fam = _family(doc, module_names)
            tower, ohat = hull_poly_ring(alg, fam, order)
            entries = list(tower.final.presentation_lines(f.format))
            entries.append(("order", str(order)))
            entries.append(("stabilized", "yes"))
            report.add("hull", entries)
            jets = ohat.rho_of_poly([f.zero, f.one])
            report.add("rho", [(alg.var, _fmt_ohat_element(ohat, jets))])
        else:
            fam = _family(doc, module_names)
            tower, ohat = hull(alg, fam, order)
            entries = list(tower.final.presentation_lines(f.format))
            entries.append(("order", str(order)))
            entries.append(("dim_H", str(tower.final.dim)))
            entries.append(("stabilized",
                            "yes" if tower.stabilized else "no"))
            report.add("hull", entries)
            rho_entries = []
            for i, lab in enumerate(alg.labels):
                rho_entries.append(
                    (lab, _fmt_ohat_element(ohat, ohat.rho_table[i])))
            report.add("rho", rho_entries)
    elif command == "oalg":
        fam = _family(doc, module_names)
        if is_poly_ring(alg):
            o = PolyOAlgebra(alg, fam, order)
            report.add("oalg", [("dim", str(o.dim)),
                                ("points", str(len(fam))),
                                ("order", str(order))])
        else:
            tower, ohat = hull(alg, fam, order)
            o = o_algebra(ohat)
            infos = maximal_ideals(o)
            entries = [("dim", str(o.dim)),
                       ("maximal_ideals", str(len(infos)))]
            for i, info in enumerate(infos):
                entries.append(
                    (f"quotient_{i + 1}",
                     f"dim {info['quotient_dim']}; "
                     f"module_match "
                     f"{'yes' if info['quotient_isomorphic_to_module'] else 'no'}"))
            report.add("oalg", entries)
    elif command == "aspec":
        space = _space(doc, order)
        entries = [("points", ", ".join(p.name for p in space.points))]
        for u in space.opens():
            names = ", ".join(space.points[i].name for i in sorted(u))
            sec = space.sections(u)
            entries.append((f"open {{{names}}}", f"sections dim {sec.dim}"))
        report.add("aspec", entries)
    elif command == "dset":
        if not elem_text:
            raise InputError("dset needs --elem")
        space = _space(doc, order)
        elem = _parse_element(doc, elem_text)
        dset = space.d_set(elem)
        names = ", ".join(space.points[i].name for i in sorted(dset))
        report.add("dset", [("elem", elem_text), ("points", f"{{{names}}}")])
    elif command == "stalk":
        space = _space(doc, order)
        if module_names:
            idx = set()
            for name in module_names:
                found = [i for i, p in enumerate(space.points)
                         if p.name == name]
                if not found:
                    raise InputError(f"unknown point {name!r}")
                idx.add(found[0])
        else:
            idx = {0}
        sd = space.stalk(idx)
        report.add("stalk", [
            ("points", ", ".join(space.points[i].name for i in sorted(idx))),
            ("minimal_open", ", ".join(
                space.points[i].name for i in sorted(sd.minimal_open))),
            ("stalk_dim", str(sd.stalk_sections.dim)),
            ("direct_dim", str(sd.direct_sections.dim)),
            ("comparison_isomorphism",
             "yes" if sd.comparison_is_iso else "no"),
        ])
        report.failed = not sd.comparison_is_iso
    elif command == "verify":
        entries, failed = _verify(doc, order)
        report.add("verify", entries)
        report.failed = failed
    else:
        raise InputError(f"unknown command {command!r}")
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


def _verify(doc, order):
    alg = doc.algebra
    entries = []
    failed = False

    def verdict(name, ok):
        nonlocal failed
        entries.append((name, "PASS" if ok else "FAIL"))
        failed = failed or not ok

    if is_poly_ring(alg):
        report = spec_compare(alg, order=order,
                              points=_family(doc, None))
        verdict("spec-comparison", report["passed"])
        return entries, failed

    # the algebra-level checks run at the default order on the global
    # sections of the space of simples; the space checks at the run order
    n0 = max(2, default_order(alg))
    space = space_of_simples(alg, order=n0)
    o = space.sections(range(len(space.points))).o
    flats = [o.rho_coords(list(alg.basis_vector(i))) for i in range(alg.dim)]
    bij = o.dim == alg.dim and \
        len(row_space_basis(alg.field, flats)) == alg.dim
    verdict("fin-dim-isomorphism", bij)

    infos = maximal_ideals(o)
    verdict("r-locality",
            len(infos) == len(space.points) and
            all(i["quotient_isomorphic_to_module"] for i in infos))

    ok, _detail = closure_check(alg, o)
    verdict("closure", ok)

    if order != n0:
        space = space.at_order(order)
    if len(space.points) <= SHEAF_CHECK_MAX_POINTS:
        sheaf = space.sheafify_check()
        verdict("sheaf-axioms", sheaf["passed"])
    rt = global_sections_roundtrip(space)
    verdict("global-sections-roundtrip", rt["passed"])

    if alg.is_commutative():
        verdict("spec-comparison", compare_with_spec(space)["passed"])
    return entries, failed


@functools.cache
def _parser():
    """The command-line parser, built on the first call to `main` (not at
    import) and shared by every later call in the process."""
    parser = argparse.ArgumentParser(
        prog="aspec",
        description="noncommutative deformation hulls, O-algebras, and "
                    "aSpec spaces over exact fields")
    parser.add_argument("command",
                        choices=["simples", "ext", "hull", "oalg", "aspec",
                                 "dset", "stalk", "verify"])
    parser.add_argument("--input", required=True, help="input document path")
    parser.add_argument("--order", type=int, default=None,
                        help="truncation order N")
    parser.add_argument("--modules", default=None,
                        help="comma-separated module names")
    parser.add_argument("--elem", default=None,
                        help="scalar combination of basis labels")
    parser.add_argument("--format", dest="fmt", choices=["text", "tree"],
                        default="text")
    parser.add_argument("--timing", action="store_true",
                        help="append a (nondeterministic) timing line")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = parse(text)
        modules = args.modules.split(",") if args.modules else None
        report = run(args.command, doc, order=args.order,
                     module_names=modules, elem_text=args.elem)
    except (InputError, ValidationError, UnsupportedAlgebraError,
            NotAUnitError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except AspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other failure is an engine bug, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text_out = report.text(args.timing) if args.fmt == "text" \
        else report.tree(args.timing)
    sys.stdout.write(text_out)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
