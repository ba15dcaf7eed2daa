"""Outside-in spans and counters for the aspec modules.

`Tracer.install()` replaces every attribute of every `aspec.*` module
that *is* one of the traced functions, so copies made by
`from .linalg import rref` are wrapped too; class constructors and a few
heavy methods are wrapped on the class, so `isinstance` keeps working.
`aspec.hull` is reached through `sys.modules`, because the package
re-exports the `hull` function over the submodule of that name.
`uninstall()` restores every original.

Spans stay in memory until the run ends.  Per-scalar and per-entry code
(`fields`, `Mat`, the `vec_*` and `poly_*` helpers) gets no span: their
call counts are in the millions, and a span on `Mat.mul` alone added
about 45% to the A5 hull.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict

MODULES = ("algebra", "quiver", "polyquot", "polyring", "modules", "ext",
           "hochschild", "hull", "topology", "linalg", "cli")

# public names that are per-entry helpers, not layer boundaries
SKIP = {
    "linalg": {"Mat", "vec_add", "vec_sub", "vec_scale", "vec_is_zero",
               "zero_vec", "unit_vec", "rank"},
    "polyquot": {"poly_clean", "poly_add", "poly_scale", "poly_mul",
                 "leading", "poly_reduce"},
    "hochschild": {"psi_of", "cochain2_of"},
    "ext": {"sum_entry"},
    "cli": {"Report", "InputDocument", "parse_combination",
            "parse_poly_terms", "parse_matrix", "serialize", "main"},
    "algebra": {"coords_in_basis"},
    "polyring": {"taylor_shift", "is_poly_ring"},
    "topology": {"SectionData", "StalkData", "is_simple_point"},
    "modules": {"SpectralPoint", "action_of"},
}

# heavy methods that get their own span, named <module>.<method>
METHODS = {
    ("topology", "ASpecSpace"): ("sections", "sheaf_sections",
                                 "sheafify_check", "stalk"),
    ("algebra", "Algebra"): ("radical",),
}


def _rref_counts(counts, args, result):
    m = args[0]
    counts["linalg.rref.cells"] += m.rows * m.cols
    counts["linalg.rref.rows"] += m.rows
    counts["linalg.rref.rank"] += result[2]


def _rpointed_counts(counts, args, result):
    alg = args[0]
    counts["hull.RPointedAlgebra.words"] += len(alg.all_words)
    counts["hull.RPointedAlgebra.reduced"] += len(alg.reduced_words)


class Tracer:
    """Spans are (name, start, end, self_s, parent index, job, outer),
    where outer is true when no span of the same name encloses it."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)      # job -> counter name -> n
        self.job = None
        self._stack = []                        # [span index, child time]
        self._active = Counter()                # name -> open spans
        self._saved = []                        # (owner, attr, original)
        self._seen_opens = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer._stack.append(frame)
            tracer._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                outer = tracer._active[name] == 0
                tracer.spans[index] = (name, start, end, dur - frame[1],
                                       parent, tracer.job, outer)
            if after is not None:
                after(tracer.counts[tracer.job], args, result)
            return result

        return wrapper

    def _sections_after(self, counts, args, result):
        space, key = args[0], frozenset(args[1])
        seen = self._seen_opens.setdefault(space, set())
        if key in seen:
            counts["topology.sections.hits"] += 1
        seen.add(key)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._saved:
            return
        modules = {short: sys.modules[f"aspec.{short}"] for short in MODULES}
        wrappers = {}                           # id(original) -> wrapper
        originals = {}
        hooks = {"linalg.rref": _rref_counts,
                 "hull.RPointedAlgebra": _rpointed_counts,
                 "topology.sections": self._sections_after}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in SKIP.get(short, ()):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
                    originals[id(obj)] = obj
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    name = f"{short}.{attr}"
                    self._replace(obj, "__init__", self._wrap(
                        name, obj.__init__, hooks.get(name)))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for meth in methods:
                name = f"{short}.{meth}"
                self._replace(cls, meth, self._wrap(
                    name, vars(cls)[meth], hooks.get(name)))
        owners = list(modules.values()) + [sys.modules["aspec"]]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._replace(owner, attr, wrappers[id(obj)])

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- aggregation ----------------------------------------------------------

    def summaries(self):
        """{job: {metric: value}} from every span and counter."""
        out = defaultdict(Counter)
        for name, start, end, self_s, parent, job, outer in self.spans:
            summary = out[job]
            summary[f"{name}.calls"] += 1
            summary[f"{name}.self_s"] += self_s
            if outer:
                summary[f"{name}.total_s"] += end - start
            summary[f"{name.split('.')[0]}.self_s"] += self_s
        for job, counts in self.counts.items():
            out[job].update(counts)
        return out

    def dump(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tself_s\tparent\tjob\n")
            for name, start, end, self_s, parent, job, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{self_s:.9f}\t"
                         f"{parent}\t{job}\n")
