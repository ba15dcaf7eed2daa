"""The aspec benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload hull_wide_qq --seed 1 --seconds 30 \
        --trace 0 [--report detail.json] [--spans spans.tsv]

Run from the root of a source checkout (it imports `src/aspec`).  The
job list comes from the seed (see jobs.py).  Jobs run one at a time,
each starting when the previous one is done, in passes over the list,
until the next pass would end after `--seconds`; every job runs in at
least MIN_PASSES passes.  Every answer is checked against a reference
that does not come from the engine.  Jobs that hit a known defect run
once per run, untimed.  `attempted` is the number of jobs in the list
and `failed` the number that gave a wrong answer in any pass, so both
depend on the seed only.

Every end-to-end time is scaled to the speed of a reference host.  On
a shared host other tenants slow this process by up to 2x, in phases of
seconds to minutes, and the engine's pure-Python work slows by about the
same factor as any other; so a fixed pure-Python loop (`reference_loop`)
is timed before and after each job, and the job's seconds are multiplied
by REF_S over the mean of the two: the seconds the job would take on the
reference host.  The unscaled seconds are in the `--report` detail, and
per-layer seconds are not scaled.

With `--trace 0` the last line of stdout holds the end-to-end metrics.
A job's time is the median of its scaled seconds over the passes.

  wall_s       sum over the job list of each job's time
  job_p50_ms   median of the job times
  job_p90_ms   90th percentile of the job times
  setup_s      median over SETUP_PROBES fresh interpreters, spread over
               the run, of the time to import aspec.cli and parse the
               workload's documents
  peak_rss_mb  peak resident memory of this process

With `--trace 1` passes alternate untraced and traced, and the last line
holds the per-layer metrics of one pass (counters) or the median over
the traced passes (seconds); see tracer.py for how spans are taken.
`--report` writes the per-job detail (seconds, digest, counters).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import jobs
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"

MIN_PASSES = 3
SETUP_PROBES = 7
# Seconds reference_loop() takes on an otherwise idle core of a 2.1 GHz
# Xeon under CPython 3.11: the reference host all times are scaled to.
REF_S = 0.0045
EXIT_CODES = (0, 1, 2, 3)

# The per-layer metrics a traced run reports: (name, unit, better).
# Counters are per pass of the job list and deterministic; the `_s`
# values are medians over the traced passes.
PER_LAYER = [
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.rref.rank_ratio", "ratio", "higher"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.kernel_basis.calls", "count", "lower"),
    ("linalg.row_space_basis.calls", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("hochschild.is_two_cocycle.calls", "count", "lower"),
    ("hochschild.is_two_cocycle.self_s", "s", "lower"),
    ("hochschild.split_two_cocycle.calls", "count", "lower"),
    ("hochschild.split_two_cocycle.self_s", "s", "lower"),
    ("hochschild.two_cocycle_classes_independent.self_s", "s", "lower"),
    ("hochschild.BarComparison.calls", "count", "lower"),
    ("hochschild.BarComparison.self_s", "s", "lower"),
    ("hochschild.self_s", "s", "lower"),
    ("ext.Resolution.calls", "count", "lower"),
    ("ext.Resolution.self_s", "s", "lower"),
    ("ext.ext.calls", "count", "lower"),
    ("ext.ext.self_s", "s", "lower"),
    ("ext.self_s", "s", "lower"),
    ("hull.hull.calls", "count", "lower"),
    ("hull.hull.self_s", "s", "lower"),
    ("hull.RPointedAlgebra.calls", "count", "lower"),
    ("hull.RPointedAlgebra.self_s", "s", "lower"),
    ("hull.RPointedAlgebra.words", "count", "lower"),
    ("hull.RPointedAlgebra.reduced_ratio", "ratio", "higher"),
    ("hull.o_algebra.self_s", "s", "lower"),
    ("hull.maximal_ideals.self_s", "s", "lower"),
    ("hull.closure_check.total_s", "s", "lower"),
    ("hull.invert_unit.calls", "count", "lower"),
    ("hull.self_s", "s", "lower"),
    ("topology.sections.calls", "count", "lower"),
    ("topology.sections.self_s", "s", "lower"),
    ("topology.sections.hit_ratio", "ratio", "higher"),
    ("topology.sheaf_sections.self_s", "s", "lower"),
    ("topology.sheafify_check.self_s", "s", "lower"),
    ("topology.stalk.self_s", "s", "lower"),
    ("topology.spec_compare.self_s", "s", "lower"),
    ("topology.global_sections_roundtrip.self_s", "s", "lower"),
    ("topology.self_s", "s", "lower"),
    ("modules.simple_modules.self_s", "s", "lower"),
    ("algebra.radical.calls", "count", "lower"),
    ("quiver.from_quiver.self_s", "s", "lower"),
    ("polyquot.from_poly_quotient.self_s", "s", "lower"),
    ("algebra.from_structure_constants.self_s", "s", "lower"),
    ("polyquot.factor_univariate.calls", "count", "lower"),
    ("polyquot.factor_univariate.self_s", "s", "lower"),
    ("polyring.hull_poly_ring.self_s", "s", "lower"),
    ("polyring.PolyOAlgebra.self_s", "s", "lower"),
    ("cli.parse.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("output.digest_changes", "count", "lower"),
]

# ratio -> (numerator counter, denominator counter)
RATIOS = {
    "linalg.rref.rank_ratio": ("linalg.rref.rank", "linalg.rref.rows"),
    "hull.RPointedAlgebra.reduced_ratio": ("hull.RPointedAlgebra.reduced",
                                           "hull.RPointedAlgebra.words"),
    "topology.sections.hit_ratio": ("topology.sections.hits",
                                    "topology.sections.calls"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", help="write the per-job detail here (JSON)")
    p.add_argument("--spans", help="write every span here (traced runs)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def workdir(args):
    return WORK / f"{args.workload}-{args.seed}"


def setup_probe(args):
    """In a fresh interpreter: import aspec.cli and parse every input."""
    start = time.perf_counter()
    import aspec.cli
    texts = {job.text for job in
             jobs.make_jobs(args.workload, args.seed, workdir(args))}
    for text in sorted(texts - {None}):
        try:
            aspec.cli.parse(text)
        except aspec.cli.AspecError:
            pass                       # the documents of known defects
    print(time.perf_counter() - start)


def measure_setup(args):
    """Seconds one fresh interpreter takes for `setup_probe`, scaled to
    the reference host."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    before = reference_seconds()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=120, check=True)
    after = reference_seconds()
    return float(proc.stdout.split()[-1]) * 2 * REF_S / (before + after)


def reference_loop():
    """A fixed computation of the engine's kind (exact rational
    elimination, small-integer arithmetic mod 5, tuple-keyed dict
    updates) that shares no code with aspec, so its time moves only
    with the speed the host gives this process."""
    n = 10
    m = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    acc = {}
    for i in range(12000):
        key = (i % 89, i % 7)
        acc[key] = acc.get(key, 1) * (i | 1) % 5
    return m, acc


def reference_seconds():
    """Time one reference_loop(), with the cyclic collector off so that
    objects the engine keeps alive cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    reference_loop()
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class Outcome:
    """What one execution of a job gave."""

    def __init__(self, job):
        start = time.perf_counter()
        try:
            code, out = job.call()
        except Exception as exc:       # an escaped exception is a failure
            code, out = None, f"{type(exc).__name__}: {exc}"
        self.seconds = time.perf_counter() - start
        self.code = code
        if code is None:
            self.why = f"raised {out}"
        elif code not in EXIT_CODES:
            self.why = f"exit code {code} is outside the documented contract"
        else:
            self.why = job.check(code, out)
        self.digest = jobs.digest(code, out)


def run(args):
    all_jobs = jobs.make_jobs(args.workload, args.seed, workdir(args))
    timed = [j for j in all_jobs if j.known_defect is None]
    detail = {j.name: {"known_defect": j.known_defect, "seconds": [],
                       "digest": None, "why": None} for j in all_jobs}
    wrong = set()
    correct = True

    def record(job, outcome):
        nonlocal correct
        d = detail[job.name]
        if outcome.why is not None:
            wrong.add(job.name)
            d["why"] = outcome.why
            if job.known_defect is None:
                correct = False
        if d["digest"] is None:
            d["digest"] = outcome.digest
        elif d["digest"] != outcome.digest:
            correct = False
            d["why"] = "output differs between passes"

    for job in all_jobs:
        if job.known_defect is not None:
            record(job, Outcome(job))

    tracer = Tracer() if args.trace else None
    samples = {False: {j.name: [] for j in timed},
               True: {j.name: [] for j in timed}}
    measured = {j.name: [] for j in timed}
    setup = []
    begin = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        if not tracer and len(setup) < SETUP_PROBES:
            setup.append(measure_setup(args))
        traced = bool(tracer) and passes % 2 == 1
        if traced:
            tracer.install()
        before = reference_seconds()
        for job in timed:
            if traced:
                tracer.job = (passes, job.name)
            outcome = Outcome(job)
            after = reference_seconds()
            record(job, outcome)
            measured[job.name].append(outcome.seconds)
            samples[traced][job.name].append(
                outcome.seconds * 2 * REF_S / (before + after))
            before = after
        if traced:
            tracer.uninstall()
        now = time.perf_counter()
        passes += 1
        need = 2 if tracer else MIN_PASSES
        if passes >= need and now + (now - pass_start) > begin + args.seconds:
            break
    while not tracer and len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args))

    for job in timed:
        detail[job.name]["seconds"] = samples[False][job.name]
        detail[job.name]["measured_seconds"] = measured[job.name]
        if tracer:
            detail[job.name]["traced_seconds"] = samples[True][job.name]
    recorded = load_digests().get(args.workload, {}).get(str(args.seed))
    changes = None
    if recorded is not None:
        changes = sum(1 for name, d in detail.items()
                      if recorded.get(name) != d["digest"])
    result = {"correct": correct, "attempted": len(all_jobs),
              "failed": len(wrong)}
    if tracer:
        layer, per_job = per_layer(tracer, timed, samples, passes)
        layer["output.digest_changes"] = changes or 0
        result["metrics"] = {name: {"value": layer[name], "unit": unit}
                             for name, unit, _ in PER_LAYER}
        for name, counters in per_job.items():
            detail[name]["counters"] = counters
        if args.spans:
            tracer.dump(args.spans)
    else:
        times = [statistics.median(samples[False][j.name]) for j in timed]
        cuts = statistics.quantiles([t * 1000 for t in times], n=10,
                                    method="inclusive")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"wall_s": (sum(times), "s"), "job_p50_ms": (cuts[4], "ms"),
                  "job_p90_ms": (cuts[8], "ms"),
                  "setup_s": (statistics.median(setup), "s"),
                  "peak_rss_mb": (rss, "MB")}
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in values.items()}
    if args.report:
        report = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "passes": passes,
                  "digest_changes": changes, "result": result,
                  "jobs": detail}
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n",
                                     encoding="utf-8")
    return result


def per_layer(tracer, timed, samples, passes):
    """Per-layer metrics, plus each job's counters, from the first traced
    pass (counters) and the median over traced passes (seconds)."""
    summaries = tracer.summaries()
    per_pass = []
    for p in range(1, passes, 2):
        total = Counter()
        for job in timed:
            total.update(summaries[(p, job.name)])
        per_pass.append(total)
    per_job = {job.name: {k: v for k, v in
                          sorted(summaries[(1, job.name)].items())
                          if not k.endswith("_s")} for job in timed}
    first = per_pass[0]
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = first.get(num, 0) / first[den] if first.get(den) \
                else 0.0
        elif unit == "s":
            out[name] = statistics.median(t.get(name, 0.0) for t in per_pass)
        else:
            out[name] = first.get(name, 0)
    traced = sum(statistics.median(samples[True][j.name]) for j in timed)
    plain = sum(statistics.median(samples[False][j.name]) for j in timed)
    out["trace.overhead_ratio"] = traced / plain
    return out, per_job


def load_digests():
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "aspec" / "__init__.py").is_file():
        print(f"error: no aspec sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
