"""The baseline rows of ROADMAP.md, from the benchmark's own jobs.

    python3 perfbench/baseline.py [--repeat 3]

prints, per row, the median seconds over `--repeat` runs and the
row's counters from one traced run:

  - `hull` + `o_algebra` with the simples at the default order, on the
    path quivers A3, A4, A5 and on k[x]/x^n for n = 3..6, over Q;
  - `aspec verify` on docs/examples/a2_quiver.txt, with its hull count.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

import jobs
import run
from tracer import Tracer


def rows():
    rng = random.Random("baseline")
    out = [jobs.library_job(jobs.path_quiver(rng, n), with_ideals=False)
           for n in (3, 4, 5)]
    out += [jobs.library_job(jobs.univariate(rng, f"kx^{n}", {0: n}),
                             with_ideals=False) for n in (3, 4, 5, 6)]
    verify = jobs.EXAMPLES / "a2_quiver.txt"
    out.append(jobs.cli_job("verify a2_quiver",
                            ["verify", "--input", str(verify)],
                            lambda code, text: None if code == 0 else
                            f"exit {code}"))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeat", type=int, default=3)
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    tracer = Tracer()
    keys = ("hull.hull.calls", "ext.Resolution.calls",
            "topology.sections.calls", "hull.RPointedAlgebra.words")
    print(f"{'row':22s} {'median_s':>9s}  " + "  ".join(keys))
    for job in rows():
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            code, out = job.call()
            times.append(time.perf_counter() - start)
            why = job.check(code, out)
            if why:
                print(f"{job.name}: wrong answer: {why}", file=sys.stderr)
                return 1
        tracer.install()
        tracer.job = job.name
        try:
            job.call()
        finally:
            tracer.uninstall()
        counts = tracer.summaries()[job.name]
        print(f"{job.name:22s} {statistics.median(times):9.3f}  " +
              "  ".join(f"{counts.get(k, 0):>{len(k)}}" for k in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main())
