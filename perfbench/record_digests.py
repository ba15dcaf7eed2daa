"""Record the digest of every job's output for a range of seeds.

    python3 perfbench/record_digests.py 0 15

runs each job of each workload once per seed (untraced, untimed) and
rewrites perfbench/digests.json.  A run whose seed is recorded there
reports how many job outputs changed since (`output.digest_changes`).
"""

from __future__ import annotations

import json
import sys

import jobs
import run


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, str(run.SRC))
    table = run.load_digests()
    for workload in jobs.WORKLOADS:
        per_seed = table.setdefault(workload, {})
        for seed in range(first, last + 1):
            workdir = run.WORK / f"{workload}-{seed}"
            per_seed[str(seed)] = {
                job.name: run.Outcome(job).digest
                for job in jobs.make_jobs(workload, seed, workdir)}
            print(workload, seed, file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
