"""The benchmark's own test: two traced runs of the same code agree.

    python3 -m pytest perfbench/test_perfbench.py

For each workload, two short traced runs must give the same digest for
every job and the same deterministic counters (every count and ratio),
all answers must be right, and the digests must match the ones recorded
in digests.json for that seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SEED = 1


def traced_run(workload, path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1",
         "--report", str(path)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(path.read_text(encoding="utf-8"))


def deterministic(report):
    """The counts and ratios of a traced run, without the timing ratio."""
    return {k: v["value"] for k, v in report["result"]["metrics"].items()
            if v["unit"] in ("count", "ratio")
            and k != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload",
                         ["hull_wide_qq", "tower_deep_f5", "cli_space"])
def test_two_traced_runs_agree(workload, tmp_path):
    first = traced_run(workload, tmp_path / "first.json")
    second = traced_run(workload, tmp_path / "second.json")
    assert first["result"]["correct"] and second["result"]["correct"]
    for name, job in first["jobs"].items():
        other = second["jobs"][name]
        assert job["digest"] == other["digest"], name
        assert job.get("counters") == other.get("counters"), name
    assert deterministic(first) == deterministic(second)
    assert first["digest_changes"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    sys.path.insert(0, str(HERE))
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        ["hull_wide_qq", "tower_deep_f5", "cli_space"]


def test_refuses_to_run_without_sources(tmp_path):
    """Outside a source checkout the benchmark prints no result."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in HERE.glob("*.py"):
        (copy / f.name).write_text(f.read_text(encoding="utf-8"),
                                   encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "cli_space",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
