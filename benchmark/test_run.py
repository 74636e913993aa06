"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q benchmark/test_run.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in out), m["name"]


def test_workload_names_match_the_spec():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_repeats_jobs_counts_and_bodies(workload):
    sizes = run.WORKLOADS[workload]["tiny"]
    first, second = (run.run(workload, 5, 1.0, True, sizes) for _ in range(2))
    assert first.correct and second.correct
    assert first.jobs == second.jobs
    assert first.jobs == [run.make_job(workload, 5, i, sizes).argv for i in range(len(first.jobs))]
    assert first.bodies == second.bodies
    counts = [name for name, (_, unit) in first.metrics.items() if unit in ("count", "B") or name.endswith("_frac")]
    counts.remove("trace.overhead_frac")
    assert {n: first.metrics[n] for n in counts} == {n: second.metrics[n] for n in counts}


def test_other_seed_gives_other_jobs():
    sizes = run.WORKLOADS["approx-validate"]["tiny"]
    assert run.make_job("approx-validate", 1, 0, sizes) != run.make_job("approx-validate", 2, 0, sizes)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the run exits non-zero and prints no result."""
    import shutil
    import subprocess

    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "results"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "approx-validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
