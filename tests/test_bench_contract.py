"""The benchmark's traced call counts agree with what each job's inputs imply.

benchmark/run.py traces a layer by replacing the function in every dmasim
module that binds it. A layer reached through a reference bound at import
time (say, a dict of beamformer functions) escapes that replacement, and the
benchmark's traced run then reports a call-count mismatch. This runs one tiny
job per workload under the benchmark's own tracer and checks the counts.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import dmasim.cli

RUN_PY = Path(__file__).resolve().parents[1] / "benchmark" / "run.py"
_spec = importlib.util.spec_from_file_location("dmasim_benchmark_run", RUN_PY)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # its dataclasses resolve their module by name
_spec.loader.exec_module(bench)


def traced_calls(workload, out, capsys):
    """Run one tiny job of the workload under the benchmark's tracer; return it and its call counts."""
    job = bench.make_job(workload, 3, 0, bench.WORKLOADS[workload]["tiny"])
    tracer = bench.Tracer()
    with bench.traced_layers(tracer):
        code = dmasim.cli.main([*job.argv, "--out", str(out)])  # looked up now, so the traced wrapper runs
    assert code == 0, capsys.readouterr().err
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    return job, calls


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_calls_match_job_inputs(workload, tmp_path, capsys):
    job, calls = traced_calls(workload, tmp_path, capsys)
    expected = {
        "cli.main": 1,
        "metrics.run_beamformer": job.solves,
        "metrics.resonance_spectrum": job.solves,  # every solve is scored through the one public path
        "beamform.successive_beamformer": job.succ_calls,
        "beamform.center_frequency_beamformer": job.cf_calls,
    }
    assert {name: calls.get(name, 0) for name in expected} == expected


def test_multipath_job_builds_one_scan_table(tmp_path, capsys):
    # per trial: two scored weight matrices; per job: one grid, which keeps its successive weight table and its
    # center-frequency row for every trial, and one subcarrier grid, which the scenario keeps for every channel and
    # SNR profile
    job, calls = traced_calls("mc-multipath", tmp_path, capsys)
    trials = job.succ_calls
    assert calls["element.normalized_polarizability"] == 2 * trials + 2
    assert calls["params.subcarrier_grid"] == 1


def test_validation_job_builds_one_channel_per_scenario(tmp_path, capsys):
    # the tuning and lambda sweeps share one 50 MHz scenario and its LOS channel; the per-subcarrier study has its
    # own. Each of the two scenarios derives one subcarrier grid for its channel, SNR and squint profiles.
    _, calls = traced_calls("approx-validate", tmp_path, capsys)
    assert calls["channel.effective_channel"] == 2
    assert calls["params.subcarrier_grid"] == 2
