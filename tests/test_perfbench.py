"""Smoke tests of the benchmark harness: one short run of each workload end to end.

It checks only that the harness runs, verifies its outputs and reports every
metric; it gates on no timing, because one short run on a shared machine is
too noisy for that.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "job_ms_p50", "job_ms_tail", "scenes_per_s", "peak_rss_mb", "ok_frac")


def test_desk_eval_run_is_correct_and_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_eval", "--seed", "5", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert set(METRICS) <= set(last["metrics"])
    assert last["metrics"]["ok_frac"]["value"] == 1


@pytest.mark.parametrize("workload", ["hires_near", "bev_wide"])
def test_other_workloads_run_correct_and_report_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert set(METRICS) <= set(last["metrics"])
    assert last["metrics"]["ok_frac"]["value"] == 1
