"""Smoke tests of the benchmark harness: one short run of each workload end to end.

It checks that the harness runs, verifies its outputs and reports every
metric, and that every output bit is kept: each run's `output_sha256` must
equal the pin below. A change that alters outputs on purpose updates the pin
and says why. It gates on no timing, because one short run on a shared
machine is too noisy for that. The runs are marked `slow`, so
`pytest -m "not slow"` leaves them out.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow  # every test here runs the benchmark in a child process

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "job_ms_p50", "job_ms_tail", "scenes_per_s", "peak_rss_mb", "ok_frac")
SEED = 5
SHA256 = {  # output_sha256 of each workload at SEED
    "desk_eval": "8fa9a4d9b1204f3956734fe7c46db1cc2ba5ff9ab57456b241813ee63e7b22c6",
    "hires_near": "d719f9db878a748de337bfb893962d68bc67b87fe520bf586a290e2efacac8a4",
    "bev_wide": "61b63748fde7324f6dc89e2e961c50c8f9dbdaf8939b4f118ce9989746e480bc",
}


def run_and_check(workload, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] is True
    assert set(METRICS) <= set(last["metrics"])
    assert last["metrics"]["ok_frac"]["value"] == 1
    assert f"output_sha256 (information only): {SHA256[workload]}" in lines


def test_desk_eval_run_is_correct_and_reports_every_metric():
    run_and_check("desk_eval")


@pytest.mark.parametrize("workload", ["hires_near", "bev_wide"])
def test_other_workloads_run_correct_and_report_every_metric(workload):
    run_and_check(workload)


@pytest.mark.parametrize("workload", ["desk_eval", "hires_near", "bev_wide"])
def test_pin_holds_on_the_generic_blas_kernel(workload):
    """Each pin holds when OpenBLAS is forced to its generic kernel. hires_near's
    image is large enough that a projection through BLAS showed the kernel; the
    stages' einsums run on blocks whose shapes differ from workload to workload."""
    run_and_check(workload, {**os.environ, "OPENBLAS_CORETYPE": "Prescott"})


def test_traced_desk_eval_fires_every_hook():
    """`--trace 1` still finds every stage and every traced function it expects.

    The one known silent name is `losses.weighted_ce_grad`, which the pipeline
    no longer calls. The stage-gap check compares timings, so it is not gated.
    """
    results = ROOT / "perfbench" / "results" / f"desk_eval-s{SEED}-t1.json"
    results.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_eval", "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
    result = json.loads(results.read_text())
    named = {n for f in result["trace_check_failures"] for n in re.findall(r"'(\w+\.\w+)'", f)}
    assert named <= {"losses.weighted_ce_grad"}, result["trace_check_failures"]
    stages = {"enhance", "encode", "guided_sampling", "depth_split", "bev_pool", "residual_query",
              "illumination_field", "refine", "head", "loss", "metrics"}
    assert set(result["trace_details"]["stage_ms"]) == stages
