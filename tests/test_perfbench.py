"""Tests of the benchmark harness.

The runs of each workload end to end check that the harness runs, verifies
its outputs and reports every metric, and that every output bit is kept: each
run's `output_sha256` must equal the pin below. A change that alters outputs
on purpose updates the pin and says why. They gate on no timing, because one
short run on a shared machine is too noisy for that. These runs start a child
process and are marked `slow`, so `pytest -m "not slow"` leaves them out.

The quick tests import `perfbench/` in-process: one job of each workload
against a per-artifact table that names which file moved when a pin does,
and the tracer's names against the functions they wrap.
"""

import hashlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "job_ms_p50", "job_ms_tail", "scenes_per_s", "peak_rss_mb", "ok_frac")
SEED = 5
SHA256 = {  # output_sha256 of each workload at SEED
    "desk_eval": "8fa9a4d9b1204f3956734fe7c46db1cc2ba5ff9ab57456b241813ee63e7b22c6",
    "hires_near": "d719f9db878a748de337bfb893962d68bc67b87fe520bf586a290e2efacac8a4",
    "bev_wide": "61b63748fde7324f6dc89e2e961c50c8f9dbdaf8939b4f118ce9989746e480bc",
}
ARTIFACT_SHA256 = {  # sha256 of each artifact of snapshot() at SEED, first 16 hex digits
    "desk_eval": {
        "aggregate.csv": "f5cfed728457e738",
        "eval.json": "75bf56cb33998271",
        "scene_000/enhanced.ppm": "e18d8b64404a4290",
        "scene_000/metrics.csv": "baa41e52ead883d7",
        "scene_000/occupancy_pred.rt": "5101286bf98a1907",
        "scene_000/report.json": "c14a295012dd9004",
        "scene_001/enhanced.ppm": "beeed5ea23bfafe3",
        "scene_001/metrics.csv": "a13712e8f1b014d7",
        "scene_001/occupancy_pred.rt": "e0ba432c8dc360d3",
        "scene_001/report.json": "f347bb66c36117c2",
        "scene_002/enhanced.ppm": "979c4046e5a009d5",
        "scene_002/metrics.csv": "573f44b70c505403",
        "scene_002/occupancy_pred.rt": "5101286bf98a1907",
        "scene_002/report.json": "47734996e706544e",
        "scene_003/enhanced.ppm": "18540a047bd96ab7",
        "scene_003/metrics.csv": "03814232276c4ddb",
        "scene_003/occupancy_pred.rt": "fe095383f1c21b57",
        "scene_003/report.json": "3c2da379fcceba43",
        "scene_004/enhanced.ppm": "009208ea5d66396b",
        "scene_004/metrics.csv": "052eaad2b91e409e",
        "scene_004/occupancy_pred.rt": "5101286bf98a1907",
        "scene_004/report.json": "8e5b8d14c94deb85",
        "scene_005/enhanced.ppm": "9ea9524b34fb8628",
        "scene_005/metrics.csv": "99bd379d0c42ddfd",
        "scene_005/occupancy_pred.rt": "54e9e6fb9d91e5aa",
        "scene_005/report.json": "e255a29f5a5adfaf",
        "scene_006/enhanced.ppm": "9c088a0ab7b4dd26",
        "scene_006/metrics.csv": "82e7196a757c7473",
        "scene_006/occupancy_pred.rt": "5101286bf98a1907",
        "scene_006/report.json": "fb9bdb622c8b9666",
        "scene_007/enhanced.ppm": "a01941ae4606405c",
        "scene_007/metrics.csv": "40b8d8bd100d7e0b",
        "scene_007/occupancy_pred.rt": "e0ba432c8dc360d3",
        "scene_007/report.json": "ef0538105647d697",
        "scene_008/enhanced.ppm": "16e41f3c2063b0e8",
        "scene_008/metrics.csv": "31d2dc334d15efe7",
        "scene_008/occupancy_pred.rt": "5101286bf98a1907",
        "scene_008/report.json": "bbaa948fd51d8c72",
        "scene_009/enhanced.ppm": "7f2503abf6ab7b88",
        "scene_009/metrics.csv": "ae0c57c8202236f3",
        "scene_009/occupancy_pred.rt": "e0ba432c8dc360d3",
        "scene_009/report.json": "6e128a054c28f4c5",
        "scene_010/enhanced.ppm": "380347db6b3314aa",
        "scene_010/metrics.csv": "fe984187d342fe6b",
        "scene_010/occupancy_pred.rt": "d8d893cc49b929b3",
        "scene_010/report.json": "03ec31563f59d821",
        "scene_011/enhanced.ppm": "1be3820fba4c2466",
        "scene_011/metrics.csv": "6590c73c74c35017",
        "scene_011/occupancy_pred.rt": "e735ee57b7421d88",
        "scene_011/report.json": "479ae3c17b1df48f",
        "scene_012/enhanced.ppm": "4f9966d011fa7614",
        "scene_012/metrics.csv": "de3e0b73cdd2bb8a",
        "scene_012/occupancy_pred.rt": "5101286bf98a1907",
        "scene_012/report.json": "ad264644dcb86909",
        "scene_013/enhanced.ppm": "76fc90e752c78ad1",
        "scene_013/metrics.csv": "cd1d686caee45f6a",
        "scene_013/occupancy_pred.rt": "815782e262aeb704",
        "scene_013/report.json": "ab3c0357f857859e",
        "scene_014/enhanced.ppm": "1004ae464018f3a4",
        "scene_014/metrics.csv": "114431408f5d6835",
        "scene_014/occupancy_pred.rt": "1ae19b4fda761dac",
        "scene_014/report.json": "dd00f50b94d22b0f",
        "scene_015/enhanced.ppm": "7c09260043274786",
        "scene_015/metrics.csv": "3b1a1f2ee0b23351",
        "scene_015/occupancy_pred.rt": "1e06cc80128ece22",
        "scene_015/report.json": "e2a88399e27aed26",
    },
    "hires_near": {
        "depth.rt": "62d0603c48ac8aba",
        "enhanced.ppm": "089fca9fb7e799b9",
        "f_bev.rt": "f5e05af53a0ffa30",
        "f_ctx.rt": "0cfbd7d785365948",
        "f_img.rt": "610e321965c410bf",
        "f_warped.rt": "41963e8f8bee28fe",
        "guidance.pgm": "2214a8c7d44d869a",
        "guidance.rt": "3756c3bc9e55bfc6",
        "i_prime.rt": "55376ed2e18f2ae2",
        "illumination.pgm": "0f387d3c3fdfb8bf",
        "illumination.rt": "5f65dd959da3e765",
        "logits.rt": "32baa6386ae0374d",
        "metrics.csv": "d93eefd8e481466d",
        "occupancy_pred.rt": "b3db38ad15033663",
        "offset_mag.pgm": "726da527b4984e11",
        "offsets_mod.rt": "c221f9fa9145df7d",
        "q.rt": "642fb4df8ebc085c",
        "q_res.rt": "6db2810761b194da",
        "report.json": "ad54a65aacb734c3",
        "s_field.pgm": "abc6cc251b575e2c",
        "s_field.rt": "210c92a09d56ce8e",
    },
    "bev_wide": {
        "enhanced.ppm": "5fe865d4835758e0",
        "metrics.csv": "84ed02a1dd511775",
        "occupancy_pred.rt": "441f7a8cc25dd483",
        "report.json": "6c3f4ee5bba0694c",
    },
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


@pytest.mark.slow
def test_desk_eval_run_is_correct_and_reports_every_metric():
    run_and_check("desk_eval")


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["hires_near", "bev_wide"])
def test_other_workloads_run_correct_and_report_every_metric(workload):
    run_and_check(workload)


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["desk_eval", "hires_near", "bev_wide"])
def test_pin_holds_on_the_generic_blas_kernel(workload):
    """Each pin holds when OpenBLAS is forced to its generic kernel. hires_near's
    image is large enough that a projection through BLAS showed the kernel; the
    stages' einsums run on blocks whose shapes differ from workload to workload."""
    run_and_check(workload, {**os.environ, "OPENBLAS_CORETYPE": "Prescott"})


@pytest.mark.slow
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


def perfbench_module(name):
    """`perfbench/<name>.py` imported in-process, once, without writing bytecode beside it."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up while it runs
        saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = saved
    return sys.modules[key]


@pytest.mark.parametrize("workload", list(SHA256))
def test_each_artifact_keeps_its_bytes(tmp_path, monkeypatch, workload):
    """One job as the benchmark's warm-up runs it: each artifact against its own
    pin, and the whole snapshot against the `output_sha256` pin."""
    W = perfbench_module("workloads")
    w = W.WORKLOADS[workload]
    monkeypatch.chdir(tmp_path)
    W.run_job(w, W.set_up(w, SEED), "ref")
    files = W.snapshot("ref")
    assert W.digest(files) == SHA256[workload]
    pins = {name: hashlib.sha256(data).hexdigest()[:16] for name, data in files.items()}
    assert pins == ARTIFACT_SHA256[workload]


SCENE_SHA256 = {  # sha256 of each file save_scene writes for a workload's first scene at SEED, first 16 hex digits
    "desk_eval": {
        "camera.json": "8b0b972b7a0e6310",
        "illumination_gt.pgm": "07bb57bdb53bef0d",
        "illumination_gt.rt": "77c838a9c0c6f52f",
        "image.ppm": "e18d8b64404a4290",
        "occupancy_gt.rt": "c437996e821c8ad5",
        "scene.json": "24111d3bc2bf54ff",
    },
    "hires_near": {
        "camera.json": "da7f5ef6911dd73f",
        "illumination_gt.pgm": "959239bd48b6d708",
        "illumination_gt.rt": "60dd9e7e89886568",
        "image.ppm": "d9aa314d5b31ef96",
        "occupancy_gt.rt": "822f23c12ac7f74f",
        "scene.json": "fb6b4a97a7c34bd7",
    },
    "bev_wide": {
        "camera.json": "1edbeda2853c688e",
        "illumination_gt.pgm": "d5645ecca882737f",
        "illumination_gt.rt": "d6f7c5d5ea5196d3",
        "image.ppm": "caedb009e48f23ad",
        "occupancy_gt.rt": "256657c4d3d77ac0",
        "scene.json": "661bfe30df038bce",
    },
}


@pytest.mark.parametrize("workload", list(SCENE_SHA256))
def test_each_scene_file_keeps_its_bytes(tmp_path, monkeypatch, workload):
    """The files of the first scene that the benchmark's set-up generates and
    saves, each against its own pin."""
    W = perfbench_module("workloads")
    monkeypatch.chdir(tmp_path)
    W.set_up(W.WORKLOADS[workload], SEED)
    scene = Path("scenes", "s00")
    pins = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in sorted(scene.iterdir())}
    assert pins == SCENE_SHA256[workload]


# The argument names `tracer._Probes.run` reads from each probed function's call.
PROBE_ARGS = {
    "core.bilinear_sample_many": {"f", "u", "v"},
    "guided_sampling.conv2d_replicate": {"x", "params"},
    "bev.bev_pool": {"dc", "m", "spec"},
    "bev.residual_query": {"f_ctx", "m", "spec", "n_z"},
    "geometry.project_points": {"m", "pts"},
    "losses.weighted_ce": {"logits"},
    "core.write_raw_tensor": {"path"},
    "formats.write_pgm": {"path"},
    "formats.write_ppm": {"path"},
}


def test_tracer_names_match_the_program():
    """Every name the tracer wraps or reads exists, without installing the tracer.
    A traced run finds a renamed function only on the workloads it fires on; this
    also covers the names that fire only on `hires_near`."""
    T = perfbench_module("tracer")
    functions = {}
    for key in T.TRACED:
        mod, fn = key.split(".")
        functions[key] = getattr(importlib.import_module(f"nightbev.{mod}"), fn, None)
        assert callable(functions[key]), key
    assert set(T.STAGE_OF) <= set(T.TRACED)
    assert T.PROBED <= set(T.TRACED)
    assert set(PROBE_ARGS) <= T.PROBED
    for key, names in PROBE_ARGS.items():
        assert names <= set(inspect.signature(functions[key]).parameters), key
