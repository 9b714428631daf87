"""nightbev benchmark: fixed workloads, end-to-end metrics, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py                   # every workload, each in its own process
    python3 perfbench/run.py --workload bev_wide --seed 3 --seconds 30 --trace 0

One workload per process, single-threaded: BLAS/OpenMP thread counts default
to 1 and a setting above the number of usable cores is refused. A closed loop
with one client runs the workload's job again and again for `--seconds`,
checking every job's outputs. With `--trace 0` the last line of output is a
JSON object with the end-to-end metrics; with `--trace 1` untraced and traced
jobs alternate and it carries the per-layer metrics instead. Full results,
with the environment they were measured in, go to `perfbench/results/`.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("desk_eval", "hires_near", "bev_wide")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 3  # set-up runs per process; setup_s is their median
TAIL_ABOVE = 10  # the tail percentile keeps at least this many jobs above it
MIN_TRACED_JOBS = 3  # of each kind, traced and untraced, in a --trace 1 run
E2E_UNITS = {
    "setup_s": "s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "scenes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def pin_threads(nproc: int) -> None:
    """Default every BLAS/OpenMP pool to one thread; refuse more threads than cores."""
    for var in THREAD_VARS:
        preset = os.environ.get(var, "1")
        if not preset.isdigit() or not 1 <= int(preset) <= nproc:
            raise SystemExit(f"error: {var}={preset}: need a thread count from 1 to nproc={nproc}")
        os.environ[var] = preset


def environment(seed: int, nproc: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": nproc,
        "cpu": cpu,
        "seed": seed,
    }


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_ABOVE jobs above it: (value, percentile)."""
    s = sorted(times)
    n = len(s)
    return s[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def measure(w, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """Set up, time jobs for `seconds`, check every job; runs inside an empty work dir."""
    import workloads as W

    problems: list[str] = []
    setup_s, gen_s, digests = [], [], []
    for _ in range(SETUP_REPS):
        W.clear_cwd()
        t0 = time.perf_counter()
        inp = W.set_up(w, seed)
        W.run_job(w, inp, "ref")  # warm-up job; its outputs are the reference
        setup_s.append(import_s + time.perf_counter() - t0)
        gen_s.append(inp.gen_s)
        problems += W.check_job(w, inp, "ref", None)
        digests.append(W.digest(W.snapshot("ref")))
    if len(set(digests)) != 1:
        problems.append("set-ups from the same seed gave different outputs")
    reference = W.snapshot("ref")

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    times, traced_times, job_traces = [], [], []
    attempted = failed = 0

    def job(out: str, traced: bool) -> float | None:
        nonlocal attempted, failed
        W.clear(out)
        gc.collect()
        attempted += 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            W.run_job(w, inp, out)
            dt = time.perf_counter() - t0
        except Exception:  # a failing job is counted, not fatal to the run
            problems.append(traceback.format_exc(limit=3))
            failed += 1
            return None
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            job_traces.append(tracer.job_record())
        job_problems = W.check_job(w, inp, out, reference)
        if job_problems:
            failed += 1
            problems.extend(job_problems[:3])
            return None
        return dt

    start = time.perf_counter()
    while True:
        n = len(times) + len(traced_times)
        enough = (
            min(len(times), len(traced_times)) >= MIN_TRACED_JOBS if trace else len(times) > TAIL_ABOVE
        )
        if enough and time.perf_counter() - start >= seconds:
            break
        if attempted > 2 * TAIL_ABOVE and failed > attempted // 2:
            break  # mostly failing: stop early, the run is already incorrect
        traced = trace and n % 2 == 1
        dt = job("job", traced)
        if dt is not None:
            (traced_times if traced else times).append(dt)
    phase_s = time.perf_counter() - start
    if job("final", False) is None:  # the first job once more, at the end
        problems.append("re-running the first job at the end did not reproduce it")

    result = {
        "workload": w.name,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "output_sha256": digests[0],
        "phase_s": phase_s,
        "job_s": times,
    }
    if not times or (trace and not job_traces):
        result["problems"].append("no job completed")
        return result
    if trace:
        from tracer import UNITS as TRACE_UNITS, summarize

        overhead = statistics.median(traced_times) / statistics.median(times) - 1.0
        metrics, failures, details = summarize(
            job_traces, w.name, tracer, overhead, 1e3 * statistics.median(gen_s)
        )
        # The tracer's coverage is the benchmark's concern, not the program's
        # correctness: failures are reported and counted, and do not fail the run.
        result["trace_check_failures"] = failures
        result["traced_job_s"] = traced_times
        result["trace_details"] = details
        units = TRACE_UNITS
    else:
        tail_s, tail_pct = tail(times)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "job_ms_p50": 1e3 * statistics.median(times),
            "job_ms_tail": 1e3 * tail_s,
            "scenes_per_s": len(times) * len(inp.scene_dirs) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        result["tail"] = {"percentile": tail_pct, "jobs": len(times)}
        result["setup_runs_s"] = setup_s
        units = E2E_UNITS
    result["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    return result


def run_one(args, nproc: int) -> int:
    src = ROOT / "src"
    if not (src / "nightbev" / "__init__.py").is_file():
        print(f"error: no nightbev sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    t0 = time.perf_counter()
    import nightbev
    import workloads as W

    if not Path(nightbev.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported nightbev from {nightbev.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0  # numpy and nightbev; interpreter start-up is not included
    env = environment(args.seed, nproc)
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        os.chdir(work)
        result = measure(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    result["environment"] = env
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    out_file = results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    correct = not result["problems"] and result["failed"] == 0
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}: {result['attempted']} jobs attempted, {result['failed']} failed, "
          f"timed phase {result['phase_s']:.1f} s")
    if "tail" in result:
        print(f"job_ms_tail is p{result['tail']['percentile']:.1f} of {result['tail']['jobs']} jobs")
    for m, rec in result.get("metrics", {}).items():
        print(f"  {m:32s} {rec['value']:14.6g} {rec['unit']}")
    print(f"output_sha256 (information only): {result['output_sha256']}")
    for p in result["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    for f in result.get("trace_check_failures", []):
        print(f"tracer self-check failed, update perfbench/tracer.py: {f}", file=sys.stderr)
    print(f"results written to {out_file.relative_to(ROOT)}")
    if "metrics" not in result:
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another; a table at the end."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            res = json.loads(lines[-1])
            rows += [(name, m, r["value"], r["unit"]) for m, r in res["metrics"].items()]
    print(f"\n{'workload':12s} {'metric':32s} {'value':>14s} unit")
    for name, m, v, unit in rows:
        print(f"{name:12s} {m:32s} {v:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    nproc = len(os.sched_getaffinity(0))
    pin_threads(nproc)  # before numpy is imported anywhere
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    raise SystemExit(main())
