"""Benchmark workloads: inputs generated from a seed, the timed job, and its checks.

Each workload writes its inputs (scene directories, a pipeline config and,
for `desk_eval`, an illumination-map population) into a work directory, and
the job then reads only those files, exactly as `nightbev pipeline` or
`nightbev eval` would. The correctness checks here never call the program's
own readers or metrics: they parse the raw tensor files and count IoU with
plain numpy, so a defect in the program cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nightbev import pipeline, scene
from nightbev.core import Tensor3, write_raw_tensor
from nightbev.formats import write_pgm

DESK_BEV = {"x_range": [0.0, 8.0], "y_range": [-4.0, 4.0], "z_range": [-1.0, 2.2], "voxel": 0.4}
WIDE_BEV = {"x_range": [0.0, 40.0], "y_range": [-20.0, 20.0], "z_range": [-1.0, 2.2], "voxel": 0.2}
FIXED_T_STAR = 0.45
DESK_SCENES = 16
POPULATION_MAPS = 64
MIOU_TOL = 1e-12


@dataclass
class Inputs:
    """What one set-up produced: the parsed config, scene dirs and their truth."""

    config: pipeline.PipelineConfig
    scene_dirs: list[str]
    truths: list[np.ndarray]  # per scene, (X, Y, Z) class labels as generated
    n_classes: int
    gen_s: float
    expected_enhanced: list[bool]


@dataclass(frozen=True)
class Workload:
    name: str
    # rng -> (pipeline config, scene configs, enhanced flag per scene); may write extra inputs
    generate: Callable
    batch: bool = False
    dump_intermediates: bool = False


def _dark_lights(rng: np.random.Generator, height: int, width: int, n: int, radius) -> list[dict]:
    return [
        {
            "u": float(rng.uniform(0.1, 0.9) * width),
            "v": float(rng.uniform(0.2, 0.8) * height),
            "intensity": float(rng.uniform(0.6, 1.6)),
            "radius": float(rng.uniform(*radius)),
        }
        for _ in range(n)
    ]


def _scene_cfg(rng, height, width, bev, boxes, lights, ambient) -> scene.SceneConfig:
    return scene.SceneConfig.from_dict(
        {
            "seed": int(rng.integers(0, 2**31)),
            "height": height,
            "width": width,
            "bev": bev,
            "random_boxes": boxes,
            "lights": lights,
            "ambient": ambient,
        }
    )


def _write_population(rng: np.random.Generator) -> None:
    """Half dark and half bright 64x96 maps under maps/, alternating .rt and .pgm files."""
    half = POPULATION_MAPS // 2
    levels = np.concatenate([rng.uniform(0.05, 0.2, half), rng.uniform(0.6, 0.85, half)])
    rng.shuffle(levels)
    ripple = np.outer(np.cos(np.linspace(0.0, 2.0 * np.pi, 64)), np.sin(np.linspace(0.0, 3.0 * np.pi, 96)))
    os.makedirs("maps")
    for k, level in enumerate(levels):
        m = np.clip(level * (1.0 + 0.15 * ripple), 0.01, 1.0)
        if k % 2:
            write_pgm(m, f"maps/map_{k:03d}.pgm")
        else:
            write_raw_tensor(Tensor3(m[None]), f"maps/map_{k:03d}.rt", dtype="f32")


def _gen_desk(rng):
    cfgs, enhanced = [], []
    for k in range(DESK_SCENES):
        bright = k % 2 == 0
        if bright:  # near-uniform strong light: lambda ~0.98, far above t*
            lights, ambient = [{"u": 48.0, "v": 32.0, "intensity": 4.0, "radius": 200.0}], 1.0
        else:
            lights, ambient = _dark_lights(rng, 64, 96, 2, (6, 12)), float(rng.uniform(0.03, 0.06))
        cfgs.append(_scene_cfg(rng, 64, 96, DESK_BEV, 3, lights, ambient))
        enhanced.append(not bright)
    config = {"seed": int(rng.integers(0, 2**31)), "t_star": {"population_dir": "maps", "bins": 256}, "n_z": 8}
    _write_population(rng)
    return config, cfgs, enhanced


def _gen_hires(rng):
    lights = _dark_lights(rng, 448, 800, 3, (30, 80))
    cfg = _scene_cfg(rng, 448, 800, DESK_BEV, 4, lights, float(rng.uniform(0.03, 0.05)))
    config = {"seed": int(rng.integers(0, 2**31)), "t_star": {"fixed": FIXED_T_STAR}, "n_z": 8}
    return config, [cfg], [True]


def _gen_wide(rng):
    lights = _dark_lights(rng, 128, 192, 2, (10, 25))
    cfg = _scene_cfg(rng, 128, 192, WIDE_BEV, 12, lights, float(rng.uniform(0.03, 0.05)))
    config = {"seed": int(rng.integers(0, 2**31)), "t_star": {"fixed": FIXED_T_STAR}, "n_z": 16}
    return config, [cfg], [True]


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists is recorded in README.md and BENCHMARK.json.
        Workload("desk_eval", _gen_desk, batch=True),
        Workload("hires_near", _gen_hires, dump_intermediates=True),
        Workload("bev_wide", _gen_wide),
    )
}


def set_up(w: Workload, seed: int) -> Inputs:
    """Generate and save the workload's inputs into the current directory, then parse them."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(w.name)])
    config, cfgs, enhanced = w.generate(rng)
    gen_s = 0.0
    scene_dirs, truths = [], []
    for k, cfg in enumerate(cfgs):
        t0 = time.perf_counter()
        bundle = scene.gen_scene(cfg)
        gen_s += time.perf_counter() - t0
        d = f"scenes/s{k:02d}"
        scene.save_scene(bundle, d)
        scene_dirs.append(d)
        truths.append(np.array(bundle.occupancy.labels))
    with open("pipeline.json", "w", encoding="ascii") as fh:
        json.dump(config, fh, indent=2)
    pc = pipeline.PipelineConfig.from_json_file("pipeline.json")
    return Inputs(
        config=pc,
        scene_dirs=scene_dirs,
        truths=truths,
        n_classes=len(cfgs[0].classes),
        gen_s=gen_s,
        expected_enhanced=enhanced,
    )


def run_job(w: Workload, inp: Inputs, out: str) -> None:
    """The unit of work a user waits for: one eval batch, or one scene load plus run."""
    if w.batch:
        pipeline.eval_batch(inp.scene_dirs, inp.config, out)
    else:
        bundle = scene.load_scene(inp.scene_dirs[0])
        pipeline.run_pipeline(inp.config, bundle, out, dump_intermediates=w.dump_intermediates)


def _read_rt(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        dt = {"f32": "<f4", "f64": "<f8"}[header["dtype"]]
        return np.frombuffer(fh.read(), dtype=dt).reshape(header["shape"])


def snapshot(out: str) -> dict[str, bytes]:
    """Every artifact of a job by relative path; report.json loses its timings."""
    root = Path(out)
    files = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == pipeline.REPORT_FILE:
            obj = json.loads(data)
            obj.pop("timings")
            data = json.dumps(obj, sort_keys=True).encode("ascii")
        files[p.relative_to(root).as_posix()] = data
    return files


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode("ascii") + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def _recount(pred: np.ndarray, truth: np.ndarray, n_classes: int):
    inter = np.array([np.count_nonzero((pred == c) & (truth == c)) for c in range(n_classes)])
    union = np.array([np.count_nonzero((pred == c) | (truth == c)) for c in range(n_classes)])
    return inter, union


def _miou(inter: np.ndarray, union: np.ndarray) -> float:
    present = union > 0
    return float(np.mean(inter[present] / union[present]))


def check_job(w: Workload, inp: Inputs, out: str, reference: dict[str, bytes] | None) -> list[str]:
    """Problems with one job's outputs; an empty list means the job is correct.

    Artifacts must match the reference run byte for byte, and mIoU is recounted
    from `occupancy_pred.rt` against the generated truth.
    """
    problems = []
    files = snapshot(out)
    if reference is not None and files != reference:
        changed = sorted(k for k in files.keys() | reference.keys() if files.get(k) != reference.get(k))
        problems.append(f"artifacts differ from the first run: {changed[:5]}")
    sub_dirs = [f"scene_{k:03d}" for k in range(len(inp.scene_dirs))] if w.batch else [""]
    tot_i = tot_u = 0
    for k, sub in enumerate(sub_dirs):
        d = Path(out, sub)
        try:
            pred = _read_rt(d / "occupancy_pred.rt")
            report = json.loads((d / pipeline.REPORT_FILE).read_text())
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"{d}: unreadable output: {exc}")
            continue
        labels = np.rint(pred).astype(np.int64).transpose(1, 2, 0)
        if labels.shape != inp.truths[k].shape:
            problems.append(f"{d}: prediction shape {labels.shape} != truth {inp.truths[k].shape}")
            continue
        inter, union = _recount(labels, inp.truths[k], inp.n_classes)
        tot_i, tot_u = tot_i + inter, tot_u + union
        miou = _miou(inter, union)
        if abs(miou - report["metrics"]["miou"]) > MIOU_TOL:
            problems.append(f"{d}: reported mIoU {report['metrics']['miou']} != recount {miou}")
        if report["enhanced"] != inp.expected_enhanced[k]:
            problems.append(f"{d}: enhanced is {report['enhanced']}; the scene was built for the other branch")
    if w.batch and not problems:
        agg = json.loads(Path(out, "eval.json").read_text())["aggregate_miou"]
        if abs(_miou(tot_i, tot_u) - agg) > MIOU_TOL:
            problems.append(f"aggregate mIoU {agg} != recount {_miou(tot_i, tot_u)}")
    return problems


def clear(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def clear_cwd() -> None:
    for p in Path(".").iterdir():
        if p.is_dir():
            clear(str(p))
        else:
            p.unlink()
