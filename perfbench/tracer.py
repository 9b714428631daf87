"""Per-layer tracing from outside the program.

`pipeline`, `bev` and `guided_sampling` import functions by name, so a call
goes through whichever binding the caller's module holds. The tracer finds
every binding of each traced function in every `nightbev` module and swaps
in a wrapper that records a span (name, start, end, parent). Nothing under
`src/` changes. Spans stay in memory; self times, counts and health numbers
are worked out after each job, with the wrappers removed, so the probes that
compute them (some call public functions again) are neither traced nor timed.

Layers are the modules under `src/nightbev/`; a traced name is
`<module>.<function>`.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from nightbev.bev import DepthContext
from nightbev.core import Tensor3

ALL = ("desk_eval", "hires_near", "bev_wide")

# Every traced function and the workloads on which it must fire.
TRACED = {
    "core.bilinear_sample_many": ALL,
    "core.read_raw_tensor": ALL,
    "core.write_raw_tensor": ALL,
    "formats.read_ppm": ALL,
    "formats.read_pgm": ("desk_eval",),
    "formats.write_ppm": ALL,
    "formats.write_pgm": ("hires_near",),
    "illumination.estimate_illumination": ALL,
    "illumination.box_blur": ALL,
    "illumination.illumination_factor": ALL,
    "illumination.load_illumination": ("desk_eval",),
    "illumination.retinex_enhance": ALL,
    "selective.otsu_threshold": ("desk_eval",),
    "selective.selective_enhance": ALL,
    "guided_sampling.conv2d_replicate": ALL,
    "guided_sampling.build_guidance": ALL,
    "guided_sampling.generate_offsets": ALL,
    "guided_sampling.modulate_offsets": ALL,
    "guided_sampling.guided_warp": ALL,
    "guided_sampling.kernel_grid": ALL,
    "geometry.project_points": ALL,
    "geometry.sample_heights": ALL,
    "geometry.illumination_field": ALL,
    "geometry.field_to_tensor": ("hires_near",),
    "bev.depth_bin_centers": ALL,
    "bev.depth_context_split": ALL,
    "bev.bev_pool": ALL,
    "bev.residual_query": ALL,
    "bev.refine_bev": ALL,
    "losses.class_weights_from_labels": ALL,
    "losses.weighted_ce": ALL,
    "losses.weighted_ce_grad": ALL,
    "losses.total_loss": ALL,
    "metrics.miou": ALL,
    "metrics.class_counts": ALL,
    "metrics.report_from_counts": ALL,
    "metrics.write_iou_csv": ALL,
    "scene.load_scene": ALL,
    "pipeline.build_params": ALL,
    "pipeline.resolve_t_star": ALL,
    "pipeline.population_factors": ("desk_eval",),
    "pipeline.encode_image": ALL,
    "pipeline.offset_magnitude": ("hires_near",),
    "pipeline.run_pipeline": ALL,
    "pipeline.eval_batch": ("desk_eval",),
}

# Per-layer self times: metric -> traced functions whose self time it sums.
SELF_MS = {
    "guided_sampling.conv_ms": ["guided_sampling.conv2d_replicate"],
    "pipeline.encode_ms": ["pipeline.encode_image"],
    "core.bilinear_ms": ["core.bilinear_sample_many"],
    "guided_sampling.guidance_ms": ["guided_sampling.build_guidance"],
    "guided_sampling.offsets_ms": ["guided_sampling.generate_offsets", "guided_sampling.modulate_offsets"],
    "guided_sampling.warp_ms": ["guided_sampling.guided_warp", "guided_sampling.kernel_grid"],
    "illumination.estimate_ms": [
        "illumination.estimate_illumination", "illumination.box_blur", "illumination.illumination_factor",
    ],
    "illumination.retinex_ms": ["illumination.retinex_enhance"],
    "illumination.load_ms": ["illumination.load_illumination"],
    "bev.depth_split_ms": ["bev.depth_context_split", "bev.depth_bin_centers"],
    "bev.pool_ms": ["bev.bev_pool"],
    "bev.residual_ms": ["bev.residual_query"],
    "bev.refine_ms": ["bev.refine_bev"],
    "geometry.project_ms": ["geometry.project_points", "geometry.sample_heights"],
    "geometry.field_ms": ["geometry.illumination_field", "geometry.field_to_tensor"],
    "losses.ce_ms": [
        "losses.weighted_ce", "losses.weighted_ce_grad", "losses.class_weights_from_labels", "losses.total_loss",
    ],
    "metrics.miou_ms": ["metrics.miou", "metrics.class_counts", "metrics.report_from_counts"],
    "selective.threshold_ms": [
        "pipeline.resolve_t_star", "pipeline.population_factors", "selective.selective_enhance",
    ],
    "selective.otsu_ms": ["selective.otsu_threshold"],
    "core.raw_read_ms": ["core.read_raw_tensor"],
    "formats.read_ms": ["formats.read_pgm", "formats.read_ppm"],
    "scene.load_ms": ["scene.load_scene"],
    "pipeline.build_params_ms": ["pipeline.build_params"],
    "metrics.csv_ms": ["metrics.write_iou_csv"],
    "core.raw_write_ms": ["core.write_raw_tensor"],
    "formats.write_ms": ["formats.write_pgm", "formats.write_ppm"],
}

# Metrics that are not a plain self-time sum, with their units.
OTHER_UNITS = {
    "guided_sampling.conv_macs": "count",
    "core.bilinear_points": "count",
    "core.bilinear_in_bounds": "frac",
    "bev.pool_contribs": "count",
    "bev.pool_mass_kept": "frac",
    "bev.refs_in_view": "frac",
    "geometry.points_projected": "count",
    "geometry.field_coverage": "frac",
    "losses.voxels": "count",
    "pipeline.head_ms": "ms",
    "pipeline.artifact_write_ms": "ms",
    "pipeline.self_ms": "ms",
    "selective.maps_read": "count",
    "selective.enhanced_frac": "frac",
    "core.raw_bytes_written": "B",
    "formats.bytes_written": "B",
    "scene.gen_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.check_failures": "count",
}

UNITS = {**{m: "ms" for m in SELF_MS}, **OTHER_UNITS}

# Which report.timings stage a span directly under run_pipeline belongs to.
# Spans not listed here run between stages (parameter set-up, artifact writes).
STAGE_OF = {
    "illumination.estimate_illumination": "enhance",
    "illumination.load_illumination": "enhance",
    "pipeline.resolve_t_star": "enhance",
    "illumination.illumination_factor": "enhance",
    "selective.selective_enhance": "enhance",
    "pipeline.encode_image": "encode",
    "guided_sampling.build_guidance": "guided_sampling",
    "guided_sampling.generate_offsets": "guided_sampling",
    "guided_sampling.modulate_offsets": "guided_sampling",
    "guided_sampling.guided_warp": "guided_sampling",
    "bev.depth_context_split": "depth_split",
    "bev.bev_pool": "bev_pool",
    "bev.residual_query": "residual_query",
    "geometry.illumination_field": "illumination_field",
    "bev.refine_bev": "refine",
    "losses.class_weights_from_labels": "loss",
    "losses.weighted_ce": "loss",
    "losses.total_loss": "loss",
    "metrics.miou": "metrics",
}
UNTRACED_STAGES = ("head",)  # inline code in run_pipeline: no public function to wrap
WRITERS = ("core.write_raw_tensor", "formats.write_pgm", "formats.write_ppm", "metrics.write_iou_csv")
STAGE_GAP_FLOOR = 0.01  # clock and call overhead allowed even when overhead_frac reads lower

# Spans whose arguments (and, for some, results) the probes read; others keep
# nothing alive, so tracing does not hold on to large intermediate arrays.
PROBED = {
    "core.bilinear_sample_many", "guided_sampling.conv2d_replicate", "bev.bev_pool", "bev.residual_query",
    "geometry.project_points", "geometry.illumination_field", "losses.weighted_ce",
    "selective.selective_enhance", "illumination.load_illumination", "core.write_raw_tensor",
    "formats.write_pgm", "formats.write_ppm", "pipeline.run_pipeline",
}
PROBED_RESULTS = {"geometry.illumination_field", "selective.selective_enhance", "pipeline.run_pipeline"}


class Tracer:
    """Installs span-recording wrappers on every binding of the traced functions."""

    def __init__(self) -> None:
        self.originals: dict[str, object] = {}
        self.signatures: dict[str, inspect.Signature] = {}
        for key in TRACED:
            mod, fn = key.split(".")
            obj = getattr(sys.modules[f"nightbev.{mod}"], fn, None)
            if obj is None:  # renamed or removed: reported as a name that never fired
                continue
            self.originals[key] = obj
            self.signatures[key] = inspect.signature(obj)
        by_id = {id(obj): key for key, obj in self.originals.items()}
        # (module, attribute, key) for every binding, in every nightbev module.
        self.bindings = [
            (mod, attr, by_id[id(val)])
            for name, mod in sorted(sys.modules.items())
            if name == "nightbev" or name.startswith("nightbev.")
            for attr, val in vars(mod).items()
            if id(val) in by_id
        ]
        self.bound = defaultdict(int)
        for _, _, key in self.bindings:
            self.bound[key] += 1
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, key: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probed, keep_result = key in PROBED, key in PROBED_RESULTS

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                kept = (args, kwargs, result if keep_result else None) if probed and ok else None
                spans[idx] = (key, start, end, parent, kept)

        return traced

    def install(self) -> None:
        self.spans.clear()
        wrappers = {key: self._wrap(key, fn) for key, fn in self.originals.items()}
        for mod, attr, key in self.bindings:
            setattr(mod, attr, wrappers[key])

    def uninstall(self) -> None:
        for mod, attr, key in self.bindings:
            setattr(mod, attr, self.originals[key])

    def job_record(self) -> "JobTrace":
        """Self times, counts and health numbers of the job traced since `install`."""
        record = JobTrace(self, self.spans)
        self.spans.clear()  # drop the arguments the spans kept alive
        return record


class JobTrace:
    """Everything one traced job measured; probes run here, untraced."""

    def __init__(self, tracer: Tracer, spans: list) -> None:
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.stage_span_s = defaultdict(float)
        self.stage_timing_s = defaultdict(float)
        counts = defaultdict(float)
        child_s = [0.0] * len(spans)
        for key, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        probes = _Probes(tracer, counts)
        write_s = 0.0
        for idx, span in enumerate(spans):
            key, start, end, parent = span[:4]
            self.calls[key] += 1
            self.self_s[key] += (end - start) - child_s[idx]
            parent_key = spans[parent][0] if parent >= 0 else None
            if parent_key == "pipeline.run_pipeline" and key in STAGE_OF:
                self.stage_span_s[STAGE_OF[key]] += end - start
            if key in WRITERS and parent_key in ("pipeline.run_pipeline", "pipeline.eval_batch"):
                write_s += end - start
            if span[4] is not None:
                args, kwargs, result = span[4]
                probes.run(key, tracer.signatures[key].bind(*args, **kwargs).arguments, result, spans, parent)
        for result in probes.reports:
            for stage, sec in result.timings.items():
                self.stage_timing_s[stage] += sec
        head_s = self.stage_timing_s.get("head", 0.0)
        ms = {m: 1e3 * sum(self.self_s[k] for k in keys) for m, keys in SELF_MS.items()}
        pipeline_self = sum(
            self.self_s[k] for k in ("pipeline.run_pipeline", "pipeline.eval_batch", "pipeline.offset_magnitude")
        )
        ms.update(
            {
                "pipeline.head_ms": 1e3 * head_s,
                "pipeline.self_ms": 1e3 * (pipeline_self - head_s),
                "pipeline.artifact_write_ms": 1e3 * write_s,
                "guided_sampling.conv_macs": counts["conv_macs"],
                "core.bilinear_points": counts["bilinear_points"],
                "core.bilinear_in_bounds": _share(counts["bilinear_corners_in"], 4 * counts["bilinear_points"]),
                "bev.pool_contribs": counts["pool_contribs"],
                "bev.pool_mass_kept": _share(counts["pool_mass_kept"], counts["pool_pixels"]),
                "bev.refs_in_view": _share(counts["refs_in_view"], counts["refs"]),
                "geometry.points_projected": counts["points_projected"],
                "geometry.field_coverage": _share(counts["field_cells_lit"], counts["field_cells"]),
                "losses.voxels": counts["voxels"],
                "selective.maps_read": counts["maps_read"],
                "selective.enhanced_frac": _share(counts["enhanced"], counts["branch_calls"]),
                "core.raw_bytes_written": counts["raw_bytes"],
                "formats.bytes_written": counts["pnm_bytes"],
            }
        )
        self.metrics = ms
        self.by_caller = {
            caller: _share(counts[f"bilinear_corners_in@{caller}"], 4 * counts[f"bilinear_points@{caller}"])
            for caller in probes.bilinear_callers
        }

    def stage_gap(self) -> float:
        """Share of the traced stages' own timings that no span covers."""
        stages = [s for s in self.stage_timing_s if s not in UNTRACED_STAGES]
        timed = sum(self.stage_timing_s[s] for s in stages)
        return (timed - sum(self.stage_span_s[s] for s in stages)) / timed


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Probes:
    """Counts and health numbers computed from a span's arguments and result."""

    def __init__(self, tracer: Tracer, counts) -> None:
        self.orig = tracer.originals
        self.counts = counts
        self.reports: list = []
        self.bilinear_callers: set[str] = set()

    def run(self, key, args, result, spans, parent) -> None:
        c = self.counts
        if key == "core.bilinear_sample_many":
            f = args["f"]
            u, v = np.broadcast_arrays(np.asarray(args["u"], float), np.asarray(args["v"], float))
            x0, y0 = np.floor(u), np.floor(v)
            xin = [(x0 + d >= 0) & (x0 + d <= f.width - 1) for d in (0, 1)]
            yin = [(y0 + d >= 0) & (y0 + d <= f.height - 1) for d in (0, 1)]
            corners_in = sum(int(np.count_nonzero(xi & yi)) for xi in xin for yi in yin)
            caller = spans[parent][0] if parent >= 0 else "benchmark"
            self.bilinear_callers.add(caller)
            for suffix in ("", f"@{caller}"):
                c["bilinear_points" + suffix] += u.size
                c["bilinear_corners_in" + suffix] += corners_in
        elif key == "guided_sampling.conv2d_replicate":
            x, p = args["x"], args["params"]
            c["conv_macs"] += p.out_channels * p.in_channels * p.kernel_size**2 * x.height * x.width
        elif key == "bev.bev_pool":
            self._pool(args["dc"], args["m"], args["spec"])
        elif key == "bev.residual_query":
            self._refs(args["f_ctx"], args["m"], args["spec"], args["n_z"])
        elif key == "geometry.project_points":
            c["points_projected"] += np.asarray(args["pts"]).size // 3
        elif key == "geometry.illumination_field":
            c["field_cells"] += result.size
            c["field_cells_lit"] += int(np.count_nonzero(result > 0))
        elif key == "losses.weighted_ce":
            c["voxels"] += np.asarray(args["logits"]).shape[0]
        elif key == "selective.selective_enhance":
            c["branch_calls"] += 1
            c["enhanced"] += bool(result[1])
        elif key == "illumination.load_illumination":
            if spans[parent][0] == "pipeline.population_factors":
                c["maps_read"] += 1
        elif key == "core.write_raw_tensor":
            c["raw_bytes"] += os.path.getsize(args["path"])
        elif key in ("formats.write_pgm", "formats.write_ppm"):
            c["pnm_bytes"] += os.path.getsize(args["path"])
        elif key == "pipeline.run_pipeline":
            self.reports.append(result)

    def _pool(self, dc, m, spec) -> None:
        """Depth mass kept, and (pixel, bin) pairs landing in the grid, via bev_pool itself."""
        h, w, d = dc.depth.height, dc.depth.width, dc.depth.channels
        ones = Tensor3(np.ones((1, h, w)))
        kept = self.orig["bev.bev_pool"](DepthContext(ones, dc.depth, dc.bin_centers), m, spec)
        uniform = DepthContext(ones, Tensor3(np.full((d, h, w), 1.0 / d)), dc.bin_centers)
        pairs = self.orig["bev.bev_pool"](uniform, m, spec)
        self.counts["pool_pixels"] += h * w
        self.counts["pool_mass_kept"] += float(kept.data.sum())
        self.counts["pool_contribs"] += int(round(float(pairs.data.sum()) * d))

    def _refs(self, f_ctx, m, spec, n_z) -> None:
        """References (cell, height) that residual_query's in-view gate admits."""
        heights = self.orig["geometry.sample_heights"](spec, n_z)
        gx, gy, gz = np.meshgrid(spec.x_centers(), spec.y_centers(), heights, indexing="ij")
        u, v, _, valid = self.orig["geometry.project_points"](m, np.stack([gx, gy, gz], axis=-1))
        iu, iv = np.floor(u), np.floor(v)
        in_view = valid & (iu >= 0) & (iu <= f_ctx.width - 1) & (iv >= 0) & (iv <= f_ctx.height - 1)
        self.counts["refs"] += in_view.size
        self.counts["refs_in_view"] += int(np.count_nonzero(in_view))


def summarize(jobs: list[JobTrace], workload: str, tracer: Tracer, overhead_frac: float, gen_ms: float):
    """Median per-job metrics plus the tracer's self-checks (a list of failures)."""
    metrics = {m: statistics.median(j.metrics[m] for j in jobs) for m in jobs[0].metrics}
    metrics["scene.gen_ms"] = gen_ms
    metrics["trace.overhead_frac"] = overhead_frac
    failures = []
    fired = {k for j in jobs for k, n in j.calls.items() if n}
    silent = [k for k, on in TRACED.items() if workload in on and k not in fired]
    if silent:
        failures.append(f"traced names that never fired on {workload}: {silent}")
    gap = statistics.median(j.stage_gap() for j in jobs)
    tol = max(overhead_frac, STAGE_GAP_FLOOR)
    if not -tol <= gap <= tol:
        failures.append(f"stage span sums miss {gap:.2%} of report.timings (allowed {tol:.2%})")
    metrics["trace.check_failures"] = len(failures)
    details = {
        "stage_gap_frac": gap,
        "stage_ms": {
            s: {"timing": 1e3 * statistics.median(j.stage_timing_s[s] for j in jobs),
                "spans": 1e3 * statistics.median(j.stage_span_s[s] for j in jobs)}
            for s in jobs[0].stage_timing_s
        },
        "bilinear_in_bounds_by_caller": jobs[0].by_caller,
        "bindings": dict(tracer.bound),
        "self_ms_by_function": {
            k: 1e3 * statistics.median(j.self_s[k] for j in jobs) for k in TRACED
        },
    }
    return {m: metrics[m] for m in UNITS}, failures, details
