"""End-to-end pipeline: enhancement, encoding, guided sampling, BEV projection,
prediction head, losses, and metrics, with a JSON-configured parameter set.

Every parameter block either loads from raw tensor files or is generated
from a seeded RNG, so identical config plus seed reproduces identical
output bytes. Auxiliary loss terms are pluggable callables defaulting to
zero.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .bev import AttentionParams, bev_pool, depth_bin_centers, depth_context_split
from .bev import refine_bev, residual_query
from .core import Tensor3, read_raw_tensor, write_json, write_raw_tensor
from .core import json_block, json_list, json_path
from .formats import write_pgm, write_ppm
from .geometry import field_to_tensor, illumination_field
from .guided_sampling import ConvParams, build_guidance, conv2d_replicate, generate_offsets
from .guided_sampling import guided_warp, kernel_grid, modulate_offsets
from .illumination import EstimatorConfig, estimate_illumination, illumination_factor
from .illumination import load_illumination
from .losses import LossConfig, class_weights_from_labels, total_loss, weighted_ce
from .metrics import IoUReport, OccupancyGrid, miou, report_from_counts, write_iou_csv
from .scene import SceneBundle, load_scene
from .selective import FactorPopulation, otsu_threshold, selective_enhance

AuxLossHook = Callable[[np.ndarray, np.ndarray], float]

REPORT_FILE = "report.json"


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.__cause__ = cause


# Raw tensor files each block's `source.files` must name, in load order.
PARAM_FILES = {
    "encoder": ("conv1_kernel", "conv1_bias", "conv2_kernel", "conv2_bias"),
    "igs": ("kernel", "bias", "point_weights"),
    "depth": ("kernel", "bias"),
    "attention": ("offset_weights", "attn_weights"),
    "head": ("weights", "bias"),
}


@dataclass(frozen=True)
class ParamSource:
    """Where a parameter block comes from: seeded generation or raw tensor files.

    Files take precedence; with neither set, the pipeline seed generates it.
    """

    seed: int | None = None
    files: dict[str, Path] | None = None


@dataclass(frozen=True)
class TStarSource:
    fixed: float | None = None
    population_dir: Path | None = None
    bins: int = 256

    def __post_init__(self) -> None:
        if (self.fixed is None) == (self.population_dir is None):
            raise ValueError("t_star needs exactly one of 'fixed' or 'population_dir'")
        if self.fixed is not None and not 0.0 < self.fixed <= 1.0:
            raise ValueError(f"fixed t_star must lie in (0, 1], got {self.fixed}")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    illumination_file: Path | None = None
    t_star: TStarSource = field(default_factory=lambda: TStarSource(fixed=0.45))
    encoder_channels: tuple[int, int] = (8, 8)
    encoder_source: ParamSource = field(default_factory=ParamSource)
    igs_k: int = 9
    igs_source: ParamSource = field(default_factory=ParamSource)
    depth_c_ctx: int = 8
    depth_bins: int = 16
    depth_min: float = 1.0
    depth_max: float = 20.0
    depth_source: ParamSource = field(default_factory=ParamSource)
    attn_k: int = 4
    attn_source: ParamSource = field(default_factory=ParamSource)
    head_source: ParamSource = field(default_factory=ParamSource)
    n_z: int = 8
    loss: LossConfig = field(default_factory=LossConfig)
    disable_idp: bool = False

    def __post_init__(self) -> None:
        if self.n_z < 1:
            raise ValueError("n_z must be >= 1")
        if self.attn_k < 1:
            raise ValueError("attention.k_points must be >= 1")
        try:
            kernel_grid(self.igs_k)
        except ValueError as exc:
            raise ValueError(f"igs.k_points: {exc}") from exc
        if min(self.encoder_channels) < 1:
            raise ValueError("encoder.channels must be >= 1")
        if self.depth_c_ctx < 1 or self.depth_bins < 1:
            raise ValueError("depth.c_ctx and depth.bins must be >= 1")
        # One bin checks d_min < d_max without allocating depth_bins centres.
        depth_bin_centers(self.depth_min, self.depth_max, 1)

    @classmethod
    def from_json_file(cls, path, seed_override: int | None = None) -> "PipelineConfig":
        path = Path(path)
        with open(path, "r", encoding="ascii") as fh:
            obj = json.load(fh)
        return cls.from_dict(obj, base_dir=path.parent, seed_override=seed_override)

    @classmethod
    def from_dict(
        cls, obj: dict, base_dir: Path = Path("."), seed_override: int | None = None
    ) -> "PipelineConfig":
        """Parse the JSON form; relative paths resolve against `base_dir`.

        A bad key or value raises ValueError naming its dotted key path.
        """
        file = json_path(base_dir, Path.is_file, "file")
        pop_dir = json_path(base_dir, Path.is_dir, "directory")
        t_star = json_block({"fixed": float, "population_dir": pop_dir, "bins": int}, TStarSource)
        # Blocks whose keys become the fields "<block>_<key>", both abbreviated by
        # `short`; each also takes the "source" of its parameters.
        nested = {
            "encoder": {"channels": json_list(int, 2)},
            "igs": {"k_points": int},
            "depth": {"c_ctx": int, "bins": int, "d_min": float, "d_max": float},
            "attention": {"k_points": int},
            "head": {},
        }
        for name, table in nested.items():
            files = json_block(dict.fromkeys(PARAM_FILES[name], file), required=True)
            table["source"] = json_block({"seed": int, "files": files}, ParamSource)
        short = {"attention": "attn", "k_points": "k", "d_min": "min", "d_max": "max"}
        fields = json_block(
            {
                "seed": int,
                "estimator": json_block(
                    {"stages": int, "blur_kernel": int, "floor": float}, EstimatorConfig
                ),
                "illumination_file": file,
                "t_star": lambda v, p: t_star({"fixed": v} if type(v) in (int, float) else v, p),
                "n_z": int,
                "loss": json_block(dict.fromkeys(("alpha", "beta", "gamma"), float), LossConfig),
                "disable_idp": bool,
                **{name: json_block(table) for name, table in nested.items()},
            }
        )(obj, "")
        kwargs = {key: value for key, value in fields.items() if key not in nested}
        for name in nested.keys() & fields.keys():
            for key, value in fields[name].items():
                kwargs[f"{short.get(name, name)}_{short.get(key, key)}"] = value
        if seed_override is not None:
            kwargs["seed"] = int(seed_override)
        return cls(**kwargs)


@dataclass(frozen=True)
class ResolvedParams:
    enc1: ConvParams
    enc2: ConvParams
    igs_conv: ConvParams
    igs_point_weights: np.ndarray
    depth_conv: ConvParams
    attn: AttentionParams
    head_weights: np.ndarray
    head_bias: np.ndarray


def _rng(pc: PipelineConfig, source: ParamSource, block: int) -> np.random.Generator:
    if source.seed is not None:
        return np.random.default_rng(np.random.SeedSequence([source.seed]))
    return np.random.default_rng(np.random.SeedSequence([pc.seed, block]))


def _gen_conv(rng: np.random.Generator, out_c: int, in_c: int, k: int) -> ConvParams:
    fan_in = in_c * k * k
    kernel = rng.normal(0.0, 0.5 / np.sqrt(fan_in), size=(out_c, in_c, k, k))
    bias = rng.normal(0.0, 0.1, size=out_c)
    return ConvParams(kernel, bias)


def _load_vector(path, n: int, what: str) -> np.ndarray:
    t = read_raw_tensor(path)
    vec = t.data.astype(np.float64).ravel()
    if vec.size != n:
        raise ValueError(f"{what} must hold {n} values, got {vec.size}")
    return vec


def _load_matrix(path, rows: int, cols: int, what: str) -> np.ndarray:
    t = read_raw_tensor(path)
    if t.channels != 1 or (t.height, t.width) != (rows, cols):
        raise ValueError(f"{what} must be [1, {rows}, {cols}], got {t.shape}")
    return t.data[0].astype(np.float64)


def _files(src: ParamSource, block: str) -> list[Path]:
    return [src.files[name] for name in PARAM_FILES[block]]


def build_params(pc: PipelineConfig, n_cla: int, grid_z: int) -> ResolvedParams:
    """Load or deterministically generate every parameter block."""
    c1, c2 = pc.encoder_channels
    src = pc.encoder_source
    if src.files is not None:
        k1, b1, k2, b2 = _files(src, "encoder")
        enc1 = ConvParams.load(k1, b1)
        enc2 = ConvParams.load(k2, b2)
        if enc1.in_channels != 3 or enc1.out_channels != c1 or enc2.in_channels != c1:
            raise ValueError("encoder parameter shapes disagree with the config")
        c2 = enc2.out_channels
    else:
        rng = _rng(pc, src, 1)
        enc1 = _gen_conv(rng, c1, 3, 3)
        enc2 = _gen_conv(rng, c2, c1, 3)

    src = pc.igs_source
    if src.files is not None:
        kernel, bias, points = _files(src, "igs")
        igs_conv = ConvParams.load(kernel, bias)
        point_w = _load_vector(points, pc.igs_k, "point weights")
    else:
        rng = _rng(pc, src, 2)
        igs_conv = _gen_conv(rng, 3 * pc.igs_k, 1, 3)
        point_w = 1.0 / pc.igs_k + rng.normal(0.0, 0.5 / pc.igs_k, size=pc.igs_k)

    src = pc.depth_source
    if src.files is not None:
        depth_conv = ConvParams.load(*_files(src, "depth"))
    else:
        depth_conv = _gen_conv(_rng(pc, src, 3), pc.depth_c_ctx + pc.depth_bins, c2, 1)

    src = pc.attn_source
    if src.files is not None:
        attn = AttentionParams.load(*_files(src, "attention"))
    else:
        rng = _rng(pc, src, 4)
        attn = AttentionParams(
            rng.normal(0.0, 0.5, size=(2 * pc.attn_k, pc.depth_c_ctx)),
            rng.normal(0.0, 0.5, size=(pc.attn_k, pc.depth_c_ctx)),
        )

    src = pc.head_source
    head_out = grid_z * n_cla
    if src.files is not None:
        weights, bias = _files(src, "head")
        head_w = _load_matrix(weights, head_out, pc.depth_c_ctx, "head weights")
        head_b = _load_vector(bias, head_out, "head bias")
    else:
        rng = _rng(pc, src, 5)
        head_w = rng.normal(0.0, 1.0 / np.sqrt(pc.depth_c_ctx), size=(head_out, pc.depth_c_ctx))
        head_b = rng.normal(0.0, 0.1, size=head_out)
    return ResolvedParams(
        enc1=enc1,
        enc2=enc2,
        igs_conv=igs_conv,
        igs_point_weights=point_w,
        depth_conv=depth_conv,
        attn=attn,
        head_weights=head_w,
        head_bias=head_b,
    )


def resolve_t_star(pc: PipelineConfig) -> float:
    """Fixed threshold, or the variance-maximizing one over a map directory."""
    if pc.t_star.fixed is not None:
        return pc.t_star.fixed
    factors = population_factors(pc.t_star.population_dir)
    report = otsu_threshold(FactorPopulation(np.array(factors), bins=pc.t_star.bins))
    return report.t_star


def population_factors(maps_dir) -> list[float]:
    """Illumination factors of every map file in a directory, sorted by name."""
    root = Path(maps_dir)
    paths = sorted(
        p for p in root.iterdir() if p.suffix in (".pgm", ".rt") and p.is_file()
    )
    if not paths:
        raise ValueError(f"no illumination maps (*.pgm, *.rt) in {root}")
    return [illumination_factor(load_illumination(p)) for p in paths]


def _avg_pool2(t: Tensor3) -> Tensor3:
    if t.height % 2 or t.width % 2:
        raise ValueError(f"pooling needs even dims, got {t.height}x{t.width}")
    d = t.data.reshape(t.channels, t.height // 2, 2, t.width // 2, 2)
    return Tensor3(d.mean(axis=(2, 4)))


def encode_image(x: Tensor3, enc1: ConvParams, enc2: ConvParams) -> Tensor3:
    """Two 3x3 convolutions, each followed by stride-2 average pooling."""
    f1 = _avg_pool2(conv2d_replicate(x, enc1))
    return _avg_pool2(conv2d_replicate(f1, enc2))


def illumination_map(pc: PipelineConfig, image: Tensor3) -> Tensor3:
    """The map every later stage reads: `pc.illumination_file`, else estimated."""
    if pc.illumination_file is not None:
        return load_illumination(pc.illumination_file, pc.estimator.floor)
    return estimate_illumination(image, pc.estimator)


def enhance_stage(
    pc: PipelineConfig, image: Tensor3
) -> tuple[Tensor3, float, float, Tensor3, bool]:
    """Illumination map, t*, factor lambda, selectively enhanced image, branch flag."""
    illum = illumination_map(pc, image)
    t_star = resolve_t_star(pc)
    lam = illumination_factor(illum)
    enhanced_img, flag = selective_enhance(image, illum, t_star)
    return illum, t_star, lam, enhanced_img, flag


def igs_stage(
    pc: PipelineConfig, params: ResolvedParams, illum: Tensor3, f_img: Tensor3
) -> tuple[Tensor3, Tensor3, Tensor3, Tensor3]:
    """Illumination-guided sampling: I', guidance, modulated offsets, warped feature."""
    i_prime, g = build_guidance(illum, f_img.height, f_img.width, pc.estimator.floor)
    dp, dw = generate_offsets(i_prime, params.igs_conv, pc.igs_k)
    dp_mod = modulate_offsets(dp, g)
    warped = guided_warp(f_img, dp_mod, dw, params.igs_point_weights)
    return i_prime, g, dp_mod, warped


@dataclass
class RunReport:
    lam: float
    enhanced: bool
    t_star: float
    ce: float
    ce_per_voxel: float
    aux_sem: float
    aux_geo: float
    total: float
    iou: IoUReport
    grid_dims: tuple[int, int, int]
    timings: dict[str, float]
    manifest: list[str]

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "enhanced": self.enhanced,
            "t_star": self.t_star,
            "losses": {
                "weighted_ce": self.ce,
                "weighted_ce_per_voxel": self.ce_per_voxel,
                "aux_sem": self.aux_sem,
                "aux_geo": self.aux_geo,
                "total": self.total,
            },
            "metrics": {
                "miou": self.iou.miou,
                "per_class": {
                    name: self.iou.per_class[m]
                    for m, name in enumerate(self.iou.class_names)
                },
                "evaluated_classes": list(self.iou.evaluated_classes),
            },
            "grid_dims": list(self.grid_dims),
            "timings": self.timings,
            "manifest": self.manifest,
        }


class _Stages:
    """Runs stages in order, recording wall time and tagging failures."""

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}

    def run(self, name: str, fn: Callable, *args):
        start = time.perf_counter()
        try:
            result = fn(*args)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc
        self.timings[name] = time.perf_counter() - start
        return result


def run_pipeline(
    pc: PipelineConfig,
    bundle: SceneBundle,
    out_dir,
    dump_intermediates: bool = False,
    aux_sem_hook: AuxLossHook | None = None,
    aux_geo_hook: AuxLossHook | None = None,
) -> RunReport:
    """Execute the full pipeline on one scene and write artifacts to out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[str] = []

    def dump_tensor(t: Tensor3, name: str) -> None:
        write_raw_tensor(t, out / name, dtype="f32")
        manifest.append(name)

    def dump_pgm(data, name: str) -> None:
        write_pgm(data, out / name)
        manifest.append(name)

    n_cla = len(bundle.classes)
    if n_cla < 2:
        raise ValueError("pipeline needs at least 2 classes for the prediction head")
    spec = bundle.bev
    grid_z = spec.nz
    params = build_params(pc, n_cla, grid_z)
    stages = _Stages()

    # Selective enhancement.
    illum, t_star, lam, enhanced_img, enhanced = stages.run(
        "enhance", enhance_stage, pc, bundle.image
    )
    write_ppm(enhanced_img, out / "enhanced.ppm")
    manifest.append("enhanced.ppm")
    if dump_intermediates:
        dump_tensor(illum, "illumination.rt")
        dump_pgm(illum, "illumination.pgm")

    # Tiny convolutional encoder.
    f_img = stages.run("encode", encode_image, enhanced_img, params.enc1, params.enc2)
    if dump_intermediates:
        dump_tensor(f_img, "f_img.rt")

    # Illumination-guided deformable sampling.
    i_prime, guidance, dp_mod, f_warped = stages.run(
        "guided_sampling", igs_stage, pc, params, illum, f_img
    )
    if dump_intermediates:
        dump_tensor(i_prime, "i_prime.rt")
        dump_tensor(guidance, "guidance.rt")
        dump_pgm(guidance, "guidance.pgm")
        dump_tensor(dp_mod, "offsets_mod.rt")
        dump_pgm(offset_magnitude(dp_mod), "offset_mag.pgm")
        dump_tensor(f_warped, "f_warped.rt")

    # Depth/context split.
    centers = depth_bin_centers(pc.depth_min, pc.depth_max, pc.depth_bins)
    dc = stages.run(
        "depth_split",
        depth_context_split,
        f_warped,
        params.depth_conv,
        pc.depth_c_ctx,
        pc.depth_bins,
        centers,
    )
    if dump_intermediates:
        dump_tensor(dc.f_ctx, "f_ctx.rt")
        dump_tensor(dc.depth, "depth.rt")

    # Lift-splat pooling into BEV.
    q = stages.run("bev_pool", bev_pool, dc, bundle.camera, spec)
    if dump_intermediates:
        dump_tensor(q, "q.rt")

    # Residual cross-attention query.
    q_res = stages.run(
        "residual_query", residual_query, q, dc.f_ctx, bundle.camera, spec, pc.n_z, params.attn
    )
    if dump_intermediates:
        dump_tensor(q_res, "q_res.rt")

    # BEV illumination field.
    def _field():
        if pc.disable_idp:
            return np.zeros((spec.nx, spec.ny))
        return illumination_field(illum, bundle.camera, spec, pc.n_z)

    s_field = stages.run("illumination_field", _field)
    if dump_intermediates:
        dump_tensor(field_to_tensor(s_field), "s_field.rt")
        dump_pgm(s_field, "s_field.pgm")

    # Illumination-weighted refinement.
    f_bev = stages.run("refine", refine_bev, q, q_res, s_field)
    if dump_intermediates:
        dump_tensor(f_bev, "f_bev.rt")

    # Channel-to-height prediction head.
    def _head():
        logits = np.einsum("oc,cxy->oxy", params.head_weights, f_bev.data)
        logits += params.head_bias[:, None, None]
        zgrid = logits.reshape(grid_z, n_cla, spec.nx, spec.ny)
        labels = zgrid.argmax(axis=1).transpose(1, 2, 0)  # (X, Y, Z)
        vox = zgrid.transpose(2, 3, 0, 1).reshape(-1, n_cla)  # (X*Y*Z, n_cla)
        return OccupancyGrid(labels, bundle.classes), vox, logits

    pred, vox_logits, head_logits = stages.run("head", _head)
    dump_tensor(Tensor3(pred.labels.transpose(2, 0, 1).astype(np.float64)), "occupancy_pred.rt")
    if dump_intermediates:
        dump_tensor(Tensor3(head_logits), "logits.rt")

    # Losses against the ground truth grid.
    def _loss():
        gt_flat = bundle.occupancy.labels.reshape(-1)
        weights = class_weights_from_labels(bundle.occupancy, n_cla)
        ce = weighted_ce(vox_logits, gt_flat, weights)
        a_sem = aux_sem_hook(vox_logits, gt_flat) if aux_sem_hook else 0.0
        a_geo = aux_geo_hook(vox_logits, gt_flat) if aux_geo_hook else 0.0
        return ce, a_sem, a_geo, total_loss(ce, a_sem, a_geo, pc.loss)

    ce, aux_sem, aux_geo, total = stages.run("loss", _loss)

    iou = stages.run("metrics", miou, pred, bundle.occupancy)
    write_iou_csv(iou, out / "metrics.csv")
    manifest.append("metrics.csv")

    report = RunReport(
        lam=lam,
        enhanced=enhanced,
        t_star=t_star,
        ce=ce,
        ce_per_voxel=ce / vox_logits.shape[0],
        aux_sem=aux_sem,
        aux_geo=aux_geo,
        total=total,
        iou=iou,
        grid_dims=(spec.nx, spec.ny, grid_z),
        timings=stages.timings,
        manifest=manifest,
    )
    write_json(report.to_dict(), out / REPORT_FILE)
    return report


def offset_magnitude(dp_mod: Tensor3) -> np.ndarray:
    """Mean per-point offset length, scaled by its max for PGM preview."""
    d = dp_mod.data
    mags = np.sqrt(d[0::2] ** 2 + d[1::2] ** 2).mean(axis=0)
    peak = mags.max()
    return mags / peak if peak > 0 else mags


def eval_batch(scene_dirs, pc: PipelineConfig, out_dir) -> IoUReport:
    """Run the pipeline over scenes and micro-average IoU counts across them."""
    dirs = [Path(d) for d in scene_dirs]
    if not dirs:
        raise ValueError("eval needs at least one scene")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    inter = None
    union = None
    class_names: tuple[str, ...] | None = None
    rows = []
    for idx, scene_dir in enumerate(dirs):
        bundle = load_scene(scene_dir)
        if class_names is None:
            class_names = bundle.classes
        elif class_names != bundle.classes:
            raise ValueError(f"scene {scene_dir} uses a different class table")
        report = run_pipeline(pc, bundle, out / f"scene_{idx:03d}")
        counts_i = np.array(report.iou.intersections, dtype=np.int64)
        counts_u = np.array(report.iou.unions, dtype=np.int64)
        inter = counts_i if inter is None else inter + counts_i
        union = counts_u if union is None else union + counts_u
        rows.append((str(scene_dir), report.iou.miou))

    aggregate = report_from_counts(inter, union, class_names)
    write_iou_csv(aggregate, out / "aggregate.csv")
    scenes = [{"dir": d, "miou": m} for d, m in rows]
    write_json({"scenes": scenes, "aggregate_miou": aggregate.miou}, out / "eval.json")
    return aggregate
