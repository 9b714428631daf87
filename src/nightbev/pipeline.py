"""End-to-end pipeline: enhancement, encoding, guided sampling, BEV projection,
prediction head, losses, and metrics, with a JSON-configured parameter set.

Every parameter block either loads from raw tensor files or is generated
from a seeded RNG, so identical config plus seed reproduces identical
output bytes. Auxiliary loss terms are pluggable callables defaulting to
zero.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bev import AttentionParams, bev_pool, depth_bin_centers, depth_context_split
from .bev import refine_bev, residual_query
from .core import Tensor3, frozen_array, json_block, json_list, json_path, read_json
from .core import level_blocks, ordered_sum, read_raw_tensor
from .formats import ppm_samples, write_artifacts
from .geometry import field_to_tensor, illumination_field
from .guided_sampling import ConvParams, build_guidance, conv2d_pool2, generate_offsets
from .guided_sampling import guided_warp, kernel_grid, modulate_offsets
from .illumination import ILLUMINATION_FLOOR, EstimatorConfig, estimate_illumination
from .illumination import illumination_factor, load_illumination
from .losses import LossConfig, class_weights_from_labels, term_sum, total_loss, weighted_ce
from .metrics import IoUReport, OccupancyGrid, label_dtype, miou, report_from_counts
from .scene import SceneBundle, load_scene, read_manifest
from .selective import FactorPopulation, otsu_threshold, selective_enhance

# An auxiliary loss term: called with an (X, Y, Z, n_cla) view of the head's
# logits and the (X, Y, Z) ground-truth labels. Only a run with a hook (or
# with dumped intermediates) allocates those full logits; `weighted_ce` over
# that view equals the run's CE bit for bit. The labels come in
# `metrics.label_dtype`, uint8 up to 256 classes, so a hook widens them
# before any arithmetic (uint8 `a * n + b` wraps once the result passes 255).
AuxLossHook = Callable[[np.ndarray, np.ndarray], float]

REPORT_FILE = "report.json"


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.__cause__ = cause


@dataclass(frozen=True)
class ParamSource:
    """Where a parameter block comes from: seeded generation or raw tensor files.

    Files take precedence; with neither set, the pipeline seed generates it.
    """

    seed: int | None = None
    files: dict[str, Path] | None = None

    def __post_init__(self) -> None:
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be >= 0")


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
        try:  # one bin checks d_min < d_max without allocating depth_bins centres
            depth_bin_centers(self.depth_min, self.depth_max, 1)
        except ValueError as exc:
            raise ValueError(f"depth.d_min: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        path = Path(path)
        return cls.from_dict(read_json(path), base_dir=path.parent)

    @classmethod
    def from_dict(cls, obj: dict, base_dir: Path = Path(".")) -> "PipelineConfig":
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
        # Only the tensor names are read here, so the default config sizes the table.
        for name, (_, params) in _param_table(cls(), 2, 1).items():
            files = json_block(dict.fromkeys((p.name for p in params), file), required=True)
            nested[name]["source"] = json_block({"seed": int, "files": files}, ParamSource)
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


class _Param(NamedTuple):
    """One parameter tensor: its `files` name, file layout [C, H, W], shape in
    memory, and the mean and std of the normal it is generated from."""

    name: str
    layout: tuple[int, int, int]
    shape: tuple[int, ...]
    mean: float
    std: float


def _conv(prefix: str, out_c: int, in_c: int, k: int) -> list[_Param]:
    """A conv kernel stored as [out, in*k, k] and its bias stored as [out, 1, 1]."""
    std = 0.5 / np.sqrt(in_c * k * k)
    return [
        _Param(prefix + "kernel", (out_c, in_c * k, k), (out_c, in_c, k, k), 0.0, std),
        _Param(prefix + "bias", (out_c, 1, 1), (out_c,), 0.0, 0.1),
    ]


def _param_table(
    pc: PipelineConfig, n_cla: int, grid_z: int
) -> dict[str, tuple[ParamSource, list[_Param]]]:
    """Every block's source and tensors, in load and draw order, sized by the config."""
    c1, c2 = pc.encoder_channels
    k, c_ctx, head_out = pc.attn_k, pc.depth_c_ctx, grid_z * n_cla
    points = _Param("point_weights", (1, 1, pc.igs_k), (pc.igs_k,), 1.0 / pc.igs_k, 0.5 / pc.igs_k)
    return {
        "encoder": (pc.encoder_source, _conv("conv1_", c1, 3, 3) + _conv("conv2_", c2, c1, 3)),
        "igs": (pc.igs_source, _conv("", 3 * pc.igs_k, 1, 3) + [points]),
        "depth": (pc.depth_source, _conv("", c_ctx + pc.depth_bins, c2, 1)),
        "attention": (pc.attn_source, [
            _Param("offset_weights", (1, 2 * k, c_ctx), (2 * k, c_ctx), 0.0, 0.5),
            _Param("attn_weights", (1, k, c_ctx), (k, c_ctx), 0.0, 0.5),
        ]),
        "head": (pc.head_source, [
            _Param("weights", (1, head_out, c_ctx), (head_out, c_ctx), 0.0, 1.0 / np.sqrt(c_ctx)),
            _Param("bias", (head_out, 1, 1), (head_out,), 0.0, 0.1),
        ]),
    }


def _load_param(block: str, param: _Param, path: Path) -> np.ndarray:
    """A raw tensor file of exactly the declared layout, reshaped to the parameter's shape."""
    try:
        t = read_raw_tensor(path, param.layout)  # its errors name the path
    except (OSError, ValueError) as exc:
        raise ValueError(f"{block}.source.files.{param.name}: {exc}") from exc
    return t.data.reshape(param.shape)


def build_params(pc: PipelineConfig, n_cla: int, grid_z: int) -> ResolvedParams:
    """Load or deterministically generate every parameter block.

    A block with `files` loads each tensor `_param_table` declares; a
    generated one draws them in table order from `[source.seed]`, else from
    `[pc.seed, block index]` with blocks counted from 1.
    """
    blocks = []
    for index, (block, (src, params)) in enumerate(_param_table(pc, n_cla, grid_z).items(), 1):
        if src.files is not None:
            blocks.append([_load_param(block, p, src.files[p.name]) for p in params])
        else:
            seed = [src.seed] if src.seed is not None else [pc.seed, index]
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            draws = (rng.normal(p.mean, p.std, p.shape) for p in params)
            blocks.append([frozen_array(d, "generated parameters") for d in draws])
    enc, igs, depth, attn, head = blocks
    convs = ConvParams(*enc[:2]), ConvParams(*enc[2:]), ConvParams(*igs[:2])
    return ResolvedParams(*convs, igs[2], ConvParams(*depth), AttentionParams(*attn), *head)


def resolve_t_star(pc: PipelineConfig) -> float:
    """Fixed threshold, or the variance-maximizing one over a map directory."""
    if pc.t_star.fixed is not None:
        return pc.t_star.fixed
    factors = population_factors(pc.t_star.population_dir, pc.estimator.floor)
    report = otsu_threshold(FactorPopulation(np.array(factors), bins=pc.t_star.bins))
    return report.t_star


def population_factors(maps_dir, floor: float = ILLUMINATION_FLOOR) -> list[float]:
    """Illumination factors of every map file in a directory, sorted by name,
    each map clamped into (floor, 1] as the run's own maps are."""
    root = Path(maps_dir)
    paths = sorted(
        p for p in root.iterdir() if p.suffix in (".pgm", ".rt") and p.is_file()
    )
    if not paths:
        raise ValueError(f"no illumination maps (*.pgm, *.rt) in {root}")
    return [illumination_factor(load_illumination(p, floor)) for p in paths]


ENCODER_STRIDE = 4  # encode_image pools twice by 2


def injected_map(
    path, floor: float, image: Tensor3, source: str = "illumination_file"
) -> Tensor3 | None:
    """The injected map at `path` clamped into (floor, 1], or None if `path` is:
    the one read of it per run. It must be as large as `image`; every error
    names `source`, the config key or flag the path came from."""
    if path is None:
        return None
    try:
        injected = load_illumination(path, floor)  # errors name the path
    except (OSError, ValueError) as exc:
        raise ValueError(f"{source}: {exc}") from exc
    if (injected.height, injected.width) != (image.height, image.width):
        size, want = (f"{t.height}x{t.width}" for t in (injected, image))
        raise ValueError(f"{source} is {size}, image is {want}")
    return injected


def check_image_size(height: int, width: int) -> None:
    """Refuse an image the encoder cannot pool."""
    if height % ENCODER_STRIDE or width % ENCODER_STRIDE:
        raise ValueError(
            f"image {height}x{width}: height and width must be divisible by {ENCODER_STRIDE}"
        )


def _check_scene(classes: tuple, height: int, width: int) -> None:
    """Refuse a scene the head or the encoder cannot run."""
    if len(classes) < 2:
        raise ValueError("pipeline needs at least 2 classes for the prediction head")
    check_image_size(height, width)


def _with_fixed_t_star(pc: PipelineConfig) -> PipelineConfig:
    """`pc` with t* resolved once into a fixed threshold."""
    if pc.t_star.fixed is not None:
        return pc
    return replace(pc, t_star=TStarSource(fixed=resolve_t_star(pc)))


def encode_image(x: Tensor3, enc1: ConvParams, enc2: ConvParams) -> Tensor3:
    """Two 3x3 convolutions, each followed by stride-2 2x2 average pooling, each
    run as one fused stride-2 4x4 conv (`conv2d_pool2`): within 1e-12 relative of
    conv-then-pool, not bit for bit."""
    return conv2d_pool2(conv2d_pool2(x, enc1), enc2)


def illumination_map(pc: PipelineConfig, image: Tensor3, injected: Tensor3 | None) -> Tensor3:
    """The map every later stage reads: the injected map, else estimated."""
    return injected if injected is not None else estimate_illumination(image, pc.estimator)


def enhance_stage(
    pc: PipelineConfig, image: Tensor3, injected: Tensor3 | None
) -> tuple[Tensor3, float, float, Tensor3, bool]:
    """Illumination map, t*, factor lambda, selectively enhanced image, branch flag."""
    illum = illumination_map(pc, image, injected)
    t_star = resolve_t_star(pc)
    lam = illumination_factor(illum)
    enhanced_img, flag = selective_enhance(image, illum, t_star)
    return illum, t_star, lam, enhanced_img, flag


def igs_stage(
    pc: PipelineConfig, params: ResolvedParams, illum: Tensor3, f_img: Tensor3
) -> tuple[Tensor3, Tensor3, Tensor3, Tensor3]:
    """Illumination-guided sampling: I', guidance, modulated offsets, warped feature."""
    i_prime, g = build_guidance(illum, f_img.height, f_img.width, pc.estimator.floor)
    dp, dw = generate_offsets(i_prime, params.igs_conv)
    dp_mod = modulate_offsets(dp, g)
    warped = guided_warp(f_img, dp_mod, dw, params.igs_point_weights)
    return i_prime, g, dp_mod, warped


def _class_argmax(zgrid: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`zgrid.argmax(axis=1)`, as one pass per class over the (Z, X, Y) planes.

    Class k takes over where it beats the running max, or is NaN where that
    is not, so the first maximum and the first NaN win, as in `argmax`. Every
    earlier label is below k, so `maximum(out, k * wins)` sets exactly those.
    The labels go into `out`, which is returned.
    """
    best = zgrid[:, 0].copy()
    out[...] = 0
    wins = np.empty(best.shape, dtype=bool)
    for k in range(1, zgrid.shape[1]):
        plane = zgrid[:, k]
        np.less_equal(plane, best, out=wins)
        np.logical_not(wins, out=wins)  # greater, or one of the two is NaN
        wins &= best == best
        np.maximum(out, np.multiply(wins, k, dtype=out.dtype), out=out)
        np.maximum(best, plane, out=best)
    return out


def head_stage(
    f_bev: Tensor3,
    weights: np.ndarray,
    bias: np.ndarray,
    gt: OccupancyGrid,
    keep_logits: bool = False,
) -> tuple[OccupancyGrid, float, np.ndarray | None]:
    """Channel-to-height head scored against `gt`: the predicted grid, the
    weighted CE and, with `keep_logits`, the (Z·n_cla, X, Y) logits, else None.

    One pass over `level_blocks` of whole z-levels: each block's logits (the
    einsum over the rows of those levels, then the bias), their labels, then
    their per-voxel `weighted_ce` terms under inverse-frequency class weights.
    The logits go into the full buffer with `keep_logits`, else into one
    block-sized buffer that every block reuses. Each block's terms go into a
    contiguous block-sized buffer, then into their levels of one (X, Y, Z)
    array, which `term_sum` reads once in C order, so the CE equals
    `weighted_ce` over the whole (X, Y, Z, n_cla) logits bit for bit.
    """
    n_cla = len(gt.class_names)
    _, nx, ny = f_bev.data.shape
    grid_z = weights.shape[0] // n_cla
    if gt.dims != (nx, ny, grid_z):
        raise ValueError(f"ground truth of {gt.dims} for a head of {(nx, ny, grid_z)}")
    class_weights = class_weights_from_labels(gt, n_cla)
    blocks = level_blocks(grid_z, n_cla * nx * ny * 8)
    step = blocks[0].stop
    logits = np.empty(((grid_z if keep_logits else step) * n_cla, nx, ny))
    labels = np.empty((grid_z, nx, ny), dtype=label_dtype(n_cla))
    terms, block_terms = np.empty((nx, ny, grid_z)), np.empty((step, nx, ny))
    gt_levels, term_levels = gt.labels.transpose(2, 0, 1), terms.transpose(2, 0, 1)  # (Z, X, Y)
    for levels in blocks:
        n = levels.stop - levels.start  # the last block may be short
        rows = slice(levels.start * n_cla, levels.stop * n_cla)
        block = logits[rows] if keep_logits else logits[: n * n_cla]
        np.einsum("oc,cxy->oxy", weights[rows], f_bev.data, out=block)
        block += bias[rows, None, None]
        zblock = block.reshape(n, n_cla, nx, ny)
        _class_argmax(zblock, out=labels[levels])
        vox_block = zblock.transpose(0, 2, 3, 1)  # (levels, X, Y, n_cla)
        # Written contiguously, then copied through the strided view: about 3 ms
        # faster on bev_wide than `out=term_levels[levels]`, with the same bits.
        weighted_ce(vox_block, gt_levels[levels], class_weights, out=block_terms[:n])
        term_levels[levels] = block_terms[:n]
    ce = term_sum(terms)
    pred = OccupancyGrid(labels.transpose(1, 2, 0), gt.class_names)  # (X, Y, Z)
    return pred, ce, logits if keep_logits else None


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
    """Execute the full pipeline on one scene and write artifacts to out_dir.

    First the scene is checked, the injected map read and checked against it,
    the parameters built and t* resolved; then every stage runs; only then is
    anything written, so a failure at any point leaves no output directory.
    """
    n_cla = len(bundle.classes)
    spec = bundle.bev
    _check_scene(bundle.classes, bundle.image.height, bundle.image.width)
    injected = injected_map(pc.illumination_file, pc.estimator.floor, bundle.image)
    params = build_params(pc, n_cla, spec.nz)
    pc = _with_fixed_t_star(pc)
    stages = _Stages()
    # Selective enhancement.
    illum, t_star, lam, enhanced_img, enhanced = stages.run(
        "enhance", enhance_stage, pc, bundle.image, injected
    )
    # Tiny convolutional encoder.
    f_img = stages.run("encode", encode_image, enhanced_img, params.enc1, params.enc2)
    # Only enhanced.ppm reads the enhanced image after the encoder: keep its 8-bit samples.
    enhanced_img = ppm_samples(enhanced_img)
    # Illumination-guided deformable sampling.
    i_prime, guidance, dp_mod, f_warped = stages.run(
        "guided_sampling", igs_stage, pc, params, illum, f_img
    )
    # Depth/context split.
    centers = depth_bin_centers(pc.depth_min, pc.depth_max, pc.depth_bins)
    dc = stages.run("depth_split", depth_context_split, f_warped, params.depth_conv, centers)
    # Lift-splat pooling into BEV.
    q = stages.run("bev_pool", bev_pool, dc, bundle.camera, spec)
    # Residual cross-attention query.
    q_res = stages.run(
        "residual_query", residual_query, q, dc.f_ctx, bundle.camera, spec, pc.n_z, params.attn
    )

    # BEV illumination field.
    def _field():
        if pc.disable_idp:
            return np.zeros((spec.nx, spec.ny))
        return illumination_field(illum, bundle.camera, spec, pc.n_z)

    s_field = stages.run("illumination_field", _field)
    # Illumination-weighted refinement.
    f_bev = stages.run("refine", refine_bev, q, q_res, s_field)
    if not dump_intermediates:  # only the dump reads q and q_res after refine
        del q, q_res

    # Channel-to-height prediction head and weighted CE in one pass. The full
    # logits exist only for a caller that reads them: the dump or an aux hook.
    keep_logits = dump_intermediates or aux_sem_hook is not None or aux_geo_hook is not None
    pred, ce, head_logits = stages.run(
        "head", head_stage, f_bev, params.head_weights, params.head_bias, bundle.occupancy,
        keep_logits,
    )

    # Auxiliary terms and the composite loss.
    def _loss():
        gt, vox_logits = bundle.occupancy.labels, None
        if head_logits is not None:  # (X, Y, Z, n_cla) view of the (Z, n_cla, X, Y) logits
            vox_logits = head_logits.reshape(spec.nz, n_cla, spec.nx, spec.ny).transpose(2, 3, 0, 1)
        a_sem = aux_sem_hook(vox_logits, gt) if aux_sem_hook else 0.0
        a_geo = aux_geo_hook(vox_logits, gt) if aux_geo_hook else 0.0
        return a_sem, a_geo, total_loss(ce, a_sem, a_geo, pc.loss)

    aux_sem, aux_geo, total = stages.run("loss", _loss)
    iou = stages.run("metrics", miou, pred, bundle.occupancy)

    # Every artifact in manifest order; report.json follows and lists them.
    artifacts = [("enhanced.ppm", enhanced_img)]
    if dump_intermediates:
        artifacts += [
            ("illumination.rt", illum),
            ("illumination.pgm", illum),
            ("f_img.rt", f_img),
            ("i_prime.rt", i_prime),
            ("guidance.rt", guidance),
            ("guidance.pgm", guidance),
            ("offsets_mod.rt", dp_mod),
            ("offset_mag.pgm", offset_magnitude(dp_mod)),
            ("f_warped.rt", f_warped),
            ("f_ctx.rt", dc.f_ctx),
            ("depth.rt", dc.depth),
            ("q.rt", q),
            ("q_res.rt", q_res),
            ("s_field.rt", field_to_tensor(s_field)),
            ("s_field.pgm", s_field),
            ("f_bev.rt", f_bev),
        ]
    artifacts.append(("occupancy_pred.rt", Tensor3(pred.labels.transpose(2, 0, 1))))
    if dump_intermediates:
        artifacts.append(("logits.rt", Tensor3.take_over(head_logits)))
    artifacts.append(("metrics.csv", iou))
    write_artifacts(out_dir, artifacts)

    report = RunReport(
        lam=lam,
        enhanced=enhanced,
        t_star=t_star,
        ce=ce,
        ce_per_voxel=ce / (spec.nx * spec.ny * spec.nz),
        aux_sem=aux_sem,
        aux_geo=aux_geo,
        total=total,
        iou=iou,
        grid_dims=(spec.nx, spec.ny, spec.nz),
        timings=stages.timings,
        manifest=[name for name, _ in artifacts],
    )
    write_artifacts(out_dir, [(REPORT_FILE, report.to_dict())])
    return report


def offset_magnitude(dp_mod: Tensor3) -> np.ndarray:
    """Mean per-point offset length, scaled by its max for PGM preview. The
    lengths are squared, added and rooted in one (K, H, W) array."""
    lengths = np.square(dp_mod.data[0::2])
    sq = np.empty(lengths.shape[1:])
    for length, dy in zip(lengths, dp_mod.data[1::2]):
        length += np.square(dy, out=sq)
    np.sqrt(lengths, out=lengths)
    mags = ordered_sum(lengths)
    mags /= len(lengths)
    peak = mags.max()
    if peak > 0:
        mags /= peak
    return mags


def eval_batch(scene_dirs, pc: PipelineConfig, out_dir) -> IoUReport:
    """Run the pipeline over scenes and micro-average IoU counts across them.

    Before any scene runs, the manifests must share one class table of at least
    2 classes and sizes the encoder can pool, and t* is resolved once. A scene's
    errors name it; a failure removes `out_dir` if this call created it.
    """
    dirs = [Path(d) for d in scene_dirs]
    if not dirs:
        raise ValueError("eval needs at least one scene")
    manifests = [read_manifest(d) for d in dirs]
    classes = manifests[0]["classes"]
    for d, m in zip(dirs, manifests):
        try:
            if m["classes"] != classes:
                raise ValueError("uses a different class table")
            _check_scene(classes, m["height"], m["width"])
        except ValueError as exc:
            raise ValueError(f"scene {d}: {exc}") from exc
    pc = _with_fixed_t_star(pc)
    out = Path(out_dir)
    created = not out.exists()
    reports = []
    try:
        for i, d in enumerate(dirs):
            try:
                reports.append(run_pipeline(pc, load_scene(d), out / f"scene_{i:03d}"))
            except ValueError as exc:
                raise ValueError(f"scene {d}: {exc}") from exc
            except StageError as exc:  # keeps its stage, cause and exit code
                exc.args = (f"scene {d}: {exc}",)
                raise
        aggregate = report_from_counts(
            sum(np.array(r.iou.intersections, dtype=np.int64) for r in reports),
            sum(np.array(r.iou.unions, dtype=np.int64) for r in reports),
            classes,
        )
        scenes = [{"dir": str(d), "miou": r.iou.miou} for d, r in zip(dirs, reports)]
        summary = {"scenes": scenes, "aggregate_miou": aggregate.miou}
        write_artifacts(out, [("aggregate.csv", aggregate), ("eval.json", summary)])
    except BaseException:  # KeyboardInterrupt too
        if created:
            shutil.rmtree(out, ignore_errors=True)
        raise
    return aggregate
