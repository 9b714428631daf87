"""Synthetic night-scene generator: raycast boxes, point lights, occupancy truth.

World frame: x forward (into the BEV grid), y left, z up. The camera sits
behind the grid's near edge looking along +x. Scene appearance is albedo
times an additive light field, clamped, so strong lights genuinely saturate
and low ambient genuinely underexposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    Tensor3,
    json_block,
    json_list,
    json_path,
    read_json,
    read_raw_tensor,
)
from .formats import read_ppm, write_artifacts
from .geometry import BevSpec, CameraMatrix, pixel_centers
from .illumination import ILLUMINATION_FLOOR
from .metrics import OccupancyGrid, label_dtype

# Albedo palette cycled by class id; index 0 is the free-space background.
ALBEDO = (
    (0.18, 0.18, 0.20),
    (0.85, 0.30, 0.25),
    (0.30, 0.80, 0.30),
    (0.30, 0.42, 0.90),
    (0.85, 0.80, 0.35),
    (0.78, 0.35, 0.80),
    (0.35, 0.80, 0.80),
    (0.90, 0.60, 0.30),
)

SCENE_FILE = "scene.json"
_RAY_EPS = 1e-9


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: center/size in meters, class id into the scene table."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    cls: int

    def __post_init__(self) -> None:
        if any(s <= 0 for s in self.size):
            raise ValueError("box size must be positive")

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center, dtype=np.float64)
        half = np.asarray(self.size, dtype=np.float64) / 2.0
        return c - half, c + half


@dataclass(frozen=True)
class Light:
    """Point light in image space: pixel position, peak intensity, falloff radius."""

    u: float
    v: float
    intensity: float
    radius: float

    def __post_init__(self) -> None:
        if self.intensity < 0 or self.radius <= 0:
            raise ValueError("light needs intensity >= 0 and radius > 0")


@dataclass(frozen=True)
class SceneConfig:
    seed: int = 0
    height: int = 64
    width: int = 96
    bev: BevSpec = field(
        default_factory=lambda: BevSpec(
            x_range=(0.0, 8.0), y_range=(-4.0, 4.0), z_range=(-1.0, 2.2), voxel=0.4
        )
    )
    classes: tuple[str, ...] = ("free", "crate", "pillar", "barrier")
    boxes: tuple[Box, ...] = ()
    random_boxes: int = 0
    lights: tuple[Light, ...] = ()
    ambient: float = 0.05
    camera_height: float = 1.4
    focal: float | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.height < 4 or self.width < 4:
            raise ValueError("image dims must be >= 4")
        if len(self.classes) < 1:
            raise ValueError("at least one class is required")
        if not 0.0 < self.ambient <= 1.0:
            raise ValueError("ambient must lie in (0, 1]")
        if self.focal is not None and not self.focal > 0:
            raise ValueError("focal must be > 0")
        for box in self.boxes:
            if not 1 <= box.cls < len(self.classes):
                raise ValueError(f"box class {box.cls} outside 1..{len(self.classes) - 1}")
        if self.random_boxes and len(self.classes) < 2:
            raise ValueError("random boxes need at least one non-background class")

    @classmethod
    def from_json_file(cls, path) -> "SceneConfig":
        return cls.from_dict(read_json(path))

    @classmethod
    def from_dict(cls, obj: dict) -> "SceneConfig":
        """Parse the JSON form; unknown keys and bad values raise ValueError."""
        return _SCENE_BLOCK(obj, "")


_XYZ = json_list(float, 3)
_BOX = json_block({"center": _XYZ, "size": _XYZ, "cls": int}, Box, required=True)
_LIGHT = json_block(dict.fromkeys(("u", "v", "intensity", "radius"), float), Light, required=True)
_SCENE_BLOCK = json_block(
    {
        "seed": int,
        "height": int,
        "width": int,
        "bev": BevSpec.from_dict,
        "classes": json_list(str),
        "boxes": json_list(_BOX),
        "random_boxes": int,
        "lights": json_list(_LIGHT),
        "ambient": float,
        "camera_height": float,
        "focal": float,
    },
    SceneConfig,
)


@dataclass(frozen=True)
class SceneBundle:
    """Everything one pipeline run consumes, plus the ground truth."""

    image: Tensor3
    camera: CameraMatrix
    occupancy: OccupancyGrid
    illumination_gt: Tensor3
    bev: BevSpec
    classes: tuple[str, ...]


def default_camera(cfg: SceneConfig) -> CameraMatrix:
    """Pinhole camera 1m behind the grid's near x edge, looking along +x."""
    focal = cfg.focal if cfg.focal is not None else cfg.width / 2.0
    cx = cfg.width / 2.0
    cy = cfg.height / 2.0
    k = np.array([[focal, 0.0, cx], [0.0, focal, cy], [0.0, 0.0, 1.0]])
    # Camera frame: right = -y_world, down = -z_world, forward = +x_world.
    r = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    center = np.array(
        [
            cfg.bev.x_range[0] - 1.0,
            (cfg.bev.y_range[0] + cfg.bev.y_range[1]) / 2.0,
            cfg.camera_height,
        ]
    )
    rt = np.concatenate([r, (-r @ center)[:, None]], axis=1)
    return CameraMatrix(k @ rt)


def _uniform_in(rng: np.random.Generator, lo: float, hi: float) -> float:
    # Boxes larger than the range collapse onto the range midpoint.
    if hi <= lo:
        return (lo + hi) / 2.0
    return float(rng.uniform(lo, hi))


def _resolve_boxes(cfg: SceneConfig, rng: np.random.Generator) -> list[Box]:
    boxes = list(cfg.boxes)
    spans = (cfg.bev.x_range, cfg.bev.y_range, cfg.bev.z_range)
    for _ in range(cfg.random_boxes):
        size = rng.uniform(0.5, 1.8, size=3)
        center = tuple(
            _uniform_in(rng, lo + size[a] / 2.0, hi - size[a] / 2.0)
            for a, (lo, hi) in enumerate(spans)
        )
        cls = int(rng.integers(1, len(cfg.classes)))
        boxes.append(Box(center, tuple(size), cls))
    return boxes


def _raycast_classes(
    cfg: SceneConfig, camera: CameraMatrix, boxes: list[Box]
) -> tuple[np.ndarray, bool]:
    """Per-pixel class id of the nearest box hit (0 where no box is hit)."""
    h, w = cfg.height, cfg.width
    m = camera.matrix
    a_inv = np.linalg.inv(m[:, :3])
    center = -a_inv @ m[:, 3]

    dirs = np.einsum("ij,jhw->ihw", a_inv, pixel_centers(h, w))  # world-space ray directions

    best_t = np.full((h, w), np.inf)
    classes = np.zeros((h, w), dtype=np.int64)
    for box in boxes:
        lo, hi = box.bounds()
        t_near = np.full((h, w), -np.inf)
        t_far = np.full((h, w), np.inf)
        miss = np.zeros((h, w), dtype=bool)
        for axis in range(3):
            d = dirs[axis]
            parallel = np.abs(d) < _RAY_EPS
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (lo[axis] - center[axis]) / d
                t2 = (hi[axis] - center[axis]) / d
            near = np.where(parallel, -np.inf, np.minimum(t1, t2))
            far = np.where(parallel, np.inf, np.maximum(t1, t2))
            inside = (center[axis] >= lo[axis]) & (center[axis] <= hi[axis])
            miss |= parallel & ~inside
            t_near = np.maximum(t_near, near)
            t_far = np.minimum(t_far, far)
        hit_t = np.where(t_near > _RAY_EPS, t_near, t_far)
        hit = ~miss & (t_near <= t_far) & (hit_t > _RAY_EPS) & (hit_t < best_t)
        best_t[hit] = hit_t[hit]
        classes[hit] = box.cls
    return classes, bool(np.isfinite(best_t).any())


def _light_field(cfg: SceneConfig) -> np.ndarray:
    """Ambient plus inverse-square falloff of each light, unclamped."""
    h, w = cfg.height, cfg.width
    cols = np.arange(w, dtype=np.float64)
    rows = np.arange(h, dtype=np.float64)[:, None]
    raw = np.full((h, w), cfg.ambient, dtype=np.float64)
    for light in cfg.lights:
        d2 = (cols - light.u) ** 2 + (rows - light.v) ** 2
        raw += light.intensity / (1.0 + d2 / (light.radius**2))
    return raw


def _occupancy_labels(cfg: SceneConfig, boxes: list[Box]) -> np.ndarray:
    spec = cfg.bev
    centers = (spec.x_centers(), spec.y_centers(), spec.z_centers())
    labels = np.zeros((spec.nx, spec.ny, spec.nz), dtype=np.int64)
    for box in boxes:  # later boxes overwrite earlier ones
        lo, hi = box.bounds()
        inside = [(c >= lo[a]) & (c <= hi[a]) for a, c in enumerate(centers)]
        labels[np.ix_(*inside)] = box.cls
    return labels


def gen_scene(cfg: SceneConfig) -> SceneBundle:
    """Deterministically rasterize a night scene from its config and seed."""
    rng = np.random.default_rng(cfg.seed)
    boxes = _resolve_boxes(cfg, rng)
    camera = default_camera(cfg)

    classes, any_hit = _raycast_classes(cfg, camera, boxes)
    if boxes and not any_hit:
        raise ValueError("degenerate camera: no configured box is visible")

    raw_light = _light_field(cfg)
    illumination = Tensor3(np.clip(raw_light, ILLUMINATION_FLOOR, 1.0)[None])

    palette = np.array([ALBEDO[c % len(ALBEDO)] for c in range(len(cfg.classes))])
    albedo = palette[classes].transpose(2, 0, 1)  # (3, H, W)
    image = Tensor3(np.clip(albedo * raw_light[None], 0.0, 1.0))

    occupancy = OccupancyGrid(_occupancy_labels(cfg, boxes), cfg.classes)
    return SceneBundle(
        image=image,
        camera=camera,
        occupancy=occupancy,
        illumination_gt=illumination,
        bev=cfg.bev,
        classes=cfg.classes,
    )


def save_scene(bundle: SceneBundle, out_dir) -> dict:
    """Write a scene directory; returns the manifest written to scene.json."""
    grid = bundle.occupancy.labels.transpose(2, 0, 1)
    manifest = {
        "height": bundle.image.height,
        "width": bundle.image.width,
        "bev": bundle.bev.to_dict(),
        "classes": list(bundle.classes),
        "files": {
            "image": "image.ppm",
            "camera": "camera.json",
            "occupancy": "occupancy_gt.rt",
            "illumination": "illumination_gt.rt",
            "illumination_preview": "illumination_gt.pgm",
        },
    }
    write_artifacts(out_dir, [
        ("image.ppm", bundle.image),
        ("camera.json", {"matrix": bundle.camera.to_list()}),
        ("occupancy_gt.rt", Tensor3(grid)),
        ("illumination_gt.rt", bundle.illumination_gt),
        ("illumination_gt.pgm", bundle.illumination_gt),
        (SCENE_FILE, manifest),
    ])
    return manifest


def read_manifest(scene_dir) -> dict:
    """Parse a scene directory's scene.json, resolving the files it names.

    Parsing is strict: a missing, unknown or mistyped key, or a named file
    that does not exist, raises ValueError naming the manifest and the
    dotted key path (e.g. `files.camera: missing`).
    """
    root = Path(scene_dir)
    file = json_path(root, Path.is_file, "file")
    read = dict.fromkeys(("image", "camera", "occupancy", "illumination"), file)
    manifest_block = json_block(
        {
            "height": int,
            "width": int,
            "bev": BevSpec.from_dict,
            "classes": json_list(str),
            "files": json_block({**read, "illumination_preview": str}, required=True),
        },
        required=True,
    )
    obj = read_json(root / SCENE_FILE)
    try:
        return manifest_block(obj, "")
    except ValueError as exc:
        raise ValueError(f"{root / SCENE_FILE}: {exc}") from exc


def load_scene(scene_dir) -> SceneBundle:
    """Load a scene directory written by `save_scene`.

    scene.json parses through `read_manifest`. The image must be the
    manifest's height x width, the occupancy grid must be nz x nx x ny of its
    `bev` and hold integer labels of its classes, and the illumination must
    be 1 x height x width; otherwise the ValueError names the file.
    """
    manifest = read_manifest(scene_dir)
    files = manifest["files"]
    image = read_ppm(files["image"])
    if (image.height, image.width) != (manifest["height"], manifest["width"]):
        raise ValueError(
            f"{Path(scene_dir, SCENE_FILE)}: height x width"
            f" {manifest['height']}x{manifest['width']}"
            f" does not match the {image.height}x{image.width} image"
        )
    camera = CameraMatrix.from_json_file(files["camera"])
    classes = manifest["classes"]
    bev = manifest["bev"]
    grid = read_raw_tensor(files["occupancy"], (bev.nz, bev.nx, bev.ny)).data
    # The range is checked before the cast, which cannot hold a value outside it;
    # the cast gives every value back only if all of them are integers.
    in_range = ((grid >= 0) & (grid < len(classes))).all()
    labels = grid.astype(label_dtype(len(classes))) if in_range else None
    if labels is None or not (labels == grid).all():
        raise ValueError(f"{files['occupancy']}: labels must be integers in [0, {len(classes)})")
    illumination = read_raw_tensor(files["illumination"], (1, image.height, image.width))
    return SceneBundle(
        image=image,
        camera=camera,
        occupancy=OccupancyGrid(labels.transpose(1, 2, 0), classes),
        illumination_gt=illumination,
        bev=bev,
        classes=classes,
    )

