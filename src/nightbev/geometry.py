"""Pinhole projection, BEV grid geometry, and the BEV illumination field.

World points project through a 3x4 camera matrix; BEV cells are sampled
along vertical columns and the illumination map is averaged over the
samples that land inside the image. Cells with no in-image evidence get
zero, which downstream refinement treats as "no correction".
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Tensor3, json_block, json_list

DEPTH_EPS = 1e-6


@dataclass(frozen=True)
class CameraMatrix:
    """3x4 projection matrix; the left 3x3 block must be invertible."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.float64)
        if m.shape != (3, 4):
            raise ValueError(f"camera matrix must be 3x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("camera matrix must be finite")
        det = float(np.linalg.det(m[:, :3]))
        if not np.isfinite(det) or abs(det) < 1e-12:
            raise ValueError("camera matrix 3x3 block is singular")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_list(cls, values) -> "CameraMatrix":
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size != 12:
            raise ValueError(f"camera matrix needs 12 numbers, got {arr.size}")
        return cls(arr.reshape(3, 4))

    @classmethod
    def from_json_file(cls, path) -> "CameraMatrix":
        with open(path, "r", encoding="ascii") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise ValueError("camera file must be a JSON object with a 'matrix' key")
        return cls.from_list(obj["matrix"])

    def to_list(self) -> list[float]:
        return [float(v) for v in self.matrix.ravel()]


@dataclass(frozen=True)
class Projection:
    """Projected pixel coordinates and depth; u/v/depth are meaningful only when valid."""

    u: float
    v: float
    depth: float
    valid: bool


def _axis_cells(lo: float, hi: float, voxel: float, name: str) -> int:
    span = hi - lo
    if span <= 0:
        raise ValueError(f"{name} range must be increasing")
    n = span / voxel
    if not np.isfinite(n):
        raise ValueError(f"{name} range {lo}..{hi} holds too many voxels of {voxel}")
    cells = int(round(n))
    if cells < 1 or abs(n - cells) > 1e-9 * max(1.0, abs(n)):
        raise ValueError(f"{name} range {lo}..{hi} is not divisible by voxel {voxel}")
    return cells


@dataclass(frozen=True)
class BevSpec:
    """BEV grid extents and cubic voxel size, with derived cell counts."""

    x_range: tuple[float, float] = (-40.0, 40.0)
    y_range: tuple[float, float] = (-40.0, 40.0)
    z_range: tuple[float, float] = (-1.0, 5.4)
    voxel: float = 0.4

    def __post_init__(self) -> None:
        if not self.voxel > 0:
            raise ValueError("voxel size must be positive")
        object.__setattr__(self, "x_range", (float(self.x_range[0]), float(self.x_range[1])))
        object.__setattr__(self, "y_range", (float(self.y_range[0]), float(self.y_range[1])))
        object.__setattr__(self, "z_range", (float(self.z_range[0]), float(self.z_range[1])))
        _axis_cells(*self.x_range, self.voxel, "x")
        _axis_cells(*self.y_range, self.voxel, "y")
        _axis_cells(*self.z_range, self.voxel, "z")

    @property
    def nx(self) -> int:
        return _axis_cells(*self.x_range, self.voxel, "x")

    @property
    def ny(self) -> int:
        return _axis_cells(*self.y_range, self.voxel, "y")

    @property
    def nz(self) -> int:
        return _axis_cells(*self.z_range, self.voxel, "z")

    def x_centers(self) -> np.ndarray:
        return self.x_range[0] + (np.arange(self.nx) + 0.5) * self.voxel

    def y_centers(self) -> np.ndarray:
        return self.y_range[0] + (np.arange(self.ny) + 0.5) * self.voxel

    def z_centers(self) -> np.ndarray:
        return self.z_range[0] + (np.arange(self.nz) + 0.5) * self.voxel

    @classmethod
    def from_dict(cls, obj: dict, path: str = "bev") -> "BevSpec":
        """Parse the JSON form; errors name the key under `path`."""
        return _BEV_BLOCK(obj, path)

    def to_dict(self) -> dict:
        return {
            "x_range": list(self.x_range),
            "y_range": list(self.y_range),
            "z_range": list(self.z_range),
            "voxel": self.voxel,
        }


_RANGE = json_list(float, 2)
_BEV_BLOCK = json_block(
    {"x_range": _RANGE, "y_range": _RANGE, "z_range": _RANGE, "voxel": float}, BevSpec
)


def project_points(m: CameraMatrix, pts: np.ndarray):
    """Vectorized projection of (..., 3) world points.

    Returns (u, v, depth, valid); u and v are zeroed where invalid so the
    caller can mask without meeting infinities.
    """
    pts = np.asarray(pts, dtype=np.float64)
    a = m.matrix[:, :3]
    t = m.matrix[:, 3]
    h = pts @ a.T + t
    depth = h[..., 2]
    valid = depth > DEPTH_EPS
    safe = np.where(valid, depth, 1.0)
    u = np.where(valid, h[..., 0] / safe, 0.0)
    v = np.where(valid, h[..., 1] / safe, 0.0)
    return u, v, depth, valid


def project_point(m: CameraMatrix, x: float, y: float, z: float) -> Projection:
    """Project one world point; points at or behind the camera plane are flagged invalid."""
    u, v, d, valid = project_points(m, np.array([x, y, z], dtype=np.float64))
    return Projection(u=float(u), v=float(v), depth=float(d), valid=bool(valid))


def sample_heights(spec: BevSpec, n_z: int) -> np.ndarray:
    """n_z uniform cell-center-style heights spanning the grid's z range."""
    if n_z < 1:
        raise ValueError("n_z must be >= 1")
    lo, hi = spec.z_range
    step = (hi - lo) / float(n_z)
    return lo + (np.arange(1, n_z + 1, dtype=np.float64) - 0.5) * step


def illumination_field(
    i: Tensor3, m: CameraMatrix, spec: BevSpec, n_z: int = 8
) -> np.ndarray:
    """Per-BEV-cell mean of the illumination sampled along vertical columns.

    Each cell center is lifted to n_z heights and projected; a sample
    contributes the map value at its floored pixel index iff it lands in
    front of the camera and inside the image. Cells with no contributing
    sample get 0.
    """
    if i.channels != 1:
        raise ValueError(f"illumination map must have 1 channel, got {i.channels}")
    heights = sample_heights(spec, n_z)
    xs = spec.x_centers()
    ys = spec.y_centers()
    gx, gy, gz = np.meshgrid(xs, ys, heights, indexing="ij")
    pts = np.stack([gx, gy, gz], axis=-1)  # (X, Y, n_z, 3)
    u, v, _, valid = project_points(m, pts)

    iu = np.floor(u).astype(np.int64)
    iv = np.floor(v).astype(np.int64)
    in_image = (
        valid & (iu >= 0) & (iu <= i.width - 1) & (iv >= 0) & (iv <= i.height - 1)
    )
    values = np.zeros_like(u)
    if in_image.any():
        values[in_image] = i.data[0, iv[in_image], iu[in_image]]
    counts = in_image.sum(axis=-1)
    sums = values.sum(axis=-1)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)


def merge_fields_max(fields) -> np.ndarray:
    """Merge per-camera illumination fields by cellwise maximum."""
    stack = [np.asarray(f, dtype=np.float64) for f in fields]
    if not stack:
        raise ValueError("no fields to merge")
    return np.maximum.reduce(stack)


def field_to_tensor(field: np.ndarray) -> Tensor3:
    """Wrap an X x Y field as a 1 x X x Y tensor for file output."""
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("field must be 2D")
    return Tensor3(arr[None])
