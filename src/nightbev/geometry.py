"""Pinhole projection, BEV grid geometry, and the BEV illumination field.

World points project through a 3x4 camera matrix; BEV cells are sampled
along vertical columns and the illumination map is averaged over the
samples that land inside the image. Cells with no in-image evidence get
zero, which downstream refinement treats as "no correction".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .core import BatchPlan, Tensor3, frozen_array, json_block, json_list, level_blocks
from .core import planned, read_json

DEPTH_EPS = 1e-6
COLUMN_BLOCK = 1 << 15  # most points one block of a column stage holds, unless one row or cell is more


@dataclass(frozen=True)
class CameraMatrix:
    """3x4 projection matrix; the left 3x3 block must be invertible."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = frozen_array(self.matrix, "camera matrix")
        if m.shape != (3, 4):
            raise ValueError(f"camera matrix must be 3x4, got {m.shape}")
        with np.errstate(all="ignore"):  # LU of a block with subnormals divides by zero
            det = float(np.linalg.det(m[:, :3]))
        if not np.isfinite(det) or abs(det) < 1e-12:
            raise ValueError("camera matrix 3x3 block is singular")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_list(cls, values) -> "CameraMatrix":
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size != 12:
            raise ValueError(f"camera matrix needs 12 numbers, got {arr.size}")
        return cls(arr.reshape(3, 4))

    @classmethod
    def from_json_file(cls, path) -> "CameraMatrix":
        """Read `{"matrix": [12 numbers, row-major]}`; errors name the file and key."""
        obj = read_json(path)
        try:
            return _CAMERA_BLOCK(obj, "")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

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
    """BEV grid extents and cubic voxel size; cell counts nx, ny, nz are set once."""

    x_range: tuple[float, float] = (-40.0, 40.0)
    y_range: tuple[float, float] = (-40.0, 40.0)
    z_range: tuple[float, float] = (-1.0, 5.4)
    voxel: float = 0.4
    nx: int = field(init=False, repr=False)
    ny: int = field(init=False, repr=False)
    nz: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.voxel > 0:
            raise ValueError("voxel size must be positive")
        object.__setattr__(self, "x_range", (float(self.x_range[0]), float(self.x_range[1])))
        object.__setattr__(self, "y_range", (float(self.y_range[0]), float(self.y_range[1])))
        object.__setattr__(self, "z_range", (float(self.z_range[0]), float(self.z_range[1])))
        object.__setattr__(self, "nx", _axis_cells(*self.x_range, self.voxel, "x"))
        object.__setattr__(self, "ny", _axis_cells(*self.y_range, self.voxel, "y"))
        object.__setattr__(self, "nz", _axis_cells(*self.z_range, self.voxel, "z"))

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


_CAMERA_BLOCK = json_block(
    {"matrix": json_list(float, 12)}, lambda matrix: CameraMatrix.from_list(matrix), required=True
)
_RANGE = json_list(float, 2)
_BEV_BLOCK = json_block(
    {"x_range": _RANGE, "y_range": _RANGE, "z_range": _RANGE, "voxel": float}, BevSpec
)


def _row_sum(xy, zc, t):
    """One matrix row (a, b, c, t) applied to points: ((x·a + y·b) + z·c) + t.

    Takes x·a + y·b and z·c, already formed, and adds in that order. One
    ufunc per step: unlike a BLAS product, no CPU-specific kernel picks the
    order or fuses a multiply into an add. `xy` may be overwritten.
    """
    xy += zc
    xy += t
    return xy


def project_points(m: CameraMatrix, pts: np.ndarray):
    """Vectorized projection of (..., 3) world points.

    Returns (u, v, depth, valid); u and v are +0.0 where invalid so the
    caller can mask without meeting infinities.
    """
    pts = np.asarray(pts, dtype=np.float64)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite or huge points
        hu, hv, depth = (_row_sum(x * a + y * b, z * c, t) for a, b, c, t in m.matrix)
    valid = depth > DEPTH_EPS
    u = np.divide(hu, depth, out=np.zeros(depth.shape), where=valid)
    v = np.divide(hv, depth, out=np.zeros(depth.shape), where=valid)
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


def pixel_centers(height: int, width: int) -> np.ndarray:
    """Homogeneous (3, height, width) grid of pixel centers (u + 0.5, v + 0.5, 1).

    Pixel (row v, column u) covers [u, u + 1) x [v, v + 1); its ray passes
    through the middle of that square.
    """
    v, u = np.mgrid[0:height, 0:width] + 0.5
    return np.stack([u, v, np.ones_like(u)])


def column_blocks(
    m: CameraMatrix, spec: BevSpec, n_z: int, height: int, width: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Project every BEV cell center, lifted to n_z heights, into a height x width
    map, one block of cell rows at a time.

    Yields, in row order, (rows, pixel): a slice of the grid's X rows and their
    (rows, Y, n_z) int64 flat index `row * width + column` of the pixel each
    sample floors into (pixel i covers [i, i + 1)), or -1 where the sample is
    behind the camera or off the map. `level_blocks` cuts the rows into blocks
    of at most COLUMN_BLOCK points, or one row if a row holds more, so no
    full-grid array is built.
    Each sample gets project_points' bits, but x·a + y·b is formed once per
    cell and repeated over the cell's heights.
    """
    ny = spec.ny
    blocks = level_blocks(spec.nx, ny * n_z, COLUMN_BLOCK)
    xs, ys = spec.x_centers(), spec.y_centers()
    # Per matrix row: x·a per grid row, y·b per grid column, and z·c tiled
    # over the most cells a block holds (a short last block reads a prefix).
    terms = [
        (xs * a, ys * b, np.tile(sample_heights(spec, n_z) * c, blocks[0].stop * ny), t)
        for a, b, c, t in m.matrix
    ]
    for rows in blocks:
        n = (rows.stop - rows.start) * ny * n_z
        with np.errstate(invalid="ignore", over="ignore"):  # huge or infinite samples
            u, v, depth = (
                _row_sum(np.repeat(xa[rows, None] + yb, n_z), zc[:n], t) for xa, yb, zc, t in terms
            )
        in_map = depth > DEPTH_EPS
        # Samples not in front of the camera divide too (a masked divide is
        # far slower); whatever they give is masked out below.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u /= depth
            v /= depth
            np.floor(u, out=u)
            np.floor(v, out=v)
            in_map &= (u >= 0) & (u <= width - 1) & (v >= 0) & (v <= height - 1)
            v *= width  # off-map floors may be huge or infinite
            v += u
        v[~in_map] = -1.0
        yield rows, v.astype(np.int64).reshape(-1, ny, n_z)


def illumination_field(
    i: Tensor3, m: CameraMatrix, spec: BevSpec, n_z: int, plan: BatchPlan | None = None
) -> np.ndarray:
    """Per-BEV-cell mean of the illumination sampled along vertical columns.

    Each cell center is lifted to n_z heights and projected; a sample
    contributes the map value at its floored pixel index iff it lands in
    front of the camera and inside the image. Cells with no contributing
    sample get 0. Each block of `column_blocks` is gathered and summed
    along z as it comes, so no full-grid gather exists, nor a full-grid index
    unless `plan` keeps the blocks for the camera.
    """
    if i.channels != 1:
        raise ValueError(f"illumination map must have 1 channel, got {i.channels}")
    table = np.append(i.data[0], 0.0)  # -1 reads the appended +0.0
    out = np.empty((spec.nx, spec.ny))
    size = i.height, i.width
    for rows, pixel in planned(plan, "image columns", column_blocks, m, spec, n_z, *size):
        counts = (pixel >= 0).sum(axis=-1)
        sums = table.take(pixel).sum(axis=-1)
        out[rows] = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return out


def field_to_tensor(field: np.ndarray) -> Tensor3:
    """Wrap an X x Y field as a 1 x X x Y tensor for file output."""
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("field must be 2D")
    return Tensor3(arr[None])
