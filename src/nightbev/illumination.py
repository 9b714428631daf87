"""Illumination map estimation, Retinex enhancement, and the brightness factor.

The estimator is deterministic: max over RGB channels, a few rounds of box
blur with edge replication, then a clamp into (floor, 1]. Externally
computed maps can be injected through `load_illumination` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Tensor3, read_raw_tensor
from .formats import read_pgm

ILLUMINATION_FLOOR = 0.01


@dataclass(frozen=True)
class EstimatorConfig:
    stages: int = 3
    blur_kernel: int = 7
    floor: float = ILLUMINATION_FLOOR

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise ValueError("estimator stages must be >= 1")
        if self.blur_kernel < 1 or self.blur_kernel % 2 == 0:
            raise ValueError("blur_kernel must be odd and >= 1")
        if not 0.0 < self.floor < 1.0:
            raise ValueError("floor must lie in (0, 1)")


def check_image(t: Tensor3) -> None:
    if t.channels != 3:
        raise ValueError(f"image must have 3 channels, got {t.channels}")
    if t.data.min() < 0.0 or t.data.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")


def _blur_axis(arr: np.ndarray, kernel: int, axis: int) -> np.ndarray:
    if kernel == 1:
        return arr
    r = kernel // 2
    n = arr.shape[axis]

    def along(s: slice) -> tuple:
        return (slice(None),) * axis + (s,)

    # `np.pad(mode="edge")` by r on each side of the axis, written by slices.
    padded = np.empty(arr.shape[:axis] + (n + 2 * r,) + arr.shape[axis + 1 :], dtype=arr.dtype)
    padded[along(slice(r, r + n))] = arr
    padded[along(slice(None, r))] = arr[along(slice(None, 1))]
    padded[along(slice(r + n, None))] = arr[along(slice(n - 1, None))]
    # The running sums after a first row (or column) of zeros, in one buffer.
    csum = np.zeros(padded.shape[:axis] + (padded.shape[axis] + 1,) + padded.shape[axis + 1 :])
    np.cumsum(padded, axis=axis, dtype=np.float64, out=csum[along(slice(1, None))])
    out = np.subtract(csum[along(slice(kernel, kernel + n))], csum[along(slice(0, n))])
    out /= float(kernel)
    return out


def box_blur(plane: np.ndarray, kernel: int) -> np.ndarray:
    """Separable box blur with edge replication; constants stay constant."""
    out = _blur_axis(np.asarray(plane, dtype=np.float64), kernel, axis=0)
    return _blur_axis(out, kernel, axis=1)


def estimate_illumination(x: Tensor3, cfg: EstimatorConfig = EstimatorConfig()) -> Tensor3:
    """Estimate a smooth per-pixel illumination map in (floor, 1] from an RGB image."""
    check_image(x)
    plane = x.data.max(axis=0)
    for _ in range(cfg.stages):
        plane = box_blur(plane, cfg.blur_kernel)
    return Tensor3(np.clip(plane, cfg.floor, 1.0)[None])


def load_illumination(path, floor: float = ILLUMINATION_FLOOR) -> Tensor3:
    """Load an illumination map clamped into (floor, 1]: a `*.pgm` file as PGM,
    any other file as a raw tensor. The readers are looked up on every call, so
    a module attribute rebound later (a timing wrapper, say) sees every read."""
    t = read_pgm(path) if Path(path).suffix == ".pgm" else read_raw_tensor(path)
    if t.channels != 1:
        raise ValueError(f"{path}: illumination map must have 1 channel, got {t.channels}")
    return Tensor3(np.clip(t.data, floor, 1.0))


def retinex_enhance(x: Tensor3, i: Tensor3) -> Tensor3:
    """Divide the image by the illumination map elementwise, clamped to [0, 1]:
    the quotient is clamped in place, in the one array the result keeps."""
    check_image(x)
    if (i.height, i.width) != (x.height, x.width) or i.channels != 1:
        raise ValueError(
            f"illumination shape {i.shape} does not match image {x.shape}"
        )
    out = np.divide(x.data, i.data)
    np.clip(out, 0.0, 1.0, out=out)
    return Tensor3.take_over(out)


def illumination_factor(i: Tensor3) -> float:
    """Mean illumination over all pixels: one scalar brightness score per image."""
    if i.channels != 1:
        raise ValueError(f"illumination map must have 1 channel, got {i.channels}")
    return float(i.data.mean())
