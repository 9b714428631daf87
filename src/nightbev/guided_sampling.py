"""Illumination-guided deformable feature sampling.

Builds a guidance map from the downsampled illumination (darker pixel =
larger guidance value), derives per-pixel sampling offsets and modulation
weights with a small convolution, scales the offsets by the guidance, and
warps the image feature with a residual connection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Tensor3, bilinear_sample_many, frozen_array
from .illumination import ILLUMINATION_FLOOR


@dataclass(frozen=True)
class ConvParams:
    """Convolution weights: kernel (out, in, k, k) plus bias (out,)."""

    kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        kernel = frozen_array(self.kernel, "conv parameters")
        bias = frozen_array(self.bias, "conv parameters").ravel()
        if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
            raise ValueError(f"conv kernel must be (out, in, k, k), got {kernel.shape}")
        if kernel.shape[2] % 2 == 0:
            raise ValueError("conv kernel size must be odd")
        if bias.shape != (kernel.shape[0],):
            raise ValueError(
                f"bias shape {bias.shape} does not match {kernel.shape[0]} out channels"
            )
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "bias", bias)

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.kernel.shape[2]


def conv2d_replicate(x: Tensor3, params: ConvParams) -> Tensor3:
    """2D cross-correlation with edge-replicated padding."""
    if x.channels != params.in_channels:
        raise ValueError(
            f"conv expects {params.in_channels} input channels, got {x.channels}"
        )
    k = params.kernel_size
    r = k // 2
    padded = np.pad(x.data, ((0, 0), (r, r), (r, r)), mode="edge")
    h, w = x.height, x.width
    out = np.zeros((params.out_channels, h, w), dtype=np.float64)
    for dy in range(k):
        for dx in range(k):
            window = padded[:, dy : dy + h, dx : dx + w]
            out += np.einsum("oi,ihw->ohw", params.kernel[:, :, dy, dx], window)
    out += params.bias[:, None, None]
    return Tensor3(out)


def _sigmoid_open(x: np.ndarray) -> np.ndarray:
    # Clamp into the open interval so extreme logits cannot saturate to 0 or 1.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def build_guidance(
    i: Tensor3, target_h: int, target_w: int, floor: float = ILLUMINATION_FLOOR
) -> tuple[Tensor3, Tensor3]:
    """Downsample the illumination map and normalize its inverse into [0, 1].

    Returns (downsampled map, guidance map). The guidance is 1 at the darkest
    pixel and 0 at the brightest; a constant map yields all-zero guidance.
    """
    if i.channels != 1:
        raise ValueError(f"illumination map must have 1 channel, got {i.channels}")
    if target_h < 1 or target_w < 1 or target_h > i.height or target_w > i.width:
        raise ValueError(
            f"target {target_h}x{target_w} out of range for {i.height}x{i.width}"
        )
    if i.height % target_h != 0 or i.width % target_w != 0:
        raise ValueError(
            f"target {target_h}x{target_w} must divide input {i.height}x{i.width}"
        )
    fh = i.height // target_h
    fw = i.width // target_w
    pooled = i.data[0].reshape(target_h, fh, target_w, fw).mean(axis=(1, 3))
    pooled = np.clip(pooled, floor, 1.0)
    inv = 1.0 / pooled
    lo = inv.min()
    hi = inv.max()
    if hi == lo:
        guidance = np.zeros_like(inv)
    else:
        guidance = (inv - lo) / (hi - lo)
    return Tensor3(pooled[None]), Tensor3(guidance[None])


def generate_offsets(
    i_prime: Tensor3, params: ConvParams, k_points: int
) -> tuple[Tensor3, Tensor3]:
    """Map the downsampled illumination to raw offsets and modulation weights.

    One 3x3 convolution produces 3K channels: 2K raw offset channels
    (interleaved dx, dy per point) pass through unchanged, the last K pass
    through a sigmoid to give weights strictly inside (0, 1).
    """
    if i_prime.channels != 1:
        raise ValueError("offset generator expects a 1-channel map")
    if params.in_channels != 1 or params.out_channels != 3 * k_points:
        raise ValueError(
            f"offset conv must map 1 -> {3 * k_points} channels, got "
            f"{params.in_channels} -> {params.out_channels}"
        )
    if params.kernel_size != 3:
        raise ValueError("offset conv kernel must be 3x3")
    raw = conv2d_replicate(i_prime, params)
    offsets = Tensor3(raw.data[: 2 * k_points])
    weights = Tensor3(_sigmoid_open(raw.data[2 * k_points :]))
    return offsets, weights


def modulate_offsets(dp: Tensor3, g: Tensor3) -> Tensor3:
    """Scale every offset channel by the guidance map elementwise."""
    if g.channels != 1 or (g.height, g.width) != (dp.height, dp.width):
        raise ValueError(
            f"guidance shape {g.shape} does not match offsets {dp.shape}"
        )
    return Tensor3(dp.data * g.data)


def kernel_grid(k_points: int) -> np.ndarray:
    """Base (dx, dy) positions of a centered square sampling kernel.

    k_points must be an odd perfect square (1, 9, 25, ...); points are
    enumerated row-major, dy outer.
    """
    r = math.isqrt(k_points)
    if r * r != k_points or r % 2 == 0:
        raise ValueError(f"k_points must be an odd perfect square, got {k_points}")
    half = r // 2
    grid = [
        (float(dx), float(dy))
        for dy in range(-half, half + 1)
        for dx in range(-half, half + 1)
    ]
    return np.array(grid, dtype=np.float64)


def guided_warp(
    f_img: Tensor3, dp_mod: Tensor3, dw: Tensor3, point_weights
) -> Tensor3:
    """Deformable warp of the image feature with a residual connection.

    At each pixel p the K kernel points are sampled at p + base_k + offset_k,
    scaled by the per-point kernel weight and modulation weight, summed, and
    added back onto the input feature.
    """
    k_points = dw.channels
    if dp_mod.channels != 2 * k_points:
        raise ValueError(
            f"offset field has {dp_mod.channels} channels, expected {2 * k_points}"
        )
    if (dp_mod.height, dp_mod.width) != (f_img.height, f_img.width) or (
        dw.height,
        dw.width,
    ) != (f_img.height, f_img.width):
        raise ValueError("offset/weight fields must match the feature spatial dims")
    weights = np.asarray(point_weights, dtype=np.float64).ravel()
    if weights.shape != (k_points,):
        raise ValueError(
            f"expected {k_points} kernel point weights, got {weights.shape}"
        )
    base = kernel_grid(k_points)
    ys, xs = np.meshgrid(
        np.arange(f_img.height, dtype=np.float64),
        np.arange(f_img.width, dtype=np.float64),
        indexing="ij",
    )
    acc = np.zeros(
        (f_img.channels, f_img.height, f_img.width), dtype=np.float64
    )
    for k in range(k_points):
        us = xs + base[k, 0] + dp_mod.data[2 * k]
        vs = ys + base[k, 1] + dp_mod.data[2 * k + 1]
        sampled = bilinear_sample_many(f_img, us, vs)
        acc += weights[k] * (dw.data[k] * sampled)
    # Keep untouched pixels bit-identical (x + -0.0 would flip signed zeros).
    return Tensor3(np.where(acc == 0.0, f_img.data, f_img.data + acc))
