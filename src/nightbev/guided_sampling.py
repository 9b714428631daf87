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

from .core import LEVEL_BLOCK_BYTES, Tensor3, bilinear_sample_many, frozen_array, ordered_sum
from .core import zero_bordered
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


# Bytes of one tap's input window per band of `conv2d_pool2`: einsum reads a strided
# window that fits numpy's 8192-element buffer about 1.5x as fast as a larger one.
_BAND_BYTES = 1 << 16


def _conv_bands(
    x: Tensor3, kernel: np.ndarray, bias: np.ndarray, stride: int, rows: int
) -> np.ndarray:
    """The one convolution loop: 2D cross-correlation of the edge-padded `x` with the
    (out, in, kk, kk) `kernel` at `stride`, plus `bias`, computed in bands of `rows`
    output rows (the last may be shorter). The pad is (kk - 1) // 2 on each side.

    Every output pixel gets the kk*kk taps in row-major order, each the einsum over
    input channels of a strided window of the padded map, added onto a band that
    starts at +0.0, then the bias: the same operations in the same order for any
    `rows`, so every band size gives the same bits. Each band is summed in one
    contiguous buffer and copied into the output once.
    """
    if x.channels != kernel.shape[1]:
        raise ValueError(f"conv expects {kernel.shape[1]} input channels, got {x.channels}")
    kk = kernel.shape[2]
    r = (kk - 1) // 2
    c = kernel.shape[0]
    h = (x.height + 2 * r - kk) // stride + 1
    w = (x.width + 2 * r - kk) // stride + 1
    # Allocated before the larger, shorter-lived padded copy, so freeing that copy
    # leaves no heap hole below it (hires_near's peak RSS read 3 MB higher otherwise).
    out = np.empty((c, h, w))
    padded = np.pad(x.data, ((0, 0), (r, r), (r, r)), mode="edge")
    tap_buf, band_buf = np.empty(c * min(rows, h) * w), np.empty(c * min(rows, h) * w)
    span_w = stride * (w - 1) + 1
    for r0 in range(0, h, rows):
        n = min(rows, h - r0)
        # Views of the buffers' first c*n*w values keep a short last band contiguous.
        tap, band = (buf[: c * n * w].reshape(c, n, w) for buf in (tap_buf, band_buf))
        band.fill(0.0)
        for dy in range(kk):
            y0 = stride * r0 + dy
            for dx in range(kk):
                window = padded[:, y0 : y0 + stride * (n - 1) + 1 : stride, dx : dx + span_w : stride]
                band += np.einsum("oi,ihw->ohw", kernel[:, :, dy, dx], window, out=tap)
        band += bias[:, None, None]
        out[:, r0 : r0 + n] = band
    return out


def conv2d_replicate(x: Tensor3, params: ConvParams) -> Tensor3:
    """2D cross-correlation with edge-replicated padding.

    Runs in bands of about `LEVEL_BLOCK_BYTES` of output rows, so each tap's
    einsum writes a band-sized buffer that stays in cache, not a full-size one.
    """
    rows = max(1, LEVEL_BLOCK_BYTES // (8 * params.out_channels * x.width))
    return Tensor3.take_over(_conv_bands(x, params.kernel, params.bias, 1, rows))


def _pool2_kernel(kernel: np.ndarray) -> np.ndarray:
    """The (k+1)x(k+1) kernel of a k x k conv followed by 2x2 average pooling:
    K'[a, b] = 0.25 * (((K[a, b] + K[a, b-1]) + K[a-1, b]) + K[a-1, b-1]), with +0.0
    for a tap outside K."""
    kp = np.pad(kernel, ((0, 0), (0, 0), (1, 1), (1, 1)))
    return (((kp[..., 1:, 1:] + kp[..., 1:, :-1]) + kp[..., :-1, 1:]) + kp[..., :-1, :-1]) * 0.25


def conv2d_pool2(x: Tensor3, params: ConvParams) -> Tensor3:
    """`conv2d_replicate` followed by stride-2 2x2 average pooling, as one stride-2
    conv with `_pool2_kernel` on the same padded map: (k+1)^2 taps at the pooled
    resolution instead of k^2 at the full one. It agrees with conv-then-pool to
    rounding (within 1e-12 relative), not bit for bit.

    Runs in bands whose tap windows hold about `_BAND_BYTES` each, and stores
    no full-resolution map but the padded input.
    """
    h, w = x.height, x.width
    if h % 2 or w % 2:
        raise ValueError(f"pooling needs even dims, got {h}x{w}")
    rows = max(1, _BAND_BYTES // (4 * params.in_channels * w))
    return Tensor3.take_over(_conv_bands(x, _pool2_kernel(params.kernel), params.bias, 2, rows))


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
    # Each block's mean adds its rows' columns, then the rows, in index order.
    blocks = i.data[0].reshape(target_h, fh, target_w, fw).transpose(3, 1, 0, 2)
    pooled = ordered_sum(ordered_sum(blocks)) / (fh * fw)
    pooled = np.clip(pooled, floor, 1.0)
    inv = 1.0 / pooled
    lo = inv.min()
    hi = inv.max()
    if hi == lo:
        guidance = np.zeros_like(inv)
    else:
        guidance = (inv - lo) / (hi - lo)
    return Tensor3(pooled[None]), Tensor3(guidance[None])


def generate_offsets(i_prime: Tensor3, params: ConvParams) -> tuple[Tensor3, Tensor3]:
    """Map the downsampled illumination to raw offsets and modulation weights.

    One 3x3 convolution produces 3K channels: 2K raw offset channels
    (interleaved dx, dy per point) pass through unchanged, the last K pass
    through a sigmoid to give weights strictly inside (0, 1).
    """
    if i_prime.channels != 1:
        raise ValueError("offset generator expects a 1-channel map")
    k_points, extra = divmod(params.out_channels, 3)
    if params.in_channels != 1 or extra or k_points < 1:
        raise ValueError(
            "offset conv must map 1 -> 3K channels for K >= 1, got "
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


# Sample points (K per pixel) per band of `guided_warp`: each `bilinear_sample_many`
# call then holds a few (C, 8192) temporaries, 0.5 MiB each at C = 8, instead of
# whole-map samples.
_WARP_POINTS = 8192


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
    h, w = f_img.height, f_img.width
    cols = np.arange(w, dtype=np.float64)
    acc = np.zeros((f_img.channels, h, w), dtype=np.float64)
    padded = zero_bordered(f_img)  # once for all bands
    # Bands of whole rows, about _WARP_POINTS sample points each: one gather per band
    # for all K points, then each point's term added in k order, as over the whole map.
    rows = max(1, _WARP_POINTS // (k_points * w))
    for r0 in range(0, h, rows):
        band = slice(r0, r0 + rows)
        ys = np.arange(r0, min(r0 + rows, h), dtype=np.float64)[:, None]
        us = cols + base[:, 0, None, None] + dp_mod.data[0::2, band]  # (K, rows, w)
        vs = ys + base[:, 1, None, None] + dp_mod.data[1::2, band]
        sampled = bilinear_sample_many(f_img, us, vs, padded)  # (C, K, rows, w)
        acc_band = acc[:, band]
        for k in range(k_points):
            acc_band += weights[k] * (dw.data[k, band] * sampled[:, k])
        # The residual: untouched pixels keep the input's bits (x + -0.0 would
        # flip signed zeros).
        untouched = acc_band == 0.0
        acc_band += f_img.data[:, band]
        np.copyto(acc_band, f_img.data[:, band], where=untouched)
    return Tensor3.take_over(acc)
