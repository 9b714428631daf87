"""Depth/context split, lift-splat BEV pooling, residual cross-attention queries,
and illumination-weighted BEV refinement.

The pooling scatter enumerates contributions in a fixed (bin, row, column)
order so accumulated cell values are bit-stable from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Tensor3, bilinear_sample_many, frozen_array, level_blocks, ordered_sum
from .geometry import BevSpec, CameraMatrix, column_pixels, pixel_centers
from .geometry import project_points, sample_heights
from .guided_sampling import ConvParams, conv2d_replicate

DEPTH_SUM_TOL = 1e-6


def depth_bin_centers(d_min: float, d_max: float, bins: int) -> np.ndarray:
    """Centers of `bins` uniform metric-depth intervals over [d_min, d_max]."""
    if bins < 1:
        raise ValueError("depth bins must be >= 1")
    if not 0.0 < d_min < d_max:
        raise ValueError(f"need 0 < d_min < d_max, got {d_min}, {d_max}")
    step = (d_max - d_min) / float(bins)
    return d_min + (np.arange(bins, dtype=np.float64) + 0.5) * step


@dataclass(frozen=True)
class DepthContext:
    """Context feature plus a per-pixel categorical depth distribution."""

    f_ctx: Tensor3
    depth: Tensor3
    bin_centers: np.ndarray

    def __post_init__(self) -> None:
        centers = frozen_array(self.bin_centers, "bin centers").ravel()
        if centers.size != self.depth.channels:
            raise ValueError(
                f"{centers.size} bin centers for {self.depth.channels} depth channels"
            )
        if centers.size > 1 and not (np.diff(centers) > 0).all():
            raise ValueError("bin centers must be strictly increasing")
        if (self.f_ctx.height, self.f_ctx.width) != (self.depth.height, self.depth.width):
            raise ValueError("context and depth spatial dims must match")
        sums = self.depth.data.sum(axis=0)
        if np.abs(sums - 1.0).max() > DEPTH_SUM_TOL:
            raise ValueError("depth bins must sum to 1 per pixel")
        object.__setattr__(self, "bin_centers", centers)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 in one new array, each step computed in place, which
    a caller may hand to `Tensor3.take_over`; the denominator is an `ordered_sum`."""
    out = logits - logits.max(axis=0)
    np.exp(out, out=out)
    out /= ordered_sum(out)
    return out


def depth_context_split(f_in: Tensor3, params: ConvParams, bin_centers: np.ndarray) -> DepthContext:
    """1x1 convolution splitting a feature into context channels and depth bins.

    The last len(bin_centers) output channels go through a per-pixel softmax;
    the ones before them (at least one) pass through as the context feature.
    """
    d_bins = len(bin_centers)
    c_ctx = params.out_channels - d_bins
    if d_bins < 1 or c_ctx < 1:
        raise ValueError(
            f"split conv must emit context channels plus {d_bins} depth bins (both >= 1),"
            f" got {params.out_channels} channels"
        )
    if params.kernel_size != 1:
        raise ValueError("split conv kernel must be 1x1")
    raw = conv2d_replicate(f_in, params)
    f_ctx = Tensor3(raw.data[:c_ctx])
    depth = Tensor3.take_over(_softmax(raw.data[c_ctx:]))
    return DepthContext(f_ctx=f_ctx, depth=depth, bin_centers=bin_centers)


@dataclass(frozen=True)
class AttentionParams:
    """Single-head deformable attention parameters, linear in the query vector."""

    offset_weights: np.ndarray  # (2K, C): interleaved du, dv per point
    attn_weights: np.ndarray  # (K, C): pre-softmax logits per point

    def __post_init__(self) -> None:
        ow = frozen_array(self.offset_weights, "attention parameters")
        aw = frozen_array(self.attn_weights, "attention parameters")
        if ow.ndim != 2 or aw.ndim != 2 or ow.shape[1] != aw.shape[1]:
            raise ValueError("offset/attention weights must be 2D over one query size")
        if ow.shape[0] != 2 * aw.shape[0]:
            raise ValueError(
                f"offset rows {ow.shape[0]} must be twice attention rows {aw.shape[0]}"
            )
        object.__setattr__(self, "offset_weights", ow)
        object.__setattr__(self, "attn_weights", aw)

    @property
    def k_points(self) -> int:
        return self.attn_weights.shape[0]

    @property
    def query_channels(self) -> int:
        return self.attn_weights.shape[1]


def bev_pool(dc: DepthContext, m: CameraMatrix, spec: BevSpec) -> Tensor3:
    """Lift-splat pooling of the context feature into the BEV grid.

    Every (pixel, depth bin) pair back-projects the ray through the pixel
    center to the bin's metric depth; if the point lands inside the BEV x/y
    extents its depth mass times the pixel's context vector accumulates into
    the containing cell (heights collapse). Out-of-range mass is dropped.
    """
    h, w = dc.depth.height, dc.depth.width
    a_inv = np.linalg.inv(m.matrix[:, :3])[:2]  # world x and y rows; z is never read
    t = m.matrix[:, 3]
    uv1 = pixel_centers(h, w)
    nx, ny = spec.nx, spec.ny

    # Back-project in blocks of whole depth bins, each about LEVEL_BLOCK_BYTES of
    # `rhs`, so no (D, 3, h, w) map exists. Each block keeps its in-range
    # contributions in (bin, row, column) order, and the blocks come in bin order.
    cells, points = [], []
    for bins in level_blocks(dc.depth.channels, 3 * h * w * 8):
        d = dc.bin_centers[bins]
        rhs = d[:, None, None, None] * uv1[None] - t[None, :, None, None]  # (bins, 3, h, w)
        xy = np.einsum("ij,bjhw->bihw", a_inv, rhs)
        fx = (xy[:, 0] - spec.x_range[0]) / spec.voxel
        fy = (xy[:, 1] - spec.y_range[0]) / spec.voxel
        in_range = (fx >= 0) & (fx < nx) & (fy >= 0) & (fy < ny)
        # Cast only in-range coordinates (out-of-range ones may overflow int64).
        ix = np.floor(fx[in_range]).astype(np.int64)
        iy = np.floor(fy[in_range]).astype(np.int64)
        cells.append(ix * ny + iy)
        points.append(np.flatnonzero(in_range) + bins.start * h * w)  # flat (bin, row, column)
    flat_cell, point = np.concatenate(cells), np.concatenate(points)
    del cells, points  # freed before mass and pixel are formed
    # Each in-range pair's depth mass and pixel; products are formed only there.
    mass = dc.depth.data.ravel().take(point)
    pix = np.remainder(point, h * w, out=point)
    # bincount accumulates sequentially in (bin, row, column) order, keeping
    # per-cell sums bit-stable.
    out = np.zeros((dc.f_ctx.channels, nx, ny), dtype=np.float64)
    for c in range(dc.f_ctx.channels):
        contrib = dc.f_ctx.data[c].ravel().take(pix)
        contrib *= mass
        out[c] = np.bincount(flat_cell, weights=contrib, minlength=nx * ny).reshape(
            nx, ny
        )
    return Tensor3.take_over(out)


def _channel_sum(weights: np.ndarray, q_in: np.ndarray) -> np.ndarray:
    """weights @ q_in, adding the query channels one by one from +0.0."""
    out = np.zeros((weights.shape[0], q_in.shape[1]))
    for c in range(q_in.shape[0]):
        out += weights[:, c, None] * q_in[c]
    return out


def residual_query(
    q: Tensor3,
    f_ctx: Tensor3,
    m: CameraMatrix,
    spec: BevSpec,
    n_z: int,
    params: AttentionParams,
) -> Tensor3:
    """Deformable cross-attention correction for every BEV cell.

    Each cell center is lifted to n_z heights and projected into the image;
    in-view references gather K bilinear samples of the context feature at
    query-predicted offsets, combined with softmax attention and summed over
    heights. References behind the camera or outside the feature map are
    skipped: nothing is sampled for them, and a cell with none in view
    reads +0.0.
    """
    nx, ny = spec.nx, spec.ny
    if (q.height, q.width) != (nx, ny):
        raise ValueError(f"query grid {q.shape} does not match BEV {nx}x{ny}")
    if params.query_channels != q.channels:
        raise ValueError(
            f"attention expects {params.query_channels} query channels, got {q.channels}"
        )
    k_points = params.k_points
    refs = np.flatnonzero(column_pixels(m, spec, n_z, f_ctx.height, f_ctx.width) >= 0)
    cell, height = np.divmod(refs, n_z)  # in-view references, (cell, height) order

    out = np.zeros((f_ctx.channels, nx, ny), dtype=np.float64)
    if cell.size == 0:
        return Tensor3.take_over(out)
    # project_points works point by point, so these positions carry the bits
    # column_pixels computed for the same references.
    xs, ys, zs = spec.x_centers(), spec.y_centers(), sample_heights(spec, n_z)
    u, v, _, _ = project_points(m, np.stack([xs[cell // ny], ys[cell % ny], zs[height]], axis=-1))

    # Offsets and attention only where a reference reads them. Channels add
    # one by one from +0.0 and the softmax denominator point by point, so a
    # cell's bits do not depend on how many cells are in view (einsum's and
    # sum(axis=0)'s order changes over one column), and no BLAS kernel picks
    # the order or fuses a multiply into an add.
    lit, ref = np.unique(cell, return_inverse=True)  # ref: each reference's column in lit
    q_in = q.data.reshape(q.channels, nx * ny)[:, lit]
    off = _channel_sum(params.offset_weights, q_in)  # (2K, lit cells)
    logits = _channel_sum(params.attn_weights, q_in)  # (K, lit cells)
    attn = _softmax(logits)

    us = u[:, None] + off[0::2, ref].T  # (refs, K)
    vs = v[:, None] + off[1::2, ref].T
    terms = bilinear_sample_many(f_ctx, us, vs) * attn[:, ref].T  # (C, refs, K)
    # bincount adds each cell's terms one by one in (height, point) order,
    # so every cell gets the same bits as a sum over all n_z * K terms in
    # which the skipped ones were exact zeros.
    flat_cell = np.repeat(cell, k_points)
    for c in range(f_ctx.channels):
        out[c] = np.bincount(flat_cell, weights=terms[c].ravel(), minlength=nx * ny).reshape(nx, ny)
    return Tensor3.take_over(out)


def refine_bev(q: Tensor3, q_res: Tensor3, s: np.ndarray) -> Tensor3:
    """Add the residual query scaled by the illumination field: Q + Q' * S.

    Cells where S is zero keep the original query bit for bit.
    """
    if q_res.shape != q.shape:
        raise ValueError(f"residual shape {q_res.shape} does not match {q.shape}")
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (q.height, q.width):
        raise ValueError(
            f"field shape {s.shape} does not match grid {(q.height, q.width)}"
        )
    refined = q.data + q_res.data * s[None]
    return Tensor3.take_over(np.where(s[None] != 0.0, refined, q.data))
