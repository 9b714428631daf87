"""Depth/context split, lift-splat BEV pooling, residual cross-attention queries,
and illumination-weighted BEV refinement.

The pooling scatter enumerates contributions in a fixed (bin, row, column)
order so accumulated cell values are bit-stable from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .core import BatchPlan, Tensor3, bilinear_sample_many, frozen_array, level_blocks
from .core import ordered_sum, planned, zero_bordered
from .geometry import BevSpec, CameraMatrix, column_blocks, pixel_centers
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
    The conv runs once per part, so the context is its output and the depth
    logits are freed on return.
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
    f_ctx = conv2d_replicate(f_in, params.outputs(slice(c_ctx)))
    logits = conv2d_replicate(f_in, params.outputs(slice(c_ctx, None)))
    depth = Tensor3.take_over(_softmax(logits.data))
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


def _pool_geometry(
    m: CameraMatrix, spec: BevSpec, h: int, w: int, bin_centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where `bev_pool` scatters an h x w depth map over `bin_centers`: for every
    (bin, row, column) point whose back-projection lands in the grid, in that
    order, its flat cell `ix * ny + iy` and its flat index `bin * h * w + row * w
    + column`. It reads only the camera, the grid and the bins.
    """
    a_inv = np.linalg.inv(m.matrix[:, :3])[:2]  # world x and y rows; z is never read
    t = m.matrix[:, 3]
    uv1 = pixel_centers(h, w)
    nx, ny = spec.nx, spec.ny

    # Back-project in blocks of whole depth bins, each about LEVEL_BLOCK_BYTES of
    # `rhs`, so no (D, 3, h, w) map exists. Each block keeps its in-range
    # contributions in (bin, row, column) order, and the blocks come in bin order.
    cells, points = [], []
    for bins in level_blocks(bin_centers.size, 3 * h * w * 8):
        d = bin_centers[bins]
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
    return np.concatenate(cells), np.concatenate(points)


def bev_pool(
    dc: DepthContext, m: CameraMatrix, spec: BevSpec, plan: BatchPlan | None = None
) -> Tensor3:
    """Lift-splat pooling of the context feature into the BEV grid.

    Every (pixel, depth bin) pair back-projects the ray through the pixel
    center to the bin's metric depth; if the point lands inside the BEV x/y
    extents its depth mass times the pixel's context vector accumulates into
    the containing cell (heights collapse). Out-of-range mass is dropped.
    The scatter (`_pool_geometry`) is built per call, or held by `plan`.
    """
    h, w = dc.depth.height, dc.depth.width
    nx, ny = spec.nx, spec.ny
    flat_cell, point = planned(plan, "pool", _pool_geometry, m, spec, h, w, dc.bin_centers)
    # Each in-range pair's depth mass and pixel; products are formed only there.
    # The pixels overwrite a point index built for this call; a plan's is read-only.
    mass = dc.depth.data.ravel().take(point)
    pix = np.remainder(point, h * w, out=point if point.flags.writeable else None)
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


def residual_query(
    q: Tensor3,
    f_ctx: Tensor3,
    m: CameraMatrix,
    spec: BevSpec,
    n_z: int,
    params: AttentionParams,
    plan: BatchPlan | None = None,
) -> Tensor3:
    """Deformable cross-attention correction for every BEV cell.

    Each cell center is lifted to n_z heights and projected into the image;
    in-view references gather K bilinear samples of the context feature at
    query-predicted offsets, combined with softmax attention and summed over
    heights. References behind the camera or outside the feature map are
    skipped: nothing is sampled for them, and a cell with none in view
    reads +0.0.

    The references come from `column_blocks`. Each block's lit cells (those
    with a reference in view) run in `level_blocks(lit cells, n_z * K,
    COLUMN_BLOCK)`: at most COLUMN_BLOCK sample points of whole cells (a
    cell with more is one run), so no array spans the grid but the output,
    and every cell's terms are summed within one run. With `plan`, the blocks
    are built once for the camera and kept.
    """
    nx, ny = spec.nx, spec.ny
    if (q.height, q.width) != (nx, ny):
        raise ValueError(f"query grid {q.shape} does not match BEV {nx}x{ny}")
    if params.query_channels != q.channels:
        raise ValueError(
            f"attention expects {params.query_channels} query channels, got {q.channels}"
        )
    k_points = params.k_points
    xs, ys, zs = spec.x_centers(), spec.y_centers(), sample_heights(spec, n_z)
    q_flat = q.data.reshape(q.channels, nx * ny)
    padded = zero_bordered(f_ctx)
    out = np.zeros((f_ctx.channels, nx, ny), dtype=np.float64)
    out_flat = out.reshape(f_ctx.channels, nx * ny)
    size = f_ctx.height, f_ctx.width
    for rows, pixel in planned(plan, "feature columns", column_blocks, m, spec, n_z, *size):
        # In-view references in (cell, height) order; lit cell i holds the
        # references edges[i]:edges[i + 1], as the sorted cell index changes there.
        refs = np.flatnonzero(pixel >= 0) + rows.start * ny * n_z
        cells = refs // n_z
        edges = np.append(np.flatnonzero(np.diff(cells, prepend=-1)), cells.size)
        for lit_run in level_blocks(edges.size - 1, n_z * k_points, geometry.COLUMN_BLOCK):
            starts = edges[lit_run.start : lit_run.stop + 1]
            run = slice(starts[0], starts[-1])
            cell, height = cells[run], refs[run] % n_z
            # project_points works point by point, so these positions carry
            # the bits column_blocks computed for the same references.
            pts = np.stack([xs[cell // ny], ys[cell % ny], zs[height]], axis=-1)
            u, v, _, _ = project_points(m, pts)

            # Offsets and attention only where a reference reads them. Channels
            # add one by one from +0.0 and the softmax denominator point by
            # point, so a cell's bits do not depend on how many cells are in
            # the run (einsum's and sum(axis=0)'s order changes over one
            # column), and no BLAS kernel picks the order or fuses a multiply
            # into an add.
            lit = cells[starts[:-1]]
            ref = np.repeat(np.arange(lit.size), np.diff(starts))  # each reference's column in lit
            q_in = q_flat[:, lit]
            # (2K, lit cells) offsets and (K, lit cells) attention
            off = ordered_sum(w[:, None] * x for w, x in zip(params.offset_weights.T, q_in))
            logits = ordered_sum(w[:, None] * x for w, x in zip(params.attn_weights.T, q_in))
            attn = _softmax(logits)

            us = u[:, None] + off[0::2, ref].T  # (refs, K)
            vs = v[:, None] + off[1::2, ref].T
            terms = bilinear_sample_many(f_ctx, us, vs, padded)  # (C, refs, K)
            terms *= attn[:, ref].T
            # bincount adds each cell's terms one by one in (height, point)
            # order, so every cell gets the same bits as a sum over all
            # n_z * K terms in which the skipped ones were exact zeros. All of
            # a cell's terms are in this run, so its sum is final.
            flat_ref = np.repeat(ref, k_points)
            for c in range(f_ctx.channels):
                out_flat[c, lit] = np.bincount(flat_ref, weights=terms[c].ravel(), minlength=lit.size)
    return Tensor3.take_over(out)


def refine_bev(q: Tensor3, q_res: Tensor3, s: np.ndarray) -> Tensor3:
    """Add the residual query scaled by the illumination field: Q + Q' * S.

    Cells where S is zero keep the original query bit for bit. The one
    output is built in place: Q' * S, then + Q, then Q copied back where S
    is zero.
    """
    if q_res.shape != q.shape:
        raise ValueError(f"residual shape {q_res.shape} does not match {q.shape}")
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (q.height, q.width):
        raise ValueError(
            f"field shape {s.shape} does not match grid {(q.height, q.width)}"
        )
    refined = q_res.data * s
    refined += q.data
    np.copyto(refined, q.data, where=s == 0.0)
    return Tensor3.take_over(refined)
