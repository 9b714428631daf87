"""Slow references the tests compare the library with: one per pixel convention
and per stage, plus the cameras and strategies the tests share.

A reference imports from nightbev only value types and constants
(`test_reference.py` checks this); the rest is numpy and the other references
here, so no reference runs the code it checks. `test_reference.py` also
composes them as `run_pipeline` composes the stages.
"""

import numpy as np
from hypothesis import reject
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nightbev.geometry import DEPTH_EPS, BevSpec, CameraMatrix
from nightbev.guided_sampling import ConvParams

# --------------------------------------------------------------------------
# Cameras, grids and parameters
# --------------------------------------------------------------------------


def identity_camera(last_col=(0.0, 0.0, 0.0)) -> CameraMatrix:
    return CameraMatrix(np.hstack([np.eye(3), np.reshape(last_col, (3, 1))]))


def column_camera() -> CameraMatrix:
    """u = x/y, v = z/y, depth = y: vertical samples sweep image rows."""
    m = np.zeros((3, 4))
    m[0, 0] = m[1, 2] = m[2, 1] = 1.0
    return CameraMatrix(m)


def random_camera(rng) -> CameraMatrix:
    """A standard normal matrix whose 3x3 block has |det| > 0.1."""
    while True:
        m = rng.normal(size=(3, 4))
        if abs(np.linalg.det(m[:, :3])) > 0.1:
            return CameraMatrix(m)


def posed_camera(rng, yaw, pitch, focal, h, w) -> CameraMatrix:
    """A yawed and pitched camera centred on an h x w map, at a random offset."""
    cy, sy, cp, sp = np.cos(yaw), np.sin(yaw), np.cos(pitch), np.sin(pitch)
    rot = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
        [[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]]
    )
    k = np.array([[focal, 0.0, w / 2], [0.0, focal, h / 2], [0.0, 0.0, 1.0]])
    return CameraMatrix(np.hstack([k @ rot, k @ rng.uniform(-2.0, 2.0, size=(3, 1))]))


def overhead_camera(spec, h, w, f_scale=1.0, shift=(0.0, 0.0), tilt=0.0) -> CameraMatrix:
    """A camera 5 above the grid looking down; f_scale 1 frames the grid in an h x w map.
    A tilt leans the image plane, so depth may turn negative."""
    xc, yc = np.mean(spec.x_range), np.mean(spec.y_range)
    top = spec.z_range[1] + 5.0
    span_x = spec.x_range[1] - spec.x_range[0]
    span_y = spec.y_range[1] - spec.y_range[0]
    f = 0.9 * min(w / span_x, h / span_y) * 5.0 * f_scale
    cu, cv = w / 2 + shift[0], h / 2 + shift[1]
    return CameraMatrix(
        [
            [f, 0.0, -cu, -f * xc + cu * top],
            [0.0, -f, -cv, f * yc + cv * top],
            [tilt, 0.0, -1.0, top],
        ]
    )


def small_grid(cells) -> BevSpec:
    """A cells[0] x cells[1] grid of 0.5 m voxels from (-1, 2), 3 m tall."""
    x, y = cells
    return BevSpec(
        x_range=(-1.0, -1.0 + 0.5 * x), y_range=(2.0, 2.0 + 0.5 * y), z_range=(-1.0, 2.0), voxel=0.5
    )


@st.composite
def grid_views(draw):
    """A small grid, a camera looking at it from above or drawn at random, and a map size."""
    spec = small_grid(draw(st.tuples(st.integers(1, 9), st.integers(1, 9))))
    hw = draw(st.tuples(st.integers(1, 10), st.integers(1, 10)))
    try:
        if draw(st.booleans()):
            m = overhead_camera(
                spec,
                *hw,
                draw(st.floats(0.2, 6.0)),
                draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))),
                draw(st.sampled_from([0.0, 0.3, -1.5, -3.0])),
            )
        else:
            m = CameraMatrix(draw(arrays(np.float64, (3, 4), elements=st.floats(-4.0, 4.0))))
    except ValueError as exc:
        assert "singular" in str(exc)
        reject()
    return spec, m, hw


def conv_params(out_c, in_c, k=3, kernel=None, bias=None) -> ConvParams:
    """Conv parameters, all zero unless given."""
    kernel = np.zeros((out_c, in_c, k, k)) if kernel is None else kernel
    bias = np.zeros(out_c) if bias is None else bias
    return ConvParams(kernel, bias)


def dyadic(values) -> np.ndarray:
    """Values snapped into (0, 1] on a 1/2048 grid, so that sums of them are exact
    in any order."""
    return np.clip(np.rint(np.asarray(values) * 2048.0), 1, 2048) / 2048.0


# --------------------------------------------------------------------------
# Pixel conventions
# --------------------------------------------------------------------------


def bilinear_sample_many(f, u, v):
    """Bilinear rule: pixel centres at integer positions, one masked gather per
    corner, and corners off the map skipped."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64))
    c, h, w = f.shape
    x0 = np.floor(u)
    y0 = np.floor(v)
    with np.errstate(invalid="ignore"):  # non-finite positions give junk, masked below
        wx = u - x0
        wy = v - y0
        x0i = x0.astype(np.int64)
        y0i = y0.astype(np.int64)
    out = np.zeros((c,) + u.shape, dtype=np.float64)
    corners = (
        (0, 0, (1.0 - wx) * (1.0 - wy)),
        (1, 0, wx * (1.0 - wy)),
        (0, 1, (1.0 - wx) * wy),
        (1, 1, wx * wy),
    )
    for dx, dy, wgt in corners:
        xi = x0i + dx
        yi = y0i + dy
        m = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        if m.any():
            out[:, m] += wgt[m] * f.data[:, yi[m], xi[m]]
    return out


def bilinear_sample_grad(f, at):
    """Value and partials of the bilinear surface at one position, corners read one by one."""
    u = float(at[0])
    v = float(at[1])
    c, h, w = f.shape
    x0 = int(np.floor(u))
    y0 = int(np.floor(v))
    wx = u - x0
    wy = v - y0

    def pix(xi, yi):
        if 0 <= xi < w and 0 <= yi < h:
            return f.data[:, yi, xi]
        return np.zeros(c, dtype=np.float64)

    f00 = pix(x0, y0)
    f10 = pix(x0 + 1, y0)
    f01 = pix(x0, y0 + 1)
    f11 = pix(x0 + 1, y0 + 1)
    value = np.zeros(c)  # summed from +0.0, as bilinear_sample_many does
    for wgt, corner in (
        ((1.0 - wx) * (1.0 - wy), f00),
        (wx * (1.0 - wy), f10),
        ((1.0 - wx) * wy, f01),
        (wx * wy, f11),
    ):
        value += wgt * corner
    du = (1.0 - wy) * (f10 - f00) + wy * (f11 - f01)
    dv = (1.0 - wx) * (f01 - f00) + wx * (f11 - f10)
    return value, du, dv


def project_points(m, pts):
    """((x*a + y*b) + z*c) + t broadcast over the matrix rows, then a division by a
    safe depth everywhere; u and v are +0.0 where depth <= DEPTH_EPS."""
    pts = np.asarray(pts, dtype=np.float64)
    a = m.matrix[:, :3]
    t = m.matrix[:, 3]
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite points
        x, y, z = (pts[..., k, None] for k in range(3))
        h = ((x * a[:, 0] + y * a[:, 1]) + z * a[:, 2]) + t
        depth = h[..., 2]
        valid = depth > DEPTH_EPS
        safe = np.where(valid, depth, 1.0)
        u = np.where(valid, h[..., 0] / safe, 0.0)
        v = np.where(valid, h[..., 1] / safe, 0.0)
    return u, v, depth, valid


def sample_heights(spec, n_z):
    """n_z heights at the centres of n_z equal slices of the grid's z range."""
    lo, hi = spec.z_range
    return lo + (np.arange(1, n_z + 1, dtype=np.float64) - 0.5) * ((hi - lo) / float(n_z))


def column_samples(m, spec, n_z, height, width):
    """Floor rule: every cell centre lifted to n_z heights and projected in one call.

    Returns (X, Y, n_z) arrays u, v, valid (in front of the camera) and in_map:
    valid and flooring into a height x width map, where pixel i covers [i, i + 1).
    """
    pts = np.empty((spec.nx, spec.ny, n_z, 3))
    pts[..., 0] = spec.x_centers()[:, None, None]
    pts[..., 1] = spec.y_centers()[None, :, None]
    pts[..., 2] = sample_heights(spec, n_z)
    u, v, _, valid = project_points(m, pts)
    iu, iv = np.floor(u), np.floor(v)
    in_map = valid & (iu >= 0) & (iu <= width - 1) & (iv >= 0) & (iv <= height - 1)
    return u, v, valid, in_map


def column_pixels(m, spec, n_z, height, width):
    """The flat pixel index row * width + column of every column sample, -1 off the map."""
    u, v, _, in_map = column_samples(m, spec, n_z, height, width)
    pixel = np.full(u.shape, -1, dtype=np.int64)
    pixel[in_map] = (np.floor(v[in_map]) * width + np.floor(u[in_map])).astype(np.int64)
    return pixel


def back_project(m, depths, height, width):
    """World points (D, 3, height, width) on the ray through each pixel centre
    (u + 0.5, v + 0.5) at each depth d: A^-1 (d (u + 0.5, v + 0.5, 1) - t)."""
    v, u = np.mgrid[0:height, 0:width] + 0.5
    rhs = np.asarray(depths)[:, None, None, None] * np.stack([u, v, np.ones_like(u)])[None]
    rhs = rhs - m.matrix[:, 3][:, None, None]
    return np.einsum("ij,bjhw->bihw", np.linalg.inv(m.matrix[:, :3]), rhs)


# --------------------------------------------------------------------------
# Stages
# --------------------------------------------------------------------------


def conv2d(x, kernel, bias, stride=1):
    """Cross-correlation of the edge-padded map with an (out, in, kk, kk) kernel at
    `stride`, padded (kk - 1) // 2 a side: whole map per tap, taps in row-major
    order, each the einsum over input channels added onto +0.0, then the bias."""
    kk = kernel.shape[2]
    r = (kk - 1) // 2
    padded = np.pad(x.data, ((0, 0), (r, r), (r, r)), mode="edge")
    h = (x.height + 2 * r - kk) // stride + 1
    w = (x.width + 2 * r - kk) // stride + 1
    out = np.zeros((kernel.shape[0], h, w), dtype=np.float64)
    span_h, span_w = stride * (h - 1) + 1, stride * (w - 1) + 1
    for dy, dx in np.ndindex(kk, kk):
        window = padded[:, dy : dy + span_h : stride, dx : dx + span_w : stride]
        out += np.einsum("oi,ihw->ohw", kernel[:, :, dy, dx], window)
    out += bias[:, None, None]
    return out


def avg_pool2(a):
    """Stride-2 2x2 average pooling of the whole map at once."""
    c, h, w = a.shape
    return a.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def pool_kernel(kernel):
    """Conv + 2x2 average pool as one (k+1)x(k+1) kernel, summed entry by entry:
    0.25 * (((K[a, b] + K[a, b-1]) + K[a-1, b]) + K[a-1, b-1]), +0.0 outside K."""
    o, i, k, _ = kernel.shape
    fused = np.empty((o, i, k + 1, k + 1))
    for a in range(k + 1):
        for b in range(k + 1):
            terms = [
                kernel[:, :, a - p, b - q] if 0 <= a - p < k and 0 <= b - q < k else np.zeros((o, i))
                for p in (0, 1)
                for q in (0, 1)
            ]
            fused[:, :, a, b] = (((terms[0] + terms[1]) + terms[2]) + terms[3]) * 0.25
    return fused


def conv2d_pool2(x, params):
    """A conv and its 2x2 average pool as one stride-2 conv with `pool_kernel`."""
    return conv2d(x, pool_kernel(params.kernel), params.bias, 2)


def softmax(logits, axis):
    """Softmax along `axis`: shift by the max, exp, divide by the sum."""
    e = np.exp(logits - logits.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid_open(x):
    """The logistic function in two branches that never overflow, 1 / (1 + exp(-x))
    where x >= 0 and exp(x) / (1 + exp(x)) elsewhere, clamped into the open
    interval (0, 1)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def guided_warp(f, dp_mod, dw, point_weights):
    """2D-IGS over the whole map, one kernel point at a time: point k, at offset
    (dx, dy) of the row-major square kernel, samples p + (dx, dy) + offset_k; its
    term point_weights[k] * (dw[k] * sample) adds in k order, and the sum adds
    onto the feature wherever it is not zero."""
    half = int(np.sqrt(dw.channels)) // 2
    base = [(dx, dy) for dy in range(-half, half + 1) for dx in range(-half, half + 1)]
    ys, xs = np.meshgrid(np.arange(f.height, dtype=np.float64), np.arange(f.width, dtype=np.float64), indexing="ij")
    acc = np.zeros(f.shape)
    for k, (dx, dy) in enumerate(base):
        sampled = bilinear_sample_many(f, xs + float(dx) + dp_mod.data[2 * k], ys + float(dy) + dp_mod.data[2 * k + 1])
        acc += point_weights[k] * (dw.data[k] * sampled)
    return np.where(acc == 0.0, f.data, f.data + acc)


def bev_pool(dc, m, spec):
    """Lift-splat in plain loops: in (bin, row, column) order, each point's depth
    mass times its context adds into the cell holding its world x and y."""
    pts = back_project(m, dc.bin_centers, dc.depth.height, dc.depth.width)
    out = np.zeros((dc.f_ctx.channels, spec.nx, spec.ny))
    for b, v, u in np.ndindex(dc.depth.shape):
        fx = (pts[b, 0, v, u] - spec.x_range[0]) / spec.voxel
        fy = (pts[b, 1, v, u] - spec.y_range[0]) / spec.voxel
        if 0 <= fx < spec.nx and 0 <= fy < spec.ny:
            out[:, int(fx), int(fy)] += dc.depth.data[b, v, u] * dc.f_ctx.data[:, v, u]
    return out


def residual_query(q, f_ctx, m, spec, n_z, params):
    """Sample every (cell, height, point) and gate out-of-view terms to zero.

    Returns the residual (C, nx, ny) and the (cells, n_z) in-view gate.
    """
    nx, ny = spec.nx, spec.ny
    u, v, _, in_view = (
        a.reshape(nx * ny, n_z) for a in column_samples(m, spec, n_z, f_ctx.height, f_ctx.width)
    )
    # Offsets and logits add the query channels one by one from +0.0, and the
    # softmax denominator adds the points one by one, as residual_query
    # promises; einsum and sum(axis=0) take another order over one cell.
    q_flat = q.data.reshape(q.channels, nx * ny)
    off = np.zeros((2 * params.k_points, nx * ny))
    logits = np.zeros((params.k_points, nx * ny))
    for c in range(q.channels):
        off += params.offset_weights[:, c, None] * q_flat[c]
        logits += params.attn_weights[:, c, None] * q_flat[c]
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    total = np.zeros(nx * ny)
    for k in range(params.k_points):
        total += e[k]
    attn = e / total

    us = u[:, :, None] + off[0::2].T[:, None, :]  # (cells, n_z, K)
    vs = v[:, :, None] + off[1::2].T[:, None, :]
    sampled = bilinear_sample_many(f_ctx, us, vs)  # (C, cells, n_z, K)
    # Each cell sums from +0.0 in (height, point) order, as residual_query
    # promises; an out-of-view term adds an exact zero.
    gate = in_view.astype(np.float64)
    out = np.zeros((f_ctx.channels, nx * ny))
    for j in range(n_z):
        for k in range(params.k_points):
            out += sampled[:, :, j, k] * attn[k] * gate[:, j]
    return out.reshape(f_ctx.channels, nx, ny), in_view


def illumination_field(i, m, spec, n_z):
    """Per cell, the mean map value at the column samples in the map; 0 where none is."""
    u, v, _, in_map = column_samples(m, spec, n_z, i.height, i.width)
    values = np.zeros(u.shape)
    iu, iv = (np.floor(a[in_map]).astype(np.int64) for a in (u, v))
    values[in_map] = i.data[0, iv, iu]
    counts = in_map.sum(axis=-1)
    return np.where(counts > 0, values.sum(axis=-1) / np.maximum(counts, 1), 0.0)


def _ce_reductions(logits, labels, weights):
    """The logits as an (n_vox, n_cla) C-order copy minus each voxel's max over its
    inner axis, the log of `sum(axis=1)` of their exponentials, and the labels
    and weights as flat arrays."""
    flat = np.array(logits, dtype=np.float64, order="C").reshape(-1, logits.shape[-1])
    shifted = flat - flat.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return shifted, lse, np.asarray(labels).ravel().astype(np.int64), np.asarray(weights, dtype=np.float64)


def weighted_ce_terms(logits, labels, weights) -> np.ndarray:
    """Each voxel's weighted loss term, in C order of the leading axes."""
    shifted, lse, labels, weights = _ce_reductions(logits, labels, weights)
    picked = shifted[np.arange(len(shifted)), labels]
    return weights[labels] * (lse - picked)


def weighted_ce(logits, labels, weights) -> float:
    """The loss: the sum of `weighted_ce_terms` in voxel order."""
    return float(weighted_ce_terms(logits, labels, weights).sum())


def weighted_ce_grad(logits, labels, weights) -> np.ndarray:
    """The loss's gradient as (n_vox, n_cla): exp((x - max) - lse), minus 1 at
    the label, times the label's weight."""
    shifted, lse, labels, weights = _ce_reductions(logits, labels, weights)
    grad = np.exp(shifted - lse[:, None])
    grad[np.arange(len(grad)), labels] -= 1.0
    return grad * weights[labels][:, None]


def miou(pred, gt, n_cla):
    """Per-class intersection and union counts, voxel by voxel, and the mean IoU over
    the classes with a non-empty union."""
    inter, union = [0] * n_cla, [0] * n_cla
    for p, g in zip(np.ravel(pred).tolist(), np.ravel(gt).tolist()):
        inter[p] += p == g
        union[p] += 1
        union[g] += p != g
    ious = [inter[m] / union[m] for m in range(n_cla) if union[m] > 0]
    return inter, union, sum(ious) / len(ious)


def otsu_sigma(factors, thresholds):
    """Inter-class variance of the split {f <= t} vs {f > t} at each threshold, each
    group counted and summed through a mask over the whole population; 0 where a
    group is empty."""
    f = np.asarray(factors, dtype=np.float64).ravel()
    below = f <= np.asarray(thresholds, dtype=np.float64)[..., None]
    n = float(f.size)
    k = below.sum(axis=-1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):  # empty groups, zeroed below
        om0 = k / n
        om1 = 1.0 - om0
        mu0 = np.einsum("...n,n->...", below, f) / k
        mu1 = np.einsum("...n,n->...", ~below, f) / (n - k)
        mu_t = om0 * mu0 + om1 * mu1
        d0 = mu0 - mu_t
        d1 = mu1 - mu_t
        sigma = om0 * (d0 * d0) + om1 * (d1 * d1)
    return np.where((k == 0) | (k == n), 0.0, sigma)


def otsu_scan(factors, bins):
    """`otsu_sigma` at every bin edge k / bins, k = 1..bins."""
    return otsu_sigma(factors, np.arange(1, bins + 1) / bins)


def inter_class_variance(factors, t) -> float:
    """Inter-class variance of the split {f <= t} vs {f > t}, from the sorted
    factors' prefix sums, in the expression order `otsu_threshold` uses."""
    srt = np.sort(np.asarray(factors, dtype=np.float64).ravel())
    n = float(srt.size)
    k = int(np.searchsorted(srt, t, side="right"))
    prefix = np.concatenate([[0.0], np.cumsum(srt, dtype=np.float64)])
    if k in (0, srt.size):
        return 0.0
    om0 = k / n
    om1 = 1.0 - om0
    mu0 = float(prefix[k]) / k
    mu1 = (float(prefix[-1]) - float(prefix[k])) / (n - k)
    mu_t = om0 * mu0 + om1 * mu1
    d0 = mu0 - mu_t
    d1 = mu1 - mu_t
    return om0 * (d0 * d0) + om1 * (d1 * d1)


def occupancy_labels(cfg, boxes) -> np.ndarray:
    """Every box tested against full (X, Y, Z) grids of cell centres; later boxes win.
    The labels are uint8, which holds the ids of every class table up to 256."""
    assert len(cfg.classes) <= 256
    spec = cfg.bev
    gx, gy, gz = np.meshgrid(spec.x_centers(), spec.y_centers(), spec.z_centers(), indexing="ij")
    labels = np.zeros(gx.shape, dtype=np.uint8)
    for box in boxes:
        lo, hi = box.bounds()
        inside = (
            (gx >= lo[0]) & (gx <= hi[0])
            & (gy >= lo[1]) & (gy <= hi[1])
            & (gz >= lo[2]) & (gz <= hi[2])
        )
        labels[inside] = box.cls
    return labels


def light_field(cfg) -> np.ndarray:
    """Ambient plus each light's falloff over full (H, W) grids of columns and rows."""
    h, w = cfg.height, cfg.width
    cols, rows = np.meshgrid(
        np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64), indexing="xy"
    )
    raw = np.full((h, w), cfg.ambient, dtype=np.float64)
    for light in cfg.lights:
        d2 = (cols - light.u) ** 2 + (rows - light.v) ** 2
        raw += light.intensity / (1.0 + d2 / (light.radius**2))
    return raw
