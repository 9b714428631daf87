"""Weighted voxel cross-entropy and the composite training loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import level_blocks


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 10.0
    beta: float = 0.2
    gamma: float = 0.2

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            if not 0 <= getattr(self, name) < np.inf:  # nan fails both
                raise ValueError(f"{name} must be a finite number >= 0")


def class_weights_from_labels(labels, n_cla: int) -> np.ndarray:
    """Inverse-frequency class weights with +1 smoothing for absent classes.

    Each class is counted with `count_nonzero` over one reused boolean mask, so
    no widened copy of the labels exists, whatever their integer dtype.
    """
    arr = np.asarray(labels.labels if hasattr(labels, "labels") else labels)
    if arr.size == 0:
        raise ValueError("labels must be non-empty")
    if arr.min() < 0 or arr.max() >= n_cla:
        raise ValueError(f"labels must lie in [0, {n_cla})")
    counts = np.zeros(n_cla, dtype=np.int64)
    is_k = np.empty(arr.shape, dtype=bool)
    for k in range(n_cla):
        counts[k] = np.count_nonzero(np.equal(arr, k, out=is_k))
    return arr.size / (counts + 1.0)


def _check_logits(logits: np.ndarray, labels: np.ndarray, weights: np.ndarray):
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if logits.ndim < 2 or logits.shape[-1] < 2:
        raise ValueError("logits must be (..., n_cla) with n_cla >= 2")
    if labels.shape != logits.shape[:-1]:
        raise ValueError(f"labels of shape {labels.shape} for logits of shape {logits.shape}")
    if labels.min() < 0 or labels.max() >= logits.shape[-1]:
        raise ValueError("label id out of range")
    if weights.shape != (logits.shape[-1],):
        raise ValueError(f"need {logits.shape[-1]} class weights, got {weights.shape}")
    return logits, labels.astype(np.intp, copy=False), weights


def _class_sum(term, start: int, n: int) -> np.ndarray:
    """Sum of `term(k, out)` over classes start..start+n-1 in numpy's pairwise order.

    This is the order in which `a.sum(axis=1)` adds a contiguous row of n
    values: one by one below 8, eight interleaved accumulators up to 128,
    and above that two halves split at a multiple of 8. numpy also starts
    each row from +0.0, which changes only a sum of -0.0; the exp terms
    summed here are never -0.0. `term(k, out)` writes class k's plane into
    `out`, or into a new array when `out` is None, and returns it.
    """
    if n < 8:
        acc, tmp = term(start, None), None
        for k in range(start + 1, start + n):
            tmp = term(k, tmp)
            acc += tmp
        return acc
    if n <= 128:
        r, tmp = [term(start + j, None) for j in range(8)], None
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                tmp = term(start + i + j, tmp)
                r[j] += tmp
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for k in range(start + tail, start + n):
            tmp = term(k, tmp)
            acc += tmp
        return acc
    half = n // 2 - (n // 2) % 8
    return _class_sum(term, start, half) + _class_sum(term, start + half, n - half)


def _ce_block(block, labels, weights, out):
    """Writes each voxel's weighted term of a (..., n_cla) block into `out`.

    Every per-voxel array is computed one class plane of the block at a time,
    in the memory layout of those planes. Returns the block's per-voxel max
    and log-sum-exp, which the gradient reuses.
    """
    planes = np.moveaxis(block, -1, 0)  # class-first view
    peak = np.copy(planes[0], order="K")
    for plane in planes[1:]:
        np.maximum(peak, plane, out=peak)

    def exp_shifted(k, out):
        out = np.subtract(planes[k], peak, out=out)
        return np.exp(out, out=out)

    lse = _class_sum(exp_shifted, 0, len(planes))
    np.log(lse, out=lse)
    picked = np.copy(planes[0], order="K")  # each voxel's logit at its label
    is_k = np.empty(labels.shape, dtype=bool)
    for k in range(1, len(planes)):
        np.copyto(picked, planes[k], where=np.equal(labels, k, out=is_k))
    picked -= peak
    np.multiply(weights[labels], np.subtract(lse, picked, out=picked), out=out)
    return peak, lse


def term_sum(per_voxel: np.ndarray) -> float:
    """The sum of per-voxel terms in C order of their axes, as `weighted_ce` adds them."""
    return float(per_voxel.ravel(order="C").sum())


def weighted_ce(logits, labels, weights, out=None) -> float:
    """Class-weighted cross-entropy summed over voxels (max-shift stabilized).

    `logits` is (..., n_cla), any strides, and `labels` holds the class id of
    each voxel, shape (...); voxels are summed in C order of the leading axes.
    Each voxel's weighted term also goes into `out`, a float64 array of the
    labels' shape, when one is given.

    The terms are computed in `level_blocks` along the first leading axis.
    Each block's labels and terms are contiguous in C order, and each of its
    class planes is a set of contiguous runs for the head's (Z, n_cla, X, Y)
    layout, so a block's work stays in cache.
    """
    logits, labels, weights = _check_logits(logits, labels, weights)
    if out is None:
        out = np.empty(labels.shape)
    elif out.shape != labels.shape or out.dtype != np.float64:
        raise ValueError(f"out must be float64 {labels.shape}, got {out.dtype} {out.shape}")
    for rows in level_blocks(len(labels), logits.nbytes // len(labels)):
        _ce_block(logits[rows], labels[rows], weights, out[rows])
    return term_sum(out)


def weighted_ce_grad(logits, labels, weights) -> tuple[float, np.ndarray]:
    """Weighted cross-entropy of (n_vox, n_cla) logits plus its C-ordered gradient.

    One `_ce_block` call over all voxels gives the loss, bit for bit that of
    `weighted_ce`, and each voxel's max and log-sum-exp, from which the
    softmax is formed in place in the gradient array.
    """
    if np.ndim(logits) != 2:
        raise ValueError("weighted_ce_grad needs (n_vox, n_cla) logits")
    logits, labels, weights = _check_logits(logits, labels, weights)
    terms = np.empty(len(labels))
    peak, lse = _ce_block(logits, labels, weights, terms)
    grad = np.subtract(logits, peak[:, None], order="C")
    grad -= lse[:, None]
    np.exp(grad, out=grad)
    grad[np.arange(len(grad)), labels] -= 1.0
    grad *= weights[labels][:, None]
    return term_sum(terms), grad


def total_loss(ce: float, aux_sem: float, aux_geo: float, cfg: LossConfig = LossConfig()) -> float:
    """Composite loss: alpha * ce + beta * aux_sem + gamma * aux_geo."""
    for name, value in (("ce", ce), ("aux_sem", aux_sem), ("aux_geo", aux_geo)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
    return cfg.alpha * ce + cfg.beta * aux_sem + cfg.gamma * aux_geo
