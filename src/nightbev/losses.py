"""Weighted voxel cross-entropy and the composite training loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 10.0
    beta: float = 0.2
    gamma: float = 0.2

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def class_weights_from_labels(labels, n_cla: int) -> np.ndarray:
    """Inverse-frequency class weights with +1 smoothing for absent classes."""
    arr = labels.labels if hasattr(labels, "labels") else labels
    flat = np.asarray(arr).ravel()
    if flat.size == 0:
        raise ValueError("labels must be non-empty")
    if flat.min() < 0 or flat.max() >= n_cla:
        raise ValueError(f"labels must lie in [0, {n_cla})")
    counts = np.bincount(flat.astype(np.int64), minlength=n_cla)
    return flat.size / (counts + 1.0)


def _check_logits(logits: np.ndarray, labels: np.ndarray, weights: np.ndarray):
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError("logits must be (n_vox, n_cla) with n_cla >= 2")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"{labels.shape[0] if labels.ndim else 0} labels for {logits.shape[0]} voxels"
        )
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label id out of range")
    if weights.shape != (logits.shape[1],):
        raise ValueError(f"need {logits.shape[1]} class weights, got {weights.shape}")
    return logits, labels.astype(np.int64), weights


def _ce_terms(logits, labels, weights):
    """Loss plus the max-shifted logits and log-sum-exp the gradient reuses."""
    logits, labels, weights = _check_logits(logits, labels, weights)
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(n), labels]
    per_voxel = weights[labels] * (lse - picked)
    return float(per_voxel.sum()), shifted, lse, labels, weights


def weighted_ce(logits, labels, weights) -> float:
    """Class-weighted cross-entropy summed over voxels (max-shift stabilized)."""
    return _ce_terms(logits, labels, weights)[0]


def weighted_ce_grad(logits, labels, weights) -> tuple[float, np.ndarray]:
    """Weighted cross-entropy plus its gradient with respect to the logits."""
    loss, shifted, lse, labels, weights = _ce_terms(logits, labels, weights)
    n = shifted.shape[0]
    softmax = np.exp(shifted - lse[:, None])
    grad = softmax
    grad[np.arange(n), labels] -= 1.0
    grad *= weights[labels][:, None]
    return loss, grad


def total_loss(ce: float, aux_sem: float, aux_geo: float, cfg: LossConfig = LossConfig()) -> float:
    """Composite loss: alpha * ce + beta * aux_sem + gamma * aux_geo."""
    for name, value in (("ce", ce), ("aux_sem", aux_sem), ("aux_geo", aux_geo)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
    return cfg.alpha * ce + cfg.beta * aux_sem + cfg.gamma * aux_geo
