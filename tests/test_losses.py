"""Class weighting, weighted cross-entropy, and the composite loss."""

import math

import numpy as np
import pytest

from nightbev.core import finite_diff_check
from nightbev.losses import (
    LossConfig,
    class_weights_from_labels,
    total_loss,
    weighted_ce,
    weighted_ce_grad,
)
from nightbev.metrics import OccupancyGrid


class TestClassWeights:
    def test_balanced_counts(self):
        labels = np.array([0] * 10 + [1] * 10)
        np.testing.assert_allclose(
            class_weights_from_labels(labels, 2), [20 / 11, 20 / 11]
        )

    def test_absent_class_smoothing(self):
        labels = np.zeros(20, dtype=int)
        np.testing.assert_allclose(
            class_weights_from_labels(labels, 2), [20 / 21, 20.0]
        )

    def test_single_class_grid(self):
        w = class_weights_from_labels(np.zeros(8, dtype=int), 1)
        assert w == pytest.approx([8 / 9])

    def test_accepts_occupancy_grid(self):
        grid = OccupancyGrid(np.zeros((2, 2, 2), dtype=int), ("free", "box"))
        np.testing.assert_allclose(
            class_weights_from_labels(grid, 2), [8 / 9, 8.0]
        )

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            class_weights_from_labels(np.array([0, 3]), 2)


class TestWeightedCe:
    def test_uniform_logits_give_log2(self):
        loss = weighted_ce(np.zeros((1, 2)), [0], [1.0, 1.0])
        assert loss == pytest.approx(math.log(2.0), abs=1e-9)

    def test_linear_in_class_weight(self):
        loss = weighted_ce(np.zeros((1, 2)), [0], [2.0, 2.0])
        assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    def test_confident_correct_prediction(self):
        loss = weighted_ce(np.array([[10.0, -10.0]]), [0], [1.0, 1.0])
        assert loss == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-9)

    def test_sum_not_mean(self):
        one = weighted_ce(np.zeros((1, 2)), [0], [1.0, 1.0])
        many = weighted_ce(np.zeros((5, 2)), [0] * 5, [1.0, 1.0])
        assert many == pytest.approx(5.0 * one, rel=1e-12)

    def test_non_negative_and_vanishing_with_margin(self):
        rng = np.random.default_rng(3)
        for margin in (0.0, 5.0, 30.0, 200.0):
            logits = np.array([[margin, 0.0, 0.0]])
            loss = weighted_ce(logits, [0], rng.uniform(0.5, 2.0, size=3))
            assert loss >= 0.0
        assert weighted_ce(np.array([[500.0, 0.0]]), [0], [1.0, 1.0]) == 0.0

    def test_doubling_weights_doubles_loss(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        w = rng.uniform(0.5, 2.0, size=4)
        assert weighted_ce(logits, labels, 2.0 * w) == pytest.approx(
            2.0 * weighted_ce(logits, labels, w), rel=1e-12
        )

    def test_shift_invariance_per_voxel(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        w = rng.uniform(0.5, 2.0, size=3)
        shifted = logits + rng.normal(size=(4, 1))
        assert weighted_ce(shifted, labels, w) == pytest.approx(
            weighted_ce(logits, labels, w), abs=1e-9
        )

    def test_stable_for_extreme_logits(self):
        loss = weighted_ce(np.array([[1000.0, -1000.0]]), [1], [1.0, 1.0])
        assert np.isfinite(loss) and loss > 100

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            weighted_ce(np.zeros((1, 2)), [2], [1.0, 1.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        weights = rng.uniform(0.5, 3.0, size=4)
        _, grad = weighted_ce_grad(logits, labels, weights)

        def scalar(flat):
            return weighted_ce(flat.reshape(5, 4), labels, weights)

        err = finite_diff_check(scalar, logits.ravel(), 1e-5, grad.ravel())
        assert err < 1e-4


class TestTotalLoss:
    def test_defaults_scale_ce_by_ten(self):
        assert total_loss(1.0, 0.0, 0.0) == 10.0

    def test_mixed_terms(self):
        assert total_loss(0.5, 1.0, 2.0) == pytest.approx(5.6)

    def test_all_zero(self):
        assert total_loss(0.0, 0.0, 0.0) == 0.0

    def test_custom_config(self):
        cfg = LossConfig(alpha=1.0, beta=0.5, gamma=0.25)
        assert total_loss(2.0, 4.0, 8.0, cfg) == pytest.approx(6.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="alpha"):
            LossConfig(alpha=-1.0)

    def test_rejects_non_finite_terms(self):
        with pytest.raises(ValueError, match="finite"):
            total_loss(float("inf"), 0.0, 0.0)


def test_loss_only_path_equals_gradient_path_exactly():
    rng = np.random.default_rng(7)
    for n_vox, n_cla in ((1, 2), (37, 4), (500, 9)):
        logits = rng.normal(0.0, 5.0, size=(n_vox, n_cla))
        labels = rng.integers(0, n_cla, size=n_vox)
        weights = rng.uniform(0.0, 3.0, size=n_cla)
        assert weighted_ce(logits, labels, weights) == weighted_ce_grad(logits, labels, weights)[0]
