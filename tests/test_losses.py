"""Class weighting, weighted cross-entropy, and the composite loss."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nightbev.core
import nightbev.losses
import reference as ref
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

    def test_300_classes_equal_bincount(self):
        rng = np.random.default_rng(11)
        names = tuple(f"c{m}" for m in range(300))
        labels = rng.integers(0, 280, size=(10, 12, 9))  # the last 20 classes are absent
        grid = OccupancyGrid(labels, names)
        assert grid.labels.dtype == np.uint16
        want = labels.size / (np.bincount(labels.ravel(), minlength=300) + 1.0)
        assert class_weights_from_labels(grid, 300).tobytes() == want.tobytes()

    def test_peak_memory_below_a_widened_grid(self, peak_bytes):
        # bev_wide's 200 x 200 x 16 grid: 640 kB of uint8 labels, 5.1 MB as int64.
        rng = np.random.default_rng(3)
        grid = OccupancyGrid(rng.integers(0, 4, size=(200, 200, 16)), ("free", "a", "b", "c"))
        assert peak_bytes(class_weights_from_labels, grid, 4) < 2 << 20


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


SPECIAL_LOGITS = np.array([0.0, -0.0, 1e300, -1e300, np.inf, -np.inf])


def ce_case(seed, lead, n_cla, values, head_layout):
    """Logits (*lead, n_cla), labels and weights; in the head layout the
    logits are a strided view of a (lead[-1], n_cla, *lead[:-1]) array."""
    rng = np.random.default_rng(seed)
    if values == "ties":
        base = rng.integers(-2, 3, size=(n_cla, *lead)).astype(np.float64)
    else:
        base = rng.normal(0.0, 5.0, size=(n_cla, *lead))
        if values == "special":
            mask = rng.random(base.shape) < 0.3
            base[mask] = rng.choice(SPECIAL_LOGITS, size=int(mask.sum()))
    if head_layout:
        k = len(lead)
        stored = np.ascontiguousarray(np.moveaxis(base, 0, -1).transpose(k - 1, k, *range(k - 1)))
        logits = stored.transpose(*range(2, k + 1), 0, 1)
    else:
        logits = np.ascontiguousarray(np.moveaxis(base, 0, -1))
    labels = rng.integers(0, n_cla, size=lead)
    weights = rng.uniform(0.0, 3.0, size=n_cla)
    return logits, labels, weights


class TestWeightedCeOracle:
    """`weighted_ce` on (..., n_cla) views keeps every bit of the old
    (n_vox, n_cla) reduction, in each of numpy's class-sum orders."""

    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lead=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
        n_cla=st.integers(2, 140),
        values=st.sampled_from(["normal", "ties", "special"]),
        head_layout=st.booleans(),
    )
    @example(seed=1, lead=(3, 4, 2), n_cla=7, values="normal", head_layout=True)
    @example(seed=2, lead=(3, 4, 2), n_cla=8, values="normal", head_layout=True)
    @example(seed=3, lead=(3, 4, 2), n_cla=9, values="special", head_layout=True)
    @example(seed=4, lead=(5, 2), n_cla=128, values="normal", head_layout=False)
    @example(seed=5, lead=(5, 2), n_cla=129, values="ties", head_layout=True)
    @example(seed=3049, lead=(5, 1), n_cla=21, values="normal", head_layout=True)
    def test_bytes_equal_reference(self, seed, lead, n_cla, values, head_layout):
        logits, labels, weights = ce_case(seed, lead, n_cla, values, head_layout)
        with np.errstate(all="ignore"):  # inf - inf in the special cases
            want = ref.weighted_ce(logits, labels, weights)
            got = weighted_ce(logits, labels, weights)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)

    def test_eight_classes_add_through_eight_accumulators(self):
        # Seven exp terms of about 8.5e-17 each vanish when added one by one onto
        # 1.0, so that order gives a loss of exactly 0; numpy's eight
        # accumulators add them up first, and the loss is a few ulps above 0.
        logits = np.array([[0.0] + [-37.0] * 7])
        loss = weighted_ce(logits, [0], np.ones(8))
        assert loss > 0.0
        assert np.float64(loss).tobytes() == np.float64(ref.weighted_ce(logits, [0], np.ones(8))).tobytes()

    def test_head_layout_is_not_copied_by_the_caller(self):
        logits, labels, weights = ce_case(0, (6, 5, 4), 4, "normal", True)
        assert not logits.flags.c_contiguous and not logits.flags.f_contiguous
        assert weighted_ce(logits, labels, weights) == ref.weighted_ce(logits, labels, weights)

    @pytest.mark.parametrize("head_layout", [True, False])
    @pytest.mark.parametrize("n_cla", [3, 9])
    def test_blocks_with_a_short_last_one(self, monkeypatch, head_layout, n_cla):
        # (5, 3, 5) voxels: 5 levels of 15 voxels along the first axis, so two
        # levels per block give blocks of 2, 2 and 1.
        logits, labels, weights = ce_case(11, (5, 3, 5), n_cla, "special", head_layout)
        monkeypatch.setattr(nightbev.core, "LEVEL_BLOCK_BYTES", (2 * 15 + 7) * n_cla * 8)
        sizes = []
        block_ce = nightbev.losses._ce_block
        monkeypatch.setattr(nightbev.losses, "_ce_block", lambda b, *a: sizes.append(b.shape) or block_ce(b, *a))
        with np.errstate(all="ignore"):
            want = ref.weighted_ce(logits, labels, weights)
            got = weighted_ce(logits, labels, weights)
        assert sizes == [(k, 3, 5, n_cla) for k in (2, 2, 1)]
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)

    def test_gradient_is_the_same_in_blocks(self, monkeypatch):
        logits, labels, weights = ce_case(12, (37,), 5, "normal", False)
        whole = weighted_ce_grad(logits, labels, weights)
        monkeypatch.setattr(nightbev.core, "LEVEL_BLOCK_BYTES", 8 * 5 * 8)  # blocks of 8 voxels
        loss, grad = weighted_ce_grad(logits, labels, weights)
        assert loss == whole[0] and grad.tobytes() == whole[1].tobytes()

    def test_peak_memory_below_two_full_grid_arrays(self, peak_bytes):
        # The bev_wide head layout: a (200, 200, 16, 4) view of (16, 4, 200, 200)
        # logits. Only the per-voxel terms span the grid.
        rng = np.random.default_rng(13)
        stored = rng.normal(size=(16, 4, 200, 200))
        logits = stored.transpose(2, 3, 0, 1)
        labels = rng.integers(0, 4, size=(200, 200, 16))
        weights = rng.uniform(0.5, 2.0, size=4)
        peak = peak_bytes(weighted_ce, logits, labels, weights)
        assert peak < 2 * 200 * 200 * 16 * 8

    def test_labels_must_match_leading_shape(self):
        with pytest.raises(ValueError, match="labels of shape"):
            weighted_ce(np.zeros((2, 3, 2)), np.zeros(6, dtype=int), [1.0, 1.0])

    def test_gradient_needs_two_dimensional_logits(self):
        with pytest.raises(ValueError, match="n_vox, n_cla"):
            weighted_ce_grad(np.zeros((2, 3, 2)), np.zeros((2, 3), dtype=int), [1.0, 1.0])
