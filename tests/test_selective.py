"""Threshold selection over factor populations and the selective branch."""

import numpy as np
import pytest

import reference as ref
from nightbev.core import Tensor3
from nightbev.illumination import retinex_enhance
from nightbev.selective import (
    FactorPopulation,
    bin_edges,
    factor_histogram,
    otsu_threshold,
    selective_enhance,
)


class TestFactorPopulation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            FactorPopulation(np.array([]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="\\(0, 1\\]"):
            FactorPopulation(np.array([0.0, 0.5]))

    def test_bin_edges_cover_unit_interval(self):
        edges = bin_edges(256)
        assert edges[0] == pytest.approx(1 / 256)
        assert edges[-1] == 1.0
        assert len(edges) == 256


class TestOtsuThreshold:
    def test_two_cluster_hand_case(self):
        pop = FactorPopulation(np.array([0.2, 0.2, 0.8, 0.8]))
        report = otsu_threshold(pop)
        assert report.t_star == 0.5  # midpoint of the maximizing plateau
        assert report.sigma_b2 == pytest.approx(0.09, abs=1e-12)
        assert report.sigma_b2 == ref.otsu_scan([0.2, 0.2, 0.8, 0.8], 256).max()
        assert not report.degenerate

    def test_degenerate_population(self):
        report = otsu_threshold(FactorPopulation(np.full(5, 0.4)))
        assert report.t_star == 0.4
        assert report.sigma_b2 == 0.0
        assert report.degenerate

    def test_bimodal_maximizer_between_modes(self):
        rng = np.random.default_rng(23)
        factors = ref.dyadic(
            np.concatenate(
                [
                    rng.normal(0.15, 0.03, size=500),
                    rng.normal(0.85, 0.03, size=500),
                ]
            ).clip(0.01, 1.0),
        )
        report = otsu_threshold(FactorPopulation(factors))
        assert 0.2 < report.t_star < 0.8
        assert report.sigma_b2 == ref.otsu_scan(factors, 256).max()

    def test_sigma_dominates_every_edge(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            factors = ref.dyadic(rng.uniform(0.02, 1.0, size=120))
            pop = FactorPopulation(factors, bins=64)
            report = otsu_threshold(pop)
            assert (report.sigma_b2 >= ref.otsu_scan(factors, 64)).all()

    def test_duplication_leaves_threshold_unchanged(self):
        rng = np.random.default_rng(31)
        factors = ref.dyadic(rng.uniform(0.05, 0.95, size=60))
        single = otsu_threshold(FactorPopulation(factors))
        doubled = otsu_threshold(FactorPopulation(np.concatenate([factors, factors])))
        assert doubled.t_star == single.t_star
        assert doubled.sigma_b2 == single.sigma_b2

    def test_report_invariants(self):
        rng = np.random.default_rng(37)
        factors = ref.dyadic(rng.uniform(0.05, 0.95, size=80))
        report = otsu_threshold(FactorPopulation(factors))
        assert report.omega0 + report.omega1 == pytest.approx(1.0, abs=1e-12)
        recombined = report.omega0 * report.mu0 + report.omega1 * report.mu1
        assert report.mu_t == pytest.approx(recombined, abs=1e-9)

    def test_inter_class_variance_matches_scan(self):
        rng = np.random.default_rng(41)
        factors = ref.dyadic(rng.uniform(0.05, 0.95, size=50))
        sigmas = ref.otsu_scan(factors, 32)
        for k in range(1, 33):
            assert ref.inter_class_variance(factors, k / 32) == sigmas[k - 1]
        report = otsu_threshold(FactorPopulation(factors, bins=32))
        assert report.sigma_b2 == sigmas.max() == ref.inter_class_variance(factors, report.t_star)


class TestSelectiveEnhance:
    def test_dark_image_enhanced(self):
        x = Tensor3.full(3, 4, 4, 0.2)
        i = Tensor3.full(1, 4, 4, 0.3)
        out, enhanced = selective_enhance(x, i, 0.4)
        assert enhanced
        np.testing.assert_array_equal(out.data, retinex_enhance(x, i).data)

    def test_bright_image_untouched(self):
        x = Tensor3.full(3, 4, 4, 0.6)
        i = Tensor3.full(1, 4, 4, 0.5)
        out, enhanced = selective_enhance(x, i, 0.4)
        assert not enhanced
        assert out is x  # bit-for-bit: same immutable object

    def test_boundary_is_inclusive(self):
        x = Tensor3.full(3, 4, 4, 0.2)
        i = Tensor3.full(1, 4, 4, 0.4)
        _, enhanced = selective_enhance(x, i, 0.4)
        assert enhanced

    def test_invalid_threshold_rejected(self):
        x = Tensor3.full(3, 2, 2, 0.5)
        i = Tensor3.full(1, 2, 2, 0.5)
        with pytest.raises(ValueError, match="t_star"):
            selective_enhance(x, i, 0.0)


class TestFactorHistogram:
    def test_counts_sum_to_population(self):
        rng = np.random.default_rng(43)
        factors = rng.uniform(0.01, 1.0, size=200)
        counts = factor_histogram(factors, 64)
        assert counts.sum() == 200
        assert len(counts) == 64

    def test_bin_placement(self):
        counts = factor_histogram(np.array([0.999, 1.0, 0.001]), 4)
        assert counts[3] == 2
        assert counts[0] == 1
