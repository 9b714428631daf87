"""Voxel IoU metrics against brute-force counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from nightbev.metrics import (
    IoUReport,
    OccupancyGrid,
    class_counts,
    miou,
    report_from_counts,
    write_iou_csv,
)

NAMES4 = ("free", "a", "b", "c")


def grid(labels, names=NAMES4) -> OccupancyGrid:
    return OccupancyGrid(np.asarray(labels, dtype=np.int64), names)


class TestOccupancyGrid:
    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integers"):
            OccupancyGrid(np.zeros((2, 2, 2)), ("free",))

    def test_rejects_label_out_of_table(self):
        with pytest.raises(ValueError, match="labels"):
            OccupancyGrid(np.full((1, 1, 1), 5, dtype=np.int64), ("free", "a"))

    def test_keeps_its_own_c_ordered_int64_copy(self):
        labels = np.arange(24, dtype=np.int32).reshape(2, 3, 4).transpose(2, 0, 1) % 3
        g = OccupancyGrid(labels, ("free", "a", "b"))
        assert g.labels.dtype == np.uint8 and g.labels.flags.c_contiguous
        assert not g.labels.flags.writeable
        np.testing.assert_array_equal(g.labels, labels)
        labels[0, 0, 0] = 2 - labels[0, 0, 0]
        assert g.labels[0, 0, 0] != labels[0, 0, 0]

    def test_dims(self):
        g = grid(np.zeros((2, 3, 4), dtype=int))
        assert g.dims == (2, 3, 4)

    @pytest.mark.parametrize("n_cla,dtype", [(4, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_narrowest_dtype_that_holds_the_class_table(self, n_cla, dtype):
        labels = np.array([0, n_cla - 1, 1, n_cla - 2] * 6, dtype=np.int64).reshape(4, 3, 2)
        g = OccupancyGrid(labels.transpose(2, 0, 1), tuple(f"c{m}" for m in range(n_cla)))
        assert g.labels.dtype == dtype and g.labels.flags.c_contiguous
        assert not g.labels.flags.writeable and not np.shares_memory(g.labels, labels)
        np.testing.assert_array_equal(g.labels, labels.transpose(2, 0, 1))


class TestMiou:
    def test_perfect_prediction(self):
        g = grid(np.random.default_rng(3).integers(0, 4, size=(4, 4, 4)))
        report = miou(g, g)
        assert report.miou == 1.0

    def test_four_voxel_hand_case(self):
        gt = grid(np.array([0, 0, 1, 1]).reshape(1, 1, 4), ("free", "a"))
        pred = grid(np.array([0, 1, 1, 1]).reshape(1, 1, 4), ("free", "a"))
        report = miou(pred, gt)
        assert report.per_class[0] == pytest.approx(0.5)
        assert report.per_class[1] == pytest.approx(2 / 3)
        assert report.miou == pytest.approx(7 / 12)

    def test_absent_class_excluded(self):
        gt = grid(np.array([0, 0, 1, 1]).reshape(1, 1, 4))
        pred = grid(np.array([0, 1, 1, 0]).reshape(1, 1, 4))
        report = miou(pred, gt)  # classes 2 and 3 appear nowhere
        assert report.per_class[2] is None
        assert report.per_class[3] is None
        assert report.evaluated_classes == (0, 1)
        assert report.miou == pytest.approx(np.mean([1 / 3, 1 / 3]))

    def test_predicted_only_class_scores_zero_but_counts(self):
        gt = grid(np.array([0, 0]).reshape(1, 1, 2))
        pred = grid(np.array([0, 2]).reshape(1, 1, 2))
        report = miou(pred, gt)
        assert report.per_class[2] == 0.0
        assert 2 in report.evaluated_classes

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(5)
        a = grid(rng.integers(0, 4, size=(5, 4, 3)))
        b = grid(rng.integers(0, 4, size=(5, 4, 3)))
        assert miou(a, b).per_class == miou(b, a).per_class

    def test_class_relabeling_permutes_ious(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 4, size=(4, 4, 4))
        b = rng.integers(0, 4, size=(4, 4, 4))
        base = miou(grid(a), grid(b))
        perm = np.array([2, 0, 3, 1])
        permuted = miou(grid(perm[a]), grid(perm[b]))
        for m in range(4):
            assert permuted.per_class[perm[m]] == base.per_class[m]
        assert permuted.miou == pytest.approx(base.miou)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.integers(0, 4, size=(6, 5, 4))
            b = rng.integers(0, 4, size=(6, 5, 4))
            report = miou(grid(a), grid(b))
            inter, union, expect = ref.miou(a, b, 4)
            assert list(report.intersections) == inter
            assert list(report.unions) == union
            assert report.miou == expect

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            miou(grid(np.zeros((1, 1, 2), dtype=int)), grid(np.zeros((1, 1, 3), dtype=int)))

    def test_different_class_tables_rejected(self):
        a = OccupancyGrid(np.zeros((1, 1, 1), dtype=int), ("free", "a"))
        b = OccupancyGrid(np.zeros((1, 1, 1), dtype=int), ("free", "b"))
        with pytest.raises(ValueError, match="class tables"):
            miou(a, b)


class TestClassCountsOracle:
    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        n_cla=st.integers(1, 12),
        agree=st.floats(0.0, 1.0),
    )
    def test_equals_three_bincount_counts(self, seed, dims, n_cla, agree):
        rng = np.random.default_rng(seed)
        names = tuple(f"c{m}" for m in range(n_cla))
        gt = rng.integers(0, n_cla, size=dims)
        pred = np.where(rng.random(dims) < agree, gt, rng.integers(0, n_cla, size=dims))
        a, b = OccupancyGrid(pred, names), OccupancyGrid(gt, names)
        inter, union = class_counts(a, b)
        want_inter, want_union, _ = ref.miou(pred, gt, n_cla)
        assert inter.dtype == union.dtype == np.int64
        np.testing.assert_array_equal(inter, want_inter)
        np.testing.assert_array_equal(union, want_union)


class TestNarrowLabels:
    """Counts over narrow labels equal int64 bincounts, with no widened copy."""

    def test_300_classes_equal_bincount(self):
        rng = np.random.default_rng(7)
        n_cla = 300
        names = tuple(f"c{m}" for m in range(n_cla))
        gt = rng.integers(0, n_cla, size=(10, 12, 9))
        pred = np.where(rng.random(gt.shape) < 0.5, gt, rng.integers(0, n_cla, size=gt.shape))
        inter, union = class_counts(OccupancyGrid(pred, names), OccupancyGrid(gt, names))
        pairs = np.bincount(pred.ravel() * n_cla + gt.ravel(), minlength=n_cla * n_cla)
        confusion = pairs.reshape(n_cla, n_cla)
        want_inter = confusion.diagonal()
        np.testing.assert_array_equal(inter, want_inter)
        np.testing.assert_array_equal(union, confusion.sum(axis=0) + confusion.sum(axis=1) - want_inter)
        assert inter.dtype == union.dtype == np.int64

    def test_miou_peak_memory_below_a_widened_grid(self, peak_bytes):
        # bev_wide's 200 x 200 x 16 grid: 640 kB of uint8 labels, 5.1 MB as int64.
        rng = np.random.default_rng(3)
        names = ("free", "crate", "pillar", "barrier")
        gt = OccupancyGrid(rng.integers(0, 4, size=(200, 200, 16)), names)
        pred = OccupancyGrid(rng.integers(0, 4, size=(200, 200, 16)), names)
        assert peak_bytes(miou, pred, gt) < 2 << 20


class TestReportCsv:
    def test_layout(self, tmp_path):
        gt = grid(np.array([0, 0, 1, 1]).reshape(1, 1, 4), ("free", "a"))
        pred = grid(np.array([0, 1, 1, 1]).reshape(1, 1, 4), ("free", "a"))
        report = miou(pred, gt)
        path = tmp_path / "iou.csv"
        write_iou_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "class,intersection,union,iou"
        assert lines[1].startswith("free,1,2,0.5")
        assert lines[-1].startswith("miou,")

    def test_absent_marker(self, tmp_path):
        gt = grid(np.zeros((1, 1, 2), dtype=int))
        report = miou(gt, gt)
        write_iou_csv(report, tmp_path / "iou.csv")
        body = (tmp_path / "iou.csv").read_text()
        assert "absent" in body

    def test_counts_aggregation_helper(self):
        report = report_from_counts(
            np.array([3, 0]), np.array([4, 0]), ("free", "a")
        )
        assert isinstance(report, IoUReport)
        assert report.miou == pytest.approx(0.75)
        assert report.per_class[1] is None
