"""Voxel-wise IoU metrics with class-presence exclusion.

Classes with no voxels in either grid are marked absent and excluded from
the mean; classes predicted but missing from the ground truth score 0 and
stay in.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import frozen_array


def label_dtype(n_classes: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every class id below `n_classes`:
    uint8 up to 256 classes. Arithmetic on labels must widen them first."""
    return np.min_scalar_type(n_classes - 1)


@dataclass(frozen=True)
class OccupancyGrid:
    """X x Y x Z integer class labels plus the class name table.

    The labels are one read-only, C-ordered copy in `label_dtype` of the table.
    """

    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels)
        if arr.ndim != 3:
            raise ValueError(f"occupancy labels must be 3D, got {arr.ndim} dims")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("occupancy labels must be integers")
        names = tuple(str(n) for n in self.class_names)
        if not names:
            raise ValueError("class table must be non-empty")
        if arr.size and (arr.min() < 0 or arr.max() >= len(names)):
            raise ValueError(f"labels must lie in [0, {len(names)})")
        arr = frozen_array(arr, "occupancy labels", label_dtype(len(names)))
        object.__setattr__(self, "labels", arr)
        object.__setattr__(self, "class_names", names)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape


@dataclass(frozen=True)
class IoUReport:
    per_class: tuple[float | None, ...]
    intersections: tuple[int, ...]
    unions: tuple[int, ...]
    miou: float
    evaluated_classes: tuple[int, ...]
    class_names: tuple[str, ...]


def class_counts(pred: OccupancyGrid, gt: OccupancyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-class intersection and union voxel counts, as int64.

    Each class is counted with `count_nonzero` over two reused boolean masks,
    so no widened copy of either grid exists and no arithmetic is done in the
    labels' narrow dtype.
    """
    if pred.dims != gt.dims:
        raise ValueError(f"grid dims differ: {pred.dims} vs {gt.dims}")
    if pred.class_names != gt.class_names:
        raise ValueError("grids carry different class tables")
    n = len(gt.class_names)
    inter, union = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    in_pred, in_gt = np.empty(gt.dims, dtype=bool), np.empty(gt.dims, dtype=bool)
    for m in range(n):
        np.equal(pred.labels, m, out=in_pred)
        np.equal(gt.labels, m, out=in_gt)
        union[m] = np.count_nonzero(in_pred) + np.count_nonzero(in_gt)
        inter[m] = np.count_nonzero(np.logical_and(in_pred, in_gt, out=in_pred))
    union -= inter
    return inter, union


def report_from_counts(
    inter: np.ndarray, union: np.ndarray, class_names
) -> IoUReport:
    """Build an IoU report from raw counts; absent classes are excluded."""
    names = tuple(str(n) for n in class_names)
    inter = np.asarray(inter, dtype=np.int64)
    union = np.asarray(union, dtype=np.int64)
    if inter.shape != union.shape or inter.shape != (len(names),):
        raise ValueError("count arrays must match the class table")
    per_class: list[float | None] = []
    evaluated: list[int] = []
    for m in range(len(names)):
        if union[m] == 0:
            per_class.append(None)
        else:
            per_class.append(float(inter[m]) / float(union[m]))
            evaluated.append(m)
    if not evaluated:
        raise ValueError("no class is present in either grid")
    miou = float(np.mean([per_class[m] for m in evaluated]))
    return IoUReport(
        per_class=tuple(per_class),
        intersections=tuple(int(x) for x in inter),
        unions=tuple(int(x) for x in union),
        miou=miou,
        evaluated_classes=tuple(evaluated),
        class_names=names,
    )


def miou(pred: OccupancyGrid, gt: OccupancyGrid) -> IoUReport:
    """Mean IoU over the classes present in at least one of the grids."""
    inter, union = class_counts(pred, gt)
    return report_from_counts(inter, union, gt.class_names)


def write_iou_csv(report: IoUReport, path) -> None:
    """One row per class (name, intersection, union, IoU), then the mIoU row."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "intersection", "union", "iou"])
        for m, name in enumerate(report.class_names):
            iou = report.per_class[m]
            writer.writerow(
                [
                    name,
                    report.intersections[m],
                    report.unions[m],
                    "absent" if iou is None else f"{iou:.6f}",
                ]
            )
        writer.writerow(["miou", "", "", f"{report.miou:.6f}"])
