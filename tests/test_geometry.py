"""Projection, BEV grid spec, height sampling, and the illumination field."""

import dataclasses
import warnings

import numpy as np
import pytest

from nightbev.core import Tensor3
from nightbev.geometry import (
    BevSpec,
    CameraMatrix,
    _axis_cells,
    field_to_tensor,
    illumination_field,
    project_point,
    project_points,
    sample_heights,
)
from nightbev.scene import SceneConfig, default_camera
from reference import column_camera, identity_camera, random_camera


class TestCameraMatrix:
    def test_rejects_singular_block(self):
        m = np.zeros((3, 4))
        m[0, 0] = m[1, 1] = 1.0  # rank-2 left block
        with pytest.raises(ValueError, match="singular"):
            CameraMatrix(m)

    def test_rejects_subnormal_singular_block_without_a_warning(self):
        # np.linalg.det warns "divide by zero" on this block unless told not to.
        block = [[-0.0, -0.0, 4.0], [-5e-324, 4.0, -1.0], [5e-324, 4.0, 2.2250738585072014e-308]]
        m = np.hstack([block, np.zeros((3, 1))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="singular"):
                CameraMatrix(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3x4"):
            CameraMatrix(np.eye(3))

    def test_from_list_round_trip(self):
        values = [2.0, 0, 1, 4, 0, 3, 1, 5, 0, 0, 1, 6]
        cam = CameraMatrix.from_list(values)
        assert cam.to_list() == [float(v) for v in values]

    def test_json_file_round_trip(self, tmp_path):
        import json

        cam = identity_camera((0.0, 1.0, 2.0))
        path = tmp_path / "cam.json"
        path.write_text(json.dumps({"matrix": cam.to_list()}))
        again = CameraMatrix.from_json_file(path)
        np.testing.assert_array_equal(again.matrix, cam.matrix)


class TestProjectPoint:
    def test_canonical_pinhole_division(self):
        p = project_point(identity_camera(), 2.0, 4.0, 2.0)
        assert p.valid
        assert (p.u, p.v, p.depth) == (1.0, 2.0, 2.0)

    def test_behind_camera_is_invalid(self):
        assert not project_point(identity_camera(), 0.0, 0.0, -1.0).valid

    def test_translation_column(self):
        p = project_point(identity_camera((0.0, 0.0, 1.0)), 0.0, 0.0, 1.0)
        assert p.valid
        assert (p.u, p.v, p.depth) == (0.0, 0.0, 2.0)

    def test_reprojection_identity(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 100:
            cam = random_camera(rng)
            pt = rng.uniform(-5, 5, size=3)
            proj = project_point(cam, *pt)
            if not proj.valid:
                continue
            lhs = proj.depth * np.array([proj.u, proj.v, 1.0])
            rhs = cam.matrix @ np.append(pt, 1.0)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)
            checked += 1

    def test_vectorized_matches_scalar(self):
        # Batched and single-point matmuls may round differently in the
        # last ulp, so this is a tolerance check, not a bitwise one.
        rng = np.random.default_rng(5)
        cam = random_camera(rng)
        pts = rng.uniform(-3, 3, size=(10, 3))
        u, v, d, valid = project_points(cam, pts)
        for i in range(10):
            p = project_point(cam, *pts[i])
            assert valid[i] == p.valid
            if p.valid:
                np.testing.assert_allclose(
                    [u[i], v[i], d[i]], [p.u, p.v, p.depth], rtol=1e-12
                )


class TestBevSpec:
    def test_default_dims(self):
        spec = BevSpec()
        assert (spec.nx, spec.ny, spec.nz) == (200, 200, 16)

    def test_desk_scale_dims(self):
        spec = BevSpec(x_range=(0, 8), y_range=(-4, 4), z_range=(-1, 2.2), voxel=0.4)
        assert (spec.nx, spec.ny, spec.nz) == (20, 20, 8)

    def test_non_divisible_range_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            BevSpec(x_range=(0, 1), voxel=0.3)

    def test_cell_centers(self):
        spec = BevSpec(x_range=(0, 2), y_range=(0, 2), z_range=(0, 2), voxel=1.0)
        np.testing.assert_allclose(spec.x_centers(), [0.5, 1.5])

    def test_dict_round_trip(self):
        spec = BevSpec(x_range=(0, 4), y_range=(-2, 2), z_range=(0, 2), voxel=0.5)
        again = BevSpec.from_dict(spec.to_dict())
        assert again == spec

    @pytest.mark.parametrize("voxel", [0.4, 0.2, 0.1])
    def test_cell_counts_are_fixed_at_construction(self, voxel):
        desk = BevSpec(x_range=(0, 8), y_range=(-4, 4), z_range=(-1, 2.2), voxel=0.4)
        spec = dataclasses.replace(desk, voxel=voxel)
        ranges = {"x": spec.x_range, "y": spec.y_range, "z": spec.z_range}
        counts = [_axis_cells(*r, voxel, axis) for axis, r in ranges.items()]
        assert [spec.nx, spec.ny, spec.nz] == counts == [round(8 / voxel)] * 2 + [round(3.2 / voxel)]
        assert not any(isinstance(getattr(BevSpec, n, None), property) for n in ("nx", "ny", "nz"))
        assert "nx" not in repr(spec)


class TestSampleHeights:
    def test_uniform_centers(self):
        spec = BevSpec(x_range=(0, 4), y_range=(0, 4), z_range=(0, 4), voxel=1.0)
        np.testing.assert_allclose(sample_heights(spec, 4), [0.5, 1.5, 2.5, 3.5])

    def test_single_sample_is_midpoint(self):
        spec = BevSpec(x_range=(0, 8), y_range=(0, 8), z_range=(-1, 5.4), voxel=0.4)
        np.testing.assert_allclose(sample_heights(spec, 1), [2.2])

    def test_two_samples(self):
        spec = BevSpec(x_range=(0, 1), y_range=(0, 1), z_range=(0, 1), voxel=0.5)
        np.testing.assert_allclose(sample_heights(spec, 2), [0.25, 0.75])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="n_z"):
            sample_heights(BevSpec(), 0)


class TestIlluminationField:
    def test_constant_map_recovers_value(self):
        spec = BevSpec(x_range=(0, 2), y_range=(0, 2), z_range=(0, 4), voxel=1.0)
        i = Tensor3.full(1, 8, 4, 1.0)
        field = illumination_field(i, column_camera(), spec, n_z=4)
        cell = field[0, 0]  # center (0.5, 0.5): u=1, v in {1,3,5,7}, all in-image
        assert cell == 1.0

    def test_four_sample_mean(self):
        spec = BevSpec(x_range=(0, 2), y_range=(0, 2), z_range=(0, 4), voxel=1.0)
        data = np.zeros((1, 8, 4))
        data[0, 1, 1] = 0.2
        data[0, 3, 1] = 0.4
        data[0, 5, 1] = 0.6
        data[0, 7, 1] = 0.8
        field = illumination_field(Tensor3(data), column_camera(), spec, n_z=4)
        assert field[0, 0] == pytest.approx(0.5)

    def test_cell_behind_camera_is_zero(self):
        spec = BevSpec(x_range=(0, 2), y_range=(-2, 0), z_range=(0, 4), voxel=1.0)
        i = Tensor3.full(1, 8, 4, 0.9)
        field = illumination_field(i, column_camera(), spec, n_z=4)
        np.testing.assert_array_equal(field, 0.0)  # y<0 means negative depth

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            cam = random_camera(rng)
            i = Tensor3(rng.uniform(0.01, 1.0, size=(1, 6, 8)))
            spec = BevSpec(x_range=(-2, 2), y_range=(-2, 2), z_range=(0, 2), voxel=1.0)
            field = illumination_field(i, cam, spec, n_z=3)
            assert field.min() >= 0.0 and field.max() <= 1.0

    def test_monotone_in_illumination(self):
        rng = np.random.default_rng(11)
        spec = BevSpec(x_range=(-2, 2), y_range=(-2, 2), z_range=(0, 2), voxel=0.5)
        for _ in range(20):
            cam = random_camera(rng)
            base = rng.uniform(0.01, 0.8, size=(1, 6, 8))
            bumped = np.clip(base + rng.uniform(0, 0.2, size=base.shape), 0.01, 1.0)
            f1 = illumination_field(Tensor3(base), cam, spec, n_z=4)
            f2 = illumination_field(Tensor3(bumped), cam, spec, n_z=4)
            assert (f2 >= f1 - 1e-12).all()

    def test_floor_discretization_stable_under_subpixel_shift(self):
        # Cell centers x in {0.125, 0.375}, y in {1.25 .. 2.75}: every
        # projected u = x/y lands in (0, 0.3], so a +0.49 shift never
        # crosses an integer pixel boundary.
        spec = BevSpec(x_range=(0, 0.5), y_range=(1, 3), z_range=(0, 4), voxel=0.25)
        i = Tensor3(np.random.default_rng(13).uniform(0.01, 1, size=(1, 8, 4)))
        cam = column_camera()
        base = illumination_field(i, cam, spec, n_z=4)
        assert base.min() > 0  # every cell saw the image
        shifted = cam.matrix.copy()
        shifted[0] += 0.49 * shifted[2]  # u' = u + 0.49 at equal depth
        moved = illumination_field(i, CameraMatrix(shifted), spec, n_z=4)
        np.testing.assert_array_equal(moved, base)

    def test_peak_memory_at_bev_wides_shape(self, peak_bytes):
        # A 200 x 200 grid sampled at 16 heights (640,000 samples) in a 128 x 192
        # map: a whole-grid int64 index alone would be 4.9 MiB.
        spec = BevSpec(x_range=(0.0, 40.0), y_range=(-20.0, 20.0), z_range=(-1.0, 2.2), voxel=0.2)
        m = default_camera(SceneConfig(height=128, width=192, bev=spec))
        i = Tensor3(np.random.default_rng(17).uniform(0.01, 1.0, size=(1, 128, 192)))
        assert peak_bytes(illumination_field, i, m, spec, 16) < 5 << 20

    def test_field_to_tensor_wraps(self):
        t = field_to_tensor(np.zeros((3, 4)))
        assert t.shape == (1, 3, 4)
