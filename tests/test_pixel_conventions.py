"""Each pixel convention has one implementation; these pin it to the bytes of
the references in `reference.py`, which are the earlier bodies it replaced: a
bilinear sampler with one boolean-masked gather per corner, a gradient that
reads its corners one by one, an illumination field and a column grid
projected in one call, and a projection that divides by a safe depth
everywhere. The projection reference forms its product in the order the
projection promises, since a BLAS product's bits depend on the CPU's kernel.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nightbev.geometry
import reference as ref
from nightbev.core import PixelCoord, Tensor3, bilinear_sample_grad, bilinear_sample_many
from nightbev.geometry import (
    COLUMN_BLOCK,
    DEPTH_EPS,
    BevSpec,
    CameraMatrix,
    column_blocks,
    illumination_field,
    pixel_centers,
    project_points,
    sample_heights,
)
from nightbev.pipeline import PipelineConfig, build_params
from reference import overhead_camera

INF = float("inf")


def map_data(channels, height, width):
    """Map values with signed zeros and exact integers among them."""
    values = st.one_of(
        st.floats(-4.0, 4.0, allow_subnormal=False),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    )
    dtypes = st.sampled_from([np.float64, np.float32])
    return dtypes.flatmap(lambda dt: arrays(dt, (channels, height, width), elements=values))


def coordinate(size):
    """A position along an axis of `size` pixels: inside, on an edge, far off or infinite."""
    return st.one_of(
        st.floats(-3.0, size + 2.0),
        st.integers(-2, size + 1).map(float),
        st.just(float(size - 1)),  # exactly on the last row or column
        st.sampled_from([-0.0, -1e6, 1e6, -1e300, 1e300, -INF, INF]),
    )


@st.composite
def map_and_points(draw, finite=False):
    c = draw(st.integers(1, 3))
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    f = Tensor3(draw(map_data(c, h, w)))
    n = draw(st.integers(1, 24))
    us, vs = coordinate(w), coordinate(h)
    if finite:
        us, vs = (s.filter(np.isfinite) for s in (us, vs))
    u = np.array(draw(st.lists(us, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(vs, min_size=n, max_size=n)))
    return f, u, v


class TestBilinearOracle:
    @settings(max_examples=250)
    @given(map_and_points())
    @example((Tensor3(np.full((1, 1, 1), -0.0)), np.array([0.0, -0.0, 0.5]), np.array([0.0, 0.0, -0.5])))
    @example((Tensor3(np.full((2, 1, 1), 3.0)), np.array([-INF, INF, 0.0]), np.array([0.0, 0.0, INF])))
    def test_bytes_equal_masked_reference(self, case):
        f, u, v = case
        out = bilinear_sample_many(f, u, v)
        assert out.shape == (f.channels, u.size)
        assert out.tobytes() == ref.bilinear_sample_many(f, u, v).tobytes()

    @settings(max_examples=100)
    @given(map_and_points())
    def test_broadcast_shapes_match_reference(self, case):
        f, u, v = case
        u2, v2 = u[:, None], v[None, :3]
        assert bilinear_sample_many(f, u2, v2).tobytes() == ref.bilinear_sample_many(f, u2, v2).tobytes()
        one = bilinear_sample_many(f, u[0], v[0])
        assert one.shape == (f.channels,)
        assert one.tobytes() == ref.bilinear_sample_many(f, u[0], v[0]).tobytes()

    def test_non_finite_positions_read_positive_zero_without_warnings(self):
        f = Tensor3(np.full((2, 3, 4), -0.5))
        u = np.array([INF, -INF, 1.0, float("nan"), 1e300])
        v = np.array([1.0, 1.0, -INF, 1.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bilinear_sample_many(f, u, v)
        assert out.tobytes() == np.zeros((2, 5)).tobytes()

    def test_last_row_and_column_read_the_corner_pixel(self):
        data = np.arange(12, dtype=np.float64).reshape(1, 3, 4)
        out = bilinear_sample_many(Tensor3(data), [3.0, 3.0, 3.5], [2.0, 2.5, 2.0])
        np.testing.assert_array_equal(out[0], [11.0, 5.5, 5.5])


class TestBilinearGradOracle:
    @settings(max_examples=200)
    @given(map_and_points(finite=True))
    @example((Tensor3(np.full((1, 1, 1), -0.0)), np.array([0.0, -0.0]), np.array([-0.0, 0.5])))
    def test_value_and_partials_equal_reference_bytes(self, case):
        f, u, v = case
        for at in zip(u, v):
            got = bilinear_sample_grad(f, PixelCoord(*at))
            expected = ref.bilinear_sample_grad(f, at)
            for g, e in zip(got, expected):
                assert np.asarray(g).tobytes() == np.asarray(e).tobytes()


class TestIlluminationFieldOracle:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(
        cells=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        n_z=st.integers(1, 6),
        hw=st.tuples(st.integers(1, 10), st.integers(1, 10)),
        f_scale=st.floats(0.2, 6.0),
        shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        tilt=st.sampled_from([0.0, 0.3, -1.5]),
        block=st.sampled_from([1, 7, 40, COLUMN_BLOCK]),
        data=st.data(),
    )
    def test_bytes_equal_reference(self, cells, n_z, hw, f_scale, shift, tilt, block, data):
        spec = ref.small_grid(cells)
        i = Tensor3(data.draw(map_data(1, *hw)))
        try:
            m = overhead_camera(spec, *hw, f_scale, shift, tilt)
        except ValueError as exc:  # the 3x3 block's determinant is f * (f - cu * tilt)
            assert "singular" in str(exc)
            reject()
        with mock.patch.object(nightbev.geometry, "COLUMN_BLOCK", block):  # blocks of rows
            field = illumination_field(i, m, spec, n_z)
        assert field.tobytes() == ref.illumination_field(i, m, spec, n_z).tobytes()


def column_pixels(m, spec, n_z, height, width):
    """`column_blocks`' blocks stacked into the whole (X, Y, n_z) index, after
    checking that they come in row order, cover the grid and keep to the size."""
    blocks = list(column_blocks(m, spec, n_z, height, width))
    starts = [rows.start for rows, _ in blocks]
    assert starts[0] == 0 and [rows.stop for rows, _ in blocks] == starts[1:] + [spec.nx]
    most = max(nightbev.geometry.COLUMN_BLOCK, spec.ny * n_z)
    assert all(pixel.shape == (rows.stop - rows.start, spec.ny, n_z) for rows, pixel in blocks)
    assert all(pixel.size <= most for _, pixel in blocks)
    return np.concatenate([pixel for _, pixel in blocks])


def assert_same_bytes(got, expected):
    for g, e in zip(got, expected, strict=True):
        assert g.dtype == e.dtype and g.shape == e.shape and g.tobytes() == e.tobytes()


class TestColumnPixels:
    def test_projection_floors_and_gate(self):
        spec = BevSpec(x_range=(-1.0, 3.0), y_range=(2.0, 5.0), z_range=(-1.0, 2.0), voxel=0.5)
        m = overhead_camera(spec, 6, 7, 1.6, (1.0, -0.5), -3.0)
        pixel = column_pixels(m, spec, 4, 6, 7)
        u, v, valid, in_map = ref.column_samples(m, spec, 4, 6, 7)
        iu, iv = np.floor(u), np.floor(v)
        assert pixel.dtype == np.int64 and pixel.shape == (8, 6, 4)
        np.testing.assert_array_equal(pixel >= 0, in_map)
        np.testing.assert_array_equal(pixel[in_map], iv[in_map] * 7 + iu[in_map])
        np.testing.assert_array_equal(pixel[~in_map], -1)
        assert not valid.all() and 0 < in_map.sum() < valid.sum()

    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(
        view=ref.grid_views(),
        n_z=st.integers(1, 6),
        block=st.sampled_from([1, 2, 3, 5, 7, 16, 40, COLUMN_BLOCK]),
    )
    def test_bytes_equal_full_grid_reference(self, view, n_z, block):
        spec, m, (h, w) = view
        with mock.patch.object(nightbev.geometry, "COLUMN_BLOCK", block):
            got = column_pixels(m, spec, n_z, h, w)
        assert_same_bytes([got], [ref.column_pixels(m, spec, n_z, h, w)])

    @pytest.mark.parametrize(
        "ny,n_z,nx",
        [
            (100, 16, 45),  # 20 rows per block: blocks of 20, 20 and 5 rows
            (4097, 8, 3),  # a row holds more than COLUMN_BLOCK points: one row per block
            (32769, 1, 2),
            (20, 1, 1700),  # one height: 1638 rows per block, the last block 62 rows
        ],
    )
    def test_block_boundaries_at_the_real_block_size(self, ny, n_z, nx):
        half_y = 0.125 * ny
        spec = BevSpec(x_range=(0.0, 0.25 * nx), y_range=(-half_y, half_y), z_range=(-1.0, 2.0), voxel=0.25)
        m = overhead_camera(spec, 48, 64, 2.0, (2.0, -1.0), 0.3)
        got = column_pixels(m, spec, n_z, 48, 64)
        assert_same_bytes([got], [ref.column_pixels(m, spec, n_z, 48, 64)])
        assert 0 < (got >= 0).sum() < got.size

    @pytest.mark.parametrize(
        "ny,n_z,nx",
        [
            (4097, 8, 3),  # one row per block
            (100, 16, 45),  # blocks of 20, 20 and 5 rows: the last reads a prefix of the tiled z·c
        ],
    )
    @pytest.mark.parametrize("lean", [1.0, -1.0])
    def test_block_boundaries_with_samples_behind_the_camera(self, ny, n_z, nx, lean):
        # Depth lean·(x - z) + DEPTH_EPS: samples on one side of the plane x = z
        # are behind the camera, and those on it sit exactly at DEPTH_EPS,
        # which is not in front. Grid rows start at a sample height so the
        # plane passes through samples.
        z_k = sample_heights(BevSpec(z_range=(-1.0, 2.0), voxel=0.25), n_z)[n_z // 2]
        half_y = 0.125 * ny
        x0 = z_k - 0.125
        spec = BevSpec(x_range=(x0, x0 + 0.25 * nx), y_range=(-half_y, half_y), z_range=(-1.0, 2.0), voxel=0.25)
        m = CameraMatrix([[0.0, 0.0625, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [lean, 0.0, -lean, DEPTH_EPS]])
        got = column_pixels(m, spec, n_z, 48, 64)
        assert_same_bytes([got], [ref.column_pixels(m, spec, n_z, 48, 64)])
        _, _, depth, valid = project_points(m, [spec.x_centers()[0], spec.y_centers()[0], z_k])
        assert depth == DEPTH_EPS and not valid
        assert 0 < (got >= 0).sum() < got.size


class TestProjectPointsBits:
    def test_awkward_inputs_keep_the_old_bits(self):
        m = CameraMatrix([[2.0, 0.0, 0.5, 1.0], [0.0, -1.5, 0.25, 2.0], [0.0, 0.0, 1.0, 0.0]])
        z_edges = [DEPTH_EPS, np.nextafter(DEPTH_EPS, 1.0), np.nextafter(DEPTH_EPS, 0.0), 0.0, -0.0, -2.0]
        odd = [INF, -INF, float("nan"), 1e300, -1e300]
        points = [[0.3, -0.7, z] for z in z_edges] + [[x, 1.0, 3.0] for x in odd]
        points += [[1.0, 2.0, z] for z in odd] + [[1.0, y, 2.0] for y in odd]
        batch = np.array(points)
        cases = [batch[0], batch[7], batch[:1], batch[5:6], batch, batch[:, None, :], batch.reshape(3, 7, 3)]
        for pts in cases:
            with warnings.catch_warnings():  # inf / inf in front of the camera is NaN
                warnings.simplefilter("ignore", RuntimeWarning)
                got = [np.asarray(a) for a in project_points(m, pts)]
            assert_same_bytes(got, [np.asarray(a) for a in ref.project_points(m, pts)])
            u, v, _, valid = got
            for a in (u, v):  # +0.0, not -0.0, wherever the sample is invalid
                assert not np.signbit(a[~valid]).any() and (a[~valid] == 0.0).all()
        valid = got[3].ravel()  # the last case holds every point once
        assert not valid[0] and valid[1]  # depth exactly DEPTH_EPS is not in front of the camera
        assert not valid[2:6].any()

    @settings(max_examples=150)
    @given(
        matrix=arrays(np.float64, (3, 4), elements=st.floats(-4.0, 4.0)),
        pts=arrays(
            np.float64,
            st.sampled_from([(3,), (1, 3), (4, 3), (2, 1, 3), (3, 2, 3)]),
            elements=st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0, INF, -INF, float("nan")])),
        ),
    )
    # inf * 0 makes a NaN depth whose sign bit depends on the numpy loop that made it.
    @example(np.eye(3, 4), np.array([float("nan"), INF, INF]))
    def test_bytes_equal_safe_depth_reference(self, matrix, pts):
        """u, v and valid keep every byte; depth, which Projection calls meaningful
        only when valid, keeps its bytes where valid and is NaN where the
        reference's is. A NaN depth is never valid."""
        try:
            m = CameraMatrix(matrix)
        except ValueError:
            reject()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u, v, depth, valid = [np.asarray(a) for a in project_points(m, pts)]
        ref_u, ref_v, ref_depth, ref_valid = [np.asarray(a) for a in ref.project_points(m, pts)]
        assert_same_bytes([u, v, valid], [ref_u, ref_v, ref_valid])
        assert depth.dtype == ref_depth.dtype and depth.shape == ref_depth.shape
        assert depth[valid].tobytes() == ref_depth[valid].tobytes()
        np.testing.assert_array_equal(np.isnan(depth), np.isnan(ref_depth))


# Computes one case saved by TestSameBytesOnEveryBlasKernel and prints the
# sha256 of its output bytes.
KERNEL_CHILD = """
import hashlib, sys
import numpy as np
from nightbev.bev import AttentionParams, residual_query
from nightbev.core import Tensor3
from nightbev.geometry import BevSpec, CameraMatrix, project_points
from nightbev.guided_sampling import ConvParams
from nightbev.pipeline import encode_image
a = np.load(sys.argv[2])
if sys.argv[1] == "encode_image":
    enc1, enc2 = ConvParams(a["k1"], a["b1"]), ConvParams(a["k2"], a["b2"])
    out = [encode_image(Tensor3(a["x"]), enc1, enc2).data]
elif sys.argv[1] == "project_points":
    out = project_points(CameraMatrix(a["m"]), a["pts"])
else:
    m = CameraMatrix(a["m"])
    spec = BevSpec(*map(tuple, a["ranges"]), voxel=float(a["voxel"]))
    params = AttentionParams(a["ow"], a["aw"])
    out = [residual_query(Tensor3(a["q"]), Tensor3(a["f"]), m, spec, int(a["n_z"]), params).data]
print(hashlib.sha256(b"".join(np.asarray(x).tobytes() for x in out)).hexdigest())
"""


class TestSameBytesOnEveryBlasKernel:
    """The bytes do not depend on the BLAS kernel the CPU selects.

    OpenBLAS picks its kernel for the CPU at run time; OPENBLAS_CORETYPE
    forces the generic Prescott one in a child process. Where the default
    kernel is the same one, the two runs agree trivially.
    """

    @staticmethod
    def case(name):
        rng = np.random.default_rng(11)
        if name == "encode_image":
            params = build_params(PipelineConfig(), 2, 8)
            return {
                "x": rng.uniform(size=(3, 64, 96)),
                "k1": params.enc1.kernel, "b1": params.enc1.bias,
                "k2": params.enc2.kernel, "b2": params.enc2.bias,
            }
        if name == "project_points":
            m = CameraMatrix(rng.normal(size=(3, 4)))
            return {"m": m.matrix, "pts": rng.normal(size=(4096, 3)) * 10.0}
        spec = BevSpec(x_range=(0.0, 16.0), y_range=(-8.0, 8.0), z_range=(-1.0, 2.0), voxel=0.5)
        return {
            "m": overhead_camera(spec, 24, 32, 1.0, (0.3, -0.2), 0.05).matrix,
            "ranges": [spec.x_range, spec.y_range, spec.z_range],
            "voxel": spec.voxel,
            "n_z": 4,
            "q": rng.normal(size=(8, spec.nx, spec.ny)),
            "f": rng.normal(size=(8, 24, 32)),
            "ow": rng.normal(size=(8, 8)) * 0.5,
            "aw": rng.normal(size=(4, 8)),
        }

    @pytest.mark.parametrize("name", ["project_points", "residual_query", "encode_image"])
    def test_default_and_generic_kernels_agree(self, tmp_path, name):
        np.savez(tmp_path / "case.npz", **self.case(name))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        digests = []
        for coretype in (None, "Prescott"):
            child_env = env if coretype is None else {**env, "OPENBLAS_CORETYPE": coretype}
            proc = subprocess.run(
                [sys.executable, "-c", KERNEL_CHILD, name, str(tmp_path / "case.npz")],
                env=child_env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]


def test_pixel_centers_sit_half_a_pixel_in():
    grid = pixel_centers(2, 3)
    assert grid.shape == (3, 2, 3)
    np.testing.assert_array_equal(grid[0], [[0.5, 1.5, 2.5], [0.5, 1.5, 2.5]])
    np.testing.assert_array_equal(grid[1], [[0.5, 0.5, 0.5], [1.5, 1.5, 1.5]])
    np.testing.assert_array_equal(grid[2], 1.0)
