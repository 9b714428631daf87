"""Depth/context split, BEV pooling with conservation oracle, residual queries,
and illumination-weighted refinement."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

import nightbev.bev
import reference as ref
from nightbev.bev import (
    AttentionParams,
    DepthContext,
    bev_pool,
    depth_bin_centers,
    depth_context_split,
    refine_bev,
    residual_query,
)
from nightbev.core import PixelCoord, Tensor3, bilinear_sample, bilinear_sample_many, level_blocks
from nightbev.geometry import BevSpec, CameraMatrix, sample_heights
from nightbev.guided_sampling import ConvParams
from nightbev.scene import SceneConfig, default_camera
from reference import column_camera, identity_camera, overhead_camera


def make_dc(f_ctx, depth, d_min=1.0, d_max=20.0) -> DepthContext:
    return DepthContext(
        f_ctx=f_ctx,
        depth=depth,
        bin_centers=depth_bin_centers(d_min, d_max, depth.channels),
    )


def hires_pool_case(channels):
    """hires_near's 112 x 200 feature map with 16 depth bins, seen by the scene camera
    of a 112 x 200 image over the desk grid."""
    rng = np.random.default_rng(channels)
    logits = rng.normal(size=(16, 112, 200))
    depth = Tensor3(np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True))
    dc = make_dc(Tensor3(rng.normal(size=(channels, 112, 200))), depth)
    spec = BevSpec(x_range=(0.0, 8.0), y_range=(-4.0, 4.0), z_range=(-1.0, 2.2), voxel=0.4)
    return dc, default_camera(SceneConfig(height=112, width=200, bev=spec)), spec


class TestDepthBinCenters:
    def test_uniform_centers(self):
        np.testing.assert_allclose(
            depth_bin_centers(1.0, 5.0, 4), [1.5, 2.5, 3.5, 4.5]
        )

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError, match="d_min"):
            depth_bin_centers(5.0, 1.0, 4)


class TestDepthContext:
    @pytest.mark.parametrize("centers", [[1.0, np.inf], [np.nan, 2.0]])
    def test_rejects_non_finite_centers(self, centers):
        f_ctx, depth = Tensor3.zeros(1, 1, 1), Tensor3.full(2, 1, 1, 0.5)
        with pytest.raises(ValueError, match="^bin centers must be finite$"):
            DepthContext(f_ctx, depth, np.array(centers))


class TestDepthContextSplit:
    def test_zero_parameters_give_uniform_depth(self):
        f = Tensor3(np.random.default_rng(3).normal(size=(2, 3, 4)))
        dc = depth_context_split(f, ref.conv_params(2 + 8, 2, 1), depth_bin_centers(1.0, 20.0, 8))
        np.testing.assert_array_equal(dc.depth.data, 1.0 / 8.0)
        np.testing.assert_array_equal(dc.f_ctx.data, 0.0)

    def test_large_bias_concentrates_one_bin(self):
        f = Tensor3(np.random.default_rng(5).normal(size=(1, 3, 3)))
        bias = np.zeros(1 + 4)
        bias[1 + 2] = 10.0  # third depth bin
        dc = depth_context_split(f, ref.conv_params(5, 1, 1, bias=bias), depth_bin_centers(1.0, 20.0, 4))
        assert (dc.depth.data[2] > 0.999).all()

    def test_depth_sums_to_one_for_random_params(self):
        rng = np.random.default_rng(7)
        f = Tensor3(rng.normal(size=(3, 4, 5)))
        params = ref.conv_params(
            2 + 6, 3, kernel=rng.normal(size=(8, 3, 1, 1)), bias=rng.normal(size=8)
        )
        dc = depth_context_split(f, params, bin_centers=depth_bin_centers(1.0, 20.0, 6))
        np.testing.assert_allclose(dc.depth.data.sum(axis=0), 1.0, atol=1e-6)

    def test_context_channels_pass_through(self):
        rng = np.random.default_rng(11)
        f = Tensor3(rng.normal(size=(2, 3, 3)))
        kernel = np.zeros((3, 2, 1, 1))
        kernel[0, 1, 0, 0] = 2.0  # ctx channel = 2 * input channel 1
        params = ref.conv_params(3, 2, kernel=kernel)
        dc = depth_context_split(f, params, depth_bin_centers(1.0, 20.0, 2))
        np.testing.assert_allclose(dc.f_ctx.data[0], 2.0 * f.data[1], rtol=1e-12)

    def test_bytes_equal_whole_map_references(self):
        # 8 context channels and 16 bins over an 8 x 50 x 800 feature: the 1x1 conv
        # runs in several bands, the last one short, and the softmax works in place.
        rng = np.random.default_rng(13)
        f = Tensor3(rng.normal(size=(8, 50, 800)))
        params = ref.conv_params(24, 8, 1, kernel=rng.normal(size=(24, 8, 1, 1)), bias=rng.normal(size=24))
        dc = depth_context_split(f, params, depth_bin_centers(1.0, 20.0, 16))
        raw = ref.conv2d(f, params.kernel, params.bias)
        assert dc.f_ctx.data.tobytes() == raw[:8].tobytes()
        assert dc.depth.data.tobytes() == ref.softmax(raw[8:], axis=0).tobytes()

    def test_one_pixel_map_gets_the_bytes_of_a_wider_one(self):
        # numpy sums a (16, 1, 1) run pairwise but a (16, 1, 2) array bin by bin;
        # the softmax denominator adds the bins one by one on every map. One input
        # channel keeps the conv's own sum out of the comparison.
        rng = np.random.default_rng(17)
        params = ref.conv_params(17, 1, 1, kernel=rng.normal(size=(17, 1, 1, 1)), bias=rng.normal(size=17))
        centers = depth_bin_centers(1.0, 20.0, 16)
        for _ in range(20):
            wide = Tensor3(rng.normal(size=(1, 1, 2)))
            one = depth_context_split(Tensor3(wide.data[:, :, :1]), params, centers)
            two = depth_context_split(wide, params, centers)
            assert one.depth.data.tobytes() == two.depth.data[:, :, :1].tobytes()

    def test_wrong_kernel_size_rejected(self):
        f = Tensor3.zeros(1, 2, 2)
        params = ConvParams(np.zeros((3, 1, 3, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="1x1"):
            depth_context_split(f, params, bin_centers=depth_bin_centers(1.0, 20.0, 2))


class TestBevPool:
    def test_single_pixel_single_bin_lands_in_hand_computed_cell(self):
        # Identity camera: pixel (0,0) center (0.5, 0.5) at depth 1.5 gives
        # world (0.75, 0.75, 1.5) -> cell (0, 0) of a unit-voxel grid.
        f_ctx = Tensor3(np.array([2.0, -3.0]).reshape(2, 1, 1))
        depth = Tensor3(np.ones((1, 1, 1)))
        dc = DepthContext(f_ctx=f_ctx, depth=depth, bin_centers=np.array([1.5]))
        spec = BevSpec(x_range=(0, 4), y_range=(0, 4), z_range=(0, 4), voxel=1.0)
        q = bev_pool(dc, identity_camera(), spec)
        np.testing.assert_array_equal(q.data[:, 0, 0], [2.0, -3.0])
        q_rest = np.array(q.data, copy=True)
        q_rest[:, 0, 0] = 0.0
        np.testing.assert_array_equal(q_rest, 0.0)

    def test_zero_context_pools_to_zero(self):
        rng = np.random.default_rng(13)
        depth = Tensor3(np.full((4, 3, 3), 0.25))
        dc = make_dc(Tensor3.zeros(2, 3, 3), depth, d_min=0.5, d_max=4.5)
        spec = BevSpec(x_range=(-4, 4), y_range=(-4, 4), z_range=(0, 4), voxel=1.0)
        q = bev_pool(dc, identity_camera(), spec)
        np.testing.assert_array_equal(q.data, 0.0)

    def test_matches_loop_oracle_bitwise(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(4, 3, 4))
        depth = Tensor3(np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True))
        f_ctx = Tensor3(rng.normal(size=(2, 3, 4)))
        dc = make_dc(f_ctx, depth, d_min=0.5, d_max=6.0)
        spec = BevSpec(x_range=(-3, 3), y_range=(-3, 3), z_range=(0, 3), voxel=1.0)
        q = bev_pool(dc, identity_camera(), spec)
        np.testing.assert_array_equal(q.data, ref.bev_pool(dc, identity_camera(), spec))

    def test_mass_conservation_with_dyadic_depth(self):
        # Uniform depth 1/8 per bin is exact in binary, so both summation
        # orders are rounding-free and totals must match exactly.
        h, w, bins = 4, 5, 8
        depth = Tensor3(np.full((bins, h, w), 1.0 / bins))
        ones = Tensor3(np.ones((1, h, w)))
        dc = make_dc(ones, depth, d_min=0.5, d_max=8.5)
        spec = BevSpec(x_range=(-8, 8), y_range=(-8, 8), z_range=(0, 4), voxel=1.0)
        q = bev_pool(dc, identity_camera(), spec)
        expected = ref.bev_pool(dc, identity_camera(), spec).sum()
        assert q.data.sum() == expected
        assert expected > 0

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        hw=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        bins=st.sampled_from([1, 2, 4, 8]),
        yaw=st.floats(-3.0, 3.0),
        pitch=st.floats(-1.2, 1.2),
        focal=st.floats(0.5, 8.0),
        voxel=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        cells=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    )
    def test_mass_conservation_over_random_cameras(
        self, seed, hw, bins, yaw, pitch, focal, voxel, cells
    ):
        # Depth masses are multiples of 1/8, so every sum of them is exact in
        # either order; the kept mass is recounted point by point.
        rng = np.random.default_rng(seed)
        h, w = hw
        mass = np.stack([rng.multinomial(8, np.full(bins, 1.0 / bins)) for _ in range(h * w)])
        depth = Tensor3((mass.T / 8.0).reshape(bins, h, w))
        dc = make_dc(Tensor3(np.ones((1, h, w))), depth, d_min=0.5, d_max=8.5)
        cam = ref.posed_camera(rng, yaw, pitch, focal, h, w)
        pts = ref.back_project(cam, dc.bin_centers, h, w).transpose(0, 2, 3, 1).reshape(-1, 3)
        # A grid on voxel multiples around one lifted point, so some mass lands.
        centre = pts[rng.integers(len(pts))]
        lo = [np.floor(centre[i] / voxel - rng.integers(0, cells[i])) * voxel for i in (0, 1)]
        spec = BevSpec(
            x_range=(lo[0], lo[0] + cells[0] * voxel),
            y_range=(lo[1], lo[1] + cells[1] * voxel),
            z_range=(0.0, voxel),
            voxel=voxel,
        )
        expected = 0.0
        for pt, m in zip(pts, depth.data.ravel()):
            edges = [pt[0] - spec.x_range[0], spec.x_range[1] - pt[0]]
            edges += [pt[1] - spec.y_range[0], spec.y_range[1] - pt[1]]
            assume(min(abs(e) for e in edges) > 1e-9)  # no point on the grid's edge
            if min(edges) > 0:
                expected += m
        q = bev_pool(dc, cam, spec)
        assert q.data.sum() == expected

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        hw=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        bins=st.integers(1, 8),
        yaw=st.floats(-3.0, 3.0),
        pitch=st.floats(-1.2, 1.2),
        focal=st.floats(0.5, 8.0),
        voxel=st.sampled_from([0.1, 0.25, 0.3, 1.0]),
        cells=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    )
    def test_bytes_equal_three_row_back_projection(
        self, seed, hw, bins, yaw, pitch, focal, voxel, cells
    ):
        # bev_pool back-projects only world x and y. Random masses and
        # contexts make every sum order-sensitive, so the bytes match only if
        # x and y equal the rows of the full 3-row back-projection bit for
        # bit and each cell adds its terms in (bin, row, column) order.
        rng = np.random.default_rng(seed)
        h, w = hw
        logits = rng.normal(size=(bins, h, w))
        depth = Tensor3(np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True))
        dc = make_dc(Tensor3(rng.normal(size=(2, h, w))), depth, d_min=0.5, d_max=8.5)
        cam = ref.posed_camera(rng, yaw, pitch, focal, h, w)
        pts = ref.back_project(cam, dc.bin_centers, h, w)
        # A grid around one lifted point, so some mass lands.
        centre = pts[rng.integers(bins), :, rng.integers(h), rng.integers(w)]
        lo = [centre[i] - rng.integers(0, cells[i]) * voxel for i in (0, 1)]
        spec = BevSpec(
            x_range=(lo[0], lo[0] + cells[0] * voxel),
            y_range=(lo[1], lo[1] + cells[1] * voxel),
            z_range=(0.0, voxel),
            voxel=voxel,
        )
        assert bev_pool(dc, cam, spec).data.tobytes() == ref.bev_pool(dc, cam, spec).tobytes()

    def test_bytes_equal_loop_reference_across_bin_blocks(self):
        # 16 bins over a 112 x 200 map back-project in several blocks of whole bins,
        # about a third of the pairs in range of the grid.
        dc, cam, spec = hires_pool_case(2)
        assert len(level_blocks(16, 3 * 112 * 200 * 8)) > 1
        assert bev_pool(dc, cam, spec).data.tobytes() == ref.bev_pool(dc, cam, spec).tobytes()

    def test_peak_memory_below_one_back_projection(self):
        # No (D, 3, h, w) map of back-projected points exists: one block of bins at a
        # time, then the in-range contributions alone.
        dc, cam, spec = hires_pool_case(8)
        tracemalloc.start()
        try:
            bev_pool(dc, cam, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 3 * 112 * 200 * 8

    def test_linearity_in_context(self):
        rng = np.random.default_rng(19)
        logits = rng.normal(size=(4, 3, 3))
        depth = Tensor3(np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True))
        f_ctx = rng.normal(size=(2, 3, 3))
        spec = BevSpec(x_range=(-3, 3), y_range=(-3, 3), z_range=(0, 3), voxel=1.0)
        base = bev_pool(make_dc(Tensor3(f_ctx), depth, 0.5, 6.0), identity_camera(), spec)
        for alpha in (2.0, 0.25):  # powers of two scale without rounding
            scaled = bev_pool(
                make_dc(Tensor3(alpha * f_ctx), depth, 0.5, 6.0), identity_camera(), spec
            )
            np.testing.assert_array_equal(scaled.data, alpha * base.data)


def zero_attention(k_points, channels) -> AttentionParams:
    return AttentionParams(
        np.zeros((2 * k_points, channels)), np.zeros((k_points, channels))
    )


class TestResidualQuery:
    def test_zero_params_average_reference_samples(self):
        # Uniform attention with zero offsets just averages the K identical
        # samples at each in-view reference point, then sums over heights.
        rng = np.random.default_rng(23)
        f_ctx = Tensor3(rng.uniform(0.1, 1.0, size=(2, 8, 4)))
        spec = BevSpec(x_range=(0, 2), y_range=(1, 3), z_range=(0, 4), voxel=1.0)
        n_z = 4
        q = Tensor3(rng.normal(size=(2, spec.nx, spec.ny)))
        out = residual_query(q, f_ctx, column_camera(), spec, n_z, zero_attention(4, 2))

        heights = sample_heights(spec, n_z)
        for ix, x in enumerate(spec.x_centers()):
            for iy, y in enumerate(spec.y_centers()):
                expected = np.zeros(2)
                for z in heights:
                    u, v = x / y, z / y
                    if 0 <= np.floor(u) <= 3 and 0 <= np.floor(v) <= 7:
                        expected += bilinear_sample(f_ctx, PixelCoord(u, v))
                np.testing.assert_allclose(
                    out.data[:, ix, iy], expected, rtol=1e-9, atol=1e-12
                )

    def test_all_references_behind_camera_give_zero(self):
        spec = BevSpec(x_range=(0, 2), y_range=(-3, -1), z_range=(0, 2), voxel=1.0)
        q = Tensor3(np.random.default_rng(29).normal(size=(2, spec.nx, spec.ny)))
        f_ctx = Tensor3.full(2, 6, 6, 0.5)
        out = residual_query(q, f_ctx, column_camera(), spec, 4, zero_attention(4, 2))
        np.testing.assert_array_equal(out.data, 0.0)  # y < 0 means depth < 0

    def test_attention_weights_normalize(self):
        # A constant context field makes each in-view term equal the constant
        # regardless of offsets, so Q' counts in-view references exactly.
        rng = np.random.default_rng(31)
        c = 0.625  # dyadic, so sums of K * (1/K) * c stay exact
        spec = BevSpec(x_range=(0, 2), y_range=(1, 3), z_range=(0, 2), voxel=1.0)
        f_ctx = Tensor3.full(1, 64, 64, c)
        q = Tensor3(rng.normal(size=(1, spec.nx, spec.ny)))
        params = AttentionParams(np.zeros((8, 1)), rng.normal(size=(4, 1)))
        out = residual_query(q, f_ctx, column_camera(), spec, 3, params)
        ratio = out.data[0] / c
        np.testing.assert_allclose(ratio, np.rint(ratio), atol=1e-9)
        assert ratio.max() > 0

    def test_query_shape_validated(self):
        spec = BevSpec(x_range=(0, 2), y_range=(0, 2), z_range=(0, 2), voxel=1.0)
        with pytest.raises(ValueError, match="does not match BEV"):
            residual_query(
                Tensor3.zeros(2, 3, 3),
                Tensor3.zeros(2, 4, 4),
                column_camera(),
                spec,
                2,
                zero_attention(2, 2),
            )


def residual_case(seed, cells, n_z, k_points, channels, hw, camera, offset_scale=1.0):
    rng = np.random.default_rng(seed)
    spec = ref.small_grid(cells)
    q_c, f_c = channels
    q = Tensor3(rng.normal(size=(q_c, spec.nx, spec.ny)))
    f_ctx = Tensor3(rng.normal(size=(f_c, *hw)))
    params = AttentionParams(
        offset_scale * rng.normal(size=(2 * k_points, q_c)),
        rng.normal(size=(k_points, q_c)) * rng.uniform(0.0, 4.0),
    )
    return q, f_ctx, camera(spec, *hw), spec, n_z, params


def assert_matches_dense(q, f_ctx, m, spec, n_z, params):
    """Bit equality with the reference; cells with no in-view reference read +0.0."""
    out = residual_query(q, f_ctx, m, spec, n_z, params).data
    expected, in_view = ref.residual_query(q, f_ctx, m, spec, n_z, params)
    assert out.tobytes() == expected.tobytes()
    dark = ~in_view.any(axis=1).reshape(spec.nx, spec.ny)
    assert (out[:, dark] == 0.0).all() and not np.signbit(out[:, dark]).any()
    return in_view


class TestResidualQueryOracle:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        cells=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        n_z=st.integers(1, 6),
        k_points=st.integers(1, 10),
        channels=st.tuples(st.integers(1, 9), st.integers(1, 5)),
        hw=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        f_scale=st.floats(0.2, 6.0),
        shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        tilt=st.floats(-0.3, 0.3),
        offset_scale=st.sampled_from([0.0, 0.3, 3.0, 1e3]),
    )
    @example(0, (4, 4), 3, 4, (3, 2), (6, 8), 1.0, (0.0, 0.0), 0.0, 1.0)
    # einsum summed each height's K terms first here and missed by the last bit.
    @example(50888, (1, 1), 2, 3, (1, 1), (1, 1), 1.0, (0.0, 0.0), 0.0, 0.0)
    # Over one cell, sum(axis=0) adds the K = 8 points in another order than one by one.
    @example(0, (1, 1), 1, 8, (1, 1), (1, 2), 3.0, (0.0, 0.0), 0.0, 3.0)
    def test_bytes_equal_dense_reference(
        self, seed, cells, n_z, k_points, channels, hw, f_scale, shift, tilt, offset_scale
    ):
        def camera(spec, h, w):  # a tilt makes depth vary across the grid
            try:
                return overhead_camera(spec, h, w, f_scale, shift, tilt)
            except ValueError as exc:  # the 3x3 block's determinant is f * (f - cu * tilt)
                assert "singular" in str(exc)
                reject()

        assert_matches_dense(
            *residual_case(seed, cells, n_z, k_points, channels, hw, camera, offset_scale)
        )

    def test_no_reference_in_view(self):
        def looking_up(spec, h, w):
            m = overhead_camera(spec, h, w).matrix.copy()
            m[2] = [0.0, 0.0, 1.0, -10.0]  # depth z - 10 < 0 for every height
            return CameraMatrix(m)

        case = residual_case(5, (5, 4), 4, 4, (3, 2), (6, 6), looking_up)
        assert not assert_matches_dense(*case).any()
        out = residual_query(*case).data
        assert out.tobytes() == np.zeros_like(out).tobytes()

    def test_every_reference_in_view(self):
        case = residual_case(7, (6, 5), 5, 4, (3, 3), (9, 12), overhead_camera)
        assert assert_matches_dense(*case).all()

    def test_one_lit_cell_of_many(self):
        # A camera fitted to one cell of a 6 x 6 grid: offsets and attention
        # are formed for a single column, which einsum and sum(axis=0) would
        # add in another order.
        def one_cell_camera(spec, h, w):
            cell = BevSpec(x_range=(0.0, 0.5), y_range=(3.5, 4.0), z_range=(-1.0, 2.0), voxel=0.5)
            return overhead_camera(cell, h, w)

        case = residual_case(13, (6, 6), 4, 8, (7, 2), (4, 4), one_cell_camera)
        lit = assert_matches_dense(*case).any(axis=1)
        assert lit.sum() == 1

    def test_offsets_push_samples_off_the_map(self):
        case = residual_case(9, (6, 5), 4, 4, (3, 2), (5, 7), overhead_camera, 1e4)
        assert assert_matches_dense(*case).all()
        # Every sample misses the map, so the in-view references add zeros.
        np.testing.assert_array_equal(residual_query(*case).data, 0.0)


class TestResidualQueryWork:
    @pytest.fixture
    def sampled_points(self, monkeypatch):
        calls = []

        def counting(f, u, v):
            calls.append(np.broadcast(np.asarray(u), np.asarray(v)).size)
            return bilinear_sample_many(f, u, v)

        monkeypatch.setattr(nightbev.bev, "bilinear_sample_many", counting)
        return calls

    def test_samples_only_in_view_references(self, sampled_points):
        # A camera fitted to the centre 4 x 4 cells sees only part of the grid.
        def centre_camera(spec, h, w):
            centre = BevSpec(x_range=(0.0, 2.0), y_range=(3.0, 5.0), z_range=(-1.0, 2.0), voxel=0.5)
            return overhead_camera(centre, h, w)

        case = residual_case(11, (10, 10), 4, 3, (2, 2), (6, 6), centre_camera)
        residual_query(*case)
        _, in_view = ref.residual_query(*case)
        assert 0 < in_view.sum() < in_view.size
        assert 0 < sum(sampled_points) <= case[-1].k_points * int(in_view.sum())

    def test_no_call_without_in_view_reference(self, sampled_points):
        spec = BevSpec(x_range=(0, 2), y_range=(-3, -1), z_range=(0, 2), voxel=1.0)
        q = Tensor3(np.random.default_rng(29).normal(size=(2, spec.nx, spec.ny)))
        residual_query(q, Tensor3.full(2, 6, 6, 0.5), column_camera(), spec, 4, zero_attention(4, 2))
        assert sampled_points == []

    def test_peak_memory_below_three_full_grid_maps(self):
        # A 200 x 200 x 16 grid seen by the scene camera of a 128 x 192 image, with a
        # 32 x 48 feature map: only the pixel index spans the grid, and positions are
        # projected for the in-view references alone.
        spec = BevSpec(x_range=(0.0, 40.0), y_range=(-20.0, 20.0), z_range=(-1.0, 2.2), voxel=0.2)
        m = default_camera(SceneConfig(height=128, width=192, bev=spec))
        rng = np.random.default_rng(31)
        q = Tensor3(rng.normal(size=(8, spec.nx, spec.ny)))
        f_ctx = Tensor3(rng.normal(size=(8, 32, 48)))
        params = AttentionParams(rng.normal(size=(8, 8)), rng.normal(size=(4, 8)))
        tracemalloc.start()
        try:
            residual_query(q, f_ctx, m, spec, 16, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * spec.nx * spec.ny * 16 * 8


class TestRefineBev:
    def test_zero_field_returns_query_bitwise(self):
        rng = np.random.default_rng(37)
        data = rng.normal(size=(3, 4, 5))
        data[0, 0, 0] = -0.0  # signed zero must survive the passthrough
        q = Tensor3(data)
        q_res = Tensor3(rng.normal(size=(3, 4, 5)))
        out = refine_bev(q, q_res, np.zeros((4, 5)))
        assert out.data.tobytes() == q.data.tobytes()

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)),
        zero_frac=st.floats(0.0, 1.0),
    )
    def test_query_kept_bitwise_wherever_the_field_is_zero(self, seed, shape, zero_frac):
        rng = np.random.default_rng(seed)
        special = np.array([0.0, -0.0, 5e-324, 1e300, -1e300])
        q, q_res = (rng.normal(size=shape) for _ in range(2))
        for arr in (q, q_res):
            mask = rng.random(shape) < 0.3
            arr[mask] = rng.choice(special, size=int(mask.sum()))
        s = rng.uniform(0.0, 1.0, size=shape[1:])
        s[rng.random(shape[1:]) < zero_frac] = rng.choice([0.0, -0.0])
        out = refine_bev(Tensor3(q), Tensor3(q_res), s)
        zero = np.broadcast_to(s == 0.0, shape)
        assert out.data[zero].tobytes() == q[zero].tobytes()

    def test_unit_field_adds_residual(self):
        rng = np.random.default_rng(41)
        q = Tensor3(rng.normal(size=(2, 3, 3)))
        q_res = Tensor3(rng.normal(size=(2, 3, 3)))
        out = refine_bev(q, q_res, np.ones((3, 3)))
        np.testing.assert_allclose(out.data, q.data + q_res.data, rtol=1e-12)

    def test_hand_case(self):
        q = Tensor3.full(1, 1, 1, 1.0)
        q_res = Tensor3.full(1, 1, 1, 4.0)
        out = refine_bev(q, q_res, np.array([[0.5]]))
        assert out.data[0, 0, 0] == 3.0

    def test_affine_in_residual(self):
        rng = np.random.default_rng(43)
        q = Tensor3(rng.normal(size=(2, 4, 4)))
        q_res = rng.normal(size=(2, 4, 4))
        s = rng.uniform(0, 1, size=(4, 4))
        base = refine_bev(q, Tensor3(q_res), s).data - q.data
        for beta in (0.5, 2.0, 3.7):
            scaled = refine_bev(q, Tensor3(beta * q_res), s).data - q.data
            np.testing.assert_allclose(scaled, beta * base, rtol=1e-9, atol=1e-12)

    def test_residual_magnitude_monotone_in_field(self):
        rng = np.random.default_rng(47)
        q = Tensor3(rng.normal(size=(2, 5, 5)))
        q_res = Tensor3(rng.normal(size=(2, 5, 5)))
        s1 = rng.uniform(0, 0.5, size=(5, 5))
        s2 = s1 + rng.uniform(0, 0.5, size=(5, 5))
        r1 = np.abs(refine_bev(q, q_res, s1).data - q.data)
        r2 = np.abs(refine_bev(q, q_res, s2).data - q.data)
        assert (r2 >= r1 - 1e-12).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="field shape"):
            refine_bev(Tensor3.zeros(1, 2, 2), Tensor3.zeros(1, 2, 2), np.zeros((3, 3)))
