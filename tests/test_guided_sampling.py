"""Guidance map, offset generation/modulation, and deformable warping."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from nightbev.core import LEVEL_BLOCK_BYTES, PixelCoord, Tensor3, bilinear_sample, finite_diff_check
from nightbev.guided_sampling import (
    _WARP_POINTS,
    ConvParams,
    _conv_bands,
    _pool2_kernel,
    build_guidance,
    conv2d_pool2,
    conv2d_replicate,
    generate_offsets,
    guided_warp,
    kernel_grid,
    modulate_offsets,
)
from nightbev.pipeline import PipelineConfig, build_params, encode_image, enhance_stage, igs_stage
from nightbev.scene import Light, SceneConfig, gen_scene
from reference import conv_params


def assert_near_conv_then_pool(got, old):
    """The fused conv agrees with conv-then-pool to rounding: max |diff| <= 1e-12 max |old|."""
    assert np.abs(got - old).max() <= 1e-12 * np.abs(old).max()


def random_conv(rng, out_c, in_c, k=3):
    return conv_params(
        out_c, in_c, k, kernel=rng.normal(0, 0.4, size=(out_c, in_c, k, k)), bias=rng.normal(size=out_c)
    )


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestConvParams:
    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError, match="odd"):
            ConvParams(np.zeros((1, 1, 2, 2)), np.zeros(1))

    def test_rejects_bias_mismatch(self):
        with pytest.raises(ValueError, match="bias"):
            ConvParams(np.zeros((2, 1, 3, 3)), np.zeros(3))


class TestConv2dReplicate:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        x = Tensor3(rng.normal(size=(2, 5, 6)))
        params = conv_params(
            3, 2, kernel=rng.normal(size=(3, 2, 3, 3)), bias=rng.normal(size=3)
        )
        got = conv2d_replicate(x, params)
        assert got.data.tobytes() == ref.conv2d(x, params.kernel, params.bias).tobytes()

    def test_one_by_one_kernel(self):
        rng = np.random.default_rng(5)
        x = Tensor3(rng.normal(size=(3, 4, 4)))
        k = rng.normal(size=(2, 3, 1, 1))
        got = conv2d_replicate(x, ConvParams(k, np.zeros(2)))
        expected = np.einsum("oi,ihw->ohw", k[:, :, 0, 0], x.data)
        np.testing.assert_allclose(got.data, expected, rtol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="input channels"):
            conv2d_replicate(Tensor3.zeros(2, 3, 3), conv_params(1, 3))


class TestBandedConv:
    """The banded conv gives the whole-map oracle's bytes, and the fused conv + pool
    gives the fused oracle's bytes, near the old conv-then-pool."""

    # (out, in, k, h, w): 2-row bands with a short last one (8 input channels at
    # W=800 give 3 pooled rows), maps smaller than one band, and 1x1 kernels.
    CASES = [
        (8, in_c, k, h, w)
        for in_c in (1, 3, 8)
        for k in (1, 3)
        for h, w in ((6, 800), (6, 400), (4, 6))
    ]

    @pytest.mark.parametrize("out_c, in_c, k, h, w", CASES)
    def test_bytes_equal_oracle(self, out_c, in_c, k, h, w):
        rng = np.random.default_rng([out_c, in_c, k, h, w])
        x = Tensor3(rng.normal(size=(in_c, h, w)))
        params = random_conv(rng, out_c, in_c, k)
        full = ref.conv2d(x, params.kernel, params.bias)
        assert conv2d_replicate(x, params).data.tobytes() == full.tobytes()
        pooled = conv2d_pool2(x, params).data
        assert pooled.tobytes() == ref.conv2d_pool2(x, params).tobytes()
        assert_near_conv_then_pool(pooled, ref.avg_pool2(full))

    @pytest.mark.parametrize(
        "out_c, in_c, k, h, w", [(27, 1, 3, 50, 800), (24, 8, 1, 50, 800), (9, 3, 5, 131, 160)]
    )
    def test_replicate_bands_end_short(self, out_c, in_c, k, h, w):
        # conv2d_replicate runs in bands of about LEVEL_BLOCK_BYTES of output rows:
        # 6 rows for the first two cases (9 bands, the last of 2 rows), 91 for the last.
        rows = LEVEL_BLOCK_BYTES // (8 * out_c * w)
        assert 0 < rows < h and h % rows
        rng = np.random.default_rng([out_c, in_c, k, h, w])
        x = Tensor3(rng.normal(size=(in_c, h, w)))
        params = random_conv(rng, out_c, in_c, k)
        full = ref.conv2d(x, params.kernel, params.bias)
        assert conv2d_replicate(x, params).data.tobytes() == full.tobytes()

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        out_c=st.integers(1, 9),
        in_c=st.integers(1, 9),
        k=st.sampled_from([1, 3, 5]),
        half_h=st.integers(1, 12),
        w=st.one_of(st.integers(1, 12).map(lambda n: 2 * n), st.sampled_from([400, 800, 1600])),
        rows=st.integers(1, 24),
    )
    def test_random_even_shapes(self, seed, out_c, in_c, k, half_h, w, rows):
        rng = np.random.default_rng(seed)
        x = Tensor3(rng.normal(size=(in_c, 2 * half_h, w)))
        params = random_conv(rng, out_c, in_c, k)
        full = ref.conv2d(x, params.kernel, params.bias)
        fused = ref.conv2d_pool2(x, params)
        pooled = conv2d_pool2(x, params).data
        assert pooled.tobytes() == fused.tobytes()
        assert_near_conv_then_pool(pooled, ref.avg_pool2(full))
        banded = _conv_bands(x, params.kernel, params.bias, 1, rows)
        assert banded.tobytes() == full.tobytes()
        strided = _conv_bands(x, ref.pool_kernel(params.kernel), params.bias, 2, rows)
        assert strided.tobytes() == fused.tobytes()

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.7e308, -1.7e308]

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
        k=st.sampled_from([1, 3, 5]),
    )
    def test_special_values_equal_fused_oracle(self, seed, shape, k):
        # Random magnitudes over the whole float64 range, with signed zeros,
        # subnormals and values near overflow mixed in. Each output channel's
        # kernel sums to at most 0.9 in absolute value, so no sum can overflow.
        rng = np.random.default_rng(seed)
        out_c, in_c, h, w = shape[0], shape[1], 2 * shape[2], 2 * shape[3]
        x = rng.normal(size=(in_c, h, w)) * 10.0 ** rng.integers(-320, 308, size=(in_c, h, w))
        special = rng.uniform(size=x.shape) < 0.3
        x[special] = rng.choice(self.SPECIAL, size=int(special.sum()))
        kernel = rng.normal(size=(out_c, in_c, k, k))
        kernel *= 0.9 / np.abs(kernel).sum(axis=(1, 2, 3), keepdims=True)
        tiny = rng.uniform(size=kernel.shape) < 0.3
        kernel[tiny] = rng.choice(self.SPECIAL[:6], size=int(tiny.sum()))
        params = conv_params(out_c, in_c, k, kernel=kernel, bias=rng.normal(size=out_c))
        assert _pool2_kernel(params.kernel).tobytes() == ref.pool_kernel(params.kernel).tobytes()
        got = conv2d_pool2(Tensor3(x), params).data
        assert got.tobytes() == ref.conv2d_pool2(Tensor3(x), params).tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("w", [2, 4])
    def test_negative_zero_taps_sum_to_positive_zero(self, k, w):
        # Every tap reads -0.0 and the bias is -0.0: the sum before the bias is +0.0,
        # and +0.0 + -0.0 stays +0.0.
        x = Tensor3.full(2, 2, w, -0.0)
        params = conv_params(3, 2, k, kernel=np.ones((3, 2, k, k)), bias=np.full(3, -0.0))
        got = conv2d_pool2(x, params).data
        assert got.tobytes() == ref.conv2d_pool2(x, params).tobytes() == np.zeros((3, 1, w // 2)).tobytes()

    @pytest.mark.parametrize("h, w", [(64, 96), (448, 800), (128, 192), (8, 4)])
    def test_encode_image_equals_conv_then_pool(self, h, w):
        params = build_params(PipelineConfig(), 2, 8)
        x = Tensor3(np.random.default_rng(h).uniform(size=(3, h, w)))
        got = encode_image(x, params.enc1, params.enc2).data
        fused = ref.conv2d_pool2(Tensor3(ref.conv2d_pool2(x, params.enc1)), params.enc2)
        assert got.tobytes() == fused.tobytes()
        f1 = ref.avg_pool2(ref.conv2d(x, params.enc1.kernel, params.enc1.bias))
        f2 = ref.avg_pool2(ref.conv2d(Tensor3(f1), params.enc2.kernel, params.enc2.bias))
        assert_near_conv_then_pool(got, f2)

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="^pooling needs even dims, got 5x6$"):
            conv2d_pool2(Tensor3.zeros(1, 5, 6), conv_params(2, 1))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="input channels"):
            conv2d_pool2(Tensor3.zeros(2, 4, 4), conv_params(1, 3))

    @pytest.mark.parametrize("conv", [conv2d_replicate, conv2d_pool2])
    def test_non_finite_output_rejected(self, conv):
        x = Tensor3.full(1, 4, 4, 1e308)
        params = conv_params(1, 1, kernel=np.full((1, 1, 3, 3), 10.0))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^Tensor3 values must be finite$"):
                conv(x, params)


class TestBuildGuidance:
    def test_constant_map_gives_zero_guidance(self):
        i = Tensor3.full(1, 4, 4, 0.5)
        _, g = build_guidance(i, 2, 2)
        np.testing.assert_array_equal(g.data, 0.0)

    def test_hand_case_inverse_normalization(self):
        i = Tensor3(np.array([[[0.25, 0.5, 1.0]]]))
        i_prime, g = build_guidance(i, 1, 3)
        np.testing.assert_array_equal(i_prime.data, i.data)
        np.testing.assert_allclose(g.data[0, 0], [1.0, 1.0 / 3.0, 0.0], rtol=1e-12)

    def test_darker_pixels_get_larger_guidance(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.05, 1.0, size=(1, 4, 6))
        _, g = build_guidance(Tensor3(vals), 4, 6)
        flat_i = vals.ravel()
        flat_g = g.data.ravel()
        order = np.argsort(flat_i)
        assert (np.diff(flat_g[order]) <= 1e-12).all()

    def test_extremes_hit_zero_and_one(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(0.05, 1.0, size=(1, 6, 6))
        i_prime, g = build_guidance(Tensor3(vals), 6, 6)
        assert g.data.flat[i_prime.data.argmin()] == 1.0
        assert g.data.flat[i_prime.data.argmax()] == 0.0

    def test_average_pooling_blocks(self):
        i = Tensor3(np.array([[[0.2, 0.4], [0.6, 0.8]]]))
        i_prime, _ = build_guidance(i, 1, 1)
        assert i_prime.data[0, 0, 0] == pytest.approx(0.5)

    def test_one_block_map_gets_the_bytes_of_a_wider_one(self):
        # A block's mean adds its rows' columns, then the rows, on every target size.
        rng = np.random.default_rng(19)
        for _ in range(50):
            wide = rng.uniform(0.05, 1.0, size=(1, 4, 8))
            one, _ = build_guidance(Tensor3(wide[:, :, :4]), 1, 1)
            two, _ = build_guidance(Tensor3(wide), 1, 2)
            assert one.data.tobytes() == two.data[:, :, :1].tobytes()

    def test_non_divisible_target_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            build_guidance(Tensor3.full(1, 4, 4, 0.5), 3, 2)


class TestGenerateOffsets:
    def test_zero_parameters(self):
        i = Tensor3.full(1, 3, 3, 0.7)
        dp, dw = generate_offsets(i, conv_params(3, 1))
        np.testing.assert_array_equal(dp.data, 0.0)
        np.testing.assert_array_equal(dw.data, 0.5)

    def test_bias_only(self):
        i = Tensor3.full(1, 3, 3, 0.7)
        dp, dw = generate_offsets(
            i, conv_params(3, 1, bias=np.array([1.0, -1.0, 0.0]))
        )
        np.testing.assert_array_equal(dp.data[0], 1.0)
        np.testing.assert_array_equal(dp.data[1], -1.0)
        np.testing.assert_array_equal(dw.data, 0.5)

    def test_identity_center_kernel_on_constant_map(self):
        c = 0.35
        i = Tensor3.full(1, 4, 4, c)
        kernel = np.zeros((3, 1, 3, 3))
        kernel[:, 0, 1, 1] = 1.0
        dp, dw = generate_offsets(i, conv_params(3, 1, kernel=kernel))
        np.testing.assert_allclose(dp.data, c, rtol=1e-12)
        np.testing.assert_allclose(dw.data, sigmoid(c), rtol=1e-12)

    def test_channel_contract_enforced(self):
        i = Tensor3.full(1, 3, 3, 0.5)
        with pytest.raises(ValueError, match="3"):
            generate_offsets(i, conv_params(4, 1))

    def test_weights_strictly_inside_unit_interval(self):
        i = Tensor3.full(1, 3, 3, 1.0)
        _, dw = generate_offsets(
            i, conv_params(3, 1, bias=np.array([0.0, 0.0, 80.0]))
        )
        assert (dw.data > 0.0).all() and (dw.data < 1.0).all()


class TestModulateOffsets:
    def test_zero_guidance_annihilates(self):
        dp = Tensor3(np.random.default_rng(13).normal(size=(2, 3, 3)))
        out = modulate_offsets(dp, Tensor3.zeros(1, 3, 3))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_unit_guidance_is_identity(self):
        dp = Tensor3(np.random.default_rng(17).normal(size=(4, 3, 3)))
        out = modulate_offsets(dp, Tensor3.full(1, 3, 3, 1.0))
        np.testing.assert_array_equal(out.data, dp.data)

    def test_elementwise_product(self):
        dp = Tensor3(np.array([[[2.0]], [[-1.0]]]))
        out = modulate_offsets(dp, Tensor3(np.array([[[0.5]]])))
        np.testing.assert_array_equal(out.data.ravel(), [1.0, -0.5])

    def test_componentwise_magnitude_law_exact(self):
        rng = np.random.default_rng(19)
        dp = Tensor3(rng.normal(size=(6, 4, 5)))
        g = Tensor3(rng.uniform(0, 1, size=(1, 4, 5)))
        out = modulate_offsets(dp, g)
        np.testing.assert_array_equal(np.abs(out.data), g.data * np.abs(dp.data))


class TestKernelGrid:
    def test_single_point(self):
        np.testing.assert_array_equal(kernel_grid(1), [[0.0, 0.0]])

    def test_nine_point_grid(self):
        grid = kernel_grid(9)
        assert grid.shape == (9, 2)
        np.testing.assert_array_equal(grid[0], [-1.0, -1.0])
        np.testing.assert_array_equal(grid[4], [0.0, 0.0])
        np.testing.assert_array_equal(grid[8], [1.0, 1.0])

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_rejects_non_square_counts(self, k):
        with pytest.raises(ValueError, match="odd perfect square"):
            kernel_grid(k)


class TestGuidedWarp:
    def test_identity_sampling_scales_feature(self):
        rng = np.random.default_rng(23)
        f = Tensor3(rng.normal(size=(2, 4, 5)))
        dp = Tensor3.zeros(2, 4, 5)
        dw = Tensor3.full(1, 4, 5, 0.5)
        out = guided_warp(f, dp, dw, [1.0])
        np.testing.assert_allclose(out.data, 1.5 * f.data, rtol=1e-12)

    def test_zero_point_weight_is_pure_residual(self):
        rng = np.random.default_rng(29)
        f = Tensor3(rng.normal(size=(3, 4, 4)))
        dp = Tensor3(rng.normal(size=(2, 4, 4)))
        dw = Tensor3.full(1, 4, 4, 0.9)
        out = guided_warp(f, dp, dw, [0.0])
        np.testing.assert_array_equal(out.data, f.data)

    def test_constant_field_doubles_away_from_borders(self):
        c = 0.37
        f = Tensor3.full(1, 6, 8, c)
        rng = np.random.default_rng(31)
        dp = Tensor3(rng.uniform(-1, 1, size=(2, 6, 8)))
        dw = Tensor3.full(1, 6, 8, 1.0)
        out = guided_warp(f, dp, dw, [1.0])
        interior = out.data[0, 2:-2, 2:-2]
        np.testing.assert_allclose(interior, 2 * c, rtol=1e-12)

    def test_zero_modulation_weight_is_bitwise_residual(self):
        rng = np.random.default_rng(37)
        f = Tensor3(rng.normal(size=(2, 5, 5)))
        dp = Tensor3(rng.normal(size=(18, 5, 5)))
        # true zeros cannot come out of the sigmoid; inject them directly
        out = guided_warp(f, dp, Tensor3.zeros(9, 5, 5), rng.normal(size=9))
        np.testing.assert_array_equal(out.data, f.data)

    def test_matches_per_pixel_oracle_k9(self):
        rng = np.random.default_rng(41)
        f = Tensor3(rng.normal(size=(2, 5, 6)))
        dp = Tensor3(rng.uniform(-1.5, 1.5, size=(18, 5, 6)))
        dw = Tensor3(rng.uniform(0.1, 0.9, size=(9, 5, 6)))
        weights = rng.normal(size=9)
        out = guided_warp(f, dp, dw, weights)
        grid = kernel_grid(9)
        for y in range(5):
            for x in range(6):
                acc = np.array(f.data[:, y, x], dtype=np.float64)
                for k in range(9):
                    at = PixelCoord(
                        x + grid[k, 0] + dp.data[2 * k, y, x],
                        y + grid[k, 1] + dp.data[2 * k + 1, y, x],
                    )
                    acc = acc + weights[k] * dw.data[k, y, x] * bilinear_sample(f, at)
                np.testing.assert_allclose(out.data[:, y, x], acc, rtol=1e-10, atol=1e-12)

    def test_offset_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        f = Tensor3(rng.normal(size=(2, 6, 7)))
        dw_val = 0.7
        w_point = 1.3
        for _ in range(100):
            y = int(rng.integers(1, 5))
            x = int(rng.integers(1, 6))
            base_off = rng.uniform(0.15, 0.85, size=2)

            def scalar(off):
                dp_field = np.zeros((2, 6, 7))
                dp_field[0, y, x] = off[0]
                dp_field[1, y, x] = off[1]
                out = guided_warp(
                    f,
                    Tensor3(dp_field),
                    Tensor3.full(1, 6, 7, dw_val),
                    [w_point],
                )
                return float(out.data[:, y, x].sum())

            from nightbev.core import bilinear_sample_grad

            _, du, dv = bilinear_sample_grad(
                f, PixelCoord(x + base_off[0], y + base_off[1])
            )
            analytic = w_point * dw_val * np.array([du.sum(), dv.sum()])
            err = finite_diff_check(scalar, base_off, 1e-5, analytic)
            assert err < 1e-3

    # (channels, K, h, w): bands of 37, 40 and 4 rows, each ending on a short band,
    # bands of one row (K * w points past the band size), and a map smaller than one band.
    @pytest.mark.parametrize(
        "c, k_points, h, w", [(2, 9, 50, 24), (3, 1, 45, 200), (8, 9, 30, 200), (1, 25, 7, 400), (2, 9, 5, 6)]
    )
    def test_bytes_equal_whole_map_reference(self, c, k_points, h, w):
        rows = max(1, _WARP_POINTS // (k_points * w))
        assert rows == 1 or h % rows
        rng = np.random.default_rng([c, k_points, h, w])
        data = rng.normal(size=(c, h, w))
        data[:, ::3, ::4] = -0.0  # pixels whose residual is exactly zero keep these
        f = Tensor3(data)
        dp = Tensor3(rng.normal(scale=3.0, size=(2 * k_points, h, w)))  # some points off the map
        mod = rng.uniform(0.05, 0.95, size=(k_points, h, w))
        mod[:, ::3, ::4] = 0.0
        weights = rng.normal(size=k_points)
        got = guided_warp(f, dp, Tensor3(mod), weights).data
        assert got.tobytes() == ref.guided_warp(f, dp, Tensor3(mod), weights).tobytes()

    def test_peak_memory_below_six_feature_maps(self):
        # hires_near's 8 x 112 x 200 feature with 9 kernel points: the samples of one
        # band of rows exist at a time, never the K whole-map samples.
        c, h, w = 8, 112, 200
        rng = np.random.default_rng(47)
        f = Tensor3(rng.normal(size=(c, h, w)))
        dp = Tensor3(rng.normal(scale=2.0, size=(18, h, w)))
        dw = Tensor3(rng.uniform(0.05, 0.95, size=(9, h, w)))
        weights = rng.normal(size=9)
        tracemalloc.start()
        try:
            guided_warp(f, dp, dw, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * c * h * w * 8

    def test_shape_mismatches_rejected(self):
        f = Tensor3.zeros(1, 4, 4)
        with pytest.raises(ValueError, match="channels"):
            guided_warp(f, Tensor3.zeros(3, 4, 4), Tensor3.zeros(1, 4, 4), [1.0])
        with pytest.raises(ValueError, match="spatial"):
            guided_warp(f, Tensor3.zeros(2, 3, 4), Tensor3.zeros(1, 3, 4), [1.0])


def test_darker_quartile_gets_larger_offsets():
    """PAPER.md: 2D-IGS assigns larger offsets to darker regions. On 40 desk scenes
    lit by two dim lights, with parameter seeds 0 and 1, the mean offset length over
    the darkest quartile of I' exceeds the mean over its brightest quartile."""
    failures = []
    for scene_seed, param_seed in itertools.product(range(40), (0, 1)):
        rng = np.random.default_rng(scene_seed)
        lights = tuple(
            Light(rng.uniform(0, 96), rng.uniform(0, 64), rng.uniform(0.2, 0.8), rng.uniform(6, 20))
            for _ in range(2)
        )
        bundle = gen_scene(SceneConfig(seed=scene_seed, random_boxes=3, lights=lights))
        pc = PipelineConfig(seed=param_seed)
        params = build_params(pc, len(bundle.classes), bundle.bev.nz)
        illum, _, _, enhanced, _ = enhance_stage(pc, bundle.image, None)
        f_img = encode_image(enhanced, params.enc1, params.enc2)
        i_prime, _, dp_mod, _ = igs_stage(pc, params, illum, f_img)
        length = np.hypot(dp_mod.data[0::2], dp_mod.data[1::2]).mean(axis=0)
        lo, hi = np.quantile(i_prime.data[0], [0.25, 0.75])
        dark, bright = length[i_prime.data[0] <= lo].mean(), length[i_prime.data[0] >= hi].mean()
        if not dark > bright:
            failures.append((scene_seed, param_seed, dark / bright))
    assert failures == []
