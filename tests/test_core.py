"""Tensor container, bilinear sampling, gradient checker, raw tensor files."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nightbev.core
from nightbev.bev import AttentionParams, DepthContext
from nightbev.core import (
    LEVEL_BLOCK_BYTES,
    BatchPlan,
    PixelCoord,
    Tensor3,
    bilinear_sample,
    bilinear_sample_grad,
    bilinear_sample_many,
    finite_diff_check,
    frozen_array,
    level_blocks,
    ordered_sum,
    read_raw_tensor,
    write_raw_tensor,
    zero_bordered,
)
from nightbev.geometry import CameraMatrix
from nightbev.guided_sampling import ConvParams
from nightbev.metrics import OccupancyGrid
from nightbev.selective import FactorPopulation


@pytest.fixture
def quad() -> Tensor3:
    return Tensor3(np.array([[[1.0, 3.0], [5.0, 7.0]]]))


class TestTensor3:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="3 dims"):
            Tensor3(np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor3(np.array([[[np.nan]]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="positive"):
            Tensor3(np.zeros((0, 2, 2)))

    def test_data_is_immutable(self):
        t = Tensor3.zeros(1, 2, 2)
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_copies_input(self):
        src = np.ones((1, 2, 2))
        t = Tensor3(src)
        src[0, 0, 0] = 5.0
        assert t.data[0, 0, 0] == 1.0

    def test_shape_properties(self):
        t = Tensor3.zeros(2, 3, 4)
        assert (t.channels, t.height, t.width) == (2, 3, 4)

    def test_integer_input_upcast(self):
        t = Tensor3(np.ones((1, 1, 1), dtype=np.int32))
        assert t.data.dtype == np.float64

    def test_take_over_freezes_the_array_itself(self):
        src = np.full((2, 3, 4), 1.5)
        t = Tensor3.take_over(src)
        assert t.data is src and not src.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            src[0, 0, 0] = 5.0
        np.testing.assert_array_equal(t.data, np.full((2, 3, 4), 1.5))

    @pytest.mark.parametrize(
        "src",
        [
            np.zeros((2, 3, 4), dtype=np.float32),
            np.asfortranarray(np.zeros((2, 3, 4))),
            np.zeros((4, 3, 4))[:2],
            np.zeros((2, 3, 8))[:, :, ::2],
        ],
        ids=["float32", "fortran", "view", "strided"],
    )
    def test_take_over_refuses_what_a_stage_does_not_own(self, src):
        with pytest.raises(ValueError, match="owns its data"):
            Tensor3.take_over(src)
        assert src.flags.writeable

    @pytest.mark.parametrize(
        "src,match",
        [(np.array([[[np.nan]]]), "finite"), (np.zeros((2, 2)), "3 dims"), (np.zeros((0, 2, 2)), "positive")],
        ids=["nan", "rank", "empty"],
    )
    def test_take_over_checks_values_and_dims(self, src, match):
        with pytest.raises(ValueError, match=match):
            Tensor3.take_over(src)
        assert src.flags.writeable

    @pytest.mark.parametrize(
        "src",
        [
            np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7,
            np.arange(-12, 12).reshape(2, 3, 4),
            np.arange(24).reshape(2, 3, 4) % 3 == 0,
            np.asfortranarray(np.arange(24.0).reshape(2, 3, 4)),
            np.arange(24.0).reshape(4, 3, 2).transpose(2, 1, 0),
            [[[1, 2.5], [3, 4]], [[5, 6], [7, -8]]],
        ],
        ids=["float32", "int", "bool", "fortran", "transposed", "nested_list"],
    )
    def test_storage_is_one_read_only_c_ordered_float64_copy(self, src):
        t = Tensor3(src)
        assert t.data.dtype == np.float64
        assert t.data.flags.c_contiguous
        assert not t.data.flags.writeable
        assert t.data.base is None  # owns its buffer, not a view of an intermediate
        assert not np.shares_memory(t.data, np.asarray(src))
        np.testing.assert_array_equal(t.data, np.asarray(src, dtype=np.float64))


def storage_forms(base: np.ndarray) -> dict:
    """`base` in the input forms of the Tensor3 storage test above."""
    return {
        "float32": base.astype(np.float32),
        "int": base.astype(np.int64),
        "bool": base != 0,
        "fortran": np.asfortranarray(base),
        "transposed": np.ascontiguousarray(base.T).T,
        "nested_list": base.tolist(),
    }


# Every value object that stores an array: (valid base values, the stored
# array of a container built from one input form).
CONTAINERS = {
    "camera": (
        np.array([[2, 0, 1, 0], [0, 2, 1, 0], [0, 0, 1, 1]]),
        lambda x: CameraMatrix(x).matrix,
    ),
    "conv_kernel": (
        np.arange(36).reshape(4, 1, 3, 3) % 3,
        lambda x: ConvParams(x, np.zeros(4)).kernel,
    ),
    "conv_bias": (
        np.array([[1, 0], [2, 3]]),
        lambda x: ConvParams(np.zeros((4, 1, 1, 1)), x).bias,
    ),
    "attention_offsets": (
        np.arange(12).reshape(4, 3) % 5,
        lambda x: AttentionParams(x, np.zeros((2, 3))).offset_weights,
    ),
    "attention_logits": (
        np.arange(6).reshape(2, 3) % 4,
        lambda x: AttentionParams(np.zeros((4, 3)), x).attn_weights,
    ),
    "depth_centers": (
        np.array([0, 1]),
        lambda x: DepthContext(Tensor3.zeros(1, 1, 1), Tensor3.full(2, 1, 1, 0.5), x).bin_centers,
    ),
    "factors": (np.ones((2, 3), dtype=np.int64), lambda x: FactorPopulation(x).factors),
}


class TestFrozenArray:
    """Every container stores its arrays as `frozen_array` does, whatever it is given."""

    @staticmethod
    def assert_frozen_copy(stored, src, dtype):
        assert stored.dtype == dtype
        assert stored.flags.c_contiguous
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, np.asarray(src))
        np.testing.assert_array_equal(stored, np.asarray(src, dtype=dtype).reshape(stored.shape))

    @pytest.mark.parametrize("form", list(storage_forms(np.zeros(1))))
    @pytest.mark.parametrize("container", list(CONTAINERS))
    def test_float_containers(self, container, form):
        base, stored = CONTAINERS[container]
        src = storage_forms(base)[form]
        self.assert_frozen_copy(stored(src), src, np.float64)

    @pytest.mark.parametrize("form", ["int", "fortran", "transposed", "nested_list"])
    def test_occupancy_grid_int64(self, form):
        """int64 input of three classes is stored as uint8, `metrics.label_dtype`."""
        src = storage_forms(np.arange(24).reshape(2, 3, 4) % 3)[form]
        self.assert_frozen_copy(OccupancyGrid(src, ("a", "b", "c")).labels, src, np.uint8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_float_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^thing must be finite$"):
            frozen_array([1.0, bad], "thing")

    def test_integer_dtype_is_not_checked_for_finiteness(self):
        arr = frozen_array([[1, 2], [3, 4]], "labels", np.int64)
        assert arr.dtype == np.int64 and not arr.flags.writeable


class TestLevelBlocks:
    def test_blocks_cover_every_level_once_in_order(self):
        blocks = level_blocks(7, LEVEL_BLOCK_BYTES // 3)
        assert [np.arange(7)[b].tolist() for b in blocks] == [[0, 1, 2], [3, 4, 5], [6]]
        assert [(b.start, b.stop) for b in blocks] == [(0, 3), (3, 6), (6, 7)]

    def test_a_level_larger_than_a_block_is_one_block(self):
        blocks = level_blocks(3, 5 * LEVEL_BLOCK_BYTES)
        assert [np.arange(3)[b].tolist() for b in blocks] == [[0], [1], [2]]
        assert [(b.start, b.stop) for b in blocks] == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize(
        "levels, size, budget, want",
        [
            (10, 3, 7, [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]),  # a budget in points
            (3, 9, 7, [(0, 1), (1, 2), (2, 3)]),  # a level larger than the budget
            (0, 3, 7, []),
        ],
    )
    def test_exact_slices_under_a_budget(self, levels, size, budget, want):
        assert [(b.start, b.stop) for b in level_blocks(levels, size, budget)] == want

    def test_default_budget_follows_a_patched_level_block_bytes(self, monkeypatch):
        monkeypatch.setattr(nightbev.core, "LEVEL_BLOCK_BYTES", 3 * 8)
        assert [(b.start, b.stop) for b in level_blocks(5, 8)] == [(0, 3), (3, 5)]
        assert level_blocks(0, 8) == []


class TestBatchPlan:
    @staticmethod
    def counted(builds):
        def build(*args):
            builds.append(args)
            return np.array([float(len(builds))]), np.zeros(2)

        return build

    def test_keeps_the_latest_build_per_slot_by_value(self):
        builds, plan = [], BatchPlan()
        build = self.counted(builds)
        first = plan.get("s", build, np.array([1.0, 2.0]), 0.0)
        assert plan.get("s", build, np.array([1.0, 2.0]), 0.0) is first  # an equal copy
        assert plan.get("t", build, np.array([1.0, 2.0]), 0.0) is not first  # its own slot
        for args in ([1.0, 2.0], -0.0), ([1.0, 3.0], 0.0), ([1.0, 2.0], 0.0):
            plan.get("s", build, np.array(args[0]), args[1])  # -0.0 is not 0.0
        assert len(builds) == 5

    def test_holds_read_only_arrays_and_a_generator_as_a_tuple(self):
        def blocks():
            yield from ((slice(i, i + 1), np.zeros(2)) for i in range(2))

        plan = BatchPlan()
        held = plan.get("s", blocks)
        assert isinstance(held, tuple) and [rows for rows, _ in held] == [slice(0, 1), slice(1, 2)]
        arrays = [a for _, a in held] + list(plan.get("t", self.counted([])))
        assert [a.flags.writeable for a in arrays] == [False] * 4

    def test_a_failed_build_holds_nothing(self):
        builds, plan = [], BatchPlan()

        def failing():
            raise ValueError("bad")

        with pytest.raises(ValueError, match="bad"):
            plan.get("s", failing)
        plan.get("s", self.counted(builds))
        assert len(builds) == 1


@given(
    data=arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    )
)
def test_zero_bordered_bytes_equal_np_pad(data):
    got = zero_bordered(Tensor3(data))
    assert got.tobytes() == np.pad(data, ((0, 0), (1, 1), (1, 1))).tobytes()


class TestOrderedSum:
    def test_adds_in_index_order_from_positive_zero(self):
        terms = np.random.default_rng(23).normal(size=(16, 1, 3))
        total = 0.0
        for t in terms[:, 0, 0]:
            total += t
        assert ordered_sum(terms[:, :, :1]).tobytes() == np.array([[total]]).tobytes()
        assert ordered_sum(terms)[:, :1].tobytes() == np.array([[total]]).tobytes()
        assert not np.signbit(ordered_sum(np.array([-0.0, -0.0])))

    @given(
        data=arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4)),
            elements=st.one_of(st.just(-0.0), st.floats(-1e3, 1e3, allow_nan=False)),
        )
    )
    def test_a_generator_of_terms_gives_the_bytes_of_the_stacked_array(self, data):
        want = np.zeros(data.shape[1:])
        for term in data:
            want += term
        assert ordered_sum(term for term in data).tobytes() == want.tobytes()
        assert ordered_sum(data).tobytes() == want.tobytes()


class TestBilinearSample:
    def test_exact_grid_point(self, quad):
        assert bilinear_sample(quad, PixelCoord(0, 0)) == pytest.approx([1.0])

    def test_center_is_mean_of_neighbors(self, quad):
        assert bilinear_sample(quad, PixelCoord(0.5, 0.5)) == pytest.approx([4.0])

    def test_outside_is_zero_padded(self, quad):
        assert bilinear_sample(quad, PixelCoord(-1, -1)) == pytest.approx([0.0])

    def test_integer_coordinates_reproduce_values(self):
        rng = np.random.default_rng(7)
        t = Tensor3(rng.normal(size=(3, 5, 6)))
        for y in range(t.height):
            for x in range(t.width):
                got = bilinear_sample(t, PixelCoord(x, y))
                assert np.array_equal(got, t.data[:, y, x])

    def test_piecewise_linear_along_axis(self):
        rng = np.random.default_rng(11)
        t = Tensor3(rng.normal(size=(2, 4, 5)))
        for _ in range(50):
            y = int(rng.integers(0, t.height))
            x = int(rng.integers(0, t.width - 1))
            a = bilinear_sample(t, PixelCoord(x, y))
            b = bilinear_sample(t, PixelCoord(x + 1, y))
            for frac in (0.25, 0.5, 0.75):
                mid = bilinear_sample(t, PixelCoord(x + frac, y))
                np.testing.assert_allclose(mid, (1 - frac) * a + frac * b, rtol=1e-12)

    def test_bounded_by_support_pixels(self):
        rng = np.random.default_rng(13)
        t = Tensor3(rng.normal(size=(1, 6, 6)))
        for _ in range(300):
            u = rng.uniform(-1.5, t.width + 0.5)
            v = rng.uniform(-1.5, t.height + 0.5)
            val = bilinear_sample(t, PixelCoord(u, v))[0]
            x0, y0 = int(np.floor(u)), int(np.floor(v))
            support = []
            for dx in (0, 1):
                for dy in (0, 1):
                    xi, yi = x0 + dx, y0 + dy
                    if 0 <= xi < t.width and 0 <= yi < t.height:
                        support.append(t.data[0, yi, xi])
                    else:
                        support.append(0.0)
            assert min(support) - 1e-12 <= val <= max(support) + 1e-12

    def test_many_matches_single(self):
        rng = np.random.default_rng(17)
        t = Tensor3(rng.normal(size=(2, 4, 4)))
        us = rng.uniform(-1, 5, size=(3, 4))
        vs = rng.uniform(-1, 5, size=(3, 4))
        batch = bilinear_sample_many(t, us, vs)
        for i in range(3):
            for j in range(4):
                single = bilinear_sample(t, PixelCoord(us[i, j], vs[i, j]))
                np.testing.assert_array_equal(batch[:, i, j], single)


class TestBilinearGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(23)
        t = Tensor3(rng.normal(size=(2, 5, 7)))
        proj = rng.normal(size=2)
        for _ in range(50):
            u = rng.uniform(0.1, t.width - 1.1) + rng.uniform(0.1, 0.9)
            v = rng.uniform(0.1, t.height - 1.1) + rng.uniform(0.1, 0.9)
            u = min(max(u, 0.1), t.width - 1.1)
            v = min(max(v, 0.1), t.height - 1.1)
            _, du, dv = bilinear_sample_grad(t, PixelCoord(u, v))
            analytic = np.array([proj @ du, proj @ dv])

            def scalar(p):
                return float(proj @ bilinear_sample(t, PixelCoord(p[0], p[1])))

            err = finite_diff_check(scalar, np.array([u, v]), 1e-5, analytic)
            assert err < 1e-3

    def test_value_agrees_with_sample(self):
        rng = np.random.default_rng(29)
        t = Tensor3(rng.normal(size=(3, 4, 4)))
        for _ in range(20):
            at = PixelCoord(rng.uniform(-1, 4.5), rng.uniform(-1, 4.5))
            value, _, _ = bilinear_sample_grad(t, at)
            assert value.tobytes() == bilinear_sample(t, at).tobytes()
        # Every corner term is -0.0: the sample sums them from +0.0, so must the value.
        t = Tensor3.full(1, 3, 3, -0.0)
        value, _, _ = bilinear_sample_grad(t, PixelCoord(1, 1))
        assert value.tobytes() == bilinear_sample(t, PixelCoord(1, 1)).tobytes()
        assert not np.signbit(value).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["u", "v"])
    def test_non_finite_position_reads_zero_with_zero_partials(self, bad, axis):
        t = Tensor3.full(1, 3, 3, 1.0)
        at = PixelCoord(bad, 1.0) if axis == "u" else PixelCoord(1.0, bad)
        value, du, dv = bilinear_sample_grad(t, at)
        assert value.tobytes() == bilinear_sample(t, at).tobytes() == np.zeros(1).tobytes()
        assert du.tobytes() == dv.tobytes() == np.zeros(1).tobytes()


class TestFiniteDiffCheck:
    def test_square_function(self):
        err = finite_diff_check(lambda x: float(x**2), 1.0, 1e-4, 2.0)
        assert err < 1e-6

    def test_constant_function_is_exact(self):
        assert finite_diff_check(lambda x: 3.0, 1.0, 1e-4, 0.0) == 0.0

    def test_bilinear_offset_oracle(self):
        # Central differences are the oracle for the hand-derived weights.
        rng = np.random.default_rng(31)
        t = Tensor3(rng.normal(size=(1, 6, 6)))

        def scalar(p):
            return float(bilinear_sample(t, PixelCoord(p[0], p[1]))[0])

        point = np.array([2.3, 3.6])
        _, du, dv = bilinear_sample_grad(t, PixelCoord(point[0], point[1]))
        err = finite_diff_check(scalar, point, 1e-4, np.array([du[0], dv[0]]))
        assert err < 1e-3

    def test_non_finite_value_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_check(lambda x: float("nan"), 1.0, 1e-4, 0.0)

    def test_bad_epsilon_raises(self):
        with pytest.raises(ValueError, match="epsilon"):
            finite_diff_check(lambda x: 0.0, 1.0, 0.0, 0.0)

    def test_relative_error_normalization(self):
        # analytic 3, true derivative 4 -> |4-3|/max(1,3) = 1/3
        err = finite_diff_check(lambda x: float(4.0 * x), 1.0, 1e-4, 3.0)
        assert err == pytest.approx(1.0 / 3.0, rel=1e-6)


class TestRawTensorFormat:
    def test_round_trip_f32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(37)
        t = Tensor3(rng.normal(size=(2, 3, 4)).astype(np.float32))
        path = tmp_path / "t.rt"
        write_raw_tensor(t, path, dtype="f32")
        back = read_raw_tensor(path)
        assert back.data.dtype == np.float64
        np.testing.assert_array_equal(back.data, t.data)
        write_raw_tensor(back, tmp_path / "again.rt", dtype="f32")
        assert (tmp_path / "again.rt").read_bytes() == path.read_bytes()

    def test_f32_file_reads_as_float64_holding_the_f32_values(self, tmp_path):
        values = (np.random.default_rng(43).normal(size=(2, 3, 4)) * 1e3).astype("<f4")
        path = tmp_path / "t.rt"
        path.write_bytes(b'{"dtype":"f32","shape":[2,3,4]}\n' + values.tobytes())
        back = read_raw_tensor(path)
        assert back.data.dtype == np.float64
        assert back.data.tobytes() == values.astype(np.float64).tobytes()

    def test_default_dtype_is_f64(self, tmp_path):
        t = Tensor3(np.random.default_rng(47).normal(size=(1, 2, 3)))
        path = tmp_path / "t.rt"
        write_raw_tensor(t, path)
        line, _, payload = path.read_bytes().partition(b"\n")
        assert json.loads(line) == {"dtype": "f64", "shape": [1, 2, 3]}
        assert payload == t.data.astype("<f8").tobytes()

    def test_round_trip_f64(self, tmp_path):
        t = Tensor3(np.random.default_rng(41).normal(size=(1, 2, 2)))
        path = tmp_path / "t.rt"
        write_raw_tensor(t, path, dtype="f64")
        np.testing.assert_array_equal(read_raw_tensor(path).data, t.data)

    def test_header_layout(self, tmp_path):
        t = Tensor3.full(2, 3, 4, 0.5)
        path = tmp_path / "t.rt"
        write_raw_tensor(t, path, dtype="f32")
        raw = path.read_bytes()
        line, _, payload = raw.partition(b"\n")
        assert line == b'{"dtype":"f32","shape":[2,3,4]}'
        assert json.loads(line) == {"dtype": "f32", "shape": [2, 3, 4]}
        assert len(payload) == 2 * 3 * 4 * 4

    def test_payload_is_little_endian_row_major(self, tmp_path):
        t = Tensor3(np.arange(6, dtype=np.float64).reshape(1, 2, 3))
        path = tmp_path / "t.rt"
        write_raw_tensor(t, path, dtype="f32")
        payload = path.read_bytes().partition(b"\n")[2]
        vals = np.frombuffer(payload, dtype="<f4")
        np.testing.assert_array_equal(vals, np.arange(6, dtype=np.float32))

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.rt"
        path.write_bytes(b"not json\n\x00\x00")
        with pytest.raises(ValueError, match="malformed"):
            read_raw_tensor(path)

    def test_unknown_dtype_rejected(self, tmp_path):
        path = tmp_path / "bad.rt"
        path.write_bytes(b'{"dtype":"i8","shape":[1,1,1]}\n\x00')
        with pytest.raises(ValueError, match="dtype"):
            read_raw_tensor(path)

    def test_bad_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.rt"
        path.write_bytes(b'{"dtype":"f32","shape":[1,1]}\n' + b"\x00" * 4)
        with pytest.raises(ValueError, match="shape"):
            read_raw_tensor(path)

    @pytest.mark.parametrize(
        "header,where",
        [
            (b'{"dtype":"f32","shape":[1,1,1],"order":"C"}', "order: unknown key; known: dtype, shape"),
            (b'{"dtype":"f32"}', "shape: missing"),
            (b'{"dtype":"i8","shape":[1,1,1]}', "dtype: must be one of f32, f64"),
            (b'{"dtype":"f32","shape":[1,0,1]}', "shape[1]: must be >= 1"),
            (b'{"dtype":"f32","shape":[1,true,1]}', "shape[1]: must be an integer"),
        ],
        ids=["unknown_key", "missing_key", "dtype", "zero_dim", "bool_dim"],
    )
    def test_header_error_names_the_key(self, tmp_path, header, where):
        path = tmp_path / "bad.rt"
        path.write_bytes(header + b"\n" + bytes(4))
        with pytest.raises(ValueError) as info:
            read_raw_tensor(path)
        assert str(info.value) == f"{path}: malformed raw tensor header: {where}"

    def test_shape_when_given_must_match(self, tmp_path):
        t = Tensor3(np.arange(6, dtype=np.float64).reshape(1, 2, 3))
        path = tmp_path / "t.rt"
        write_raw_tensor(t, path)
        np.testing.assert_array_equal(read_raw_tensor(path, (1, 2, 3)).data, t.data)
        with pytest.raises(ValueError) as info:
            read_raw_tensor(path, (1, 3, 2))
        assert str(info.value) == f"{path}: must be [1, 3, 2], got [1, 2, 3]"

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.rt"
        path.write_bytes(b'{"dtype":"f32","shape":[1,1,2]}\n' + b"\x00" * 4)
        with pytest.raises(ValueError, match="payload"):
            read_raw_tensor(path)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_blocks_of_rows_write_the_one_shot_bytes(self, tmp_path, monkeypatch, dtype):
        # Blocks of 3 rows over 2 x 7 rows, so a block spans two channels and the
        # last one is short.
        t = Tensor3(np.random.default_rng(53).normal(size=(2, 7, 5)))
        monkeypatch.setattr(nightbev.core, "LEVEL_BLOCK_BYTES", 3 * 5 * 8)
        write_raw_tensor(t, tmp_path / "t.rt", dtype)
        payload = (tmp_path / "t.rt").read_bytes().partition(b"\n")[2]
        assert payload == t.data.astype({"f32": "<f4", "f64": "<f8"}[dtype]).tobytes()

    def test_peak_memory_below_one_f32_copy(self, tmp_path, peak_bytes):
        # bev_wide's 64 x 200 x 200 logits: no full-size cast or bytes copy exists.
        t = Tensor3(np.random.default_rng(59).normal(size=(64, 200, 200)))
        assert peak_bytes(write_raw_tensor, t, tmp_path / "t.rt", "f32") < 64 * 200 * 200 * 4
