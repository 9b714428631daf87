"""Each pixel convention has one implementation; these pin it to the bytes of
the copies it replaced.

The references below are the earlier bodies, unchanged but for silenced
cast warnings: a bilinear sampler with one boolean-masked gather per corner,
a gradient that reads its corners through a closure, and an illumination
field that builds, projects and floors its own column grid.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nightbev.core import PixelCoord, Tensor3, bilinear_sample_grad, bilinear_sample_many
from nightbev.geometry import (
    BevSpec,
    CameraMatrix,
    column_pixels,
    illumination_field,
    pixel_centers,
    project_points,
    sample_heights,
)

INF = float("inf")


def masked_bilinear_sample_many(f, u, v):
    """Reference: one masked gather per corner, skipping corners off the map."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u, v = np.broadcast_arrays(u, v)
    data = f.data.astype(np.float64, copy=False)
    c, h, w = data.shape

    x0 = np.floor(u)
    y0 = np.floor(v)
    with np.errstate(invalid="ignore"):  # non-finite positions give junk, masked below
        wx = u - x0
        wy = v - y0
        x0i = x0.astype(np.int64)
        y0i = y0.astype(np.int64)

    out = np.zeros((c,) + u.shape, dtype=np.float64)
    corners = (
        (0, 0, (1.0 - wx) * (1.0 - wy)),
        (1, 0, wx * (1.0 - wy)),
        (0, 1, (1.0 - wx) * wy),
        (1, 1, wx * wy),
    )
    for dx, dy, wgt in corners:
        xi = x0i + dx
        yi = y0i + dy
        m = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        if m.any():
            out[:, m] += wgt[m] * data[:, yi[m], xi[m]]
    return out


def closure_bilinear_sample_grad(f, at):
    """Reference: value and partials with corners read one by one."""
    u = float(at[0])
    v = float(at[1])
    data = f.data.astype(np.float64, copy=False)
    c, h, w = data.shape
    x0 = int(np.floor(u))
    y0 = int(np.floor(v))
    wx = u - x0
    wy = v - y0

    def pix(xi, yi):
        if 0 <= xi < w and 0 <= yi < h:
            return data[:, yi, xi]
        return np.zeros(c, dtype=np.float64)

    f00 = pix(x0, y0)
    f10 = pix(x0 + 1, y0)
    f01 = pix(x0, y0 + 1)
    f11 = pix(x0 + 1, y0 + 1)

    value = (
        (1.0 - wx) * (1.0 - wy) * f00
        + wx * (1.0 - wy) * f10
        + (1.0 - wx) * wy * f01
        + wx * wy * f11
    )
    du = (1.0 - wy) * (f10 - f00) + wy * (f11 - f01)
    dv = (1.0 - wx) * (f01 - f00) + wx * (f11 - f10)
    return value, du, dv


def floor_illumination_field(i, m, spec, n_z):
    """Reference: the field with its own column grid, projection and floor gate."""
    heights = sample_heights(spec, n_z)
    gx, gy, gz = np.meshgrid(spec.x_centers(), spec.y_centers(), heights, indexing="ij")
    pts = np.stack([gx, gy, gz], axis=-1)
    u, v, _, valid = project_points(m, pts)

    with np.errstate(invalid="ignore"):
        iu = np.floor(u).astype(np.int64)
        iv = np.floor(v).astype(np.int64)
    in_image = valid & (iu >= 0) & (iu <= i.width - 1) & (iv >= 0) & (iv <= i.height - 1)
    values = np.zeros_like(u)
    if in_image.any():
        values[in_image] = i.data[0, iv[in_image], iu[in_image]]
    counts = in_image.sum(axis=-1)
    sums = values.sum(axis=-1)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)


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
    @settings(max_examples=250, deadline=None)
    @given(map_and_points())
    @example((Tensor3(np.full((1, 1, 1), -0.0)), np.array([0.0, -0.0, 0.5]), np.array([0.0, 0.0, -0.5])))
    @example((Tensor3(np.full((2, 1, 1), 3.0)), np.array([-INF, INF, 0.0]), np.array([0.0, 0.0, INF])))
    def test_bytes_equal_masked_reference(self, case):
        f, u, v = case
        out = bilinear_sample_many(f, u, v)
        assert out.shape == (f.channels, u.size)
        assert out.tobytes() == masked_bilinear_sample_many(f, u, v).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(map_and_points())
    def test_broadcast_shapes_match_reference(self, case):
        f, u, v = case
        u2, v2 = u[:, None], v[None, :3]
        assert bilinear_sample_many(f, u2, v2).tobytes() == masked_bilinear_sample_many(f, u2, v2).tobytes()
        one = bilinear_sample_many(f, u[0], v[0])
        assert one.shape == (f.channels,)
        assert one.tobytes() == masked_bilinear_sample_many(f, u[0], v[0]).tobytes()

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
    @settings(max_examples=200, deadline=None)
    @given(map_and_points(finite=True))
    @example((Tensor3(np.full((1, 1, 1), -0.0)), np.array([0.0, -0.0]), np.array([-0.0, 0.5])))
    def test_value_and_partials_equal_reference_bytes(self, case):
        f, u, v = case
        for at in zip(u, v):
            got = bilinear_sample_grad(f, PixelCoord(*at))
            expected = closure_bilinear_sample_grad(f, at)
            for g, e in zip(got, expected):
                assert np.asarray(g).tobytes() == np.asarray(e).tobytes()


def overhead_view(spec, h, w, f_scale, shift, tilt):
    """A camera above the grid looking down; f_scale 1 frames the grid in an h x w map."""
    xc, yc = np.mean(spec.x_range), np.mean(spec.y_range)
    top = spec.z_range[1] + 5.0
    span_x = spec.x_range[1] - spec.x_range[0]
    span_y = spec.y_range[1] - spec.y_range[0]
    f = 0.9 * min(w / span_x, h / span_y) * 5.0 * f_scale
    cu, cv = w / 2 + shift[0], h / 2 + shift[1]
    return CameraMatrix(
        [
            [f, 0.0, -cu, -f * xc + cu * top],
            [0.0, -f, -cv, f * yc + cv * top],
            [tilt, 0.0, -1.0, top],  # a tilt leans the image plane; depth may turn negative
        ]
    )


class TestIlluminationFieldOracle:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        cells=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        n_z=st.integers(1, 6),
        hw=st.tuples(st.integers(1, 10), st.integers(1, 10)),
        f_scale=st.floats(0.2, 6.0),
        shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        tilt=st.sampled_from([0.0, 0.3, -1.5]),
        data=st.data(),
    )
    def test_bytes_equal_reference(self, cells, n_z, hw, f_scale, shift, tilt, data):
        spec = BevSpec(
            x_range=(-1.0, -1.0 + 0.5 * cells[0]),
            y_range=(2.0, 2.0 + 0.5 * cells[1]),
            z_range=(-1.0, 2.0),
            voxel=0.5,
        )
        i = Tensor3(data.draw(map_data(1, *hw)))
        try:
            m = overhead_view(spec, *hw, f_scale, shift, tilt)
        except ValueError as exc:  # the 3x3 block's determinant is f * (f - cu * tilt)
            assert "singular" in str(exc)
            reject()
        field = illumination_field(i, m, spec, n_z)
        assert field.tobytes() == floor_illumination_field(i, m, spec, n_z).tobytes()


class TestColumnPixels:
    def test_projection_floors_and_gate(self):
        spec = BevSpec(x_range=(-1.0, 3.0), y_range=(2.0, 5.0), z_range=(-1.0, 2.0), voxel=0.5)
        m = overhead_view(spec, 6, 7, 1.6, (1.0, -0.5), -3.0)
        u, v, iu, iv, in_map = column_pixels(m, spec, 4, 6, 7)
        heights = sample_heights(spec, 4)
        gx, gy, gz = np.meshgrid(spec.x_centers(), spec.y_centers(), heights, indexing="ij")
        pu, pv, _, valid = project_points(m, np.stack([gx, gy, gz], axis=-1))
        assert u.shape == (8, 6, 4) and u.tobytes() == pu.tobytes() and v.tobytes() == pv.tobytes()
        np.testing.assert_array_equal(iu, np.floor(u))
        np.testing.assert_array_equal(iv, np.floor(v))
        np.testing.assert_array_equal(in_map, valid & (iu >= 0) & (iu < 7) & (iv >= 0) & (iv < 6))
        assert not valid.all() and 0 < in_map.sum() < valid.sum()


def test_pixel_centers_sit_half_a_pixel_in():
    grid = pixel_centers(2, 3)
    assert grid.shape == (3, 2, 3)
    np.testing.assert_array_equal(grid[0], [[0.5, 1.5, 2.5], [0.5, 1.5, 2.5]])
    np.testing.assert_array_equal(grid[1], [[0.5, 0.5, 0.5], [1.5, 1.5, 1.5]])
    np.testing.assert_array_equal(grid[2], 1.0)
