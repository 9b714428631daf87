"""Illumination estimation, Retinex enhancement, and the brightness factor."""

import builtins
import re

import numpy as np
import pytest

from nightbev.core import Tensor3, write_raw_tensor
from nightbev.formats import read_pgm, write_pgm
from nightbev.illumination import (
    EstimatorConfig,
    box_blur,
    estimate_illumination,
    illumination_factor,
    load_illumination,
    retinex_enhance,
)


def gray(value: float, h: int = 8, w: int = 8) -> Tensor3:
    return Tensor3.full(3, h, w, value)


class TestEstimatorConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.blur_kernel == 7
        assert cfg.floor == 0.01

    @pytest.mark.parametrize(
        "kwargs", [{"stages": 0}, {"blur_kernel": 4}, {"floor": 0.0}, {"floor": 1.0}]
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)


class TestEstimateIllumination:
    def test_constant_gray_stays_constant(self):
        out = estimate_illumination(gray(0.5), EstimatorConfig(stages=4))
        np.testing.assert_allclose(out.data, 0.5, atol=1e-12)

    def test_black_image_clamps_to_floor(self):
        out = estimate_illumination(gray(0.0))
        np.testing.assert_array_equal(out.data, 0.01)

    def test_single_pixel_takes_max_channel(self):
        img = Tensor3(np.array([0.2, 0.6, 0.4]).reshape(3, 1, 1))
        out = estimate_illumination(img)
        assert out.data[0, 0, 0] == pytest.approx(0.6)

    def test_channel_permutation_invariance(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0, 1, size=(3, 6, 6))
        base = estimate_illumination(Tensor3(data))
        for perm in ([1, 2, 0], [2, 1, 0]):
            other = estimate_illumination(Tensor3(data[perm]))
            np.testing.assert_array_equal(other.data, base.data)

    def test_output_range(self):
        rng = np.random.default_rng(3)
        out = estimate_illumination(Tensor3(rng.uniform(0, 1, size=(3, 10, 12))))
        assert out.channels == 1
        assert out.data.min() >= 0.01
        assert out.data.max() <= 1.0

    def test_rejects_out_of_range_image(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            estimate_illumination(Tensor3.full(3, 2, 2, 1.5))


class TestBoxBlur:
    def test_constant_plane_unchanged(self):
        np.testing.assert_allclose(box_blur(np.full((5, 5), 0.3), 7), 0.3, atol=1e-12)

    def test_matches_brute_force_with_edge_replication(self):
        rng = np.random.default_rng(5)
        plane = rng.uniform(0, 1, size=(6, 7))
        k, r = 3, 1
        got = box_blur(plane, k)
        padded = np.pad(plane, r, mode="edge")
        for y in range(plane.shape[0]):
            for x in range(plane.shape[1]):
                window = padded[y : y + k, x : x + k]
                assert got[y, x] == pytest.approx(window.mean(), abs=1e-12)


def write_map(path) -> None:
    """A 2x2 map of 0.5 in the codec `path`'s suffix names."""
    if path.suffix == ".pgm":
        write_pgm(np.full((2, 2), 0.5), path)
    else:
        write_raw_tensor(Tensor3.full(1, 2, 2, 0.5), path, dtype="f32")


class TestLoadIllumination:
    def test_raw_tensor_values(self, tmp_path):
        path = tmp_path / "i.rt"
        write_raw_tensor(Tensor3.full(1, 4, 4, 0.5), path, dtype="f32")
        out = load_illumination(path)
        np.testing.assert_array_equal(out.data, 0.5)
        assert out.shape == (1, 4, 4)

    def test_zero_values_clamped_to_floor(self, tmp_path):
        path = tmp_path / "i.rt"
        write_raw_tensor(Tensor3.zeros(1, 2, 2), path, dtype="f32")
        out = load_illumination(path)
        np.testing.assert_array_equal(out.data, 0.01)

    def test_three_channel_file_rejected(self, tmp_path):
        path = tmp_path / "i.rt"
        write_raw_tensor(Tensor3.full(3, 2, 2, 0.5), path, dtype="f32")
        with pytest.raises(ValueError, match="1 channel"):
            load_illumination(path)

    def test_pgm_accepted(self, tmp_path):
        path = tmp_path / "i.pgm"
        write_pgm(np.full((3, 3), 0.5), path)
        out = load_illumination(path)
        assert out.shape == (1, 3, 3)
        assert out.data[0, 0, 0] == pytest.approx(128 / 255)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "i.rt"
        path.write_bytes(b"garbage")
        with pytest.raises(ValueError):
            load_illumination(path)

    @pytest.mark.parametrize(
        "header",
        [
            b"# made by hand\nP5 2 1 255\n",
            b"P5# a comment straight after the magic\n2#and after the width\n1 255\n",
            b"P5\t2\r\n1\r255\t",
        ],
        ids=["comment_before_magic", "comment_after_token", "tabs_and_crs"],
    )
    def test_pgm_header_forms_load_as_read_pgm_reads_them(self, tmp_path, header):
        path = tmp_path / "i.pgm"
        path.write_bytes(header + b"\x00\x80")
        out = load_illumination(path)
        np.testing.assert_array_equal(out.data, np.clip(read_pgm(path).data, 0.01, 1.0))
        np.testing.assert_array_equal(out.data, [[[0.01, 128 / 255]]])

    @pytest.mark.parametrize(
        "written,name,error",
        [("m.rt", "i.pgm", "malformed PNM header"), ("m.pgm", "i.rt", "malformed raw tensor header")],
        ids=["raw_tensor_named_pgm", "pgm_named_rt"],
    )
    def test_file_in_the_other_codec_rejected_naming_it(self, tmp_path, written, name, error):
        write_map(tmp_path / written)
        path = (tmp_path / written).rename(tmp_path / name)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {error}"):
            load_illumination(path)

    @pytest.mark.parametrize("name", ["i.pgm", "i.rt"])
    def test_each_map_opened_once(self, tmp_path, monkeypatch, name):
        path = tmp_path / name
        write_map(path)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        load_illumination(path)
        assert opened == [path]


class TestRetinexEnhance:
    def test_identity_at_unit_illumination(self):
        x = gray(0.3)
        out = retinex_enhance(x, Tensor3.full(1, 8, 8, 1.0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_divides_by_illumination(self):
        out = retinex_enhance(gray(0.2), Tensor3.full(1, 8, 8, 0.5))
        np.testing.assert_allclose(out.data, 0.4, atol=1e-15)

    def test_clamps_above_one(self):
        out = retinex_enhance(gray(0.8), Tensor3.full(1, 8, 8, 0.5))
        np.testing.assert_array_equal(out.data, 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            retinex_enhance(gray(0.5), Tensor3.full(1, 4, 4, 0.5))

    def test_round_trip_when_illumination_dominates(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = Tensor3(rng.uniform(0, 1, size=(3, 6, 6)))
            floor = x.data.max(axis=0)
            i = Tensor3(np.clip(floor + rng.uniform(0, 1 - floor), 0.01, 1.0)[None])
            enhanced = retinex_enhance(x, i)
            np.testing.assert_allclose(enhanced.data * i.data, x.data, atol=1e-6)

    def test_enhancement_brightens(self):
        rng = np.random.default_rng(13)
        x = Tensor3(rng.uniform(0, 1, size=(3, 5, 5)))
        i = Tensor3(rng.uniform(0.01, 1.0, size=(1, 5, 5)))
        out = retinex_enhance(x, i)
        assert (out.data >= x.data - 1e-12).all()

    def test_monotone_in_input(self):
        rng = np.random.default_rng(17)
        x1 = rng.uniform(0, 0.5, size=(3, 4, 4))
        x2 = np.clip(x1 + rng.uniform(0, 0.5, size=x1.shape), 0, 1)
        i = Tensor3(rng.uniform(0.01, 1.0, size=(1, 4, 4)))
        out1 = retinex_enhance(Tensor3(x1), i)
        out2 = retinex_enhance(Tensor3(x2), i)
        assert (out2.data >= out1.data - 1e-12).all()


class TestIlluminationFactor:
    def test_constant_map(self):
        assert illumination_factor(Tensor3.full(1, 4, 4, 0.7)) == pytest.approx(0.7)

    def test_mean_of_values(self):
        i = Tensor3(np.array([[[0.2, 0.4], [0.6, 0.8]]]))
        assert illumination_factor(i) == pytest.approx(0.5)

    def test_single_pixel(self):
        assert illumination_factor(Tensor3.full(1, 1, 1, 0.01)) == pytest.approx(0.01)

    def test_bounded_by_extremes(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            data = rng.uniform(0.01, 1.0, size=(1, 5, 7))
            lam = illumination_factor(Tensor3(data))
            assert data.min() <= lam <= data.max()
