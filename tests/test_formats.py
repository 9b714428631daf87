"""PGM/PPM codec round trips and header validation, and the readers' errors."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nightbev.core import LEVEL_BLOCK_BYTES, Tensor3, read_raw_tensor
from nightbev.formats import read_pgm, read_ppm, write_pgm, write_ppm


class TestPgm:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        plane = rng.integers(0, 256, size=(5, 7)).astype(np.float64) / 255.0
        path = tmp_path / "m.pgm"
        write_pgm(plane, path)
        back = read_pgm(path)
        assert back.shape == (1, 5, 7)
        write_pgm(back, tmp_path / "again.pgm")
        assert (tmp_path / "again.pgm").read_bytes() == path.read_bytes()

    def test_values_scaled_by_255(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(np.full((2, 2), 0.5), path)
        back = read_pgm(path)
        assert back.data == pytest.approx(np.full((1, 2, 2), 128 / 255))

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        back = read_pgm(path)
        assert back.data[0, 0, 0] == 0.0
        assert back.data[0, 0, 1] == 1.0

    @pytest.mark.parametrize(
        "header",
        [
            b"P5\n2 1\n255\n",
            b"# made by hand\nP5\n2 1\n255\n",
            b"P5# a comment straight after the magic\n2#and after the width\n1 255\n",
            b"P5\t2\r\n1\r255\t",
            b"P5 2 1 255# a comment ending maxval\n",
        ],
        ids=["plain", "comment_before_magic", "comment_after_token", "tabs_and_crs", "comment_after_maxval"],
    )
    def test_header_forms_read_the_same_pixels(self, tmp_path, header):
        path = tmp_path / "m.pgm"
        path.write_bytes(header + b"\x00\xff")
        np.testing.assert_array_equal(read_pgm(path).data, [[[0.0, 1.0]]])

    @pytest.mark.parametrize(
        "header",
        [b"P5\n+2 1\n255\n", b"P5\n2_0 1\n255\n", b"P5\n" + b"#" * 4096 + b"\n2 1\n255\n"],
        ids=["plus_sign", "underscore", "longer_than_the_cap"],
    )
    def test_header_outside_the_grammar_rejected(self, tmp_path, header):
        path = tmp_path / "m.pgm"
        path.write_bytes(header + bytes(20))
        with pytest.raises(ValueError) as info:
            read_pgm(path)
        assert str(info.value).startswith(f"{path}: malformed PNM header")

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            read_pgm(path)

    def test_non_8bit_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="8-bit"):
            read_pgm(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_multichannel_write_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="1 channel"):
            write_pgm(Tensor3.zeros(3, 2, 2), tmp_path / "m.pgm")

    def test_out_of_range_values_clamped(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(np.array([[-0.5, 1.5]]), path)
        back = read_pgm(path)
        np.testing.assert_array_equal(back.data[0], [[0.0, 1.0]])


class TestPpm:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        img = Tensor3(rng.integers(0, 256, size=(3, 4, 6)).astype(np.float64) / 255.0)
        path = tmp_path / "i.ppm"
        write_ppm(img, path)
        back = read_ppm(path)
        assert back.shape == (3, 4, 6)
        write_ppm(back, tmp_path / "again.ppm")
        assert (tmp_path / "again.ppm").read_bytes() == path.read_bytes()

    def test_channel_layout(self, tmp_path):
        img = np.zeros((3, 1, 2))
        img[0, 0, 0] = 1.0  # red in the first pixel
        img[2, 0, 1] = 1.0  # blue in the second
        path = tmp_path / "i.ppm"
        write_ppm(Tensor3(img), path)
        payload = path.read_bytes().split(b"\n", 3)[3]
        assert payload == bytes([255, 0, 0, 0, 0, 255])

    def test_wrong_channel_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="3 channels"):
            write_ppm(Tensor3.zeros(1, 2, 2), tmp_path / "i.ppm")


def one_shot_pnm(magic: bytes, data: np.ndarray) -> bytes:
    """The whole (C, H, W) map encoded at once, pixels interleaved."""
    c, h, w = data.shape
    samples = np.rint(np.clip(data, 0.0, 1.0) * 255.0).astype(np.uint8)
    return magic + f"\n{w} {h}\n255\n".encode() + samples.transpose(1, 2, 0).tobytes()


class TestRowBlocks:
    """The writers encode blocks of about LEVEL_BLOCK_BYTES of float64 rows: 54 rows
    of a 3 x 800 PPM, 163 of an 800-wide PGM."""

    @staticmethod
    def values(rng, shape):
        # Out-of-range values and exact halves of a step, which rint sends to even.
        data = rng.uniform(-0.2, 1.2, size=shape)
        half = rng.uniform(size=shape) < 0.2
        data[half] = (rng.integers(0, 255, size=int(half.sum())) + 0.5) / 255.0
        return data

    def test_ppm_bytes_equal_one_shot_encoding(self, tmp_path):
        data = self.values(np.random.default_rng(7), (3, 130, 800))
        assert 130 % (LEVEL_BLOCK_BYTES // (8 * 3 * 800))
        write_ppm(Tensor3(data), tmp_path / "i.ppm")
        assert (tmp_path / "i.ppm").read_bytes() == one_shot_pnm(b"P6", data)

    def test_pgm_bytes_equal_one_shot_encoding(self, tmp_path):
        data = self.values(np.random.default_rng(11), (1, 400, 800))
        assert 400 % (LEVEL_BLOCK_BYTES // (8 * 800))
        write_pgm(Tensor3(data), tmp_path / "t.pgm")
        write_pgm(data[0], tmp_path / "a.pgm")
        assert (tmp_path / "t.pgm").read_bytes() == (tmp_path / "a.pgm").read_bytes() == one_shot_pnm(b"P5", data)

    def test_ppm_peak_memory_below_one_plane(self, tmp_path):
        # hires_near's 448 x 800 image: no full-size float64 or interleaved temporary.
        img = Tensor3(np.random.default_rng(13).uniform(size=(3, 448, 800)))
        tracemalloc.start()
        try:
            write_ppm(img, tmp_path / "i.ppm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 448 * 800 * 8


READERS = {"raw": read_raw_tensor, "pgm": read_pgm, "ppm": read_ppm}
# Any JSON value a raw tensor header field may be replaced with.
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(["", "f32", "f16", "3"])
JSON_VALUES = SCALARS | st.lists(SCALARS, max_size=4) | st.dictionaries(st.sampled_from(["shape", "x"]), SCALARS)


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "probe"


def read_or_value_error(reader, path, data: bytes) -> None:
    """Read `data` from a file: the reader returns a tensor or raises ValueError."""
    path.write_bytes(data)
    try:
        reader(path)
    except ValueError:
        pass


class TestReadersRaiseOnlyValueError:
    @settings(max_examples=300)
    @given(
        reader=st.sampled_from(sorted(READERS)),
        prefix=st.sampled_from([b"", b"P5", b"P6", b"P6 2 2 255\n", b'{"dtype":"f32","shape":']),
        data=st.binary(max_size=200),
    )
    @example("raw", b"", b"[" * 3000 + b"\n")  # nested deeper than the JSON parser recurses
    def test_arbitrary_bytes(self, probe, reader, prefix, data):
        read_or_value_error(READERS[reader], probe, prefix + data)

    @settings(max_examples=300)
    @given(field=st.sampled_from(["dtype", "shape", 0, 2]), value=JSON_VALUES)
    @example("dtype", [])
    def test_raw_header_with_one_field_mutated(self, probe, field, value):
        header = {"dtype": "f32", "shape": [1, 2, 3]}
        if isinstance(field, int):
            header["shape"][field] = value
        else:
            header[field] = value
        read_or_value_error(read_raw_tensor, probe, json.dumps(header).encode() + b"\n" + bytes(24))

    @settings(max_examples=300)
    @given(
        magic=st.sampled_from([b"P5", b"P6"]),
        field=st.integers(0, 3),
        token=st.binary(min_size=1, max_size=24) | st.integers().map(lambda i: str(i).encode()),
    )
    @example(b"P6", 1, str(10**12).encode())  # far more pixels than the file holds
    def test_pnm_header_with_one_field_mutated(self, probe, magic, field, token):
        tokens = [magic, b"3", b"2", b"255"]
        tokens[field] = token
        reader, channels = (read_pgm, 1) if magic == b"P5" else (read_ppm, 3)
        read_or_value_error(reader, probe, b" ".join(tokens) + b"\n" + bytes(3 * 2 * channels))
