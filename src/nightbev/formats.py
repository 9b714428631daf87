"""Binary PPM (P6) and PGM (P5) codecs, 8-bit only, values mapped to [0,1],
and `write_artifacts`, the one writer of every output file."""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .core import _MAX_HEADER_BYTES, Tensor3, level_blocks, write_json, write_raw_tensor
from .metrics import write_iou_csv


# Whitespace or a `#` comment running to the end of its line.
_SEP = rb"(?:[ \t\r\n]|#[^\n]*\n)"
# A PNM header: the magic, then width, height and maxval in ASCII decimal, each
# token preceded by separators, and one separator after maxval.
_PNM_HEADER = re.compile(_SEP + rb"*([^ \t\r\n#]+)" + (_SEP + rb"+([0-9]+)") * 3 + _SEP)


def _read_pnm(path, magic: bytes, channels: int) -> Tensor3:
    """A binary PNM's channels x H x W values in [0,1]; errors name the file.

    The header must match `_PNM_HEADER` within the first `_MAX_HEADER_BYTES`."""
    with open(path, "rb") as fh:
        try:
            header = _PNM_HEADER.match(fh.read(_MAX_HEADER_BYTES))
            if header is None:
                raise ValueError(
                    f"malformed PNM header: no magic, width, height and maxval"
                    f" in the first {_MAX_HEADER_BYTES} bytes"
                )
            if header[1] != magic:
                raise ValueError(f"expected {magic.decode()} file, got magic {header[1]!r}")
            width, height, maxval = map(int, header.groups()[1:])
            if width <= 0 or height <= 0:
                raise ValueError(f"bad PNM dimensions {width}x{height}")
            if maxval != 255:
                raise ValueError(f"only 8-bit PNM supported (maxval 255), got {maxval}")
            size = width * height * channels
            # Compare with the file first, so a header alone never sizes a read.
            if os.fstat(fh.fileno()).st_size - header.end() < size:
                raise ValueError(f"truncated {magic.decode()} payload")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        fh.seek(header.end())
        payload = fh.read(size)
    samples = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Tensor3.take_over(np.divide(samples.transpose(2, 0, 1), 255.0, order="C"))


def read_pgm(path) -> Tensor3:
    """Read a binary PGM into a 1 x H x W tensor with values in [0,1]."""
    return _read_pnm(path, b"P5", 1)


def read_ppm(path) -> Tensor3:
    """Read a binary PPM into a 3 x H x W tensor with values in [0,1]."""
    return _read_pnm(path, b"P6", 3)


def _quantize(block: np.ndarray, out: np.ndarray) -> None:
    """The 8-bit samples of a (C, rows, W) block of values, put into `out`, a
    (rows, W, C) uint8 array: each value clipped to [0,1], scaled by 255 and
    rounded. The one quantizer of every PGM and PPM."""
    scaled = np.clip(block, 0.0, 1.0)
    scaled *= 255.0
    np.rint(scaled, out=scaled)
    np.copyto(out.transpose(2, 0, 1), scaled, casting="unsafe")


def _samples(data: np.ndarray) -> np.ndarray:
    """The (H, W, C) uint8 samples of a (C, H, W) array of values, quantized in
    blocks of whole rows of about `LEVEL_BLOCK_BYTES` of float64, so no float64
    temporary exists beyond one block."""
    c, h, w = data.shape
    samples = np.empty((h, w, c), dtype=np.uint8)
    for rows in level_blocks(h, 8 * c * w):
        _quantize(data[:, rows], samples[rows])
    return samples


def _write_pnm(path, magic: bytes, samples: np.ndarray) -> None:
    """Write a PNM header and its (H, W, C) uint8 samples, the pixels interleaved
    row by row."""
    h, w = samples.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(samples))


def ppm_samples(t: Tensor3) -> np.ndarray:
    """The (H, W, 3) uint8 samples that `write_ppm` writes for a 3 x H x W
    tensor."""
    if t.channels != 3:
        raise ValueError(f"PPM requires 3 channels, got {t.channels}")
    return _samples(t.data)


def write_pgm(t, path) -> None:
    """Write a 1 x H x W tensor (or a non-empty 2D array of finite values) as
    binary PGM, scaled by 255."""
    if isinstance(t, Tensor3):
        if t.channels != 1:
            raise ValueError(f"PGM requires 1 channel, got {t.channels}")
        data = t.data
    else:
        plane = np.asarray(t, dtype=np.float64)
        if plane.ndim != 2 or plane.size == 0:
            raise ValueError(f"PGM requires a non-empty 2D array, got shape {plane.shape}")
        if not np.isfinite(plane).all():
            raise ValueError("PGM values must be finite")
        data = plane[None]
    _write_pnm(path, b"P5", _samples(data))


def write_ppm(t, path) -> None:
    """Write a 3 x H x W tensor as binary PPM, scaled by 255, or the non-empty
    (H, W, 3) uint8 samples that `ppm_samples` made of one, as they are."""
    if isinstance(t, Tensor3):
        t = ppm_samples(t)
    elif not (isinstance(t, np.ndarray) and t.dtype == np.uint8 and t.shape[2:] == (3,) and t.size):
        raise ValueError("PPM samples must be a non-empty (H, W, 3) uint8 array")
    _write_pnm(path, b"P6", t)


def write_artifacts(out_dir, artifacts) -> None:
    """Create `out_dir` and write each (name, value) pair in order.

    The name's suffix picks the codec: `.rt` a float32 raw tensor, `.pgm`,
    `.ppm`, `.json`, and `.csv` an IoU table. The codecs are looked up on
    every call, so a module attribute rebound later (a timing wrapper, say)
    sees every write.
    """
    codecs = {
        ".rt": lambda t, path: write_raw_tensor(t, path, dtype="f32"),
        ".pgm": write_pgm,
        ".ppm": write_ppm,
        ".json": write_json,
        ".csv": write_iou_csv,
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, value in artifacts:
        codecs[Path(name).suffix](value, out / name)
