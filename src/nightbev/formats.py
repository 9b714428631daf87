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
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Tensor3(arr.transpose(2, 0, 1) / 255.0)


def read_pgm(path) -> Tensor3:
    """Read a binary PGM into a 1 x H x W tensor with values in [0,1]."""
    return _read_pnm(path, b"P5", 1)


def read_ppm(path) -> Tensor3:
    """Read a binary PPM into a 3 x H x W tensor with values in [0,1]."""
    return _read_pnm(path, b"P6", 3)


def _write_rows(fh, data: np.ndarray) -> None:
    """Write a (C, H, W) array as 8-bit samples, pixels interleaved row by row:
    each value clipped to [0,1], scaled by 255 and rounded. It runs in blocks of
    whole rows of about `LEVEL_BLOCK_BYTES`, so no full-size temporary exists."""
    c, h, w = data.shape
    for rows in level_blocks(h, 8 * c * w):
        scaled = np.clip(data[:, rows], 0.0, 1.0)
        scaled *= 255.0
        np.rint(scaled, out=scaled)
        fh.write(scaled.astype(np.uint8).transpose(1, 2, 0).tobytes())


def write_pgm(t, path) -> None:
    """Write a 1 x H x W tensor (or 2D array) as binary PGM, scaled by 255."""
    if isinstance(t, Tensor3):
        if t.channels != 1:
            raise ValueError(f"PGM requires 1 channel, got {t.channels}")
        plane = t.data[0]
    else:
        plane = np.asarray(t, dtype=np.float64)
        if plane.ndim != 2:
            raise ValueError("PGM requires a 2D array")
    h, w = plane.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        _write_rows(fh, plane[None])


def write_ppm(t: Tensor3, path) -> None:
    """Write a 3 x H x W tensor as binary PPM, scaled by 255."""
    if t.channels != 3:
        raise ValueError(f"PPM requires 3 channels, got {t.channels}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{t.width} {t.height}\n255\n".encode("ascii"))
        _write_rows(fh, t.data)


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
