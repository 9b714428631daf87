"""Dense tensor container, bilinear sampling, numeric verification helpers,
and the table-driven JSON config converters.

Everything downstream (images, illumination maps, feature maps, depth
distributions, BEV rasters) is carried by the same immutable C x H x W
container. Sampling uses zero padding outside the image so out-of-view
references contribute nothing, matching the exclusion rule used by the
projection stages.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

# Raw tensor file dtype tags -> little-endian numpy dtypes.
RAW_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_MAX_HEADER_BYTES = 4096
LEVEL_BLOCK_BYTES = 1 << 20  # about 1 MiB: the size of one block of `level_blocks`


class PixelCoord(NamedTuple):
    """Continuous image-plane position: column u, row v."""

    u: float
    v: float


def frozen_array(value, what: str, dtype=np.float64) -> np.ndarray:
    """One read-only, C-ordered copy of `value` (any dtype, memory order or nesting)
    as `dtype`: the storage rule of every value object, so stages read it as is and
    share it across threads. Non-finite floats raise ValueError("<what> must be finite")."""
    arr = np.array(value, dtype=dtype, order="C")
    if np.issubdtype(arr.dtype, np.floating) and not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


def level_blocks(levels: int, level_bytes: int) -> list[slice]:
    """Consecutive blocks of whole levels, in order, about `LEVEL_BLOCK_BYTES`
    each and at least one level, when each level holds `level_bytes`."""
    step = max(1, LEVEL_BLOCK_BYTES // level_bytes)
    return [slice(start, start + step) for start in range(0, levels, step)]


def ordered_sum(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=0)` with the terms added one by one from +0.0 in index order.

    numpy adds along a run that is contiguous in memory pairwise, so a (K, 1)
    array sums in another order than a (K, 2) one; here each element's bits do
    not depend on the sizes of the other axes.
    """
    total = np.zeros(a.shape[1:])
    for term in a:
        total += term
    return total


@dataclass(frozen=True)
class Tensor3:
    """Immutable dense C x H x W tensor of finite values, stored by `frozen_array`
    as float64, so every stage reads the data as is. `take_over` stores a stage's
    own new array instead, without a copy."""

    data: np.ndarray

    def __post_init__(self) -> None:
        self._store(frozen_array(self.data, "Tensor3 values"))

    def _store(self, arr: np.ndarray) -> None:
        if arr.ndim != 3:
            raise ValueError(f"Tensor3 expects 3 dims (C,H,W), got {arr.ndim}")
        if any(s <= 0 for s in arr.shape):
            raise ValueError(f"Tensor3 dims must be positive, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @classmethod
    def take_over(cls, arr: np.ndarray) -> "Tensor3":
        """A Tensor3 holding `arr` itself, which is frozen in place: for the
        C-contiguous, finite float64 array that a stage has just made. The
        caller must hold no other reference to it, nor a view of it; writing
        through `arr` afterwards raises. Input from outside goes through the
        constructor, which copies."""
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.float64
            and arr.flags.c_contiguous
            and arr.base is None
        ):
            raise ValueError("take_over needs a C-contiguous float64 array that owns its data")
        if not np.isfinite(arr).all():
            raise ValueError("Tensor3 values must be finite")
        t = object.__new__(cls)
        t._store(arr)
        arr.flags.writeable = False
        return t

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @classmethod
    def zeros(cls, channels: int, height: int, width: int) -> "Tensor3":
        return cls(np.zeros((channels, height, width)))

    @classmethod
    def full(cls, channels: int, height: int, width: int, value: float) -> "Tensor3":
        return cls(np.full((channels, height, width), float(value)))


def zero_bordered(f: Tensor3) -> np.ndarray:
    """`f`'s (C, H+2, W+2) values inside a one-pixel zero border: the table
    every bilinear gather reads, which a caller sampling one map in many calls
    builds once."""
    return np.pad(f.data, ((0, 0), (1, 1), (1, 1)))


def _bilinear_corners(padded: np.ndarray, x0, y0) -> Iterator[np.ndarray]:
    """The four (C, *coords) corner values around floored positions (x0, y0),
    read from a map's `zero_bordered` table.

    Pixel centers sit at integer coordinates; corners come one at a time in
    the order (x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1). Every
    corner index is clipped into the border, so a corner off the map reads +0.0.
    """
    c, h, w = padded.shape[0], padded.shape[1] - 2, padded.shape[2] - 2
    flat = padded.reshape(c, -1)
    cols = [np.clip(x0 + d, -1, w).astype(np.int64) + 1 for d in (0, 1)]
    rows = [(np.clip(y0 + d, -1, h).astype(np.int64) + 1) * (w + 2) for d in (0, 1)]
    for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        yield np.take(flat, rows[dy] + cols[dx], axis=1)


def bilinear_sample_many(f: Tensor3, u, v, padded: np.ndarray | None = None) -> np.ndarray:
    """Bilinear interpolation at many continuous positions at once.

    `u`/`v` are broadcast-compatible arrays of column/row coordinates; the
    result has shape (C, *coords). Pixel centers sit at integer coordinates;
    positions outside [0, W-1] x [0, H-1] read virtual zero pixels, and a
    non-finite position reads 0. `padded`, if given, is `zero_bordered(f)`,
    so a caller sampling `f` in many calls pads it once.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64))
    # A non-finite position moves two pixels off the map, where every corner reads 0.
    u = np.where(np.isfinite(u), u, -2.0)
    v = np.where(np.isfinite(v), v, -2.0)
    x0 = np.floor(u)
    y0 = np.floor(v)
    wx, wy = u - x0, v - y0
    ax, ay = 1.0 - wx, 1.0 - wy
    corners = _bilinear_corners(zero_bordered(f) if padded is None else padded, x0, y0)
    # Summing into +0.0 keeps a -0.0 corner term from surfacing as -0.0.
    out = np.zeros((f.channels,) + u.shape, dtype=np.float64)
    for wgt, corner in zip((ax * ay, wx * ay, ax * wy, wx * wy), corners):
        out += wgt * corner
    return out


def bilinear_sample(f: Tensor3, at: PixelCoord) -> np.ndarray:
    """Bilinearly interpolated channel vector at one continuous position."""
    return bilinear_sample_many(f, float(at[0]), float(at[1]))


def bilinear_sample_grad(
    f: Tensor3, at: PixelCoord
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample value plus analytic partials w.r.t. u and v.

    The derivative is the exact gradient of the piecewise-bilinear surface
    (zero-padded outside the image); it is only meaningful away from the
    integer-coordinate kinks.
    """
    u = float(at[0])
    v = float(at[1])
    x0 = math.floor(u)
    y0 = math.floor(v)
    wx = u - x0
    wy = v - y0
    f00, f10, f01, f11 = _bilinear_corners(zero_bordered(f), float(x0), float(y0))

    value = (
        (1.0 - wx) * (1.0 - wy) * f00
        + wx * (1.0 - wy) * f10
        + (1.0 - wx) * wy * f01
        + wx * wy * f11
    )
    du = (1.0 - wy) * (f10 - f00) + wy * (f11 - f01)
    dv = (1.0 - wx) * (f01 - f00) + wx * (f11 - f10)
    return value, du, dv


def finite_diff_check(
    func: Callable[[np.ndarray], float],
    point,
    epsilon: float,
    analytic_gradient,
) -> float:
    """Max relative error between central differences and an analytic gradient.

    Per coordinate: |central_diff - analytic| / max(1, |analytic|). All
    arithmetic is double precision regardless of the caller's storage dtype;
    a non-finite function value raises ValueError.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    p = np.array(point, dtype=np.float64)
    g = np.asarray(analytic_gradient, dtype=np.float64)
    if g.shape != p.shape:
        g = np.broadcast_to(g, p.shape)

    worst = 0.0
    for i in range(p.size):
        xp = p.copy()
        xp.flat[i] += epsilon
        fp = float(func(xp))
        xm = p.copy()
        xm.flat[i] -= epsilon
        fm = float(func(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("non-finite function value in finite_diff_check")
        cd = (fp - fm) / (2.0 * epsilon)
        gi = float(g.flat[i])
        err = abs(cd - gi) / max(1.0, abs(gi))
        worst = max(worst, err)
    return worst


def write_raw_tensor(t: Tensor3, path, dtype: str = "f64") -> None:
    """Write the raw tensor format: one JSON header line, then LE payload (f64 by default).

    The payload is written in blocks of whole rows of about `LEVEL_BLOCK_BYTES`,
    each cast to `dtype` on its own, so no full-size copy of the tensor exists.
    """
    if dtype not in RAW_DTYPES:
        raise ValueError(f"unknown raw tensor dtype {dtype!r}")
    header = json.dumps(
        {"dtype": dtype, "shape": [t.channels, t.height, t.width]},
        separators=(",", ":"),
    )
    rows = t.data.reshape(-1, t.width)  # (C*H, W), a view of the C-ordered data
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for block in level_blocks(len(rows), rows[0].nbytes):
            fh.write(rows[block].astype(RAW_DTYPES[dtype], copy=False))


def write_json(obj, path) -> None:
    """Write `obj` as indented ASCII JSON plus a final newline."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_json(path):
    """Parse an ASCII JSON file; undecodable or malformed JSON and nesting
    deeper than the parser recurses raise ValueError naming the file."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad ASCII or JSON, or nested too deep
            raise ValueError(f"{path}: {exc}") from exc


def read_raw_tensor(path, shape: tuple[int, int, int] | None = None) -> Tensor3:
    """Read the raw tensor format, f32 or f64 on disk, into a float64 Tensor3.

    An f32 payload's values are held exactly, since every float32 is a float64.
    A malformed file, or one whose [C, H, W] is not `shape` when that is given,
    raises ValueError naming it, e.g. `<path>: must be [1, 4, 4], got [1, 2, 2]`.
    """
    with open(path, "rb") as fh:
        try:
            line = fh.readline(_MAX_HEADER_BYTES)
            if not line.endswith(b"\n"):
                raise ValueError("malformed raw tensor header (no newline)")
            try:  # bad UTF-8 or JSON, nested too deep, or a bad key
                header = _RAW_HEADER(json.loads(line.decode("ascii")), "")
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"malformed raw tensor header: {exc}") from exc
            dt, got = header["dtype"], header["shape"]
            if shape is not None and got != tuple(shape):
                raise ValueError(f"must be {list(shape)}, got {list(got)}")
            expected = got[0] * got[1] * got[2] * dt.itemsize
            payload = fh.read()
            if len(payload) != expected:
                raise ValueError(f"raw tensor payload is {len(payload)} bytes, expected {expected}")
            arr = np.frombuffer(payload, dtype=dt).reshape(got)
            return Tensor3(arr)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


# JSON scalar types a converter table may name in place of a converter.
_JSON_SCALARS = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string"}


def _convert(conv, value, path: str):
    if conv not in _JSON_SCALARS:
        return conv(value, path)
    ok = type(value) is conv or conv is float and type(value) is int
    if not ok or conv is float and not abs(value) <= sys.float_info.max:  # nan, inf, huge ints
        raise ValueError(f"{path}: must be {_JSON_SCALARS[conv]}")
    return conv(value)


def json_path(base_dir, is_kind: Callable[[Path], bool], what: str) -> Callable:
    """Converter for a path string, resolved against `base_dir`, that `is_kind` accepts."""

    def convert(value, path: str) -> Path:
        p = Path(base_dir) / _convert(str, value, path)  # an absolute path replaces base_dir
        try:
            if is_kind(p):
                return p
        except (OSError, ValueError):  # a name too long or holding NUL is missing too
            pass
        raise ValueError(f"{path}: {what} missing: {p}")

    return convert


def json_list(item, length: int | None = None) -> Callable:
    """Converter for a JSON array (of `length` items, if given) into a tuple."""

    def convert(value, path: str) -> tuple:
        if type(value) is not list or length not in (None, len(value)):
            raise ValueError(f"{path}: must be an array" + (f" of {length}" if length else ""))
        return tuple(_convert(item, v, f"{path}[{i}]") for i, v in enumerate(value))

    return convert


def json_block(table: dict, build: Callable = dict, required: bool = False) -> Callable:
    """Converter for a JSON object into `build(**converted)` over the keys present.

    `table` maps each key to a JSON scalar type or a converter `conv(value,
    path)`, which gets the dotted key path (e.g. "lights[0].radius") and
    raises only ValueError naming it. Unknown keys are rejected, null selects
    the default, and with `required` every key needs a value. A ValueError
    from `build` gets the block's path as prefix (the top level's is empty).
    """

    def convert(value, path: str):
        if type(value) is not dict:
            raise ValueError(f"{path or 'top level'}: must be a JSON object")
        at = f"{path}." if path else ""
        unknown = [key for key in value if key not in table]
        if unknown:
            raise ValueError(f"{at}{unknown[0]}: unknown key; known: {', '.join(table)}")
        fields = {k: _convert(table[k], v, at + k) for k, v in value.items() if v is not None}
        missing = [key for key in table if key not in fields] if required else []
        if missing:
            raise ValueError(f"{at}{missing[0]}: missing")
        try:
            return build(**fields)
        except ValueError as exc:
            if not path:
                raise
            raise ValueError(f"{path}: {exc}") from exc

    return convert


def _raw_dtype(value, path: str) -> np.dtype:
    tag = _convert(str, value, path)
    if tag not in RAW_DTYPES:
        raise ValueError(f"{path}: must be one of {', '.join(RAW_DTYPES)}")
    return RAW_DTYPES[tag]


def _positive(value, path: str) -> int:
    if _convert(int, value, path) < 1:
        raise ValueError(f"{path}: must be >= 1")
    return value


# The raw tensor header: {"dtype": "f32" or "f64", "shape": [C, H, W]}, nothing else.
_RAW_HEADER = json_block({"dtype": _raw_dtype, "shape": json_list(_positive, 3)}, required=True)
