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
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# Raw tensor file dtype tags -> little-endian numpy dtypes.
RAW_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_MAX_HEADER_BYTES = 4096


class PixelCoord(NamedTuple):
    """Continuous image-plane position: column u, row v."""

    u: float
    v: float


@dataclass(frozen=True)
class Tensor3:
    """Immutable dense C x H x W tensor, row-major per channel.

    Data is copied on construction and marked read-only, so instances are
    safe to share across threads. Only float32/float64 storage is allowed;
    all values must be finite.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, copy=True)
        if arr.ndim != 3:
            raise ValueError(f"Tensor3 expects 3 dims (C,H,W), got {arr.ndim}")
        if any(s <= 0 for s in arr.shape):
            raise ValueError(f"Tensor3 dims must be positive, got {arr.shape}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("Tensor3 values must be finite")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

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


def bilinear_sample_many(f: Tensor3, u, v) -> np.ndarray:
    """Bilinear interpolation at many continuous positions at once.

    `u`/`v` are broadcast-compatible arrays of column/row coordinates; the
    result has shape (C, *coords). Pixel centers sit at integer coordinates;
    positions outside [0, W-1] x [0, H-1] read virtual zero pixels.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u, v = np.broadcast_arrays(u, v)
    data = f.data.astype(np.float64, copy=False)
    c, h, w = data.shape

    x0 = np.floor(u)
    y0 = np.floor(v)
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
    data = f.data.astype(np.float64, copy=False)
    c, h, w = data.shape
    x0 = int(np.floor(u))
    y0 = int(np.floor(v))
    wx = u - x0
    wy = v - y0

    def pix(xi: int, yi: int) -> np.ndarray:
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


def write_raw_tensor(t: Tensor3, path, dtype: str | None = None) -> None:
    """Write the raw tensor format: one JSON header line, then LE payload."""
    if dtype is None:
        dtype = "f32" if t.data.dtype == np.float32 else "f64"
    if dtype not in RAW_DTYPES:
        raise ValueError(f"unknown raw tensor dtype {dtype!r}")
    header = json.dumps(
        {"dtype": dtype, "shape": [t.channels, t.height, t.width]},
        separators=(",", ":"),
    )
    payload = np.ascontiguousarray(t.data, dtype=RAW_DTYPES[dtype]).tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(payload)


def write_json(obj, path) -> None:
    """Write `obj` as indented ASCII JSON plus a final newline."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_raw_tensor(path) -> Tensor3:
    """Read the raw tensor format; preserves the on-disk precision in memory."""
    with open(path, "rb") as fh:
        line = fh.readline(_MAX_HEADER_BYTES)
        if not line.endswith(b"\n"):
            raise ValueError("malformed raw tensor header (no newline)")
        try:
            header = json.loads(line.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed raw tensor header: {exc}") from exc
        if not isinstance(header, dict) or "dtype" not in header or "shape" not in header:
            raise ValueError("raw tensor header must carry 'dtype' and 'shape'")
        tag = header["dtype"]
        if tag not in RAW_DTYPES:
            raise ValueError(f"unsupported raw tensor dtype {tag!r}")
        shape = header["shape"]
        if (
            not isinstance(shape, list)
            or len(shape) != 3
            or not all(isinstance(s, int) and s > 0 for s in shape)
        ):
            raise ValueError(f"bad raw tensor shape {shape!r}")
        dt = RAW_DTYPES[tag]
        expected = shape[0] * shape[1] * shape[2] * dt.itemsize
        payload = fh.read()
        if len(payload) != expected:
            raise ValueError(
                f"raw tensor payload is {len(payload)} bytes, expected {expected}"
            )
        arr = np.frombuffer(payload, dtype=dt).reshape(shape)
        return Tensor3(arr)


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
