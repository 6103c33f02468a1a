"""Tensor conventions, channel statistics, and the FPQT container format.

Tensors are plain numpy arrays.  Working precision is float64 everywhere in
memory; the on-disk container stores float32.  All operations are pure: no
function in this package mutates its inputs.  Weight matrices are stored
input_dim x output_dim so activations @ weights composes left to right, and
the channel axis of a 2-D activation batch is the last one (columns).

Container layout (all integers little-endian):

    magic   4 bytes  'FPQT'
    version u8       1
    count   u32      number of entries
    entry:  name_len u16, name utf-8, dtype u8 (0 = float32), ndim u8,
            dims u64 * ndim, payload float32 * prod(dims), row-major

No NaN or Inf value is admitted through I/O in either direction.
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO

import numpy as np

from .errors import FormatError, NumericalError, ShapeError

MAGIC = b"FPQT"
VERSION = 1
DTYPE_F32 = 0

WORKING_DTYPE = np.float64
STORAGE_DTYPE = np.dtype("<f4")


def quantile_nearest_rank(values: np.ndarray, alpha: float) -> float:
    """Lower nearest-rank quantile of |values|: the ceil(alpha/100 * N)-th
    smallest magnitude (1-based).  alpha must lie strictly inside (0, 100)."""
    if not 0.0 < alpha < 100.0:
        raise ValueError(f"alpha must be in (0, 100) exclusive, got {alpha}")
    flat = np.abs(np.asarray(values, dtype=WORKING_DTYPE)).ravel()
    if flat.size == 0:
        raise ValueError("quantile of an empty tensor is undefined")
    k = math.ceil(alpha / 100.0 * flat.size)
    return float(np.partition(flat, k - 1)[k - 1])


def channel_stat(x: np.ndarray, stat: str, alpha: float | None = None) -> np.ndarray:
    """Per-channel statistic of a 2-D batch (rows = samples, columns = channels).

    stat is one of 'max_abs', 'median_abs', or 'quantile' (which needs alpha
    in (0, 100) exclusive, lower nearest-rank convention on magnitudes).
    """
    x = np.asarray(x, dtype=WORKING_DTYPE)
    if x.ndim != 2:
        raise ShapeError(f"channel_stat needs a 2-D batch, got shape {x.shape}")
    mag = np.abs(x)
    if stat == "max_abs":
        return mag.max(axis=0)
    if stat == "median_abs":
        return np.median(mag, axis=0)
    if stat == "quantile":
        if alpha is None:
            raise ValueError("stat 'quantile' requires alpha")
        if not 0.0 < alpha < 100.0:
            raise ValueError(f"alpha must be in (0, 100) exclusive, got {alpha}")
        k = math.ceil(alpha / 100.0 * x.shape[0])
        return np.sort(mag, axis=0)[k - 1]
    raise ValueError(f"unknown stat {stat!r}; expected max_abs, median_abs, or quantile")


# ---------------------------------------------------------------------------
# FPQT container
# ---------------------------------------------------------------------------


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors to an FPQT container, casting values to float32."""
    blobs = []
    for name, value in tensors.items():
        arr = np.ascontiguousarray(np.asarray(value, dtype=WORKING_DTYPE))
        if not np.isfinite(arr).all():
            raise NumericalError(f"tensor {name!r} contains NaN or Inf")
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise ValueError(f"tensor name too long: {len(name_bytes)} bytes")
        if arr.ndim > 0xFF:
            raise ShapeError(f"tensor {name!r} has too many dims: {arr.ndim}")
        header = struct.pack("<H", len(name_bytes)) + name_bytes
        header += struct.pack("<BB", DTYPE_F32, arr.ndim)
        header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        payload = arr.astype(STORAGE_DTYPE).tobytes(order="C")
        blobs.append(header + payload)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", VERSION))
        fh.write(struct.pack("<I", len(blobs)))
        for blob in blobs:
            fh.write(blob)


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read an FPQT container back into float64 arrays.

    Raises FormatError (carrying the byte offset of the defect) on bad magic,
    unsupported version or dtype, truncation, duplicate names, trailing
    bytes, or non-finite payload values.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_container(data)


def _parse_container(data: bytes) -> dict[str, np.ndarray]:
    def need(offset: int, count: int, what: str) -> None:
        if offset + count > len(data):
            raise FormatError(f"truncated container: expected {what}", offset)

    need(0, 4, "magic")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", 0)
    need(4, 1, "version byte")
    version = data[4]
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    need(5, 4, "entry count")
    (count,) = struct.unpack_from("<I", data, 5)
    offset = 9

    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        need(offset, 2, "name length")
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        need(offset, name_len, "name")
        try:
            name = data[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("tensor name is not valid UTF-8", offset) from None
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r}", offset)
        offset += name_len
        need(offset, 2, "dtype tag and ndim")
        dtype_tag, ndim = data[offset], data[offset + 1]
        if dtype_tag != DTYPE_F32:
            raise FormatError(f"unsupported dtype tag {dtype_tag}", offset)
        offset += 2
        need(offset, 8 * ndim, "dims")
        dims = struct.unpack_from(f"<{ndim}Q", data, offset)
        offset += 8 * ndim
        n_elems = 1
        for d in dims:
            n_elems *= d
        payload_offset = offset
        need(offset, 4 * n_elems, f"payload of {name!r}")
        arr = np.frombuffer(data, dtype=STORAGE_DTYPE, count=n_elems, offset=offset)
        offset += 4 * n_elems
        if not np.isfinite(arr).all():
            raise FormatError(f"tensor {name!r} contains NaN or Inf", payload_offset)
        tensors[name] = arr.astype(WORKING_DTYPE).reshape(dims)
    if offset != len(data):
        raise FormatError(f"{len(data) - offset} trailing bytes after last entry", offset)
    return tensors
