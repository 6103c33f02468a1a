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

The container is read and written one entry at a time.  iter_tensors
streams validated entries, each payload read straight from the file;
read_tensors collects that stream into a dict.  Writes go to a temporary
file in the output's directory, get their entry count patched in at the
end, and then replace the output, so a failure part way leaves the output
as it was; a repeated name is such a failure.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import FormatError, NumericalError, ShapeError

MAGIC = b"FPQT"
VERSION = 1
DTYPE_F32 = 0

WORKING_DTYPE = np.float64
STORAGE_DTYPE = np.dtype("<f4")
# numpy refuses a shape whose nonzero dims multiply past this, even when
# another dim is 0, and more dims than 32 before numpy 2.0 or 64 since
_MAX_ELEMS = np.iinfo(np.intp).max // np.dtype(WORKING_DTYPE).itemsize
_MAX_NDIM = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32


def _partitioned_magnitudes(values: np.ndarray, alpha: float) -> tuple[np.ndarray, int]:
    """|values| as a new flat array partitioned at the 0-based index k of its
    lower nearest-rank alpha-quantile, the ceil(alpha/100 * size)-th smallest
    (1-based): flat[k] is the quantile and every entry after it is at least
    as large.  alpha must lie strictly inside (0, 100)."""
    if not 0.0 < alpha < 100.0:
        raise ValueError(f"alpha must be in (0, 100) exclusive, got {alpha}")
    flat = np.abs(np.asarray(values, dtype=WORKING_DTYPE)).ravel()
    if flat.size == 0:
        raise ValueError("quantile of an empty tensor is undefined")
    k = math.ceil(alpha / 100.0 * flat.size) - 1
    flat.partition(k)
    return flat, k


def channel_stat(x: np.ndarray, stat: str) -> np.ndarray:
    """Per-channel statistic of a 2-D batch (rows = samples, columns = channels);
    stat 'max_abs', the peak magnitude of each channel, is the one there is."""
    x = np.asarray(x, dtype=WORKING_DTYPE)
    if x.ndim != 2:
        raise ShapeError(f"channel_stat needs a 2-D batch, got shape {x.shape}")
    if stat != "max_abs":
        raise ValueError(f"unknown stat {stat!r}; expected max_abs")
    return np.abs(x).max(axis=0)


def channel_max_median_ratio(x: np.ndarray) -> float:
    """Channel outlier profile of a 2-D batch: the largest per-channel peak
    magnitude over the median of those peaks; +inf when the median is 0."""
    cmax = channel_stat(x, "max_abs")
    med = float(np.median(cmax))
    return float("inf") if med == 0.0 else float(cmax.max()) / med


# ---------------------------------------------------------------------------
# FPQT container
# ---------------------------------------------------------------------------


def iter_tensors(path) -> Iterator[tuple[str, np.ndarray]]:
    """Yield the entries of an FPQT container as (name, float64 array), in
    file order, reading one payload at a time.

    Raises FormatError (carrying the byte offset of the defect) on bad magic,
    unsupported version or dtype, truncation, duplicate names, trailing
    bytes, or non-finite payload values.  Each field is checked against the
    file size before it is read; the trailing-bytes check runs once the last
    entry has been consumed.  The file is closed when the stream ends, fails
    or is closed.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = 0

        def take(count: int, what: str) -> int:
            """Claim the next count bytes; return the offset they start at."""
            nonlocal offset
            if offset + count > size:
                raise FormatError(f"truncated container: expected {what}", offset)
            offset += count
            return offset - count

        take(4, "magic")
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
        take(1, "version byte")
        (version,) = fh.read(1)
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", 4)
        take(4, "entry count")
        (count,) = struct.unpack("<I", fh.read(4))

        seen: set[str] = set()
        for _ in range(count):
            take(2, "name length")
            (name_len,) = struct.unpack("<H", fh.read(2))
            at = take(name_len, "name")
            try:
                name = fh.read(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("tensor name is not valid UTF-8", at) from None
            if name in seen:
                raise FormatError(f"duplicate tensor name {name!r}", at)
            seen.add(name)
            at = take(2, "dtype tag and ndim")
            dtype_tag, ndim = fh.read(2)
            if dtype_tag != DTYPE_F32:
                raise FormatError(f"unsupported dtype tag {dtype_tag}", at)
            dims_at = take(8 * ndim, "dims")
            dims = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
            n_bytes = 4 * math.prod(dims)
            at = take(n_bytes, f"payload of {name!r}")
            # a nonempty entry this large is already truncated; an empty one is not
            if ndim > _MAX_NDIM or math.prod(d for d in dims if d) > _MAX_ELEMS:
                raise FormatError(f"dims {dims} of {name!r} exceed numpy's array limits", dims_at)
            payload = np.empty(n_bytes // 4, dtype=STORAGE_DTYPE)
            if fh.readinto(payload) != n_bytes:
                raise FormatError(f"truncated container: expected payload of {name!r}", at)
            if not np.isfinite(payload).all():
                raise FormatError(f"tensor {name!r} contains NaN or Inf", at)
            yield name, payload.astype(WORKING_DTYPE).reshape(dims)
        if offset != size:
            raise FormatError(f"{size - offset} trailing bytes after last entry", offset)


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a whole FPQT container into float64 arrays (see iter_tensors)."""
    return dict(iter_tensors(path))


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors to an FPQT container, casting values to float32."""
    _write_entries(path, tensors.items())


def _write_entries(path, pairs: Iterable[tuple[str, np.ndarray]]) -> int:
    """Write (name, array) pairs to an FPQT container one entry at a time and
    return how many were written.

    The entries go to a new file in the directory of path (of its target, if
    path is a symlink), which replaces it only once the last pair has been
    written; if pairs or a check raises, that file is removed and path is
    left as it was.  Raises NumericalError for a value that is NaN or Inf in
    float32, and ValueError for a repeated name.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        raise FileExistsError(f"{path!r} exists and is not a regular file")
    tmp, fd = _create_beside(path)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC + struct.pack("<BI", VERSION, 0))
            names: set[str] = set()
            for name, value in pairs:
                if name in names:
                    raise ValueError(f"duplicate tensor name {name!r}")
                names.add(name)
                arr = np.asarray(value, dtype=WORKING_DTYPE)
                name_bytes = name.encode("utf-8")
                if len(name_bytes) > 0xFFFF:
                    raise ValueError(f"tensor name too long: {len(name_bytes)} bytes")
                if arr.ndim > 0xFF:
                    raise ShapeError(f"tensor {name!r} has too many dims: {arr.ndim}")
                with np.errstate(over="ignore"):
                    payload = np.ascontiguousarray(arr, dtype=STORAGE_DTYPE)
                if not np.isfinite(payload).all():
                    raise NumericalError(
                        f"tensor {name!r} contains NaN or Inf (or overflows float32)"
                    )
                fh.write(struct.pack("<H", len(name_bytes)) + name_bytes)
                fh.write(struct.pack(f"<BB{arr.ndim}Q", DTYPE_F32, arr.ndim, *arr.shape))
                fh.write(payload)
            fh.seek(len(MAGIC) + 1)
            fh.write(struct.pack("<I", len(names)))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    return len(names)


def _create_beside(path: str) -> tuple[str, int]:
    """Create a new, empty file in path's directory and return its name and a
    write descriptor.  Its mode is 0o666 less the umask, as open(path, "wb")
    would give path itself."""
    head, tail = os.path.split(path)
    while True:
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
