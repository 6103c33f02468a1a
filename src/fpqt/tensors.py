"""Tensor conventions, channel statistics, and the FPQT container format.

Tensors are plain numpy arrays.  Working precision is float64: every array
the package returns is float64, and the on-disk container stores float32.
`fpqt quantize` alone works internally in float32, the container's own
width, wherever the grid it snaps onto fits float32 (see quantize): it reads
each payload through the private float32 stream, and the kernels it calls
(format selection, the snap, the error sums and the writer) take a float32
array as it is, with no float64 copy, and give the bits of its float64 upcast.
All operations are pure: no function in this package mutates its inputs.
Weight matrices are stored input_dim x output_dim so activations @ weights
composes left to right, and the channel axis of a 2-D activation batch is
the last one (columns).

Quantized linear layers run as exact float32 GEMMs: see fusion.block_forward.

Container layout (all integers little-endian):

    magic   4 bytes  'FPQT'
    version u8       1
    count   u32      number of entries
    entry:  name_len u16, name utf-8, dtype u8 (0 = float32), ndim u8,
            dims u64 * ndim, payload float32 * prod(dims), row-major

No NaN or Inf value is admitted through I/O in either direction.

The container is read and written one entry at a time.  iter_tensors
streams validated entries, each payload read straight from the file;
read_tensors collects that stream into a dict.  Every file the package
writes goes through _replacing: a new file beside a regular output (or its
symlink's target) replaces it only once the write succeeds, so a failure
part way, such as a repeated name, leaves the output as it was.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import BinaryIO

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


def as_working(x, copy: bool = False) -> np.ndarray:
    """x as a WORKING_DTYPE array, a new one when copy is set; TypeError naming
    the dtype of complex input, whose imaginary part the cast would drop, and
    of string, bytes or void input, which is not numeric data."""
    x = np.asarray(x)
    if x.dtype.kind in "cSUV":
        what = "complex" if x.dtype.kind == "c" else "string, bytes or void"
        raise TypeError(f"{what} input is not supported, got dtype {x.dtype}")
    return np.array(x, dtype=WORKING_DTYPE) if copy else np.asarray(x, dtype=WORKING_DTYPE)


def as_float(x) -> np.ndarray:
    """x itself when it is a native float32 or float64 array, else as_working(x):
    the kernels that read a float32 array in its own width take it this way."""
    x = np.asarray(x)
    return x if x.dtype in (np.float32, np.float64) else as_working(x)


def max_abs(x: np.ndarray, axis: int | tuple[int, ...] | None = None) -> np.ndarray:
    """max |x| along axis (over all of x for None), without an |x| copy: 0.0
    for an empty line and +0.0, never -0.0, for an all-zero one; NaN or Inf
    when the line holds one."""
    peak = np.maximum(x.max(axis=axis, initial=0.0), -x.min(axis=axis, initial=0.0))
    return peak + 0.0  # np.maximum(0.0, -0.0) may give -0.0


def channel_stat(x: np.ndarray, stat: str) -> np.ndarray:
    """Per-channel statistic of a nonempty 2-D batch (rows = samples, columns =
    channels); stat 'max_abs', the peak magnitude of each channel, is the one there
    is.  NumericalError when the batch holds NaN or Inf."""
    x = as_working(x)
    if x.ndim != 2 or x.size == 0:
        raise ShapeError(f"channel_stat needs a nonempty 2-D batch, got shape {x.shape}")
    if stat != "max_abs":
        raise ValueError(f"unknown stat {stat!r}; expected max_abs")
    peaks = max_abs(x, 0)
    if not np.isfinite(peaks).all():  # the max carries any NaN or Inf through
        raise NumericalError("channel statistics of non-finite values are undefined")
    return peaks


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
    file order, reading one payload at a time.  The stream keeps no part of
    an entry it has yielded, so a consumer that drops one frees it at once.

    Raises FormatError (carrying the byte offset of the defect) on bad magic,
    unsupported version or dtype, truncation, duplicate names, trailing
    bytes, or non-finite payload values.  Each field is checked against the
    file size before it is read; the trailing-bytes check runs once the last
    entry has been consumed.  The file is closed when the stream ends, fails
    or is closed.  TypeError unless path is a str, bytes or os.PathLike.
    """
    return _iter_entries(path, WORKING_DTYPE)


def _iter_entries(path, dtype) -> Iterator[tuple[str, np.ndarray]]:
    """iter_tensors' stream with each payload as a dtype array: WORKING_DTYPE, or
    float32 for the stored values themselves, read-only and without a copy."""
    _check_path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(count: int, what: str) -> tuple[int, bytes]:
            """The offset and the bytes of the next count; FormatError if the file has fewer."""
            at = fh.tell()
            if at + count > size or len(data := fh.read(count)) != count:
                raise FormatError(f"truncated container: expected {what}", at)
            return at, data

        def payload(name: str, dims: tuple[int, ...], dims_at: int) -> np.ndarray:
            """The next payload as a dtype array of dims, which alone holds its
            bytes, so the stream holds nothing while suspended."""
            at, raw = read(4 * math.prod(dims), f"payload of {name!r}")
            # a nonempty entry this large is already truncated; an empty one is not
            if len(dims) > _MAX_NDIM or math.prod(d for d in dims if d) > _MAX_ELEMS:
                raise FormatError(f"dims {dims} of {name!r} exceed numpy's array limits", dims_at)
            values = np.frombuffer(raw, dtype=STORAGE_DTYPE)
            if not np.isfinite(values).all():
                raise FormatError(f"tensor {name!r} contains NaN or Inf", at)
            return values.astype(dtype, copy=False).reshape(dims)

        magic = read(4, "magic")[1]
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
        (version,) = read(1, "version byte")[1]
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", 4)
        (count,) = struct.unpack("<I", read(4, "entry count")[1])

        seen: set[str] = set()
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2, "name length")[1])
            at, raw = read(name_len, "name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("tensor name is not valid UTF-8", at) from None
            if name in seen:
                raise FormatError(f"duplicate tensor name {name!r}", at)
            seen.add(name)
            at, (dtype_tag, ndim) = read(2, "dtype tag and ndim")
            if dtype_tag != DTYPE_F32:
                raise FormatError(f"unsupported dtype tag {dtype_tag}", at)
            dims_at, raw = read(8 * ndim, "dims")
            yield name, payload(name, struct.unpack(f"<{ndim}Q", raw), dims_at)
        if fh.tell() != size:
            raise FormatError(f"{size - fh.tell()} trailing bytes after last entry", fh.tell())


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a whole FPQT container into float64 arrays (see iter_tensors)."""
    return dict(iter_tensors(path))


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors to an FPQT container, casting values to float32."""
    _write_entries(path, tensors.items())


def _write_entries(path, pairs: Iterable[tuple[str, np.ndarray]]) -> int:
    """Write (name, array) pairs to an FPQT container through _replacing, one
    entry at a time, and return how many were written.  Raises NumericalError
    for a value that is NaN or Inf in float32, and ValueError for a repeated
    name; path is then left as it was."""
    with _replacing(path) as fh:
        fh.write(MAGIC + struct.pack("<BI", VERSION, 0))
        names: set[str] = set()
        for name, value in pairs:
            if not isinstance(name, str):
                raise TypeError(f"tensor name must be a str, got {type(name).__name__} {name!r}")
            if name in names:
                raise ValueError(f"duplicate tensor name {name!r}")
            names.add(name)
            arr = as_float(value)  # float32 and float64 are cast straight to storage
            name_bytes = name.encode("utf-8")
            if len(name_bytes) > 0xFFFF:
                raise ValueError(f"tensor name too long: {len(name_bytes)} bytes")
            with np.errstate(over="ignore"):
                payload = np.ascontiguousarray(arr, dtype=STORAGE_DTYPE)
            if not np.isfinite(payload).all():
                raise NumericalError(f"tensor {name!r} contains NaN or Inf (or overflows float32)")
            fh.write(struct.pack("<H", len(name_bytes)) + name_bytes)
            fh.write(struct.pack(f"<BB{arr.ndim}Q", DTYPE_F32, arr.ndim, *arr.shape))
            fh.write(payload)
        fh.seek(len(MAGIC) + 1)
        fh.write(struct.pack("<I", len(names)))
    return len(names)


def _check_path(path) -> None:
    """TypeError unless path is a str, bytes or os.PathLike: open() would take
    an int as a file descriptor of the caller's, and close it."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise TypeError(f"path must be a str, bytes or os.PathLike, got {type(path).__name__}")


@contextmanager
def _replacing(path) -> Iterator[BinaryIO]:
    """Yield a binary file that replaces path (its target, if path is a
    symlink) when the block exits cleanly; on any exception it is removed
    and path is left as it was.  The file is new, beside its target, with
    mode 0o666 less the umask, as open(path, "wb") would give.  Raises
    FileExistsError when path exists and is not a regular file.  An OSError
    naming no file, or the temporary one, is raised again naming path."""
    _check_path(path)
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        raise FileExistsError(f"{real!r} exists and is not a regular file")
    head, tail = os.path.split(real)
    while True:
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, real)
    except BaseException as exc:
        os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename is None and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None  # EFBIG, ENOSPC
        raise
