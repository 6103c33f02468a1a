"""MinMax minifloat quantization.

The quantizer snaps each element to the nearest point of a per-channel
minifloat grid, ties rounding away from zero.  The grid's exponent bias is
derived from the channel's largest magnitude: bias is the unique integer b
with max_val * 2^b <= max|channel| < max_val * 2^(b+1), so the channel max
lands inside the top exponent level (elements above the grid ceiling, at
most 2x, clamp onto it).  An all-zero channel gets bias 0.

One in-place kernel does every snap, as a hardware cast would: clamp the
magnitude to the grid ceiling, read its binade from the float exponent
(frexp), raise that to the lowest grid level (the subnormal ramp shares
level 1's spacing), scale into mantissa units, round half away from zero,
and scale back.  Both scalings are ldexp by int32 exponents, never a
multiplication by a reciprocal (which overflows for subnormal spacings), so
results are bit-reproducible and land exactly on grid points.  Per-channel
grid constants are computed once per call, or once per GPTQ sweep.

The snap and quant_error run in blocks of about 32 K elements along the
outermost axis in memory, so each chain of elementwise steps stays in cache.
quant_error's maxima are exact and its sums are numpy's pairwise sums per
block, never BLAS, so its numbers do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError
from .formats import FpFormat
from .tensors import WORKING_DTYPE

# exponent of the smallest positive float64, the subnormal 2^-1074
_MIN_EXP = -1074
_BLOCK_ELEMS = 1 << 15  # elements per block of the elementwise kernels (256 KiB)


@dataclass(frozen=True)
class QuantizedTensor:
    """Fake-quantized values plus the exponent bias of their grid.

    values: float64 array, every element exactly on its channel's grid.
    bias: per-channel integer exponent bias, shape (n_channels,) when
        quantization ran along a channel axis, 0-d when it was per-tensor.
    """

    values: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.bias.setflags(write=False)


def channel_bias(a: np.ndarray, fmt: FpFormat, channel_axis: int | None = -1) -> np.ndarray:
    """Integer exponent bias per channel: largest b with max_val * 2^b <= max|a|.

    Computed exactly from the frexp split of max|a| and max_val: at equal
    exponents the comparison is one of mantissas, so nothing overflows near
    float64 max or rounds near the subnormal range.  Scaling a channel by 2^k
    shifts its bias by exactly k.  An empty channel, like an all-zero one,
    gets bias 0.  A channel_axis outside a's dims is a ShapeError.
    """
    a = np.asarray(a, dtype=WORKING_DTYPE)
    axis = None
    if channel_axis is not None:
        if not -a.ndim <= channel_axis < a.ndim:
            raise ShapeError(f"channel_axis {channel_axis} is outside shape {a.shape}")
        a = np.moveaxis(a, channel_axis, -1)
        axis = tuple(range(a.ndim - 1))
    amax = np.maximum(a.max(axis=axis, initial=0.0), -a.min(axis=axis, initial=0.0))
    if not np.isfinite(amax).all():  # max and min carry any NaN or Inf through
        raise NumericalError("cannot quantize non-finite values")

    # amax = fa * 2^ea and max_val = fv * 2^ev with fa, fv in [0.5, 1), so
    # max_val * 2^(ea - ev) <= amax exactly when fv <= fa
    frac_a, exp_a = np.frexp(amax)
    frac_v, exp_v = math.frexp(fmt.max_val)
    bias = exp_a.astype(np.int64) - exp_v - (frac_a < frac_v)
    return np.where(amax == 0.0, np.int64(0), bias)


def _grid_constants(fmt: FpFormat, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid ceiling and lowest-level spacing exponent for broadcast biases."""
    bias = np.asarray(bias, dtype=np.int64)
    return np.ldexp(fmt.max_val, bias), (bias + (1 - fmt.n_m)).astype(np.int32)


def _blocks(x: np.ndarray, *operands: np.ndarray):
    """(x block, operand blocks...) of about _BLOCK_ELEMS elements along x's axis of
    largest stride, contiguous pieces of a C- or F-ordered x; operands broadcast."""
    if x.size <= _BLOCK_ELEMS:  # one block, without broadcast views: they cost more than a GPTQ row
        yield x, *operands
        return
    axis = max(range(x.ndim), key=lambda i: abs(x.strides[i]))
    n = x.shape[axis]
    step = max(1, _BLOCK_ELEMS * n // x.size)
    operands = [np.broadcast_to(o, x.shape) for o in operands]
    for i in range(0, n, step):
        block = (slice(None),) * axis + (slice(i, i + step),)
        yield x[block], *(o[block] for o in operands)


def _snap(x: np.ndarray, n_m: int, vmax: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Snap a 1-D or larger x in place to the nearest grid point, ties away from zero.

    vmax (grid ceiling) and lo (spacing exponent of the lowest level) come
    from _grid_constants and broadcast against x.  Magnitudes above the
    ceiling clamp onto it.  The result takes the sign of x < 0, so -0.0
    maps to +0.0 and a negative value that rounds to zero gives -0.0.
    Returns x (partly snapped when it raises).
    """
    may_underflow = lo.min(initial=0) < _MIN_EXP
    for xb, vmax_b, lo_b in _blocks(x, vmax, lo):
        xb += 0.0  # -0.0 becomes +0.0, so copying x's sign back matches x < 0
        mag = np.minimum(np.abs(xb), vmax_b)
        exp = np.empty_like(mag, dtype=np.int32)
        # split mag = m * 2^exp in place, m in [0.5, 1): the mantissa buffer is
        # the working array, and scaling m by 2^(exp - spacing) is exactly
        # ldexp(mag, -spacing) without a second float64 array
        np.frexp(mag, out=(mag, exp))
        # spacing exponent of the grid level holding mag; the subnormal ramp
        # shares level 1's spacing (lo), and a zero snaps to 0 at any spacing
        spacing = exp + np.int32(-1 - n_m)
        np.maximum(spacing, lo_b, out=spacing)
        # raise when a value's spacing is below the smallest float64; a zero sits
        # on the lowest level, so its grid's lowest spacing must be representable
        if may_underflow and np.any((spacing < _MIN_EXP) | ((mag == 0.0) & (lo_b < _MIN_EXP))):
            raise NumericalError("grid scale underflowed float64; data magnitude too small")
        exp -= spacing
        np.ldexp(mag, exp, out=mag)  # magnitude in units of the grid spacing
        mag += 0.5
        np.floor(mag, out=mag)
        np.ldexp(mag, spacing, out=mag)
        np.copysign(mag, xb, out=xb)
    return x


def minmax_quantize(
    a: np.ndarray, fmt: FpFormat, channel_axis: int | None = -1
) -> QuantizedTensor:
    """Quantize onto per-channel minifloat grids anchored at the channel max.

    channel_axis selects which axis indexes channels (default: last, the
    column convention for 2-D batches and input_dim x output_dim weights);
    None quantizes the whole tensor on a single grid.  Returns the
    fake-quantized values together with the frozen per-channel biases.
    """
    values = np.array(a, dtype=WORKING_DTYPE)
    bias = channel_bias(values, fmt, channel_axis)
    # views of values: a 0-d array is snapped through its 1-element view
    moved = np.atleast_1d(values) if channel_axis is None else np.moveaxis(values, channel_axis, -1)
    _snap(moved, fmt.n_m, *_grid_constants(fmt, bias))
    return QuantizedTensor(values=values, bias=bias)


def snap_per_channel(x: np.ndarray, fmt: FpFormat, bias: np.ndarray | int) -> np.ndarray:
    """Snap values onto minifloat grids with a broadcast exponent bias.

    bias is an integer or an integer array that broadcasts against x: a
    scalar puts every element on one fixed grid, a vector along the last
    axis gives each column its own.  Nearest point, ties away from zero,
    magnitudes beyond the ceiling clamped; agrees element-wise with
    minmax_quantize wherever the bias matches.  Returns a new array shaped
    like x.
    """
    x = np.array(x, dtype=WORKING_DTYPE)
    if not np.isfinite(x).all():
        raise NumericalError("cannot quantize non-finite values")
    bias = np.asarray(bias)
    if bias.ndim > x.ndim or any(b not in (1, n) for b, n in zip(bias.shape[::-1], x.shape[::-1])):
        raise ShapeError(f"bias of shape {bias.shape} does not broadcast to values {x.shape}")
    _, exp_v = math.frexp(fmt.max_val)
    if np.any(bias > 1024 - exp_v) or np.any(bias < _MIN_EXP - 1 - exp_v):
        raise NumericalError("exponent bias puts the whole grid outside float64 range")
    _snap(np.atleast_1d(x), fmt.n_m, *_grid_constants(fmt, bias))  # a view of x, even 0-d
    return x


def quant_error(a: np.ndarray, q: np.ndarray) -> dict[str, float]:
    """Error metrics between a reference tensor and its quantized version.

    Returns mse, max_abs, sqnr_db, and cosine similarity.  sqnr_db is the
    +inf sentinel when the error is zero or the signal is zero (undefined);
    cosine is 1.0 for identical tensors and 0.0 when exactly one side is
    all zeros.  Beyond a peak magnitude of 2^+-256, where sums of squares
    could overflow or sink into subnormals, both tensors are first scaled
    exactly by the power of two that brings the peak into [0.5, 1); an error
    whose own peak then lies beyond 2^+-256 is scaled the same way before it
    is squared.  Ratios are unchanged, and mse and max_abs are scaled back
    (+inf only when the true value exceeds float64).
    """
    a = np.asarray(a, dtype=WORKING_DTYPE)
    q = np.asarray(q, dtype=WORKING_DTYPE)
    if a.shape != q.shape:
        raise ShapeError(f"mismatched shapes {a.shape} and {q.shape}")
    a, q = np.atleast_1d(a, q)  # 0-d operands would give scalars, not out= buffers
    if a.size == 0:
        return {"mse": 0.0, "max_abs": 0.0, "sqnr_db": float("inf"), "cosine": 1.0}
    k = kd = 0
    with np.errstate(over="ignore", invalid="ignore"):  # sums beyond 2^256 are discarded
        peak, max_abs, sdd, saa, sqq, saq = _error_sums(a, q, k, kd)
    if abs(math.frexp(peak)[1]) > 256:
        k = math.frexp(peak)[1]
        _, max_abs, sdd, saa, sqq, saq = _error_sums(a, q, k, kd)
    if abs(math.frexp(max_abs)[1]) > 256:
        kd = math.frexp(max_abs)[1]
        _, _, sdd, saa, sqq, saq = _error_sums(a, q, k, kd)
    mse, signal = sdd / a.size, saa / a.size
    sqnr_db = float("inf") if mse == 0.0 or signal == 0.0 else (
        10.0 * float(np.log10(signal / mse)) - 20.0 * math.log10(2.0) * kd)
    na, nq = math.sqrt(saa), math.sqrt(sqq)
    cosine = saq / (na * nq) if na and nq else float(na == nq)  # 1.0 when both are zero
    with np.errstate(over="ignore"):
        mse, max_abs = float(np.ldexp(mse, 2 * (k + kd))), float(np.ldexp(max_abs, k))
    return {"mse": mse, "max_abs": max_abs, "sqnr_db": sqnr_db, "cosine": cosine}


def _error_sums(a: np.ndarray, q: np.ndarray, k: int, kd: int) -> tuple[float, ...]:
    """One blocked pass over 2^-k a and 2^-k q: exact peak of |a|, |q| and max|a - q|,
    then sums of (2^-kd (a - q))^2, a^2, q^2 and a*q by numpy, never BLAS."""
    peak = max_abs = sdd = saa = sqq = saq = 0.0
    for ab, qb in _blocks(a, q):
        if k:
            ab, qb = np.ldexp(ab, -k), np.ldexp(qb, -k)
        peak = np.max([peak, ab.max(), -ab.min(), qb.max(), -qb.min()])
        d = np.subtract(ab, qb)
        max_abs = np.maximum(max_abs, np.abs(d, out=d).max())
        if kd:
            np.ldexp(d, -kd, out=d)
        sdd += np.multiply(d, d, out=d).sum()
        saq += np.multiply(ab, qb, out=d).sum()
        sqq += np.multiply(qb, qb, out=d).sum()
        saa += np.multiply(ab, ab, out=d).sum()
    return float(peak), float(max_abs), float(sdd), float(saa), float(sqq), float(saq)
