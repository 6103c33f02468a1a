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


@dataclass(frozen=True)
class QuantizedTensor:
    """Fake-quantized values plus the grid they live on.

    values: float64 array, every element exactly on its channel's grid.
    fmt: the minifloat format.
    bias: per-channel integer exponent bias, shape (n_channels,) when
        channel_axis names an axis, 0-d when quantization was per-tensor.
    channel_axis: the axis of `values` the bias vector runs along, or None.
    """

    values: np.ndarray
    fmt: FpFormat
    bias: np.ndarray
    channel_axis: int | None

    def __post_init__(self):
        self.values.setflags(write=False)
        self.bias.setflags(write=False)


def channel_bias(a: np.ndarray, fmt: FpFormat, channel_axis: int | None = -1) -> np.ndarray:
    """Integer exponent bias per channel: largest b with max_val * 2^b <= max|a|.

    Computed exactly from the frexp split of max|a| and max_val: at equal
    exponents the comparison is one of mantissas, so nothing overflows near
    float64 max or rounds near the subnormal range.  Scaling a channel by 2^k
    shifts its bias by exactly k.  An empty channel, like an all-zero one,
    gets bias 0.
    """
    a = np.asarray(a, dtype=WORKING_DTYPE)
    axis = None
    if channel_axis is not None:
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


def _snap(x: np.ndarray, n_m: int, vmax: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Snap x in place to the nearest grid point, ties away from zero.

    vmax (grid ceiling) and lo (spacing exponent of the lowest level) come
    from _grid_constants and broadcast against x.  Magnitudes above the
    ceiling clamp onto it.  The result takes the sign of x < 0, so -0.0
    maps to +0.0 and a negative value that rounds to zero gives -0.0.
    Returns x.
    """
    x += 0.0  # -0.0 becomes +0.0, so copying x's sign back matches x < 0
    mag = np.minimum(np.abs(x), vmax)
    exp = np.empty_like(mag, dtype=np.int32)
    # split mag = m * 2^exp in place, m in [0.5, 1): the mantissa buffer is
    # the working array, and scaling m by 2^(exp - spacing) is exactly
    # ldexp(mag, -spacing) without a second float64 array
    np.frexp(mag, out=(mag, exp))
    # spacing exponent of the grid level holding mag; the subnormal ramp
    # shares level 1's spacing (lo), and a zero snaps to 0 at any spacing
    spacing = exp + np.int32(-1 - n_m)
    np.maximum(spacing, lo, out=spacing)
    # raise when a value's spacing is below the smallest float64; a zero sits
    # on the lowest level, so its grid's lowest spacing must be representable
    if lo.min(initial=0) < _MIN_EXP and np.any(
        (spacing < _MIN_EXP) | ((mag == 0.0) & (lo < _MIN_EXP))
    ):
        raise NumericalError("grid scale underflowed float64; data magnitude too small")
    exp -= spacing
    np.ldexp(mag, exp, out=mag)  # magnitude in units of the grid spacing
    mag += 0.5
    np.floor(mag, out=mag)
    np.ldexp(mag, spacing, out=mag)
    return np.copysign(mag, x, out=x)


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
    moved = values if channel_axis is None else np.moveaxis(values, channel_axis, -1)
    _snap(moved, fmt.n_m, *_grid_constants(fmt, bias))
    return QuantizedTensor(values=values, fmt=fmt, bias=bias, channel_axis=channel_axis)


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
    return _snap(x, fmt.n_m, *_grid_constants(fmt, bias))


def quant_error(a: np.ndarray, q: np.ndarray) -> dict[str, float]:
    """Error metrics between a reference tensor and its quantized version.

    Returns mse, max_abs, sqnr_db, and cosine similarity.  sqnr_db is the
    +inf sentinel when the error is zero or the signal is zero (undefined);
    cosine is 1.0 for identical tensors and 0.0 when exactly one side is
    all zeros.  Beyond a peak magnitude of 2^+-256, where sums of squares
    could overflow or sink into subnormals, both tensors are first scaled
    exactly by the power of two that brings the peak into [0.5, 1): ratios
    are unchanged, and mse and max_abs are scaled back (+inf only when the
    true value exceeds float64).
    """
    a = np.asarray(a, dtype=WORKING_DTYPE)
    q = np.asarray(q, dtype=WORKING_DTYPE)
    if a.shape != q.shape:
        raise ShapeError(f"mismatched shapes {a.shape} and {q.shape}")
    if a.size == 0:
        return {"mse": 0.0, "max_abs": 0.0, "sqnr_db": float("inf"), "cosine": 1.0}
    _, k = math.frexp(max(a.max(), -a.min(), q.max(), -q.min()))
    if abs(k) > 256:
        a, q = np.ldexp(a, -k), np.ldexp(q, -k)
    else:
        k = 0
    diff = a - q
    max_abs = float(np.abs(diff, out=diff).max())
    mse = float(np.mean(np.multiply(diff, diff, out=diff)))
    signal = float(np.mean(a * a))
    if mse == 0.0 or signal == 0.0:
        sqnr_db = float("inf")
    else:
        sqnr_db = 10.0 * float(np.log10(signal / mse))
    na = float(np.linalg.norm(a.ravel()))
    nq = float(np.linalg.norm(q.ravel()))
    if na == 0.0 and nq == 0.0:
        cosine = 1.0
    elif na == 0.0 or nq == 0.0:
        cosine = 0.0
    else:
        cosine = float(np.dot(a.ravel(), q.ravel()) / (na * nq))
    with np.errstate(over="ignore"):
        mse, max_abs = float(np.ldexp(mse, 2 * k)), float(np.ldexp(max_abs, k))
    return {"mse": mse, "max_abs": max_abs, "sqnr_db": sqnr_db, "cosine": cosine}
