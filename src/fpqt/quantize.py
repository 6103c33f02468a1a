"""MinMax minifloat quantization.

The quantizer snaps each element to the nearest point of a per-channel
minifloat grid, ties rounding away from zero.  The grid's exponent bias is
derived from the channel's largest magnitude: bias is the unique integer b
with max_val * 2^b <= max|channel| < max_val * 2^(b+1), so the channel max
lands inside the top exponent level (elements above the grid ceiling, at
most 2x, clamp onto it).  An all-zero channel gets bias 0.

One kernel does every snap, from a source into a destination (the same
array in place), as a hardware cast would: clamp the magnitude to the grid
ceiling, read its binade from the float exponent (frexp), raise that to
the lowest grid level (the subnormal ramp shares level 1's spacing), scale
into mantissa units, round half away from zero, scale back, and set the
sign bit by integer bit operations.  Both scalings are ldexp by int32
exponents, never a multiplication by a reciprocal (which overflows for
subnormal spacings), so results are bit-reproducible and land exactly on
grid points.  That kernel is _Grid.snap: a _Grid holds the per-channel grid
constants, with the decision whether to test for underflow, and the
kernel's scratch arrays, and is made once per call, or once per GPTQ sweep,
whose row step then allocates nothing.

The kernel works in one float width, fixed when the grid is made: float64,
or float32 for `fpqt quantize`, whose container stores float32.  The grid
holds that width's constants: the ceilings vmax in it, the same-width int
view and sign mask (int64 or int32), its least subnormal exponent (-1074 or
-149), and the largest float below 1/2, which the rounding adds before its
floor (1/2 - 2^-54, or 1/2 - 2^-25: the float64 one is 1/2 in float32).
Where _fits(fmt, bias, dtype) says the width holds every point of the grids
(at most its significant bits, no step below its least subnormal, a ceiling
below its largest value), every step of the snap is exact in it, so a
float32 snap gives the bits of the float64 snap of the same values.
MinMax, snap_per_channel and GPTQ snap in float64.  channel_bias and the
error metrics take a float32 array as it is, with no float64 copy, and
return what they return for its float64 upcast: a peak is exact in either
width, and the error sums widen each block to float64 before any product.

The snap and the error metrics run in blocks of about 32 K elements along
the outermost axis in memory, so each chain of elementwise steps stays in
cache.  Their sums are numpy's pairwise sums per block, never BLAS, so their
numbers do not depend on the BLAS thread count.  quant_error reads the exact
peak of |a| and |q| first, then forms its four sums and max|a - q| in one
pass, with both tensors scaled by a power of two where the peak lies beyond
2^+-256.  sqnr forms its two sums first and reads the peak, through
quant_error, only when they leave bounds that prove every peak lies in
[2^-257, 2^256), where no scaling is needed: rounding is monotone on sums of
non-negative squares, and a pairwise sum of n terms, each at most t, stays
below 2n * t.  Where signal / mse is not a normal float64, or a's squares
can be subnormal after the scaling, quant_error takes sqnr_db in the log
domain instead of dividing the sums, and where a's or q's squares can be,
it takes the cosine from each tensor scaled by its own peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError
from .formats import FpFormat, check_bias, check_format
from .tensors import as_float, as_working, max_abs

_BLOCK_ELEMS = 1 << 15  # elements per block of the elementwise kernels (256 KiB in float64)
# size * 2^-513 bounds a sum of squares of size terms below 2^-514 each: see sqnr
_SUM_FLOOR = 2.0**-513


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
    gets bias 0.  A channel_axis outside a's dims is a ShapeError, and an fmt
    that is not an FpFormat a TypeError.
    """
    check_format(fmt)
    a = as_float(a)
    axis = None
    if channel_axis is not None:
        if not isinstance(channel_axis, (int, np.integer)) or isinstance(channel_axis, bool):
            raise TypeError(f"channel_axis must be an integer or None, got {channel_axis!r}")
        if not -a.ndim <= channel_axis < a.ndim:
            raise ShapeError(f"channel_axis {channel_axis} is outside shape {a.shape}")
        a = np.moveaxis(a, channel_axis, -1)
        axis = tuple(range(a.ndim - 1))
    amax = as_working(max_abs(a, axis))  # the peaks, exact in float64
    if not np.isfinite(amax).all():  # max and min carry any NaN or Inf through
        raise NumericalError("cannot quantize non-finite values")

    # amax = fa * 2^ea and max_val = fv * 2^ev with fa, fv in [0.5, 1), so
    # max_val * 2^(ea - ev) <= amax exactly when fv <= fa
    frac_a, exp_a = np.frexp(amax)
    frac_v, exp_v = math.frexp(fmt.max_val)
    bias = exp_a.astype(np.int64) - exp_v - (frac_a < frac_v)
    return np.where(amax == 0.0, np.int64(0), bias)


def _blocks(x: np.ndarray, *operands: np.ndarray):
    """(x block, operand blocks...) of about _BLOCK_ELEMS elements along x's axis of
    largest stride, contiguous pieces of a C- or F-ordered x; operands of x's shape
    are sliced as they are (so a writable one yields writable blocks), others broadcast.
    The blocks follow x's shape and memory order, never its width, so a float32 x
    and its float64 upcast split alike."""
    if x.size <= _BLOCK_ELEMS:  # one block, without broadcast views: they cost more than a small snap
        yield x, *operands
        return
    axis = max(range(x.ndim), key=lambda i: abs(x.strides[i]))
    n = x.shape[axis]
    step = max(1, _BLOCK_ELEMS * n // x.size)
    operands = [o if o.shape == x.shape else np.broadcast_to(o, x.shape) for o in operands]
    for i in range(0, n, step):
        block = (slice(None),) * axis + (slice(i, i + step),)
        yield x[block], *(o[block] for o in operands)


def _fits(fmt: FpFormat, bias: np.ndarray, dtype) -> bool:
    """Whether the float width dtype holds every point of fmt's grids at the
    integer biases: at most its significant bits (n_m <= nmant), a lowest step
    2^(min bias + 1 - n_m) no finer than its least subnormal, and a ceiling
    max_val * 2^(max bias) below 2^maxexp, so no larger than its largest value."""
    info, bias = np.finfo(dtype), np.asarray(bias)
    low, high = (int(bias.min()), int(bias.max())) if bias.size else (0, 0)
    return (fmt.n_m <= info.nmant and low + 1 - fmt.n_m >= info.minexp - info.nmant
            and math.frexp(fmt.max_val)[1] + high <= info.maxexp)


class _Grid:
    """The snap onto fmt's grids at integer exponent biases that broadcast against
    the values, in the float width dtype (float64 by default; float32 only where
    _fits holds): grid ceilings vmax in that width, lowest-level spacing
    exponents lo, whether any spacing lies below the width's least subnormal
    (may_underflow, so the snap must test for it), and the width's rounding
    constant, int view and sign mask, worked out once.  Its scratch arrays are
    made once per block shape and reused, so a grid serves one call or one GPTQ
    sweep and is never shared."""

    def __init__(self, fmt: FpFormat, bias: np.ndarray, dtype=np.float64):
        bias = np.asarray(bias, dtype=np.int64)
        info = np.finfo(dtype)
        self.dtype, self.bits = info.dtype, np.dtype(f"i{info.dtype.itemsize}")
        self.n_m = fmt.n_m
        # the ceilings, exact in float32 where _fits holds
        self.vmax = np.ldexp(fmt.max_val, bias).astype(self.dtype, copy=False)
        self.lo = (bias + (1 - fmt.n_m)).astype(np.int32)
        self.min_exp = info.minexp - info.nmant  # exponent of the least subnormal
        self.may_underflow = bool(self.lo.min(initial=0) < self.min_exp)
        self.half_below = np.nextafter(self.dtype.type(0.5), self.dtype.type(0.0))
        self.sign = self.bits.type(-1 << (8 * self.bits.itemsize - 1))  # the sign bit
        self.scratch = None  # magnitudes, exponents, spacings (int32), magnitude bits

    def snap(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Snap a 1-D or larger x to the nearest grid point, ties away from zero,
        into out, an array of x's shape in the grid's width (x may be narrower, as
        a float32 x snapped into a float64 out; x itself snaps in place).

        Magnitudes above the ceiling clamp onto it.  The result takes the sign
        of x < 0, so -0.0 maps to +0.0 and a negative value that rounds to zero
        gives -0.0.  Returns out (partly snapped when it raises).
        """
        for xb, ob, vmax, lo in _blocks(x, out, self.vmax, self.lo):
            if self.scratch is None or self.scratch[0].shape != ob.shape:
                mag = np.empty_like(ob)
                self.scratch = (mag, np.empty_like(ob, dtype=np.int32),
                                np.empty_like(ob, dtype=np.int32), mag.view(self.bits))
            mag, exp, spacing, mag_bits = self.scratch
            np.add(xb, 0.0, out=ob)  # -0.0 becomes +0.0, so ob's sign bit is x < 0; exact
            np.abs(ob, out=mag)
            np.minimum(mag, vmax, out=mag)
            # split mag = m * 2^exp in place, m in [0.5, 1): the mantissa buffer is
            # the working array, and scaling m by 2^(exp - spacing) is exactly
            # ldexp(mag, -spacing) without a second float array
            np.frexp(mag, out=(mag, exp))
            # spacing exponent of the grid level holding mag; the subnormal ramp
            # shares level 1's spacing (lo), and a zero snaps to 0 at any spacing
            np.add(exp, np.int32(-1 - self.n_m), out=spacing)
            np.maximum(spacing, lo, out=spacing)
            # raise when a value's spacing is below the width's least subnormal; a zero
            # sits on the lowest level, so its grid's lowest spacing must be representable
            if self.may_underflow and np.any((spacing < self.min_exp)
                                             | ((mag == 0.0) & (lo < self.min_exp))):
                raise NumericalError(f"grid scale underflowed {self.dtype}; "
                                     f"data magnitude too small")
            exp -= spacing
            np.ldexp(mag, exp, out=mag)  # magnitude in units of the grid spacing
            # floor(mag + 1/2) exactly: adding 1/2 itself rounds the largest float below
            # 1/2 up to 1 and an odd count >= 2^nmant up to the next even one; that
            # float (1/2 - 2^-54 in float64) still lifts every tie
            mag += self.half_below
            np.floor(mag, out=mag)
            np.ldexp(mag, spacing, out=mag)
            bits = ob.view(self.bits)  # copysign(mag, ob): ob's sign bit, then mag's (>= 0) bits
            bits &= self.sign
            bits |= mag_bits
        return out


def minmax_quantize(
    a: np.ndarray, fmt: FpFormat, channel_axis: int | None = -1
) -> QuantizedTensor:
    """Quantize onto per-channel minifloat grids anchored at the channel max.

    channel_axis selects which axis indexes channels (default: last, the
    column convention for 2-D batches and input_dim x output_dim weights);
    None quantizes the whole tensor on a single grid.  Returns the
    fake-quantized values together with the frozen per-channel biases.
    """
    a = as_working(a)
    bias = channel_bias(a, fmt, channel_axis)
    values = np.empty_like(a)
    # views: a 0-d array is snapped through its 1-element view
    src, out = np.atleast_1d(a, values) if channel_axis is None else (
        np.moveaxis(a, channel_axis, -1), np.moveaxis(values, channel_axis, -1))
    _Grid(fmt, bias).snap(src, out)
    return QuantizedTensor(values=values, bias=bias)


def snap_per_channel(x: np.ndarray, fmt: FpFormat, bias: np.ndarray | int) -> np.ndarray:
    """Snap values onto minifloat grids with a broadcast exponent bias.

    bias is an integer or an integer array (whole floats such as 1.0 count,
    bools do not) that broadcasts against x: a scalar puts every element on one fixed
    grid, a vector along the last axis gives each column its own.  Nearest
    point, ties away from zero, magnitudes beyond the ceiling clamped;
    agrees element-wise with minmax_quantize wherever the bias matches.
    Returns a new array shaped like x.
    """
    check_format(fmt)
    x = as_working(x)
    if not np.isfinite(x).all():
        raise NumericalError("cannot quantize non-finite values")
    bias = np.asarray(bias)
    if bias.dtype.kind not in "iuf":
        raise TypeError(f"bias must be an integer or integer array, got dtype {bias.dtype}")
    if bias.dtype.kind == "f" and not (whole := bias == np.floor(bias)).all():  # NaN is not whole
        raise ValueError(f"bias must hold whole numbers, got {bias[~whole][0]}")
    if bias.ndim > x.ndim or any(b not in (1, n) for b, n in zip(bias.shape[::-1], x.shape[::-1])):
        raise ShapeError(f"bias of shape {bias.shape} does not broadcast to values {x.shape}")
    check_bias(fmt, bias)
    values = np.empty_like(x)
    src, out = np.atleast_1d(x, values)  # views, even 0-d
    _Grid(fmt, bias).snap(src, out)
    return values


def quant_error(a: np.ndarray, q: np.ndarray) -> dict[str, float]:
    """Error metrics between a reference tensor and its quantized version.

    Returns mse, max_abs, sqnr_db, and cosine similarity; sqnr() gives mse and
    sqnr_db alone, the same bits, from fewer sums.  sqnr_db is the +inf
    sentinel when the error is zero or the signal is zero (undefined); cosine
    lies in [-1, 1]: exactly 1.0 for identical tensors, 0.0 when one side alone
    is all zeros.  NumericalError when either tensor holds NaN or Inf.

    The exact peak of |a| and |q| is read first.  Beyond a peak magnitude of
    2^+-256, where sums of squares could overflow or sink into subnormals,
    both tensors are scaled exactly by the power of two that brings the peak
    into [0.5, 1); an error whose own peak then lies beyond 2^+-256 is scaled
    the same way before it is squared.  Ratios are unchanged, and mse and
    max_abs are scaled back (+inf only when the true value exceeds float64).
    The sums of a^2, q^2, a*q and (a - q)^2 and max|a - q| then come from one
    pass.  Where a's scaled peak lies below 2^-511, so its squares can be
    subnormal, or signal / mse is not a normal float64, sqnr_db is taken in
    the log domain from a sum of a^2 scaled by a's own peak
    (_log_domain_sqnr_db); where a's or q's does, the cosine comes from one
    more pass with each tensor scaled by its own peak's power of two.
    """
    a, q = _operands(a, q)
    if a.size == 0:
        return {"mse": 0.0, "max_abs": 0.0, "sqnr_db": float("inf"), "cosine": 1.0}
    k, ka, kq = _peak_exponents(a, q)
    dmax, sdd, saa, sqq, saq = _error_sums(a, q, k)
    kd = 0
    if abs(math.frexp(dmax)[1]) > 256:
        kd = math.frexp(dmax)[1]
        _, sdd, saa, sqq, saq = _error_sums(a, q, k, kd)
    mse, sqnr_db = _mse_sqnr(sdd, saa, a.size, k, kd)
    if sqnr_db is None or (sdd and ka - k <= -511):
        sqnr_db = _log_domain_sqnr_db(a, sdd, k + kd, ka)
    if min(ka, kq) - k <= -511:  # a's or q's squares can sink: each in its own scale
        _, _, saa, sqq, saq = _error_sums(a, q, ka, kq=kq)
    na, nq = math.sqrt(saa), math.sqrt(sqq)
    cosine = saq / (na * nq) if na and nq else 0.0
    # exactly 1.0 when identical (both all-zero included); rounding can pass +-1 otherwise
    cosine = 1.0 if dmax == 0.0 else max(-1.0, min(1.0, cosine))
    with np.errstate(over="ignore"):
        dmax = float(np.ldexp(dmax, k))
    return {"mse": mse, "max_abs": dmax, "sqnr_db": sqnr_db, "cosine": cosine}


def sqnr(a: np.ndarray, q: np.ndarray) -> dict[str, float]:
    """quant_error's mse and sqnr_db, bit for bit, from the sums of (a - q)^2 and
    a^2 alone.  When either sum is NaN or Inf, below size * 2^-513 or above 2^508
    (so a peak of |a|, |q| or |a - q| may lie outside [2^-257, 2^256)), it
    returns what quant_error does instead, errors included."""
    a, q = _operands(a, q)
    if a.size:
        with np.errstate(over="ignore", invalid="ignore"):
            _, sdd, saa, _, _ = _error_sums(a, q, full=False)
        floor = a.size * _SUM_FLOOR
        if floor <= sdd <= 2.0**508 and floor <= saa <= 2.0**508:
            mse, sqnr_db = _mse_sqnr(sdd, saa, a.size, 0, 0)
            return {"mse": mse, "sqnr_db": sqnr_db}
    err = quant_error(a, q)
    return {"mse": err["mse"], "sqnr_db": err["sqnr_db"]}


def _operands(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = as_float(a)
    q = as_float(q)
    if a.shape != q.shape:
        raise ShapeError(f"mismatched shapes {a.shape} and {q.shape}")
    return np.atleast_1d(a, q)  # 0-d operands would give scalars, not out= buffers


def _mse_sqnr(sdd: float, saa: float, size: int, k: int, kd: int) -> tuple[float, float | None]:
    """mse and sqnr_db from the sums of (2^-(k+kd) (a - q))^2 and (2^-k a)^2;
    sqnr_db is None when mse is nonzero and signal / mse is not a normal
    float64 (0, subnormal or inf), a zero signal included:
    _log_domain_sqnr_db gives it then."""
    mse, signal = sdd / size, saa / size
    if mse == 0.0:
        sqnr_db = float("inf")
    else:
        ratio = signal / mse
        sqnr_db = None if ratio < 2.0**-1022 or ratio == math.inf else (
            10.0 * float(np.log10(ratio)) - 20.0 * math.log10(2.0) * kd)
    with np.errstate(over="ignore"):
        return float(np.ldexp(mse, 2 * (k + kd))), sqnr_db


def _log_domain_sqnr_db(a: np.ndarray, sdd: float, k: int, ka: int) -> float:
    """10 log10(sum a^2 / sum (a - q)^2) from sdd, the sum of (2^-k (a - q))^2,
    where the quotient of the sums is not a normal float64 or a's squares can
    be subnormal: +inf (the sentinel) when a is all zeros.  Sum a^2 is
    retaken with a scaled by 2^-ka, ka being the frexp exponent of a's peak,
    so no square sinks to zero, and the ratio is taken from the frexp split
    of each sum."""
    saa = 0.0
    for (ab,) in _blocks(a):
        ab = np.ldexp(ab, -ka, dtype=np.float64)  # a float32 block is widened first
        saa += np.multiply(ab, ab, out=ab).sum()
    if saa == 0.0:
        return float("inf")
    (ms, es), (md, ed) = math.frexp(float(saa)), math.frexp(sdd)
    return 10.0 * (math.log10(ms / md) + (es - ed + 2 * (ka - k)) * math.log10(2.0))


def _peak_exponents(a: np.ndarray, q: np.ndarray) -> tuple[int, int, int]:
    """k, the frexp exponent of the exact peak of |a| and |q| when it lies beyond
    2^+-256, else 0, then those of the peaks of |a| and of |q| (0 for a zero
    peak); NumericalError when either holds NaN or Inf."""
    pa, pq = float(max_abs(a)), float(max_abs(q))
    if not (math.isfinite(pa) and math.isfinite(pq)):
        raise NumericalError("error metrics of non-finite values are undefined")
    k = math.frexp(max(pa, pq))[1]
    return k if abs(k) > 256 else 0, math.frexp(pa)[1], math.frexp(pq)[1]


def _error_sums(a: np.ndarray, q: np.ndarray, k: int = 0, kd: int = 0,
                full: bool = True, kq: int | None = None) -> tuple[float, ...]:
    """One blocked pass over 2^-k a and 2^-kq q (kq = k unless given): max|a - q|
    (0.0 unless full), then sums of (2^-kd (a - q))^2, a^2 and, when full, q^2
    and a*q (else 0.0) by numpy, never BLAS.  A float32 operand's block is
    first widened, exactly, into float64 scratch laid out as the block is, so
    the sums are those of its float64 upcast.  Blocks of one shape share the
    scratch d, laid out as a fresh np.subtract result: the sums' order holds."""
    dmax = sdd = saa = sqq = saq = 0.0
    d = wide = None
    for ab, qb in _blocks(a, q):
        if ab.dtype != np.float64 or qb.dtype != np.float64:
            if wide is None or wide[0].shape != ab.shape:
                wide = np.empty_like(ab, dtype=np.float64), np.empty_like(qb, dtype=np.float64)
            np.copyto(wide[0], ab)
            np.copyto(wide[1], qb)
            ab, qb = wide
        if k or kq:
            ab, qb = np.ldexp(ab, -k), np.ldexp(qb, -(k if kq is None else kq))
        d = np.subtract(ab, qb, out=d if d is not None and d.shape == ab.shape else None)
        if full:  # |d| squares as d does
            dmax = np.maximum(dmax, np.abs(d, out=d).max())  # np.maximum keeps a NaN
        if kd:
            np.ldexp(d, -kd, out=d)
        sdd += np.multiply(d, d, out=d).sum()
        if full:
            saq += np.multiply(ab, qb, out=d).sum()
            sqq += np.multiply(qb, qb, out=d).sum()
        saa += np.multiply(ab, ab, out=d).sum()
    return float(dmax), float(sdd), float(saa), float(sqq), float(saq)
