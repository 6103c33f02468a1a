"""Independent nearest-grid snapping, used to check quantized outputs.

The grid comes from ``fpqt.formats.grid``; the snap itself is a
``searchsorted`` over that grid and shares no code with ``fpqt.quantize``.
"""

from __future__ import annotations

import numpy as np

from fpqt import formats


def minmax_bias(a: np.ndarray, fmt: formats.FpFormat, channel_axis: int) -> np.ndarray:
    """Largest integer b per channel with max_val * 2^b <= max|channel|; 0
    for an all-zero channel."""
    moved = np.moveaxis(np.abs(np.asarray(a, dtype=np.float64)), channel_axis, -1)
    amax = moved.reshape(-1, moved.shape[-1]).max(axis=0)
    with np.errstate(divide="ignore"):
        b = np.floor(np.log2(amax) - np.log2(fmt.max_val))
    b = np.where(amax > 0.0, b, 0.0).astype(np.int64)
    # log2 can be off by one near a power-of-two boundary: settle it with
    # exact power-of-two comparisons
    b = np.where(np.ldexp(fmt.max_val, b + 1) <= amax, b + 1, b)
    b = np.where((amax > 0.0) & (np.ldexp(fmt.max_val, b) > amax), b - 1, b)
    return b


def snap(a: np.ndarray, fmt: formats.FpFormat, bias: np.ndarray, channel_axis: int) -> np.ndarray:
    """Nearest point of each channel's grid, ties away from zero, clamped to
    the grid ceiling."""
    a = np.asarray(a, dtype=np.float64)
    moved = np.moveaxis(a, channel_axis, -1)
    out = np.empty_like(moved)
    for b in np.unique(bias):
        cols = np.asarray(bias) == b
        levels = formats.grid(formats.BiasedFormat(fmt, int(b)))
        mag = np.abs(moved[..., cols])
        hi_idx = np.clip(np.searchsorted(levels, mag, side="left"), 1, levels.size - 1)
        lo, hi = levels[hi_idx - 1], levels[hi_idx]
        # adjacent grid points are within a factor of two, so both
        # differences are exact and a tie is detected exactly
        q = np.where(hi - mag <= mag - lo, hi, lo)
        q = np.minimum(q, levels[-1])
        out[..., cols] = np.where(moved[..., cols] < 0, -q, q)
    return np.moveaxis(out, -1, channel_axis)
