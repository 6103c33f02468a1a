"""Minifloat format descriptors and their representable value grids.

A format ExMy spends one sign bit, x exponent bits, and y mantissa bits,
so the total width is 1 + x + y.  There are no NaN/Inf codes: every code
point is a finite value.  Formats with zero exponent bits are excluded
(they degenerate to fixed-point and break the exponent-bias machinery).

A BiasedFormat pairs a format with an integer exponent bias; the bias
shifts the whole representable grid by a power of two.  The nonnegative
grid consists of a linear (subnormal) ramp at the lowest exponent level
plus geometrically spaced normal levels:

    subnormal:  m * 2^(1 - n_m + bias),  m in {0 .. 2^n_m - 1}
    level e:    m * 2^(e - n_m + bias),  m in {2^n_m .. 2^(n_m+1) - 1},
                e in {1 .. 2^n_e - 1}

Negative values mirror the nonnegative grid through the sign bit, so the
total code count is 2 * 2^(n_e + n_m) - 1 <= 2^n_bits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import NumericalError, check_types

_FORMAT_RE = re.compile(r"^[eE](\d+)[mM](\d+)$")
_GRID_LOG2_MAX = 24  # grid() builds at most 2^24 points, 128 MiB of float64


@dataclass(frozen=True)
class FpFormat:
    """ExMy minifloat format: n_e in 1..10 exponent bits, n_m in 0..52 mantissa bits."""

    n_e: int
    n_m: int

    def __post_init__(self):
        check_types(self)
        # float64 grids: max_val < 2^(2^n_e) is finite up to n_e = 10, and 52 mantissa bits
        if not (1 <= self.n_e <= 10 and 0 <= self.n_m <= 52):
            raise ValueError(f"format {self} needs 1 <= n_e <= 10 and 0 <= n_m <= 52 in float64")

    @property
    def n_bits(self) -> int:
        return 1 + self.n_e + self.n_m

    @property
    def max_val(self) -> float:
        """Largest representable magnitude at bias 0: 2^(2^n_e - 1) * (2 - 2^-n_m)."""
        return math.ldexp(2.0 - math.ldexp(1.0, -self.n_m), (1 << self.n_e) - 1)

    @property
    def range_ratio(self) -> float:
        """Ratio of the largest to the smallest positive normal magnitude.

        r = 2^(2^n_e) * (2 - 2^-n_m) / (1 + 2^-n_m).  Strictly increasing in
        n_e at fixed total width, which is what makes it a useful knob for
        matching a format to how spread-out a tensor is.  The +inf sentinel
        when r exceeds float64, as for n_e = 10 with n_m >= 1.
        """
        eps = math.ldexp(1.0, -self.n_m)
        try:
            return math.ldexp((2.0 - eps) / (1.0 + eps), 1 << self.n_e)
        except OverflowError:
            return math.inf

    def __str__(self) -> str:
        return f"E{self.n_e}M{self.n_m}"


def check_format(fmt) -> None:
    """TypeError naming the argument fmt unless it is an FpFormat; a string
    such as 'E2M1' goes through parse_format first."""
    if not isinstance(fmt, FpFormat):
        raise TypeError(f"fmt must be an FpFormat, got {type(fmt).__name__} {fmt!r}"
                        + ("; parse_format reads a format string" if isinstance(fmt, str) else ""))


def check_bias(fmt: FpFormat, bias) -> None:
    """NumericalError unless each exponent bias (an integer or integer array)
    puts fmt's grid ceiling, max_val * 2^bias, in [2^-1076, 2^1024)."""
    _, exp_v = math.frexp(fmt.max_val)
    if np.any(bias > 1024 - exp_v) or np.any(bias < -1075 - exp_v):
        raise NumericalError("exponent bias puts the whole grid outside float64 range")


@dataclass(frozen=True)
class BiasedFormat:
    """A format anchored at a concrete integer exponent bias: TypeError unless
    fmt is an FpFormat, ValueError naming bias unless it is an integer (an
    np.int64 is stored as an int), and check_bias's NumericalError."""

    fmt: FpFormat
    bias: int

    def __post_init__(self):
        check_format(self.fmt)
        check_types(self)
        check_bias(self.fmt, self.bias)


def parse_format(text: str) -> FpFormat:
    """Parse 'E<k>M<j>' (case-insensitive) into an FpFormat; TypeError unless text is a str."""
    if not isinstance(text, str):
        raise TypeError(f"format must be a str such as 'E2M1', got {type(text).__name__} {text!r}")
    m = _FORMAT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a recognizable format string: {text!r} (expected E<k>M<j>)")
    return FpFormat(n_e=int(m.group(1)), n_m=int(m.group(2)))


def candidate_formats(n_bits: int) -> list[FpFormat]:
    """All ExMy layouts of a given total width, ordered by ascending n_e;
    TypeError unless n_bits is an integer (not a bool)."""
    if not isinstance(n_bits, Integral) or isinstance(n_bits, bool):
        raise TypeError(f"total width must be an integer, got {type(n_bits).__name__} {n_bits!r}")
    if not 2 <= n_bits <= 8:
        raise ValueError(f"total width must be in 2..8 bits, got {n_bits}")
    return [FpFormat(n_e, n_bits - 1 - n_e) for n_e in range(1, n_bits)]


def grid(bf: BiasedFormat) -> np.ndarray:
    """All nonnegative representable magnitudes, sorted ascending.

    Always starts at 0; negatives are the mirror image.  Built by exact
    power-of-two scaling: for bias >= n_m - 1075, where the lowest spacing
    2^(1 - n_m + bias) is at least 2^-1074, every point is exact and the
    points strictly ascend.  Below that, down to what check_bias admits,
    points under 2^-1074 round as np.ldexp rounds them, so some coincide.
    ValueError, before anything is allocated, for a grid of more than 2^24
    points (it has 2^(n_e + n_m); an 8-bit grid has 128).
    """
    f = bf.fmt
    if f.n_e + f.n_m > _GRID_LOG2_MAX:
        raise ValueError(f"grid of format {f} has 2^{f.n_e + f.n_m} points, more than "
                         f"the 2^{_GRID_LOG2_MAX} grid() builds")
    sub = np.arange(0, 1 << f.n_m, dtype=np.float64)
    parts = [np.ldexp(sub, 1 - f.n_m + bf.bias)]
    mant = np.arange(1 << f.n_m, 1 << (f.n_m + 1), dtype=np.float64)
    for e in range(1, 1 << f.n_e):
        parts.append(np.ldexp(mant, e - f.n_m + bf.bias))
    return np.concatenate(parts)
