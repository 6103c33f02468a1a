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

import numpy as np

_FORMAT_RE = re.compile(r"^[eE](\d+)[mM](\d+)$")


@dataclass(frozen=True)
class FpFormat:
    """ExMy minifloat format: n_e in 1..10 exponent bits, n_m in 0..52 mantissa bits."""

    n_e: int
    n_m: int

    def __post_init__(self):
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


@dataclass(frozen=True)
class BiasedFormat:
    """A format anchored at a concrete integer exponent bias."""

    fmt: FpFormat
    bias: int


def parse_format(text: str) -> FpFormat:
    """Parse 'E<k>M<j>' (case-insensitive) into an FpFormat."""
    m = _FORMAT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a recognizable format string: {text!r} (expected E<k>M<j>)")
    return FpFormat(n_e=int(m.group(1)), n_m=int(m.group(2)))


def candidate_formats(n_bits: int) -> list[FpFormat]:
    """All ExMy layouts of a given total width, ordered by ascending n_e."""
    if not 2 <= n_bits <= 8:
        raise ValueError(f"total width must be in 2..8 bits, got {n_bits}")
    return [FpFormat(n_e, n_bits - 1 - n_e) for n_e in range(1, n_bits)]


def grid(bf: BiasedFormat) -> np.ndarray:
    """All nonnegative representable magnitudes, sorted ascending.

    Always starts at 0; negatives are the mirror image.  Built with exact
    power-of-two scaling so every grid point is a float64-exact value for
    any bias reachable from finite float64 data.
    """
    f = bf.fmt
    sub = np.arange(0, 1 << f.n_m, dtype=np.float64)
    parts = [np.ldexp(sub, 1 - f.n_m + bf.bias)]
    mant = np.arange(1 << f.n_m, 1 << (f.n_m + 1), dtype=np.float64)
    for e in range(1, 1 << f.n_e):
        parts.append(np.ldexp(mant, e - f.n_m + bf.bias))
    return np.concatenate(parts)
