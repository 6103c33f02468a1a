"""Data-driven choice of minifloat layout for a tensor.

The spread indicator s_w = max|W| / quantile(|W|, alpha) measures how far
the extreme magnitudes sit above the bulk.  Each candidate ExMy layout of
the target width covers a characteristic magnitude span (its range_ratio r),
so the selector picks the layout whose log2 r is closest to log2 s_w: spread
data buys exponent bits, concentrated data buys mantissa bits.

The quantile is taken by partitioning the signed-int view of |W| in W's own
width: int32 for a float32 W, read without a float64 copy, int64 otherwise.
Both widths order a magnitude as its float64 upcast does, so a float32 W
selects what its upcast selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, check_types
from .formats import FpFormat, candidate_formats
from .tensors import as_float


@dataclass(frozen=True)
class SelectionConfig:
    n_bits: int = 4
    alpha: float = 25.0

    def __post_init__(self):
        check_types(self)
        candidate_formats(self.n_bits)  # rejects a width outside 2..8
        if not 0.0 < self.alpha < 100.0:
            raise ValueError(f"alpha must be in (0, 100) exclusive, got {self.alpha}")


def spread_indicator(w: np.ndarray, alpha: float = SelectionConfig.alpha) -> float:
    """s_w = max|W| / quantile(|W|, alpha), where the lower nearest-rank
    quantile is the ceil(alpha/100 * size)-th smallest magnitude (1-based).

    Scale-invariant.  A constant tensor (all-zero included) gives exactly
    1.0, a zero quantile under a nonzero max the +inf sentinel, and
    non-finite data a NumericalError.  The partition runs on the same-width
    int view of |W| (int32 for float32 W, else int64), the faster one:
    non-negative floats order as their bit patterns do, +Inf after every
    finite value and NaN after +Inf.
    """
    if np.size(w) == 0:
        raise ValueError("spread of an empty tensor is undefined")
    SelectionConfig(alpha=alpha)  # checks alpha
    mags = np.abs(as_float(w)).ravel()  # a copy of |W|, partitioned in place
    k = math.ceil(alpha / 100.0 * mags.size) - 1
    # mags[k] is the quantile; the max, NaN and Inf lie after it
    mags.view(f"i{mags.itemsize}").partition(k)
    denom, top = float(mags[k]), float(mags[k:].max())
    if not math.isfinite(top):
        raise NumericalError("spread of non-finite values is undefined")
    if denom == 0.0:
        return 1.0 if top == 0.0 else float("inf")
    return top / denom


def _scores(s_w: float, n_bits: int) -> tuple[FpFormat, list[tuple[FpFormat, float]]]:
    """The layout selected for a spread, and each candidate_formats(n_bits)
    entry with its |log2 r - log2 s_w|.  An infinite spread is infinitely far
    from every candidate and selects the widest-range (largest n_e) one."""
    candidates = candidate_formats(n_bits)
    if math.isinf(s_w):
        return candidates[-1], [(f, float("inf")) for f in candidates]
    log_s = math.log2(s_w)
    rows = [(f, abs(math.log2(f.range_ratio) - log_s)) for f in candidates]
    # candidates ascend in n_e, so a tie goes to the one with more mantissa bits
    return min(rows, key=lambda row: row[1])[0], rows


def format_for_spread(s_w: float, n_bits: int = SelectionConfig.n_bits) -> FpFormat:
    """Pick the candidate layout whose range_ratio best matches a spread."""
    return _scores(s_w, n_bits)[0]


def select_format(w: np.ndarray, cfg: SelectionConfig = SelectionConfig()) -> FpFormat:
    """Pick a layout for w: format_for_spread of its spread indicator."""
    return format_for_spread(spread_indicator(w, cfg.alpha), cfg.n_bits)


def selection_table(w: np.ndarray, cfg: SelectionConfig = SelectionConfig()) -> dict:
    """Diagnostic view of the selection: spread plus per-candidate distances."""
    s_w = spread_indicator(w, cfg.alpha)
    selected, scores = _scores(s_w, cfg.n_bits)
    rows = [{"format": str(f), "range_ratio": f.range_ratio, "log2_distance": d} for f, d in scores]
    return {"spread": s_w, "alpha": cfg.alpha, "selected": str(selected), "candidates": rows}
