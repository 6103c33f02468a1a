"""Data-driven choice of minifloat layout for a tensor.

The spread indicator s_w = max|W| / quantile(|W|, alpha) measures how far
the extreme magnitudes sit above the bulk.  Each candidate ExMy layout of
the target width covers a characteristic magnitude span (its range_ratio r),
so the selector picks the layout whose log2 r is closest to log2 s_w: spread
data buys exponent bits, concentrated data buys mantissa bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formats import FpFormat, candidate_formats
from .tensors import _partitioned_magnitudes


@dataclass(frozen=True)
class SelectionConfig:
    n_bits: int = 4
    alpha: float = 25.0

    def __post_init__(self):
        if not 2 <= self.n_bits <= 8:
            raise ValueError(f"n_bits must be in 2..8, got {self.n_bits}")
        if not 0.0 < self.alpha < 100.0:
            raise ValueError(f"alpha must be in (0, 100) exclusive, got {self.alpha}")


def spread_indicator(w: np.ndarray, alpha: float = 25.0) -> float:
    """s_w = max|W| / quantile(|W|, alpha), lower nearest-rank quantile.

    Scale-invariant.  A constant tensor (all-zero included) gives exactly
    1.0; a zero quantile under a nonzero max gives the +inf sentinel.
    """
    if np.size(w) == 0:
        raise ValueError("spread of an empty tensor is undefined")
    mags, k = _partitioned_magnitudes(w, alpha)  # one pass over |W| for both
    denom = float(mags[k])
    top = float(mags[k:].max())
    if denom == 0.0:
        return 1.0 if top == 0.0 else float("inf")
    return top / denom


def format_for_spread(s_w: float, n_bits: int = 4) -> FpFormat:
    """Pick the candidate layout whose range_ratio best matches a spread.

    Minimizes |log2 r - log2 s_w| over candidate_formats(n_bits); ties
    prefer the layout with more mantissa bits.  An infinite spread selects
    the widest-range (largest n_e) candidate outright.
    """
    candidates = candidate_formats(n_bits)
    if math.isinf(s_w):
        return candidates[-1]
    log_s = math.log2(s_w)
    # candidates are ordered by ascending n_e, i.e. descending n_m, so the
    # first minimum is the preferred tie-break
    return min(candidates, key=lambda f: abs(math.log2(f.range_ratio) - log_s))


def select_format(w: np.ndarray, cfg: SelectionConfig = SelectionConfig()) -> FpFormat:
    """Pick a layout for w: format_for_spread of its spread indicator."""
    return format_for_spread(spread_indicator(w, cfg.alpha), cfg.n_bits)


def selection_table(w: np.ndarray, cfg: SelectionConfig = SelectionConfig()) -> dict:
    """Diagnostic view of the selection: spread plus per-candidate distances."""
    s_w = spread_indicator(w, cfg.alpha)
    rows = []
    for f in candidate_formats(cfg.n_bits):
        dist = float("inf") if math.isinf(s_w) else abs(math.log2(f.range_ratio) - math.log2(s_w))
        rows.append({"format": str(f), "range_ratio": f.range_ratio, "log2_distance": dist})
    selected = str(format_for_spread(s_w, cfg.n_bits))
    return {"spread": s_w, "alpha": cfg.alpha, "selected": selected, "candidates": rows}
