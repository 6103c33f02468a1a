import math

import numpy as np
import pytest

from fpqt.errors import NumericalError
from fpqt.formats import FpFormat
from fpqt.select import (
    SelectionConfig,
    select_format,
    selection_table,
    spread_indicator,
)
from oracles import oracle_quantile_nearest_rank


def tensor_with_spread(s: float, n: int = 100) -> np.ndarray:
    """|w| whose 25th-percentile magnitude (nearest rank, N=100 -> k=25)
    is exactly 1.0 and whose max is exactly s."""
    assert s >= 1.0
    w = np.empty(n)
    w[:24] = 0.5
    w[24] = 1.0
    w[25:] = np.linspace(1.0, s, n - 25)
    assert w.max() == s
    return w


def oracle_spread(values, alpha):
    """max|v| over the sorted-magnitude quantile, for a nonzero quantile."""
    return float(np.abs(np.asarray(values)).max()) / oracle_quantile_nearest_rank(values, alpha)


class TestQuantileNearestRank:
    """spread_indicator's denominator is the lower nearest-rank quantile of |W|."""

    def test_matches_sort_oracle(self, rng):
        for n in (1, 2, 3, 17, 100):
            vals = rng.standard_normal(n)
            for alpha in (1e-9, 10.0, 25.0, 50.0, 75.0, 99.0, 100.0 - 1e-9):
                assert spread_indicator(vals, alpha) == oracle_spread(vals, alpha)

    def test_small_alpha_gives_min_large_gives_max(self, rng):
        vals = rng.standard_normal(50)
        mags = np.abs(vals)
        assert spread_indicator(vals, 1e-12) == mags.max() / mags.min()
        assert spread_indicator(vals, 100.0 - 1e-12) == 1.0

    def test_uses_magnitudes(self):
        # magnitudes 1, 2, 8: the 99th percentile is the max, the median 2
        assert spread_indicator(np.array([-8.0, 1.0, 2.0]), 99.0) == 1.0
        assert spread_indicator(np.array([-8.0, 1.0, 2.0]), 50.0) == 4.0

    def test_nearest_rank_convention(self):
        # N = 4, alpha = 25 -> k = ceil(1) = 1 -> smallest magnitude
        assert spread_indicator(np.array([4.0, 3.0, 2.0, 1.0]), 25.0) == 4.0
        # alpha just above 25 -> k = 2
        assert spread_indicator(np.array([4.0, 3.0, 2.0, 1.0]), 25.01) == 2.0

    def test_rejects_bad_alpha_and_empty(self):
        with pytest.raises(ValueError, match="alpha"):
            spread_indicator(np.ones(3), 0.0)
        with pytest.raises(ValueError, match="alpha"):
            spread_indicator(np.ones(3), 100.0)
        with pytest.raises(ValueError, match="empty"):
            spread_indicator(np.array([]), 50.0)
        # the empty check comes first
        with pytest.raises(ValueError, match="empty"):
            spread_indicator(np.array([]), 0.0)

    def test_input_is_untouched(self, rng):
        for vals in (rng.standard_normal((7, 5)), np.abs(rng.standard_normal(35))):
            before = vals.copy()
            assert spread_indicator(vals, 40.0) == oracle_spread(before, 40.0)
            assert np.array_equal(vals, before)


class TestSpreadIndicator:
    def test_matches_oracle_composition(self, rng):
        for _ in range(5):
            w = rng.standard_normal(37)
            for alpha in (10.0, 25.0, 60.0):
                want = float(np.abs(w).max()) / oracle_quantile_nearest_rank(w, alpha)
                assert spread_indicator(w, alpha) == want

    def test_crafted_spread_is_exact(self):
        for s in (1.0, 5.0, 16.0, 200.0):
            assert spread_indicator(tensor_with_spread(s), 25.0) == s

    def test_constant_tensor_gives_one(self):
        assert spread_indicator(np.full(10, 3.7), 25.0) == 1.0
        assert spread_indicator(np.full(10, -2.0), 25.0) == 1.0
        assert spread_indicator(np.zeros(10), 25.0) == 1.0

    def test_zero_quantile_nonzero_max_gives_inf(self):
        w = np.concatenate([np.zeros(30), np.ones(70)])
        assert spread_indicator(w, 25.0) == float("inf")

    def test_scale_invariance(self):
        w = tensor_with_spread(20.0)
        base = spread_indicator(w, 25.0)
        for c in (2.0**9, 2.0**-13):
            assert spread_indicator(c * w, 25.0) == base
        for c in (3.7, 0.013):
            assert spread_indicator(c * w, 25.0) == pytest.approx(base, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spread_indicator(np.array([]), 25.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN spread used to select E1M2 and an infinite max the E3M0 sentinel
        for w in ([bad, 1.0, 2.0], [1.0, 2.0, bad], [bad, bad]):
            with pytest.raises(NumericalError, match="non-finite"):
                spread_indicator(np.array(w), 25.0)
            with pytest.raises(NumericalError, match="non-finite"):
                select_format(np.array(w))

    def test_any_layout_matches_composition_and_input_is_untouched(self, rng):
        # the magnitudes are partitioned in place, so they must be a copy
        base = rng.standard_normal((30, 20))
        layouts = (base, np.asfortranarray(base), base[::3, 1::2], base.T, base.ravel(), base[0].tolist())
        for w in layouts:
            before = np.array(w, copy=True)
            for alpha in (0.1, 25.0, 99.9):
                want = float(np.abs(before).max()) / oracle_quantile_nearest_rank(before, alpha)
                assert spread_indicator(w, alpha) == want
            assert np.array_equal(np.asarray(w), before)


def partition_spread(w, alpha):
    """spread_indicator by a float64 np.partition of |W|, the reference for
    the partition of |W|'s int64 view."""
    mags = np.abs(np.asarray(w, dtype=np.float64)).ravel()
    k = math.ceil(alpha / 100.0 * mags.size) - 1
    mags = np.partition(mags, k)
    denom, top = float(mags[k]), float(mags.max())
    if denom == 0.0:
        return 1.0 if top == 0.0 else float("inf")
    return top / denom


class TestIntegerKeyedPartition:
    """spread_indicator partitions the int64 view of |W|: non-negative float64
    values order like their bit patterns, so it picks the float partition's values."""

    SUB = 5e-324  # the smallest subnormal
    EDGES = np.array([0.0, -0.0, SUB, -SUB, 2 * SUB, 2.2e-308, -2.2e-308,
                      1.0, -1.0, 1.0, 3.5, -3.5, 1e300])

    @pytest.mark.parametrize("alpha", [1e-9, 0.5, 25.0, 50.0, 99.5, 100.0 - 1e-9])
    def test_equals_a_float64_partition(self, rng, alpha):
        cases = [self.EDGES, rng.choice(self.EDGES, size=257), rng.choice(self.EDGES[:5], size=64),
                 np.array([-0.0, 0.0, 0.0]), np.array([-0.0]), np.array([-self.SUB]), np.array([2.5]),
                 rng.standard_normal((9, 7)) * np.exp2(rng.integers(-1070, 1000, size=7)),
                 np.append(self.EDGES, rng.standard_normal(5000) * np.exp2(rng.integers(-60, 60, 5000)))]
        for w in cases:
            assert spread_indicator(w, alpha) == partition_spread(w, alpha)

    @pytest.mark.parametrize("alpha", [1e-9, 50.0, 100.0 - 1e-9])
    @pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf], ids=["nan", "-nan", "inf", "-inf"])
    def test_nan_and_inf_are_refused_at_any_place(self, rng, alpha, bad):
        # -nan carries the sign bit: its magnitude, not its bits, must sort last
        for at in (0, 40, 99):
            w = rng.choice(self.EDGES, size=100)
            w[at] = bad
            with pytest.raises(NumericalError, match="non-finite"):
                spread_indicator(w, alpha)
        with pytest.raises(NumericalError, match="non-finite"):
            spread_indicator(np.array([bad]), alpha)


class TestSelectFormat:
    @pytest.mark.parametrize(
        "spread,expected",
        [(5.0, "E1M2"), (16.0, "E2M1"), (200.0, "E3M0")],
    )
    def test_representative_spreads(self, spread, expected):
        fmt = select_format(tensor_with_spread(spread))
        assert str(fmt) == expected

    def test_boundaries_between_candidates(self):
        # geometric midpoint of the 4-bit range ratios 5.6 and 16 is ~9.47,
        # of 16 and 128 is ~45.25; values either side must flip the choice
        assert str(select_format(tensor_with_spread(9.4))) == "E1M2"
        assert str(select_format(tensor_with_spread(9.6))) == "E2M1"
        assert str(select_format(tensor_with_spread(45.0))) == "E2M1"
        assert str(select_format(tensor_with_spread(46.0))) == "E3M0"

    def test_concentrated_data_takes_most_mantissa(self):
        assert str(select_format(np.full(50, 2.5))) == "E1M2"

    def test_infinite_spread_takes_most_exponent(self):
        w = np.concatenate([np.zeros(40), np.ones(10)])
        assert str(select_format(w)) == "E3M0"

    def test_scale_invariant_choice(self):
        w = tensor_with_spread(30.0)
        base = select_format(w)
        for c in (2.0**11, 2.0**-7, 3.7, 0.01):
            assert select_format(c * w) == base

    def test_other_widths(self):
        # 3-bit candidates: E1M1 (range ratio 4) and E2M0 (range ratio 8)
        cfg = SelectionConfig(n_bits=3)
        assert str(select_format(tensor_with_spread(4.0), cfg)) == "E1M1"
        assert str(select_format(tensor_with_spread(8.0), cfg)) == "E2M0"
        cfg8 = SelectionConfig(n_bits=8)
        assert select_format(tensor_with_spread(1.0), cfg8) == FpFormat(1, 6)

    def test_alpha_changes_selection(self):
        # heavier tail measured against a higher-percentile denominator
        w = np.concatenate([np.full(90, 1.0), np.full(10, 64.0)])
        assert str(select_format(w, SelectionConfig(alpha=25.0))) == "E3M0"
        assert str(select_format(w, SelectionConfig(alpha=95.0))) == "E1M2"


class TestSelectionConfig:
    def test_validation(self):
        # the width is checked by building the candidates, so the message is theirs
        with pytest.raises(ValueError, match=r"^total width must be in 2\.\.8 bits, got 1$"):
            SelectionConfig(n_bits=1)
        with pytest.raises(ValueError, match=r"^total width must be in 2\.\.8 bits, got 9$"):
            SelectionConfig(n_bits=9, alpha=0.0)
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 100\) exclusive, got 0\.0$"):
            SelectionConfig(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            SelectionConfig(alpha=100.0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"n_bits": 4.0}, "n_bits must be int, got 4.0"),
        ({"n_bits": True}, "n_bits must be int, got True"),
        ({"alpha": "25"}, "alpha must be float, got '25'"),
        ({"alpha": None}, "alpha must be float, got None"),
        ({"alpha": False}, "alpha must be float, got False"),
    ])
    def test_wrong_type_rejected_naming_the_field(self, kwargs, message):
        # each once escaped as a raw TypeError from a comparison or range()
        with pytest.raises(ValueError, match=f"^{message}$"):
            SelectionConfig(**kwargs)
        assert SelectionConfig(n_bits=np.int32(4), alpha=25) == SelectionConfig()


class TestSelectionTable:
    def test_structure_and_consistency(self):
        w = tensor_with_spread(16.0)
        tab = selection_table(w)
        assert tab["spread"] == 16.0
        assert tab["alpha"] == 25.0
        assert tab["selected"] == "E2M1"
        assert [c["format"] for c in tab["candidates"]] == ["E1M2", "E2M1", "E3M0"]
        exact = next(c for c in tab["candidates"] if c["format"] == "E2M1")
        assert exact["log2_distance"] == 0.0
        assert exact["range_ratio"] == 16.0

    def test_infinite_spread_table(self):
        w = np.concatenate([np.zeros(40), np.ones(10)])
        tab = selection_table(w)
        assert tab["spread"] == float("inf")
        assert all(c["log2_distance"] == float("inf") for c in tab["candidates"])
        assert tab["selected"] == "E3M0"
