import numpy as np
import pytest

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
        with pytest.raises(ValueError):
            SelectionConfig(n_bits=1)
        with pytest.raises(ValueError):
            SelectionConfig(n_bits=9)
        with pytest.raises(ValueError):
            SelectionConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SelectionConfig(alpha=100.0)


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
