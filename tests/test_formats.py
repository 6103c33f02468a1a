import math

import numpy as np
import pytest

from fpqt.formats import (
    BiasedFormat,
    FpFormat,
    candidate_formats,
    grid,
    parse_format,
)
from oracles import oracle_grid


class TestFpFormat:
    def test_bit_width(self):
        assert FpFormat(2, 1).n_bits == 4
        assert FpFormat(1, 2).n_bits == 4
        assert FpFormat(3, 0).n_bits == 4
        assert FpFormat(4, 3).n_bits == 8
        assert FpFormat(2, 5).n_bits == 8

    def test_max_val_known_formats(self):
        assert FpFormat(2, 1).max_val == 12.0
        assert FpFormat(1, 2).max_val == 3.5
        assert FpFormat(3, 0).max_val == 128.0
        assert FpFormat(4, 3).max_val == 61440.0

    def test_range_ratio_known_formats(self):
        assert FpFormat(2, 1).range_ratio == 16.0
        assert FpFormat(3, 0).range_ratio == 128.0
        assert math.isclose(FpFormat(1, 2).range_ratio, 5.6)

    def test_range_ratio_beyond_float64_is_the_inf_sentinel(self):
        assert FpFormat(10, 0).range_ratio == 2.0**1023
        for n_m in (1, 2, 23, 52):
            assert FpFormat(10, n_m).range_ratio == math.inf
        assert FpFormat(9, 52).range_ratio < 2.0**513

    def test_range_ratio_increases_with_exponent_bits_at_fixed_width(self):
        for width in (4, 5, 6, 8):
            ratios = [f.range_ratio for f in candidate_formats(width)]
            assert ratios == sorted(ratios)
            assert len(set(ratios)) == len(ratios)

    def test_requires_at_least_one_exponent_bit(self):
        with pytest.raises(ValueError):
            FpFormat(0, 3)
        with pytest.raises(ValueError):
            FpFormat(-1, 1)
        with pytest.raises(ValueError):
            FpFormat(2, -1)

    def test_largest_layouts_that_fit_float64(self):
        assert FpFormat(10, 0).max_val == 2.0**1023
        assert FpFormat(10, 52).max_val == np.finfo(np.float64).max
        assert FpFormat(1, 52).max_val == 4.0 - 2.0**-51

    @pytest.mark.parametrize("n_e,n_m", [(11, 0), (10**12, 1), (1, 53), (4, 64)])
    def test_layouts_that_leave_float64_are_rejected(self, n_e, n_m):
        with pytest.raises(ValueError, match=f"^format E{n_e}M{n_m} needs 1 <= n_e <= 10"):
            FpFormat(n_e, n_m)

    def test_str(self):
        assert str(FpFormat(2, 1)) == "E2M1"
        assert str(FpFormat(4, 3)) == "E4M3"


class TestParseFormat:
    def test_roundtrip_and_case(self):
        assert parse_format("E2M1") == FpFormat(2, 1)
        assert parse_format("e3m0") == FpFormat(3, 0)
        assert parse_format("E2m5") == FpFormat(2, 5)

    def test_rejects_no_exponent_bits(self):
        with pytest.raises(ValueError):
            parse_format("E0M3")

    @pytest.mark.parametrize("text", ["E11M0", "e12m3", "E1M53"])
    def test_rejects_layouts_beyond_float64(self, text):
        with pytest.raises(ValueError, match=f"^format {text.upper()} needs 1 <= n_e <= 10"):
            parse_format(text)

    @pytest.mark.parametrize("bad", ["", "M1E2", "E2", "E2M", "2M1", "E2M1x", "fp4"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_format(bad)


class TestCandidates:
    def test_four_bit_candidates(self):
        assert [str(f) for f in candidate_formats(4)] == ["E1M2", "E2M1", "E3M0"]

    def test_width_consistency_and_order(self):
        for width in range(2, 9):
            cands = candidate_formats(width)
            assert len(cands) == width - 1
            assert all(f.n_bits == width for f in cands)
            assert [f.n_e for f in cands] == list(range(1, width))

    def test_rejects_widths_outside_supported_range(self):
        with pytest.raises(ValueError):
            candidate_formats(1)
        with pytest.raises(ValueError):
            candidate_formats(9)


class TestGrid:
    def test_known_grid_values(self):
        f = FpFormat(2, 1)
        assert grid(BiasedFormat(f, 0)).tolist() == [0, 1, 2, 3, 4, 6, 8, 12]
        assert grid(BiasedFormat(f, -1)).tolist() == [0, 0.5, 1, 1.5, 2, 3, 4, 6]
        assert grid(BiasedFormat(FpFormat(1, 2), 0)).tolist() == [
            0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5,
        ]
        assert grid(BiasedFormat(FpFormat(3, 0), 0)).tolist() == [
            0, 2, 4, 8, 16, 32, 64, 128,
        ]

    @pytest.mark.parametrize("n_e,n_m", [(1, 2), (2, 1), (3, 0), (2, 5), (4, 3)])
    @pytest.mark.parametrize("bias", [-7, -1, 0, 1, 6])
    def test_matches_enumeration_oracle(self, n_e, n_m, bias):
        got = grid(BiasedFormat(FpFormat(n_e, n_m), bias))
        assert got.tolist() == oracle_grid(n_e, n_m, bias)

    @pytest.mark.parametrize("n_e,n_m", [(1, 2), (2, 1), (3, 0), (4, 3)])
    def test_size_strict_ascent_and_endpoints(self, n_e, n_m):
        f = FpFormat(n_e, n_m)
        bf = BiasedFormat(f, -2)
        g = grid(bf)
        assert g.size == 2 ** (f.n_bits - 1)
        assert g[0] == 0.0
        assert g[-1] == math.ldexp(f.max_val, bf.bias)
        assert np.all(np.diff(g) > 0)

    def test_biased_value_max(self):
        assert grid(BiasedFormat(FpFormat(2, 1), -1))[-1] == math.ldexp(FpFormat(2, 1).max_val, -1) == 6.0
        assert grid(BiasedFormat(FpFormat(2, 1), 3))[-1] == math.ldexp(FpFormat(2, 1).max_val, 3) == 96.0
