import math
from fractions import Fraction

import numpy as np
import pytest

from fpqt import gptq, quantize
from fpqt.errors import NumericalError
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

    @pytest.mark.parametrize("n_e,n_m,field", [
        (2.0, 1, "n_e"), (True, 1, "n_e"), ("2", 1, "n_e"),
        (2, 1.0, "n_m"), (2, False, "n_m"), (2, None, "n_m"),
    ])
    def test_wrong_type_rejected_naming_the_field(self, n_e, n_m, field):
        # a float once constructed and failed in grid(); True printed as ETrueM1
        with pytest.raises(ValueError, match=f"^{field} must be int, got "):
            FpFormat(n_e, n_m)
        assert FpFormat(np.int64(2), np.uint8(1)) == FpFormat(2, 1)  # any Integral but bool


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

    @pytest.mark.parametrize("bad", [4, None, b"E2M1"])
    def test_non_string_is_a_type_error(self, bad):
        with pytest.raises(TypeError, match="format must be a str"):
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

    @pytest.mark.parametrize("bad", [4.0, "4", True])
    def test_non_integer_width_is_a_type_error(self, bad):
        with pytest.raises(TypeError, match="total width must be an integer"):
            candidate_formats(bad)

    def test_numpy_integer_width_is_accepted(self):
        assert candidate_formats(np.int64(4)) == candidate_formats(4)


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

    @pytest.mark.parametrize("n_e,n_m", [(10, 52), (10, 30)])
    def test_grid_too_large_to_build_is_refused_before_allocating(self, n_e, n_m):
        # 2^62 and 2^40 float64 points: numpy would raise MemoryError, or take the host
        want = rf"^grid of format E{n_e}M{n_m} has 2\^{n_e + n_m} points, more than the 2\^24 "
        with pytest.raises(ValueError, match=want):
            grid(BiasedFormat(FpFormat(n_e, n_m), 0))

    @pytest.mark.parametrize("n_bits", range(2, 9))
    def test_every_grid_of_up_to_8_bits_is_built(self, n_bits):
        for f in candidate_formats(n_bits):
            for bias in (-3, 0, 2):
                want = oracle_grid(f.n_e, f.n_m, bias)
                assert grid(BiasedFormat(f, bias)).tolist() == want

    @pytest.mark.parametrize("n_e,n_m", [(2, 1), (3, 0), (1, 2), (4, 3)])
    def test_points_are_exact_and_ascending_from_bias_n_m_minus_1075(self, n_e, n_m):
        # from bias n_m - 1075 on, the lowest spacing 2^(1 - n_m + bias) is a float64
        f = FpFormat(n_e, n_m)
        floor = n_m - 1075

        def exact(bias):
            return [Fraction(m) * Fraction(2) ** (1 - n_m + bias) for m in range(1 << n_m)] + [
                Fraction(m) * Fraction(2) ** (e - n_m + bias)
                for e in range(1, 1 << n_e) for m in range(1 << n_m, 2 << n_m)]

        g = grid(BiasedFormat(f, floor))
        assert [Fraction(v) for v in g.tolist()] == exact(floor)
        assert np.all(np.diff(g) > 0)
        below = grid(BiasedFormat(f, floor - 1))  # admitted, but its lowest points round
        assert [Fraction(v) for v in below.tolist()] != exact(floor - 1)
        assert not np.all(np.diff(below) > 0)

    def test_biased_value_max(self):
        assert grid(BiasedFormat(FpFormat(2, 1), -1))[-1] == math.ldexp(FpFormat(2, 1).max_val, -1) == 6.0
        assert grid(BiasedFormat(FpFormat(2, 1), 3))[-1] == math.ldexp(FpFormat(2, 1).max_val, 3) == 96.0


class TestBiasedFormatBias:
    """BiasedFormat's bias is an integer whose grid snap_per_channel could use."""

    @pytest.mark.parametrize("bad", [0.5, "1", None, True], ids=repr)
    def test_non_integer_bias_is_named(self, bad):
        # 0.5 and '1' used to reach grid's ldexp as a raw numpy error; True was taken as 1
        with pytest.raises(ValueError, match=r"^bias must be int, got "):
            BiasedFormat(FpFormat(2, 1), bad)

    def test_numpy_integer_bias_is_stored_as_an_int(self):
        bf = BiasedFormat(FpFormat(2, 1), np.int64(-3))
        assert type(bf.bias) is int and bf.bias == -3
        assert bf == BiasedFormat(FpFormat(2, 1), -3)

    @pytest.mark.parametrize("bias", [1021, -1080, 2000, -2000])
    def test_bias_outside_the_snaps_range_is_refused_as_the_snap_refuses_it(self, bias):
        # E2M1's ceiling 12 * 2^bias is finite up to bias 1020 and at least 2^-1076 from -1079 on
        f = FpFormat(2, 1)
        with pytest.raises(NumericalError, match="outside float64 range") as by_format:
            BiasedFormat(f, bias)
        with pytest.raises(NumericalError) as by_snap:
            quantize.snap_per_channel(np.ones(2), f, bias)
        assert str(by_format.value) == str(by_snap.value)

    def test_the_extreme_biases_the_snap_admits_are_admitted(self):
        f = FpFormat(2, 1)
        assert grid(BiasedFormat(f, 1020))[-1] == math.ldexp(12.0, 1020)
        assert BiasedFormat(f, -1079).bias == -1079


class TestFormatArgument:
    """Every entry point that takes a format names fmt in one TypeError
    when given anything but an FpFormat, such as the string it parses from."""

    BAD = ["E2M1", None, (2, 1), 4]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_biased_format_and_grid(self, bad):
        with pytest.raises(TypeError, match=r"^fmt must be an FpFormat, got "):
            grid(BiasedFormat(bad, 0))

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize("entry", ["minmax_quantize", "channel_bias", "snap_per_channel"])
    def test_quantize_entry_points(self, bad, entry):
        args = (np.ones((4, 3)), bad) + ((0,) if entry == "snap_per_channel" else ())
        with pytest.raises(TypeError, match=r"^fmt must be an FpFormat, got "):
            getattr(quantize, entry)(*args)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_gptq_fails_before_it_factors(self, bad, monkeypatch):
        factored = []
        monkeypatch.setattr(gptq, "hessian_factor", lambda cal: factored.append(cal))
        cal = gptq.CalibrationSet(np.eye(4))
        with pytest.raises(TypeError, match=r"^fmt must be an FpFormat, got "):
            gptq.gptq_quantize(np.ones((4, 3)), cal, bad)
        assert factored == []

    def test_a_format_string_points_to_parse_format(self):
        with pytest.raises(TypeError, match="parse_format"):
            BiasedFormat("E2M1", 0)
        assert BiasedFormat(parse_format("E2M1"), 0).fmt == FpFormat(2, 1)
