import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fpqt.errors import NumericalError, ShapeError
from fpqt.formats import BiasedFormat, FpFormat, grid, parse_format
from fpqt.quantize import (
    _BLOCK_ELEMS,
    _Grid,
    channel_bias,
    minmax_quantize,
    quant_error,
    snap_per_channel,
)
from oracles import oracle_grid, oracle_nearest, oracle_quant_error, oracle_snap

E2M1 = FpFormat(2, 1)
FORMATS = [FpFormat(1, 2), E2M1, FpFormat(3, 0), FpFormat(2, 5), FpFormat(4, 3)]
FORMAT_SUBSET = [FpFormat(1, 2), E2M1, FpFormat(3, 0)]


class TestChannelBias:
    def test_definition_holds_on_random_data(self, rng):
        for fmt in FORMATS:
            a = np.exp(rng.uniform(-20, 20, size=(11, 6))) * rng.standard_normal((11, 6))
            b = channel_bias(a, fmt, channel_axis=-1)
            amax = np.abs(a).max(axis=0)
            assert np.all(np.ldexp(fmt.max_val, b) <= amax)
            assert np.all(amax < np.ldexp(fmt.max_val, b + 1))

    def test_exact_at_power_of_two_boundaries(self):
        # when max|a| is exactly max_val * 2^k the bias must be exactly k
        for k in (-30, -3, 0, 2, 17):
            a = np.array([[12.0 * 2.0**k], [1.0 * 2.0**k]])
            assert channel_bias(a, E2M1, -1).tolist() == [k]
            tiny_under = np.nextafter(12.0 * 2.0**k, 0.0)
            assert channel_bias(np.array([[tiny_under]]), E2M1, -1).tolist() == [k - 1]

    def test_all_zero_channel_gets_bias_zero(self):
        a = np.array([[0.0, 3.0], [0.0, -1.0]])
        assert channel_bias(a, E2M1, -1).tolist() == [0, -2]

    def test_channel_axis_selection(self, rng):
        a = rng.standard_normal((4, 6))
        rows = channel_bias(a, E2M1, channel_axis=0)
        cols = channel_bias(a, E2M1, channel_axis=1)
        assert rows.shape == (4,)
        assert cols.shape == (6,)
        whole = channel_bias(a, E2M1, channel_axis=None)
        assert whole.shape == ()

    def test_scaling_by_power_of_two_shifts_bias(self, rng):
        a = rng.standard_normal((5, 3))
        b0 = channel_bias(a, E2M1, -1)
        assert np.array_equal(channel_bias(a * 2.0**7, E2M1, -1), b0 + 7)
        assert np.array_equal(channel_bias(a * 2.0**-9, E2M1, -1), b0 - 9)

    def test_channel_axis_outside_the_dims_is_shape_error(self):
        for a, axis in ((np.array(2.0), -1), (np.array(2.0), 0), (np.ones(3), 1),
                        (np.ones((2, 3)), -3)):
            for quantizer in (channel_bias, minmax_quantize):
                want = re.escape(f"channel_axis {axis} is outside shape {a.shape}")
                with pytest.raises(ShapeError, match=want):
                    quantizer(a, E2M1, channel_axis=axis)

    def test_non_integer_channel_axis_is_named(self):
        for axis in (1.0, 0.0, "0", (0,), True, False):  # True was read as axis 1
            for quantizer in (channel_bias, minmax_quantize):
                with pytest.raises(TypeError, match=r"^channel_axis must be an integer or None"):
                    quantizer(np.ones((2, 3)), E2M1, channel_axis=axis)
        assert np.array_equal(channel_bias(np.ones((2, 3)), E2M1, np.int64(0)),
                              channel_bias(np.ones((2, 3)), E2M1, 0))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            channel_bias(np.array([[np.nan]]), E2M1)
        with pytest.raises(NumericalError):
            channel_bias(np.array([[np.inf]]), E2M1)

    def test_exact_without_warnings_at_float64_extremes(self):
        big = np.finfo(np.float64).max
        a = np.array([[1.7e308, big, 5e-324, 3e-310], [-1.0, -big, 0.0, 1e-320]])
        for fmt in FORMATS:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                b = channel_bias(a, fmt, channel_axis=-1)
            for amax, bj in zip(np.abs(a).max(axis=0), b.tolist()):
                lo = Fraction(fmt.max_val) * Fraction(2) ** bj
                assert lo <= Fraction(amax) < 2 * lo


class TestMinMaxQuantize:
    def test_single_channel_worked_example(self):
        # channel max 12 -> bias 0, grid {0,1,2,3,4,6,8,12}
        q = minmax_quantize(np.array([[12.0], [3.0], [0.6]]), E2M1, channel_axis=-1)
        assert q.bias.tolist() == [0]
        assert q.values.ravel().tolist() == [12.0, 3.0, 1.0]

    def test_matches_nearest_grid_oracle_per_channel(self, rng):
        for fmt in FORMATS:
            a = rng.standard_normal((8, 3)) * np.exp(rng.uniform(-8, 8, size=3))
            q = minmax_quantize(a, fmt, channel_axis=-1)
            for j in range(a.shape[1]):
                levels = oracle_grid(fmt.n_e, fmt.n_m, int(q.bias[j]))
                for i in range(a.shape[0]):
                    assert q.values[i, j] == oracle_nearest(a[i, j], levels)

    def test_values_land_on_grid(self, rng):
        for fmt in FORMAT_SUBSET:
            a = rng.standard_normal((16, 4)) * 40.0
            q = minmax_quantize(a, fmt, channel_axis=-1)
            for j in range(4):
                g = grid(BiasedFormat(fmt, int(q.bias[j])))
                signed = np.unique(np.concatenate([-g, g]))
                assert np.isin(q.values[:, j], signed).all()

    def test_idempotent(self, rng):
        for fmt in FORMAT_SUBSET:
            a = rng.standard_normal((16, 4)) * np.exp(rng.uniform(-6, 6, size=4))
            q1 = minmax_quantize(a, fmt, channel_axis=-1)
            q2 = minmax_quantize(q1.values, fmt, channel_axis=-1)
            assert np.array_equal(q1.values, q2.values)
            assert np.array_equal(q1.bias, q2.bias)

    def test_channel_max_maps_to_grid_ceiling_when_isolated(self):
        # a channel whose max sits exactly at vmax stays put
        a = np.array([[6.0], [5.9], [0.4]])
        q = minmax_quantize(a, E2M1, -1)
        assert q.bias.tolist() == [-1]
        assert q.values[0, 0] == 6.0

    def test_negative_symmetry(self, rng):
        a = rng.standard_normal((10, 5)) * 13.0
        qp = minmax_quantize(a, E2M1, -1)
        qn = minmax_quantize(-a, E2M1, -1)
        assert np.array_equal(qn.values, -qp.values)
        assert np.array_equal(qn.bias, qp.bias)

    def test_power_of_two_scale_covariance_is_bitwise(self, rng):
        a = rng.standard_normal((12, 3))
        q = minmax_quantize(a, E2M1, -1)
        for k in (-11, 4, 23):
            qs = minmax_quantize(a * 2.0**k, E2M1, -1)
            assert np.array_equal(qs.values, q.values * 2.0**k)
            assert np.array_equal(qs.bias, q.bias + k)

    def test_channels_are_independent(self):
        a = np.array([[100.0, 0.01], [50.0, 0.005]])
        q = minmax_quantize(a, E2M1, -1)
        assert q.bias[0] != q.bias[1]
        col_alone = minmax_quantize(a[:, :1], E2M1, -1)
        assert np.array_equal(q.values[:, 0], col_alone.values[:, 0])

    def test_per_tensor_mode(self, rng):
        a = rng.standard_normal((6, 6)) * 100.0
        q = minmax_quantize(a, E2M1, channel_axis=None)
        assert q.bias.shape == ()
        levels = oracle_grid(2, 1, int(q.bias))
        assert q.values[0, 0] == oracle_nearest(a[0, 0], levels)

    def test_rows_as_channels(self, rng):
        a = rng.standard_normal((3, 9)) * np.exp(rng.uniform(-4, 4, size=(3, 1)))
        q = minmax_quantize(a, E2M1, channel_axis=0)
        qt = minmax_quantize(a.T, E2M1, channel_axis=1)
        assert np.array_equal(q.values, qt.values.T)

    def test_output_is_read_only(self, rng):
        q = minmax_quantize(rng.standard_normal((4, 2)), E2M1)
        with pytest.raises(ValueError):
            q.values[0, 0] = 99.0
        with pytest.raises(ValueError):
            q.bias[0] = 3

    def test_underflow_guard(self):
        with pytest.raises(NumericalError):
            minmax_quantize(np.array([[5e-324]]), E2M1, -1)

    def test_zero_tensor(self):
        q = minmax_quantize(np.zeros((4, 2)), E2M1, -1)
        assert np.array_equal(q.values, np.zeros((4, 2)))
        assert q.bias.tolist() == [0, 0]

    def test_empty_tensor_gets_zero_bias_per_channel(self):
        q = minmax_quantize(np.zeros((0, 3)), E2M1, -1)
        assert q.values.shape == (0, 3)
        assert q.bias.tolist() == [0, 0, 0]
        assert minmax_quantize(np.zeros((0, 3)), E2M1, 0).bias.shape == (0,)
        assert minmax_quantize(np.zeros((0, 3)), E2M1, None).bias == 0

    def test_zero_dim_tensor_snaps_like_its_one_element_form(self):
        for fmt in FORMAT_SUBSET:
            one = minmax_quantize(np.array([-2.7]), fmt, None)
            got = minmax_quantize(np.array(-2.7), fmt, None)
            assert got.values.shape == () and got.values == one.values[0] != -2.7
            assert got.bias == one.bias
            snapped = snap_per_channel(np.array(-2.7), fmt, one.bias)
            assert snapped.shape == () and snapped == one.values[0]

    def test_negative_zero_maps_to_positive_zero(self):
        q = minmax_quantize(np.array([[-0.0], [-1e-9], [12.0]]), E2M1, -1)
        assert not np.signbit(q.values[0, 0])  # -0.0 input
        assert q.values[1, 0] == 0.0 and np.signbit(q.values[1, 0])  # negative, rounds to 0


class TestRoundToGrid:
    """snap_per_channel with a scalar bias: one fixed biased grid."""

    def test_matches_oracle_on_fixed_grid(self, rng):
        for fmt in FORMAT_SUBSET:
            for bias in (-3, 0, 2):
                bf = BiasedFormat(fmt, bias)
                levels = oracle_grid(fmt.n_e, fmt.n_m, bias)
                value_max = math.ldexp(fmt.max_val, bias)
                x = rng.uniform(-1.5 * value_max, 1.5 * value_max, size=40)
                got = snap_per_channel(x, fmt, bias)
                for xi, gi in zip(x, got):
                    assert gi == oracle_nearest(xi, levels)

    def test_ties_round_away_from_zero(self):
        # bias 0 grid {0,1,2,3,4,6,8,12}
        assert snap_per_channel(np.array([0.5]), E2M1, 0)[0] == 1.0
        assert snap_per_channel(np.array([-0.5]), E2M1, 0)[0] == -1.0
        assert snap_per_channel(np.array([2.5]), E2M1, 0)[0] == 3.0
        assert snap_per_channel(np.array([5.0]), E2M1, 0)[0] == 6.0
        assert snap_per_channel(np.array([7.0]), E2M1, 0)[0] == 8.0
        assert snap_per_channel(np.array([10.0]), E2M1, 0)[0] == 12.0

    @pytest.mark.parametrize("fmt", [FpFormat(1, 2), E2M1, FpFormat(3, 0), FpFormat(4, 3),
                                     FpFormat(5, 2)], ids=str)
    @pytest.mark.parametrize("bias", [-1070, -3, 0, 2, 900])
    def test_values_beside_each_half_spacing_point_match_the_oracle(self, fmt, bias):
        # floor(u + 0.5) once took 0.5 - 2^-54 lowest spacings up to a whole spacing
        levels = oracle_grid(fmt.n_e, fmt.n_m, bias)
        mids = [lo + (hi - lo) / 2 for lo, hi in zip(levels, levels[1:])]
        x = np.array([y for m in mids for y in (np.nextafter(m, 0.0), m, np.nextafter(m, np.inf))])
        x = np.concatenate([x, -x])
        got = snap_per_channel(x, fmt, bias)
        assert np.array_equal(got, oracle_snap(x, fmt.n_e, fmt.n_m, np.int64(bias)))
        assert np.array_equal(minmax_quantize(x, fmt, channel_axis=None).values,
                              oracle_snap(x, fmt.n_e, fmt.n_m, channel_bias(x, fmt, None)))

    @pytest.mark.parametrize("fmt", [FpFormat(1, 52), FpFormat(3, 52)], ids=str)
    def test_grid_points_stay_put_with_52_mantissa_bits(self, rng, fmt):
        # their unit counts reach 2^52, where u + 0.5 is a tie that rounded odd counts up by one
        x = np.ldexp(rng.integers(1, 2**53, size=200).astype(np.float64), -51)
        assert snap_per_channel(x, fmt, 0).tobytes() == x.tobytes()

    def test_clamps_beyond_ceiling(self):
        assert snap_per_channel(np.array([1e9, -1e9]), E2M1, 0).tolist() == [12.0, -12.0]

    def test_snap_per_channel_agrees_with_round_to_grid(self, rng):
        # a per-element bias vector snaps each element as its scalar bias would
        x = rng.standard_normal(20) * 10.0
        biases = rng.integers(-3, 3, size=20)
        got = snap_per_channel(x, E2M1, biases)
        for i in range(20):
            assert got[i] == snap_per_channel(x[i : i + 1], E2M1, int(biases[i]))[0]

    def test_agrees_with_minmax_on_its_biases(self, rng):
        a = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-6, 6, size=5))
        for fmt in FORMATS:
            q = minmax_quantize(a, fmt, channel_axis=-1)
            assert np.array_equal(snap_per_channel(a, fmt, q.bias), q.values)

    def test_does_not_modify_its_input(self, rng):
        x = rng.standard_normal(6) * 5.0
        before = x.copy()
        snap_per_channel(x, E2M1, 0)
        assert np.array_equal(x, before)

    def test_rejects_non_finite(self):
        for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
            with pytest.raises(NumericalError):
                snap_per_channel(np.array(bad), E2M1, np.array([0]))

    def test_rejects_bias_that_does_not_broadcast(self):
        with pytest.raises(ShapeError):
            snap_per_channel(np.ones(3), E2M1, np.zeros(4, dtype=np.int64))
        with pytest.raises(ShapeError):
            snap_per_channel(np.ones(3), E2M1, np.zeros((2, 3), dtype=np.int64))

    def test_whole_float_bias_matches_integer_bias(self, rng):
        # biases read back from a container are floats
        x = rng.standard_normal((5, 3)) * 7.0
        for bias, whole in ((1, 1.0), (np.array([0, -2, 3]), np.array([0.0, -2.0, 3.0]))):
            assert np.array_equal(snap_per_channel(x, E2M1, whole), snap_per_channel(x, E2M1, bias))

    def test_rejects_non_integral_bias(self):
        # bias 1.7 used to be truncated to 1 without a word
        for bias, shown in ((1.7, "1.7"), (np.nan, "nan"), (np.array([1.0, 2.5]), "2.5")):
            with pytest.raises(ValueError, match=rf"^bias must hold whole numbers, got {shown}$"):
                snap_per_channel(np.array([1.0, 3.0]), E2M1, bias)

    def test_rejects_non_numeric_bias(self):
        # bias "1" used to raise numpy's UFuncTypeError
        for bias in ("1", ["1", "2"], 1j, None):
            with pytest.raises(TypeError, match=r"^bias must be an integer or integer array"):
                snap_per_channel(np.array([1.0, 3.0]), E2M1, bias)

    def test_rejects_bool_bias(self):
        # True used to snap at bias 1, as [True, False] did at biases [1, 0]
        for bias in (True, np.array([True, False])):
            with pytest.raises(TypeError, match=r"^bias must be an integer or integer array, "
                                                r"got dtype bool$"):
                snap_per_channel(np.array([1.0, 3.0]), E2M1, bias)

    def test_rejects_bias_outside_float64_range(self):
        # E2M1 max_val is 12 = 0.75 * 2^4: the ceiling overflows past bias 1020
        assert snap_per_channel(np.array([1.5e308]), E2M1, 1020)[0] == math.ldexp(12.0, 1020)
        for bias in (1021, -1080, 2**40):
            with pytest.raises(NumericalError):
                snap_per_channel(np.array([1.0]), E2M1, bias)

    def test_float64_floor(self):
        # at bias -1074 the grid's lowest spacing is the smallest subnormal,
        # 2^-1074, so zero and the two smallest magnitudes sit on it
        x = np.array([0.0, 5e-324, -1e-323])
        assert snap_per_channel(x, E2M1, -1074).tobytes() == x.tobytes()
        with pytest.raises(NumericalError):
            snap_per_channel(x, E2M1, -1075)


class TestQuantError:
    def test_zero_error_gives_inf_sqnr_and_unit_cosine(self, rng):
        a = rng.standard_normal((5, 5))
        e = quant_error(a, a.copy())
        assert e["mse"] == 0.0
        assert e["max_abs"] == 0.0
        assert e["sqnr_db"] == float("inf")
        assert e["cosine"] == 1.0

    def test_simple_known_values(self):
        e = quant_error(np.array([3.0, 4.0]), np.array([3.0, 5.0]))
        assert e["mse"] == 0.5
        assert e["max_abs"] == 1.0
        # signal power 12.5, noise power 0.5 -> 10 log10(25) dB
        assert e["sqnr_db"] == pytest.approx(10 * np.log10(25.0))

    def test_zero_signal_sentinels(self):
        z = np.zeros(3)
        e = quant_error(z, z)
        assert e["sqnr_db"] == float("inf")
        assert e["cosine"] == 1.0
        e2 = quant_error(z, np.ones(3))
        assert e2["cosine"] == 0.0

    def test_zero_dim_operands_match_their_one_element_form(self):
        got = quant_error(np.array(3.0), np.array(2.5))
        assert got == quant_error(np.array([3.0]), np.array([2.5]))
        assert got["mse"] == 0.25

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            quant_error(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, bad):
        # NaN would give NaN mse beside cosine 1.0, and Inf a -inf sqnr_db
        a = np.arange(1.0, 7.0).reshape(2, 3)
        spoiled = a.copy()
        spoiled[1, 2] = bad
        for x, y in ((spoiled, a), (a, spoiled), (spoiled, spoiled)):
            with pytest.raises(NumericalError, match="non-finite"):
                quant_error(x, y)
        big = np.tile(a, (_BLOCK_ELEMS // 3, 1))  # several blocks, the bad value in the last
        big_q = big.copy()
        big_q[-1, -1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            quant_error(big, big_q)

    def test_power_of_two_scale_leaves_ratios_bitwise_equal(self, rng):
        a = rng.standard_normal((6, 4))
        q = minmax_quantize(a, E2M1, -1).values
        e = quant_error(a, q)
        for k in (-1000, -30, 7, 1000):
            es = quant_error(a * 2.0**k, q * 2.0**k)
            assert es["sqnr_db"] == e["sqnr_db"]
            assert es["cosine"] == e["cosine"]
            assert es["max_abs"] == e["max_abs"] * 2.0**k

    def test_finite_near_float64_max(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            e = quant_error(1e200 * np.array([1.0, 2.0]), 1e200 * np.array([1.0, 1.5]))
        # signal 2.5, noise 0.125 (times 1e400): 10 log10(20) dB
        assert e["sqnr_db"] == pytest.approx(10 * np.log10(20.0), rel=1e-12)
        assert e["cosine"] == pytest.approx(4.0 / math.sqrt(5.0 * 3.25), rel=1e-12)
        assert e["max_abs"] == pytest.approx(0.5e200, rel=1e-12)
        assert e["mse"] == float("inf")  # 1.25e399 exceeds float64

    def test_small_error_under_a_huge_peak_is_not_lost(self):
        # scaled by the peak alone, the error's square sinks below float64
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            e = quant_error(np.array([1e160, 1.0]), np.array([1e160, 1.5]))
        assert e["mse"] == 0.125
        assert e["max_abs"] == 0.5
        # signal 5e319, noise 0.125: 10 log10(4e320) dB
        assert e["sqnr_db"] == pytest.approx(3200.0 + 10 * np.log10(4.0), rel=1e-12)


def assert_snapped(got, a, want):
    """got equals the oracle's grid points, and its sign bit is a < 0 (the
    oracle does not tell -0.0 from +0.0)."""
    assert got.shape == a.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), a < 0)


class TestBlockedKernels:
    """The snap and quant_error run in blocks of about _BLOCK_ELEMS elements;
    every shape here spans at least three blocks, the last one ragged, or
    holds a single row wider than a block."""

    ROWS = 3 * (_BLOCK_ELEMS // 7) + 5  # (ROWS, 7): three full blocks of rows and 5 rows

    @staticmethod
    def pooled(rng, shape):
        """Values drawn from a small pool (so the oracle sees few distinct
        pairs), with per-column power-of-two scales and a few exact ties."""
        pool = np.concatenate([rng.standard_normal(40) * 4.0, [0.0, -0.0, 0.5, -2.5, 5.0]])
        a = rng.choice(pool, size=shape)
        return a * np.exp2(rng.integers(-3, 4, size=shape[-1]))

    @staticmethod
    def expect_minmax(a, fmt, axis):
        q = minmax_quantize(a, fmt, channel_axis=axis)
        amax = np.abs(a).max(axis=tuple(i for i in range(a.ndim) if i != axis % a.ndim)
                            if axis is not None else None)
        lo, hi = np.ldexp(fmt.max_val, q.bias), np.ldexp(fmt.max_val, q.bias + 1)
        brackets = (lo <= amax) & (amax < hi)
        assert np.all(np.where(amax == 0.0, q.bias == 0, brackets))
        bias = q.bias if axis is None else np.expand_dims(
            q.bias, tuple(i for i in range(a.ndim) if i != axis % a.ndim))
        assert_snapped(q.values, a, oracle_snap(a, fmt.n_e, fmt.n_m, bias))

    @pytest.mark.parametrize("axis", [-1, 0, None])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_minmax_matches_oracle_across_blocks(self, rng, axis, order):
        a = np.asarray(self.pooled(rng, (self.ROWS, 7)), order=order)
        for fmt in (E2M1, FpFormat(3, 0)):
            self.expect_minmax(a, fmt, axis)

    @pytest.mark.parametrize("axis", [-1, 0, None])
    def test_minmax_single_row_wider_than_a_block(self, rng, axis):
        self.expect_minmax(self.pooled(rng, (2, _BLOCK_ELEMS + 3)), E2M1, axis)

    @pytest.mark.parametrize("axis", [0, 1, -1, None])
    def test_minmax_three_dimensional(self, rng, axis):
        self.expect_minmax(self.pooled(rng, (3, _BLOCK_ELEMS // 8 + 1, 8)), E2M1, axis)

    def test_minmax_zero_dim(self):
        for x in (-2.7, 0.3, 1e-300):
            self.expect_minmax(np.array(x), E2M1, None)

    @pytest.mark.parametrize("shape", [(ROWS, 7), (2, _BLOCK_ELEMS + 3), (3 * _BLOCK_ELEMS + 11,)])
    def test_snap_per_channel_matches_oracle_across_blocks(self, rng, shape):
        a = self.pooled(rng, shape)
        for bias in (np.int64(-1), rng.integers(-2, 3, size=shape[-1])):
            assert_snapped(snap_per_channel(a, E2M1, bias), a, oracle_snap(a, 2, 1, bias))

    def test_underflow_in_the_last_block_raises(self, rng):
        a = self.pooled(rng, (self.ROWS, 7))
        a[-1] = 5e-324  # only the last row's grid spacing leaves float64
        with pytest.raises(NumericalError):
            minmax_quantize(a, E2M1, channel_axis=0)
        minmax_quantize(a[:-1], E2M1, channel_axis=0)


class TestSourceAndDestination:
    """The snap reads its source and writes a separate destination: the entry
    points make no working copy of their input and never write to it."""

    ROWS = TestBlockedKernels.ROWS

    @staticmethod
    def layouts(rng):
        """(name, input, channel axis): inputs the snap reads where they lie."""
        a = TestBlockedKernels.pooled(rng, (TestBlockedKernels.ROWS, 7))
        a[:3] = [[-0.0] * 7, [-1e-9] * 7, [1e-9] * 7]  # -0.0, and values that round to +-0
        frozen = a.copy()
        frozen.flags.writeable = False
        wide = TestBlockedKernels.pooled(rng, (2 * TestBlockedKernels.ROWS, 15))
        return [("read-only", frozen, -1), ("F-ordered", np.asfortranarray(a), -1),
                ("strided", wide[::2, 1::2], -1), ("transposed", a.T, 0),
                ("float32", a.astype(np.float32), -1), ("0-d", np.array(-2.7), None),
                ("0-d float32", np.array(-0.0, dtype=np.float32), None)]

    def test_inputs_are_left_byte_identical(self, rng):
        for name, a, axis in self.layouts(rng):
            before = a.tobytes()
            ref = np.array(a, dtype=np.float64, order="C")  # the same values, fresh
            want = minmax_quantize(ref, E2M1, axis)
            got = minmax_quantize(a, E2M1, axis)
            assert got.values.tobytes() == want.values.tobytes(), name
            assert got.bias.tobytes() == want.bias.tobytes(), name
            bias = want.bias if axis != 0 else want.bias[:, None]
            assert snap_per_channel(a, E2M1, bias).tobytes() == want.values.tobytes(), name
            assert a.tobytes() == before, name

    @pytest.mark.parametrize("shape", [(5,), (ROWS, 7), (2, _BLOCK_ELEMS + 3)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_snap_into_out_equals_the_in_place_snap(self, rng, shape, order):
        x = np.asarray(TestBlockedKernels.pooled(rng, shape), order=order)
        x.flat[:4] = [-0.0, 0.0, -1e-9, 1e-9]  # signed zeros in and out
        fmt = FpFormat(3, 0)
        grid = _Grid(fmt, channel_bias(x, fmt))
        in_place = x.copy(order=order)
        assert grid.snap(in_place, in_place) is in_place
        src, out = x.copy(order=order), np.full_like(x, np.nan)
        assert grid.snap(src, out) is out
        assert out.tobytes() == in_place.tobytes()
        assert np.array_equal(np.signbit(out), x < 0)
        assert src.tobytes() == x.tobytes()

    def test_one_grid_snaps_arrays_of_other_block_shapes(self, rng):
        # the grid's scratch follows the block shape: full and short blocks, a row, F order
        bias = rng.integers(-2, 3, size=7)
        grid = _Grid(E2M1, bias)
        rows = TestBlockedKernels.ROWS
        for x in (TestBlockedKernels.pooled(rng, (rows, 7)), TestBlockedKernels.pooled(rng, (7,)),
                  np.asfortranarray(TestBlockedKernels.pooled(rng, (rows + 2, 7)))):
            x.flat[:4] = [-0.0, 0.0, -1e-9, 1e-9]  # signed zeros in and out
            want = oracle_snap(x, 2, 1, bias)
            want = np.where(x < 0, -np.abs(want), np.abs(want))  # the snap's sign is x < 0
            assert grid.snap(x, np.empty_like(x)).tobytes() == want.tobytes()


class TestQuantErrorAcrossBlocks:
    SHAPE = (3 * (_BLOCK_ELEMS // 5) + 2, 5)

    @staticmethod
    def expect_oracle(a, q):
        got, want = quant_error(a, q), oracle_quant_error(a, q)
        assert got["max_abs"] == want["max_abs"]
        for key in ("mse", "sqnr_db", "cosine"):
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key

    def test_matches_fsum_oracle(self, rng):
        a = rng.standard_normal(self.SHAPE) * np.exp2(rng.integers(-8, 9, size=5))
        for fmt in (E2M1, FpFormat(4, 3)):
            self.expect_oracle(a, minmax_quantize(a, fmt).values)
        self.expect_oracle(a[:, 1:], minmax_quantize(a[:, 1:], E2M1).values)  # a strided view
        self.expect_oracle(np.asfortranarray(a), minmax_quantize(a, E2M1).values)

    def test_sums_follow_memory_order_in_any_layout(self, rng):
        # an F-ordered pair is summed block by block in memory order, as its
        # C-ordered transpose is, so every metric is the same float; blocks of
        # this shape hold 109 columns, the last one 73
        for _ in range(8):  # another order agrees on about 2 blocks in 3
            a = rng.standard_normal((300, 400)) * np.exp2(rng.integers(-8, 9, size=400))
            q = minmax_quantize(a, E2M1).values
            got = quant_error(np.asfortranarray(a), np.asfortranarray(q))
            assert got == quant_error(np.ascontiguousarray(a.T), np.ascontiguousarray(q.T))

    def test_huge_peak_only_in_the_last_block(self, rng):
        a = rng.standard_normal(self.SHAPE)
        q = minmax_quantize(a, E2M1).values.copy()
        a[-1, -1], q[-1, -1] = 2.0**600, 0.75 * 2.0**600  # squares past float64 max
        self.expect_oracle(a, q)
        assert quant_error(a, q)["mse"] == math.inf  # 2^1196 / a.size

    def test_tiny_error_only_in_the_last_block(self, rng):
        a = rng.standard_normal(self.SHAPE)
        q = a.copy()
        a[-1, -1], q[-1, -1] = 3 * 2.0**-599, 2 * 2.0**-599  # squares to below 2^-1074
        self.expect_oracle(a, q)
        assert quant_error(a, q)["sqnr_db"] > 3000.0
