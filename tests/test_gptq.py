import numpy as np
import pytest

from fpqt.errors import NumericalError, ShapeError
from fpqt.formats import BiasedFormat, FpFormat, grid, parse_format
from fpqt.gptq import (
    CalibrationSet,
    GptqConfig,
    _inverse_hessian_factor,
    gptq_quantize,
    hessian,
    layer_objective,
)
from fpqt.quantize import channel_bias, minmax_quantize
from oracles import oracle_gptq_2x2, oracle_matmul

E2M1 = FpFormat(2, 1)


def signed_grid(fmt, bias):
    g = grid(BiasedFormat(fmt, int(bias)))
    return np.unique(np.concatenate([-g, g]))


class TestCalibrationSet:
    def test_properties(self, rng):
        cal = CalibrationSet(rng.standard_normal((9, 4)))
        assert (cal.samples, cal.in_dim) == (9, 4)

    def test_validation(self):
        with pytest.raises(ShapeError):
            CalibrationSet(np.zeros(5))
        with pytest.raises(ValueError):
            CalibrationSet(np.zeros((0, 4)))
        with pytest.raises(NumericalError):
            CalibrationSet(np.array([[np.nan, 1.0]]))


class TestGptqConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GptqConfig(block_size=0)
        with pytest.raises(ValueError):
            GptqConfig(damping=0.0)
        GptqConfig(block_size=1, damping=1e-6)


class TestHessianAndObjective:
    def test_hessian_is_twice_gram_matrix(self, rng):
        x = rng.standard_normal((7, 3))
        want = 2.0 * oracle_matmul(x.T.copy(), x)
        assert np.allclose(hessian(CalibrationSet(x)), want, atol=1e-12)

    def test_overflowing_calibration_set_is_numerical_error(self, rng):
        cal = CalibrationSet(1e200 * rng.standard_normal((10, 4)))
        with pytest.raises(NumericalError, match="calibration set"):
            hessian(cal)
        with pytest.raises(NumericalError, match="calibration set"):
            gptq_quantize(rng.standard_normal((4, 3)), cal, E2M1)

    def test_overflowing_damping_is_numerical_error(self, rng):
        # every entry of 2 X^T X is finite, but the mean of its diagonal is not
        cal = CalibrationSet(1e153 * rng.standard_normal((10, 400)))
        assert np.isfinite(hessian(cal)).all()
        with pytest.raises(NumericalError, match="calibration set"):
            gptq_quantize(rng.standard_normal((400, 3)), cal, E2M1)

    def test_objective_matches_manual_sum(self, rng):
        x = rng.standard_normal((6, 4))
        w = rng.standard_normal((4, 2))
        w_hat = w + rng.standard_normal((4, 2)) * 0.1
        cal = CalibrationSet(x)
        want = float(np.sum((oracle_matmul(x, w_hat) - oracle_matmul(x, w)) ** 2))
        assert layer_objective(w, w_hat, cal) == pytest.approx(want, rel=1e-12)

    def test_objective_zero_for_identical(self, rng):
        w = rng.standard_normal((4, 2))
        assert layer_objective(w, w.copy(), CalibrationSet(np.eye(4))) == 0.0

    def test_objective_shape_checks(self, rng):
        cal = CalibrationSet(rng.standard_normal((5, 4)))
        with pytest.raises(ShapeError):
            layer_objective(np.zeros((4, 2)), np.zeros((4, 3)), cal)
        with pytest.raises(ShapeError):
            layer_objective(np.zeros((3, 2)), np.zeros((3, 2)), cal)


class TestInverseHessianFactor:
    def test_upper_factor_of_the_inverse(self, rng):
        for in_dim in (1, 5, 64, 200):
            x = rng.standard_normal((3 * in_dim, in_dim))
            x[:, 0] *= 20.0
            h = hessian(CalibrationSet(x))
            h[np.diag_indices(in_dim)] += 0.01 * float(np.mean(np.diag(h)))
            u = _inverse_hessian_factor(h)
            assert np.array_equal(u, np.triu(u))
            assert np.all(np.diag(u) > 0.0)
            assert np.max(np.abs(u.T @ u @ h - np.eye(in_dim))) <= 1e-12

    def test_not_positive_definite_raises(self):
        for h in (-np.eye(3), np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2))):
            with pytest.raises(NumericalError):
                _inverse_hessian_factor(h)


class TestGptqQuantize:
    def test_identity_hessian_reduces_to_minmax(self, rng):
        # whitened inputs make error propagation a no-op, so the result must
        # equal plain per-channel MinMax bit for bit
        w = rng.standard_normal((16, 8))
        qg = gptq_quantize(w, CalibrationSet(np.eye(16)), E2M1)
        qr = minmax_quantize(w, E2M1, channel_axis=-1)
        assert np.array_equal(qg.values, qr.values)
        assert np.array_equal(qg.bias, qr.bias)

    def test_biases_frozen_from_original_weights(self, rng):
        w = rng.standard_normal((8, 5)) * 7.0
        x = rng.standard_normal((32, 8))
        x[:, 2] *= 40.0
        q = gptq_quantize(w, CalibrationSet(x), E2M1)
        assert np.array_equal(q.bias, channel_bias(w, E2M1, channel_axis=-1))

    def test_values_land_on_frozen_grids(self, rng):
        w = rng.standard_normal((12, 6))
        x = rng.standard_normal((40, 12))
        x[:, 0] *= 25.0
        q = gptq_quantize(w, CalibrationSet(x), E2M1)
        for j in range(6):
            assert np.isin(q.values[:, j], signed_grid(E2M1, q.bias[j])).all()

    def test_beats_or_ties_plain_rounding_under_skewed_inputs(self):
        wins = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            w = rng.standard_normal((24, 16)) / 5.0
            x = rng.standard_normal((96, 24))
            x[:, int(rng.integers(24))] *= 25.0
            cal = CalibrationSet(x)
            og = layer_objective(w, gptq_quantize(w, cal, E2M1).values, cal)
            orr = layer_objective(w, minmax_quantize(w, E2M1, -1).values, cal)
            wins += og <= orr + 1e-12
        assert wins >= 24

    def test_matches_exhaustive_optimum_on_two_dim_instances(self):
        # fixed instances where the greedy solution is the (unique) global
        # optimum of the separable per-column objective
        matched = 0
        for seed in (0, 1, 3, 5, 6, 8, 10, 13):
            rng = np.random.default_rng(seed)
            w = rng.standard_normal((2, 3)) / np.sqrt(2)
            x = rng.standard_normal((8, 2))
            cal = CalibrationSet(x)
            q = gptq_quantize(w, cal, E2M1)
            grids = [signed_grid(E2M1, b) for b in q.bias]
            opt, unique = oracle_gptq_2x2(w, x, grids)
            assert unique
            assert np.array_equal(q.values, opt)
            matched += 1
        assert matched == 8

    def test_dead_input_dimension_handled(self, rng):
        w = rng.standard_normal((6, 4))
        x = rng.standard_normal((20, 6))
        x[:, 3] = 0.0  # this input dim never fires
        q = gptq_quantize(w, CalibrationSet(x), E2M1)
        assert np.isfinite(q.values).all()
        assert np.array_equal(q.values[3, :], np.zeros(4))

    def test_rank_deficient_calibration_survives_damping(self, rng):
        w = rng.standard_normal((10, 3))
        one = rng.standard_normal(10)
        x = np.outer(rng.standard_normal(30), one)  # rank 1
        q = gptq_quantize(w, CalibrationSet(x), E2M1)
        assert np.isfinite(q.values).all()

    def test_block_size_changes_nothing_materially(self, rng):
        w = rng.standard_normal((32, 8)) / 4.0
        x = rng.standard_normal((64, 32))
        x[:, 5] *= 20.0
        cal = CalibrationSet(x)
        obj_small = layer_objective(
            w, gptq_quantize(w, cal, E2M1, GptqConfig(block_size=4)).values, cal
        )
        obj_full = layer_objective(
            w, gptq_quantize(w, cal, E2M1, GptqConfig(block_size=32)).values, cal
        )
        assert obj_small == pytest.approx(obj_full, rel=1e-6)

    def test_deterministic(self, rng):
        w = rng.standard_normal((16, 4))
        x = rng.standard_normal((50, 16))
        cal = CalibrationSet(x)
        a = gptq_quantize(w, cal, E2M1)
        b = gptq_quantize(w, cal, E2M1)
        assert np.array_equal(a.values, b.values)

    def test_shape_and_finiteness_validation(self, rng):
        cal = CalibrationSet(rng.standard_normal((5, 4)))
        with pytest.raises(ShapeError):
            gptq_quantize(np.zeros((3, 2)), cal, E2M1)
        with pytest.raises(ShapeError):
            gptq_quantize(np.zeros(4), cal, E2M1)
        with pytest.raises(NumericalError):
            gptq_quantize(np.full((4, 2), np.nan), cal, E2M1)

    def test_column_major_weights_give_the_same_result(self, rng):
        w = rng.standard_normal((20, 6))
        cal = CalibrationSet(rng.standard_normal((60, 20)))
        a = gptq_quantize(w, cal, E2M1, GptqConfig(block_size=8))
        b = gptq_quantize(np.asfortranarray(w), cal, E2M1, GptqConfig(block_size=8))
        assert np.array_equal(a.values, b.values)
        assert a.values.flags.c_contiguous

    def test_output_format_metadata(self, rng):
        w = rng.standard_normal((8, 4))
        q = gptq_quantize(w, CalibrationSet(np.eye(8)), E2M1)
        assert q.fmt == E2M1
        assert q.channel_axis == -1
        assert q.values.shape == (8, 4)
        assert q.bias.shape == (4,)
