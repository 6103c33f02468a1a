import numpy as np
import pytest

from fpqt.errors import NumericalError, ShapeError
from fpqt.formats import BiasedFormat, FpFormat, grid, parse_format
from fpqt import gptq
from fpqt.gptq import (
    CalibrationSet,
    _upper_cholesky,
    gptq_quantize,
    hessian,
    layer_objective,
)
from fpqt.quantize import channel_bias, minmax_quantize
from oracles import oracle_gptq, oracle_gptq_2x2, oracle_matmul

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

    def test_no_input_dimensions_is_shape_error(self):
        # statistics over zero columns are undefined (numpy warns "Mean of empty slice")
        with pytest.raises(ShapeError, match=r"\(5, 0\)"):
            gptq_quantize(np.zeros((0, 3)), CalibrationSet(np.zeros((5, 0))), E2M1)


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

    def test_overflowing_objective_is_numerical_error(self, rng):
        cal = CalibrationSet(1e200 * rng.standard_normal((6, 4)))
        w_hat = 1e200 * rng.standard_normal((4, 2))
        with pytest.raises(NumericalError, match="overflows"):
            layer_objective(np.zeros((4, 2)), w_hat, cal)

    def test_objective_shape_checks(self, rng):
        cal = CalibrationSet(rng.standard_normal((5, 4)))
        with pytest.raises(ShapeError):
            layer_objective(np.zeros((4, 2)), np.zeros((4, 3)), cal)
        with pytest.raises(ShapeError):
            layer_objective(np.zeros((3, 2)), np.zeros((3, 2)), cal)


class TestHessianFactor:
    def test_upper_cholesky_and_unit_lower_feedback(self, rng):
        for in_dim in (1, 5, 64, 200):
            x = rng.standard_normal((3 * in_dim, in_dim))
            x[:, 0] *= 20.0
            cal = CalibrationSet(x)
            h = hessian(cal)
            h[np.diag_indices(in_dim)] += 0.01 * float(np.mean(np.diag(h)))
            r = _upper_cholesky(h.copy())
            assert np.array_equal(r, np.triu(r))
            assert np.all(np.diag(r) > 0.0)
            assert np.max(np.abs(r @ r.T - h)) <= 1e-12 * np.max(np.abs(h))
            dead, st = cal.hessian_factor
            assert not dead.any()
            assert st.flags.c_contiguous and not st.flags.writeable
            assert np.array_equal(st, np.tril(st))
            assert np.array_equal(np.diag(st), np.ones(in_dim))
            assert np.array_equal(st, r.T / np.diag(r)[:, None])

    def test_not_positive_definite_raises(self):
        for h in (-np.eye(3), np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2))):
            with pytest.raises(NumericalError):
                _upper_cholesky(h)


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

    def test_matches_the_textbook_inverse_factor_sweep(self):
        # the Cholesky-form sweep rounds exactly like GPTQ run on U with
        # U^T U = H^-1; the two differ by rounding in the last bits only, so a
        # flip needs a value within ~1e-13 relative of a grid midpoint
        for seed in range(6):
            rng = np.random.default_rng(seed)
            in_dim = int(rng.integers(2, 90))  # up to two 64-row blocks
            w = rng.standard_normal((in_dim, 5)) * np.exp2(rng.integers(-3, 4, size=5))
            x = rng.standard_normal((2 * in_dim, in_dim))
            x[:, int(rng.integers(in_dim))] *= 25.0
            q = gptq_quantize(w, CalibrationSet(x), E2M1)
            want = oracle_gptq(w, x, E2M1.n_e, E2M1.n_m, q.bias, gptq.DAMPING)
            assert np.array_equal(q.values, want)

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
        a = gptq_quantize(w, cal, E2M1)
        b = gptq_quantize(np.asfortranarray(w), cal, E2M1)
        assert np.array_equal(a.values, b.values)
        assert a.values.flags.c_contiguous

    def test_cached_factor_gives_the_same_bytes(self, rng):
        w = rng.standard_normal((24, 5))
        x = rng.standard_normal((40, 24))
        x[:, 7] = 0.0  # a dead dimension, so the cached mask is used too
        warm = CalibrationSet(x)
        gptq_quantize(rng.standard_normal((24, 3)), warm, E2M1)  # caches the factor
        dead, st = warm.hessian_factor
        a = gptq_quantize(w, warm, E2M1)
        b = gptq_quantize(w, CalibrationSet(x), E2M1)
        assert a.values.tobytes() == b.values.tobytes()
        assert warm.hessian_factor[1] is st
        assert dead.tolist() == [j == 7 for j in range(24)]
        assert np.array_equal(st, np.tril(st)) and (np.diag(st) == 1.0).all()
        # a dead dimension neither feeds nor takes error feedback
        assert not np.delete(st[7], 7).any() and not np.delete(st[:, 7], 7).any()

    def test_cached_factor_cannot_go_stale(self, rng):
        x = rng.standard_normal((30, 6))
        w = rng.standard_normal((6, 4))
        cal = CalibrationSet(x)
        before = gptq_quantize(w, cal, E2M1).values
        x[:, 2] = 0.0  # the caller's array, not the set's
        assert not cal.x.flags.writeable and not np.shares_memory(cal.x, x)
        assert np.array_equal(gptq_quantize(w, cal, E2M1).values, before)

    def test_factor_is_computed_once_per_set(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(gptq, "_upper_cholesky",
                            lambda h: calls.append(h.shape) or _upper_cholesky(h))
        cal = CalibrationSet(rng.standard_normal((30, 6)))
        for _ in range(3):
            gptq_quantize(rng.standard_normal((6, 4)), cal, E2M1)
        assert calls == [(6, 6)]

    def test_weights_near_float64_max_stay_finite_and_quiet(self):
        # weights ~5e307 against inputs whose columns share a 50x common
        # component: the fed-forward errors come close to float64 max
        for seed in range(4):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((64, 16)) + 50.0 * rng.standard_normal((64, 1))
            w = 5e307 * rng.uniform(-3.0, 3.0, (16, 4))
            try:
                q = gptq_quantize(w, CalibrationSet(x), E2M1)
            except NumericalError:
                continue
            assert np.isfinite(q.values).all()

    def test_overflowing_error_feedback_is_numerical_error(self, rng):
        # x0 is 10 x1, so row 0's rounding error reaches row 1 about 6-fold
        # and pushes it past float64 max
        x = rng.standard_normal((32, 2))
        x[:, 0] = 10.0 * x[:, 1] + 0.1 * rng.standard_normal(32)
        w = np.array([[1.7e308, 1.0], [1.0e308, 1.0]])
        with pytest.raises(NumericalError, match="overflows"):
            gptq_quantize(w, CalibrationSet(x), E2M1)

    def test_output_format_metadata(self, rng):
        w = rng.standard_normal((8, 4))
        q = gptq_quantize(w, CalibrationSet(np.eye(8)), E2M1)
        assert q.values.shape == (8, 4)
        assert q.bias.shape == (4,)
