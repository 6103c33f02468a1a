from dataclasses import fields

import numpy as np
import pytest

from fpqt.errors import ShapeError
from fpqt.hadamard import (
    BASE_ORDERS,
    HadamardSpec,
    OpCounter,
    _factors,
    _mix,
    apply_right,
    base_matrix,
    build,
    factorize,
    op_count,
    realize,
    sign_diagonal,
)
from oracles import oracle_sylvester

SUPPORTED_DIMS = [1, 2, 4, 8, 12, 16, 20, 24, 28, 40, 48, 56, 64, 96, 112, 1024]


class TestBaseMatrices:
    def test_orders(self):
        assert BASE_ORDERS == (1, 12, 20, 28)

    @pytest.mark.parametrize("q", BASE_ORDERS)
    def test_entries_and_orthogonality(self, q):
        h = base_matrix(q)
        assert h.shape == (q, q)
        assert np.isin(h, (-1.0, 1.0)).all()
        assert np.array_equal(h @ h.T, q * np.eye(q))

    def test_unsupported_order(self):
        for q in (2, 4, 6):
            with pytest.raises(ValueError):
                base_matrix(q)


FACTORIZATIONS = [
    (1, (1, 1)),
    (2, (2, 1)),
    (4, (4, 1)),
    (8, (8, 1)),
    (12, (1, 12)),
    (20, (1, 20)),
    (24, (2, 12)),
    (28, (1, 28)),
    (40, (2, 20)),
    (48, (4, 12)),
    (56, (2, 28)),
    (64, (64, 1)),
    (96, (8, 12)),
    (1024, (1024, 1)),
    (28672, (1024, 28)),
]


class TestFactorize:
    @pytest.mark.parametrize("n,expected", FACTORIZATIONS)
    def test_known_factorizations(self, n, expected):
        assert factorize(n) == expected

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 10, 14, 36, 44, 52, 72])
    def test_unconstructible_orders(self, n):
        with pytest.raises(ValueError):
            factorize(n)

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-4)


class TestRealize:
    @pytest.mark.parametrize("n", [12, 20, 24, 28, 48, 56])
    def test_orthonormal_columns(self, n):
        h = realize(build(n))
        assert np.abs(h.T @ h - np.eye(n)).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_power_of_two_matches_doubling_recursion(self, n):
        assert np.allclose(realize(build(n)), oracle_sylvester(n) / np.sqrt(n), atol=0)

    def test_entry_magnitudes(self):
        h = realize(build(24))
        assert np.allclose(np.abs(h), 1 / np.sqrt(24))

    def test_sign_diagonal_flips_columns(self):
        spec = build(16, seed=5)
        base = realize(build(16))
        d = sign_diagonal(spec)
        assert np.isin(d, (-1.0, 1.0)).all()
        assert np.array_equal(realize(spec), base * d)
        # still orthonormal
        h = realize(spec)
        assert np.abs(h.T @ h - np.eye(16)).max() < 1e-12

    def test_sign_diagonal_deterministic_and_seed_sensitive(self):
        assert np.array_equal(
            sign_diagonal(build(32, seed=3)), sign_diagonal(build(32, seed=3))
        )
        assert not np.array_equal(
            sign_diagonal(build(256, seed=3)), sign_diagonal(build(256, seed=4))
        )
        assert sign_diagonal(build(32)) is None


class TestApplyRight:
    @pytest.mark.parametrize("n", SUPPORTED_DIMS)
    def test_matches_dense_multiply(self, n, rng):
        x = rng.standard_normal((5, n))
        dense = x @ realize(build(n))
        assert np.abs(apply_right(x, build(n)) - dense).max() < 1e-10

    @pytest.mark.parametrize("n", [16, 24, 56])
    def test_matches_dense_multiply_seeded(self, n, rng):
        spec = build(n, seed=11)
        x = rng.standard_normal((7, n))
        assert np.abs(apply_right(x, spec) - x @ realize(spec)).max() < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 4, 12, 20, 28])
    @pytest.mark.parametrize("seed", [None, 11])
    def test_both_directions_match_dense(self, m, seed, rng):
        # orders p * m: p = 128 splits as a = 32, r = 4 at m = 12 and 28
        # (orders 1536, 3584); m = 2 and 4 give powers of two up to 512
        for p in (1, 8, 128):
            spec = build(p * m, seed=seed)
            h = realize(spec)
            rows = rng.standard_normal((5, spec.dim))
            for x in (rows, np.asfortranarray(rows)):  # any memory layout
                assert np.abs(apply_right(x, spec) - x @ h).max() < 1e-12
                assert np.abs(apply_right(x, spec, transpose=True) - x @ h.T).max() < 1e-12

    def test_identity_rows_recover_the_matrix(self):
        spec = build(48)
        assert np.abs(apply_right(np.eye(48), spec) - realize(spec)).max() < 1e-12

    def test_energy_preserved(self, rng):
        x = rng.standard_normal((9, 40))
        y = apply_right(x, build(40))
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_spreads_a_single_channel_spike(self):
        x = np.zeros((1, 64))
        x[0, 17] = 100.0
        y = apply_right(x, build(64))
        assert np.allclose(np.abs(y), 100.0 / np.sqrt(64))

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            apply_right(rng.standard_normal((4, 10)), build(12))
        with pytest.raises(ShapeError):
            apply_right(rng.standard_normal(12), build(12))

    def test_involution_for_symmetric_unseeded_case(self, rng):
        # unseeded power-of-two H is symmetric orthogonal: applying twice
        # must give back the input
        x = rng.standard_normal((3, 32))
        spec = build(32)
        assert np.abs(apply_right(apply_right(x, spec), spec) - x).max() < 1e-12

    def test_factors_are_cached_read_only(self, rng):
        x, spec = rng.standard_normal((3, 48)), build(48, seed=1)
        cached = apply_right(x, spec), apply_right(x, spec, transpose=True)
        inner, h_a = _factors(4, 12)  # order 48 = 4 * 12 runs as (1 x 12) then H_4
        assert inner.shape == (12, 12) and h_a.shape == (4, 4)
        assert not inner.flags.writeable and not h_a.flags.writeable
        with pytest.raises(ValueError):
            inner[0, 0] = 0.0
        assert _factors(4, 12)[0] is inner
        _factors.cache_clear()  # freshly built factors give the same bytes
        assert np.array_equal(apply_right(x, spec), cached[0])
        assert np.array_equal(apply_right(x, spec, transpose=True), cached[1])


class TestMix:
    # orders 1536 = 128 * 12 and 3584 = 128 * 28 split as a = 32, so the H_a
    # stage mixes 32 slices of an inner stage of order 48 or 112
    @pytest.mark.parametrize("n", [1536, 3584])
    @pytest.mark.parametrize("seed", [None, 11])
    @pytest.mark.parametrize("r", [1, 5])
    def test_middle_axis_matches_dense(self, n, seed, r, rng):
        spec = build(n, seed=seed)
        assert _factors(spec.p, spec.q)[1].shape == (32, 32)
        h = realize(spec)
        x = rng.standard_normal((3, n, r))
        for transpose, dense in ((False, h), (True, h.T)):
            y = _mix(x, spec, transpose)
            assert y.shape == x.shape and y.flags.c_contiguous
            want = (x.transpose(0, 2, 1) @ dense).transpose(0, 2, 1)
            assert np.abs(y - want).max() < 1e-12


class TestOpCounts:
    @pytest.mark.parametrize("m", [1, 3, 16])
    @pytest.mark.parametrize("n", [1, 2, 8, 12, 24, 48, 56, 64])
    def test_counter_matches_closed_form(self, m, n, rng):
        spec = build(n)
        want = op_count(m, spec)
        for transpose in (False, True):
            counter = OpCounter()
            apply_right(rng.standard_normal((m, n)), spec, counter, transpose=transpose)
            assert counter.adds == want["adds"]
            assert counter.muls == want["muls"]

    def test_power_of_two_add_count_is_m_n_log2_n(self):
        for m, n in [(1, 64), (5, 256), (3, 1024)]:
            assert op_count(m, build(n))["adds"] == m * n * int(np.log2(n))
            assert op_count(m, build(n))["muls"] == m * n

    def test_mixed_order_counts(self):
        # n = p * q: adds = m n (log2 p + q - 1), muls = m n (1 + q)
        ops = op_count(2, build(48))  # p = 4, q = 12
        assert ops["adds"] == 2 * 48 * (2 + 11)
        assert ops["muls"] == 2 * 48 * (1 + 12)

    def test_seeded_costs_nothing_extra(self, rng):
        c1, c2 = OpCounter(), OpCounter()
        x = rng.standard_normal((4, 24))
        apply_right(x, build(24), c1)
        apply_right(x, build(24, seed=9), c2)
        assert (c1.adds, c1.muls) == (c2.adds, c2.muls)

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            op_count(-1, build(8))


class TestSpec:
    def test_build_carries_factorization(self):
        spec = build(56, seed=2)
        assert (spec.dim, spec.p, spec.q, spec.seed) == (56, 2, 28, 2)
        assert spec.log2_p == 1

    def test_spec_is_frozen(self):
        spec = build(8)
        with pytest.raises(Exception):
            spec.dim = 4

    def test_log2_p(self):
        assert HadamardSpec(1024).log2_p == 10

    @pytest.mark.parametrize("dim,p,q", [(16, 2, 12), (24, 24, 1), (48, 12, 4), (6, 3, 2)])
    def test_split_must_be_the_factorization(self, dim, p, q):
        # the split is worked out from dim, so a wrong one cannot be passed in
        with pytest.raises(TypeError):
            HadamardSpec(dim=dim, p=p, q=q)

    @pytest.mark.parametrize("n", [n for n, _ in FACTORIZATIONS])
    def test_split_is_the_factorization(self, n):
        spec = HadamardSpec(n)
        assert (spec.p, spec.q) == factorize(n)

    def test_init_parameters_are_dim_and_seed(self):
        assert [f.name for f in fields(HadamardSpec) if f.init] == ["dim", "seed"]

    @pytest.mark.parametrize("seed", [-1, -3, -(2**40)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be nonnegative, got {seed}"):
            HadamardSpec(8, seed)
        with pytest.raises(ValueError, match="seed"):
            build(8, seed)

    def test_zero_seed_is_a_sign_diagonal(self):
        assert sign_diagonal(HadamardSpec(8, 0)) is not None
