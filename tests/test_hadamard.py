import re
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg

from fpqt.errors import ShapeError
from fpqt.hadamard import (
    BASE_ORDERS,
    HadamardSpec,
    OpCounter,
    apply_right,
    base_matrix,
    build,
    factorize,
    op_count,
    realize,
    sylvester,
)
from oracles import oracle_sylvester

SUPPORTED_DIMS = [1, 2, 4, 8, 12, 16, 20, 24, 28, 40, 48, 56, 64, 96, 112, 1024]


class TestSylvester:
    @pytest.mark.parametrize("p", [1 << k for k in range(13)])
    def test_matches_scipy(self, p):
        h = sylvester(p)
        assert h.dtype == np.float64
        assert np.array_equal(h, scipy.linalg.hadamard(p, dtype=np.int8))

    @pytest.mark.parametrize("p", [0, -2, 3, 12])
    def test_other_orders_are_refused(self, p):
        with pytest.raises(ValueError, match="power of two"):
            sylvester(p)


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
        d = spec.signs
        assert np.isin(d, (-1.0, 1.0)).all()
        assert np.array_equal(realize(spec), base * d)
        # still orthonormal
        h = realize(spec)
        assert np.abs(h.T @ h - np.eye(16)).max() < 1e-12

    def test_sign_diagonal_deterministic_and_seed_sensitive(self):
        assert np.array_equal(build(32, seed=3).signs, build(32, seed=3).signs)
        assert not np.array_equal(build(256, seed=3).signs, build(256, seed=4).signs)
        assert build(32).signs is None


class TestApplyRight:
    @pytest.mark.parametrize("n", SUPPORTED_DIMS)
    def test_matches_dense_multiply(self, n, rng):
        x = rng.standard_normal((5, n))
        dense = x @ realize(build(n))
        assert np.abs(apply_right(x, build(n)) - dense).max() < 1e-10

    @pytest.mark.parametrize("counter", ["c", 0, {"adds": 0, "muls": 0}], ids=repr)
    def test_counter_that_is_not_an_op_counter_is_named(self, counter):
        # was an AttributeError on counter.adds
        with pytest.raises(TypeError,
                           match=f"^counter must be an OpCounter, got {type(counter).__name__}$"):
            apply_right(np.ones((2, 8)), build(8), counter=counter)

    @pytest.mark.parametrize("spec", ["spec", 8, None], ids=repr)
    def test_spec_that_is_not_a_hadamard_spec_is_named(self, spec):
        # was an AttributeError on spec.dim
        with pytest.raises(TypeError,
                           match=f"^spec must be a HadamardSpec, got {type(spec).__name__}$"):
            apply_right(np.ones((2, 8)), spec)

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

    @pytest.mark.parametrize("n", [1, 24, 1024])
    @pytest.mark.parametrize("seed", [None, 11])
    def test_a_zero_row_batch_gives_an_empty_result(self, n, seed):
        # order 24 mixes through an a = 4 stage: a 0-row view cannot infer its width
        spec = build(n, seed=seed)
        for transpose in (False, True):
            y = apply_right(np.zeros((0, n)), spec, transpose=transpose)
            assert y.shape == (0, n) and y.dtype == np.float64

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
        # each spec builds its signs and stages once, on first use
        x, spec = rng.standard_normal((3, 48)), build(48, seed=1)
        cached = apply_right(x, spec), apply_right(x, spec, transpose=True)
        inner, h_a = spec.stages  # order 48 = 4 * 12 runs as (1 x 12) then H_4
        assert inner.shape == (12, 12) and h_a.shape == (4, 4)
        for operand in (inner, h_a, spec.signs):
            assert not operand.flags.writeable
            with pytest.raises(ValueError):
                operand[0] = 0.0
        assert spec.stages[0] is inner and spec.signs is spec.signs
        fresh = build(48, seed=1)  # a freshly built spec gives the same bytes
        assert np.array_equal(apply_right(x, fresh), cached[0])
        assert np.array_equal(apply_right(x, fresh, transpose=True), cached[1])


class TestMix:
    # orders 1536 = 128 * 12 and 3584 = 128 * 28 split as a = 32, so the H_a
    # stage mixes 32 slices of an inner stage of order 48 or 112
    @pytest.mark.parametrize("n", [1536, 3584])
    @pytest.mark.parametrize("seed", [None, 11])
    @pytest.mark.parametrize("r", [1, 5])
    def test_middle_axis_matches_dense(self, n, seed, r, rng):
        spec = build(n, seed=seed)
        assert spec.stages[1].shape == (32, 32)
        h = realize(spec)
        x = rng.standard_normal((3, n, r))
        for transpose, dense in ((False, h), (True, h.T)):
            y = spec.mix(x, x.shape, transpose)
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

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "3", None])
    def test_rows_of_another_type_rejected(self, m):
        # 2.5 once returned float counts
        with pytest.raises(ValueError, match=rf"^row count must be a nonnegative int, got {m!r}$"):
            op_count(m, build(8))
        assert op_count(np.int64(2), build(8)) == op_count(2, build(8))


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

    @pytest.mark.parametrize("kwargs,message", [
        ({"dim": 64.0}, "dim must be int, got 64.0"),
        ({"dim": True}, "dim must be int, got True"),
        ({"dim": "64"}, "dim must be int, got '64'"),
        ({"dim": 64, "seed": 1.5}, "seed must be int | None, got 1.5"),
        ({"dim": 64, "seed": False}, "seed must be int | None, got False"),
    ])
    def test_wrong_type_rejected_naming_the_field(self, kwargs, message):
        # each once constructed and failed on first use with a raw TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HadamardSpec(**kwargs)
        assert HadamardSpec(np.int64(64), np.uint16(3)) == HadamardSpec(64, 3)

    def test_a_numpy_integer_is_kept_as_an_int(self):
        # a numpy dim once reached log2_p, which has no bit_length on numpy scalars
        spec = HadamardSpec(np.int64(96), np.uint16(3))
        assert type(spec.dim) is int and type(spec.seed) is int
        assert op_count(np.int64(2), spec) == op_count(2, HadamardSpec(96, 3))
        assert all(type(v) is int for v in op_count(np.int64(2), spec).values())

    def test_zero_seed_is_a_sign_diagonal(self):
        assert HadamardSpec(8, 0).signs is not None
