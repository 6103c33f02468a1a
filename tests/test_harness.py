import json
import math
import warnings

import numpy as np
import pytest

from fpqt import gptq

from fpqt.formats import FpFormat
from fpqt.harness import (
    SCHEMA_VERSION,
    HarnessConfig,
    collect_calibration,
    distribution_stats,
    estimate_cost,
    gen_activations,
    init_weights,
    outlier_columns,
    quantize_block_weights,
    run,
    strict_json,
)
from fpqt.fusion import LAYER_INPUTS, LAYER_NAMES, ONLINE_POINTS, fuse_block, layer_shapes, plan_fusion


SMALL = dict(n=16, heads=2, tokens=24, hidden=32, calib_samples=48)


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


class TestStrictJson:
    def test_inf_anywhere_becomes_null(self):
        text = strict_json({"b": [1.0, math.inf, (2, math.inf)], "a": {"x": math.inf}})
        assert json.loads(text, parse_constant=_reject_constant) == {
            "a": {"x": None}, "b": [1.0, None, [2, None]],
        }

    def test_finite_output_matches_plain_json(self):
        obj = {"z": 1.5, "a": [1, 2.25, "s", None, True], "m": {"k": -0.0}}
        assert strict_json(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_other_non_finite_values_raise(self, bad):
        with pytest.raises(ValueError):
            strict_json({"a": [bad]})


class TestConfig:
    def test_defaults(self):
        cfg = HarnessConfig()
        assert cfg.hidden_dim == 4 * cfg.n
        assert cfg.method == "gptq"

    def test_hidden_override(self):
        assert HarnessConfig(n=16, hidden=40).hidden_dim == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            HarnessConfig(heads=5)  # must divide n = 64
        with pytest.raises(ValueError):
            HarnessConfig(outlier_channels=65)
        with pytest.raises(ValueError):
            HarnessConfig(method="magic")
        with pytest.raises(ValueError):
            HarnessConfig(act_format="E0M2")
        with pytest.raises(ValueError):
            HarnessConfig(weight_format="nope")
        with pytest.raises(ValueError):
            HarnessConfig(weight_bits=1)
        with pytest.raises(ValueError):
            HarnessConfig(heavy_tail_fraction=1.5)
        with pytest.raises(ValueError):
            HarnessConfig(calib_samples=0)
        HarnessConfig(weight_format="E3M0")  # concrete format is fine

    @pytest.mark.parametrize("field", ["act_format", "weight_format"])
    def test_format_beyond_float64_rejected(self, field):
        # E11M0's ceiling 2^2047 would otherwise overflow once run() has started
        with pytest.raises(ValueError, match="format E11M0 needs 1 <= n_e <= 10"):
            HarnessConfig(**{field: "E11M0"})

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"n": 36}, "n = 36"),
            ({"n": 48, "heads": 3}, "heads = 3"),
            ({"n": 64, "hidden": 200}, "hidden = 200"),
            ({"n": 48, "heads": 8}, "n // heads = 6"),
        ],
    )
    def test_unconstructible_transform_order_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            HarnessConfig(**kwargs)
        HarnessConfig(**kwargs, use_hadamard=False)  # only the transform needs them

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"seed": -1}, "seed must be nonnegative, got -1"),
            ({"hadamard_seed": -3}, "n = 64: sign-diagonal seed must be nonnegative, got -3"),
            # unused, but the report's config would echo it
            ({"hadamard_seed": -3, "use_hadamard": False},
             "hadamard_seed must be nonnegative, got -3"),
        ],
    )
    def test_negative_seed_rejected_before_the_run(self, kwargs, message):
        # numpy would otherwise stop run() with an error that names no input
        with pytest.raises(ValueError, match=message):
            HarnessConfig(**kwargs)

    @pytest.mark.parametrize("scale", [2.0**1000, -(2.0**1000), 1e300])
    def test_outlier_scale_at_the_bound_runs(self, scale):
        report = run(HarnessConfig(**SMALL, outlier_scale=scale, method="rtn"))
        assert math.isfinite(report.end_to_end["mse"])

    @pytest.mark.parametrize(
        "scale", [np.nextafter(2.0**1000, math.inf), -np.nextafter(2.0**1000, math.inf), 1e308]
    )
    def test_outlier_scale_beyond_the_bound_rejected(self, scale):
        # 1e308 times a unit-Gaussian draw above 1.8 overflows float64
        with pytest.raises(ValueError, match=r"\|outlier_scale\| must be at most 2\^1000"):
            HarnessConfig(outlier_scale=float(scale))

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"v_mode": "bogus"}, "v_mode"),
            ({"hidden": 0, "use_hadamard": False}, "hidden"),
            ({"hidden": -4, "use_hadamard": False}, "hidden"),
            ({"outlier_scale": float("inf")}, "outlier_scale"),
            ({"outlier_scale": float("nan")}, "outlier_scale"),
        ],
    )
    def test_bad_field_rejected_before_the_run(self, kwargs, field):
        # each would otherwise fail only once run() has started
        with pytest.raises(ValueError, match=field):
            HarnessConfig(**kwargs)


class TestSeededInputs:
    def test_weights_shapes_and_scaling(self):
        cfg = HarnessConfig(**SMALL)
        w = init_weights(cfg)
        assert w.w_fc1.shape == (16, 32)
        assert {name: m.shape for name, m in w.matrices().items()} == layer_shapes(16, 32)
        assert tuple(layer_shapes(16, 32)) == LAYER_NAMES
        assert w.heads == 2
        # 1/sqrt(in_dim) scaling keeps column norms near 1
        norms = np.linalg.norm(w.w_q, axis=0)
        assert 0.5 < norms.mean() < 1.5

    def test_weights_deterministic_per_seed(self):
        a = init_weights(HarnessConfig(**SMALL, seed=5))
        b = init_weights(HarnessConfig(**SMALL, seed=5))
        c = init_weights(HarnessConfig(**SMALL, seed=6))
        assert np.array_equal(a.w_v, b.w_v)
        assert not np.array_equal(a.w_v, c.w_v)

    def test_heavy_tail_adds_large_entries(self):
        base = HarnessConfig(**SMALL)
        tail = HarnessConfig(**SMALL, heavy_tail_fraction=0.05)
        w0 = init_weights(base)
        w1 = init_weights(tail)
        assert np.abs(w1.w_q).max() > np.abs(w0.w_q).max()

    def test_outlier_columns_fixed_per_config(self):
        cfg = HarnessConfig(**SMALL, outlier_channels=3)
        cols = outlier_columns(cfg)
        assert cols.shape == (3,)
        assert np.array_equal(cols, outlier_columns(cfg))
        assert len(set(cols.tolist())) == 3

    def test_activations_carry_scaled_outlier_channels(self):
        cfg = HarnessConfig(**SMALL, outlier_channels=2, outlier_scale=100.0)
        x = gen_activations(cfg)
        cols = set(outlier_columns(cfg).tolist())
        cmax = np.abs(x).max(axis=0)
        top_two = set(np.argsort(cmax)[-2:].tolist())
        assert top_two == cols

    def test_batches_differ_by_index_but_share_outlier_columns(self):
        cfg = HarnessConfig(**SMALL)
        x0, x1 = gen_activations(cfg, 0), gen_activations(cfg, 1)
        assert x0.shape == (24, 16)
        assert not np.array_equal(x0, x1)
        assert np.array_equal(gen_activations(cfg, 1), x1)

    def test_no_outliers_when_disabled(self):
        cfg = HarnessConfig(**SMALL, outlier_channels=0)
        x = gen_activations(cfg)
        assert np.abs(x).max() < 10.0


class TestCalibration:
    def test_shapes_and_truncation(self):
        cfg = HarnessConfig(**SMALL)  # 48 samples from 24-token batches
        w = init_weights(cfg)
        calib = collect_calibration(cfg, w, ())
        assert list(calib) == list(ONLINE_POINTS)
        for cal in calib.values():
            assert cal.samples == 48
        assert [cal.in_dim for cal in calib.values()] == [16, 16, 16, 32]
        odd = HarnessConfig(n=16, heads=2, tokens=24, hidden=32, calib_samples=50)
        assert collect_calibration(odd, w, ())["attn_input"].samples == 50

    def test_one_factor_per_layer_input(self, monkeypatch):
        calls = []
        original = gptq._upper_cholesky
        monkeypatch.setattr(gptq, "_upper_cholesky",
                            lambda h: calls.append(h.shape) or original(h))
        cfg = HarnessConfig()
        run(cfg)
        n, hidden = cfg.n, cfg.hidden_dim
        assert calls == [(n, n), (n, n), (n, n), (hidden, hidden)]
        assert len(set(LAYER_INPUTS.values())) == len(calls) < len(LAYER_NAMES)


class TestQuantizeBlockWeights:
    def test_per_layer_reports(self):
        cfg = HarnessConfig(**SMALL, method="rtn")
        w = init_weights(cfg)
        qw, reports = quantize_block_weights(cfg, w, None)
        assert set(reports) == set(LAYER_NAMES)
        for name, rep in reports.items():
            assert rep["method"] == "rtn"
            assert rep["format"] in ("E1M2", "E2M1", "E3M0")
            assert rep["weight_mse"] >= 0.0
            assert rep["bias_min"] <= rep["bias_max"]
            assert not np.array_equal(getattr(qw, name), getattr(w, name))

    def test_fixed_format_respected(self):
        cfg = HarnessConfig(**SMALL, method="rtn", weight_format="E3M0")
        qw, reports = quantize_block_weights(cfg, init_weights(cfg), None)
        assert all(rep["format"] == "E3M0" for rep in reports.values())


class TestRun:
    def test_everything_off_is_bitwise_identity(self):
        cfg = HarnessConfig(
            **SMALL, quantize_weights=False, quantize_acts=False, use_hadamard=False
        )
        rep = run(cfg)
        assert rep.end_to_end["mse"] == 0.0
        assert rep.end_to_end["max_abs"] == 0.0
        assert rep.end_to_end["sqnr_db"] == float("inf")

    def test_infinite_sqnr_is_written_as_strict_json_null(self):
        rep = run(HarnessConfig(use_hadamard=False, quantize_weights=False, quantize_acts=False))
        assert rep.end_to_end["sqnr_db"] == float("inf")  # in memory the sentinel stays
        data = json.loads(rep.to_json(), parse_constant=_reject_constant)
        assert data["end_to_end"]["sqnr_db"] is None

    def test_transform_alone_is_numerically_invisible(self):
        cfg = HarnessConfig(**SMALL, quantize_weights=False, quantize_acts=False)
        rep = run(cfg)
        assert rep.end_to_end["mse"] <= 1e-18

    def test_report_structure_and_json_roundtrip(self):
        rep = run(HarnessConfig(**SMALL))
        assert rep.schema_version == SCHEMA_VERSION == 1
        data = json.loads(rep.to_json())
        assert set(data) == {
            "schema_version", "config", "layers", "end_to_end", "distribution", "cost",
        }
        assert set(data["layers"]) == set(LAYER_NAMES)
        assert data["config"]["n"] == 16
        assert data["distribution"]["pre_hadamard"]["channel_max_median_ratio"] > 0

    def test_deterministic_reports(self):
        cfg = HarnessConfig(**SMALL)
        assert run(cfg).to_json() == run(cfg).to_json()

    def test_transform_reduces_outlier_ratio_in_report(self):
        rep = run(HarnessConfig(**SMALL, outlier_channels=2, outlier_scale=100.0))
        pre = rep.distribution["pre_hadamard"]["channel_max_median_ratio"]
        post = rep.distribution["post_hadamard"]["channel_max_median_ratio"]
        assert post < pre

    def test_rtn_method_runs(self):
        rep = run(HarnessConfig(**SMALL, method="rtn"))
        assert rep.end_to_end["mse"] > 0.0
        assert all(r["method"] == "rtn" for r in rep.layers.values())

    def test_weight_only_and_act_only(self):
        w_only = run(HarnessConfig(**SMALL, quantize_acts=False))
        a_only = run(HarnessConfig(**SMALL, quantize_weights=False))
        assert w_only.end_to_end["mse"] > 0.0
        assert a_only.end_to_end["mse"] > 0.0
        assert a_only.layers == {}

    def test_huge_outlier_scale_stays_finite(self):
        # the outlier channels square past float64 in a plain layer norm
        cfg = HarnessConfig(**SMALL, outlier_scale=1e160, method="rtn")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run(cfg)
        assert math.isfinite(rep.end_to_end["sqnr_db"])
        assert rep.end_to_end["mse"] > 0.0
        for side in rep.distribution.values():
            assert not any(math.isnan(v) for v in side.values())

    def test_constant_batch_kurtosis_is_the_inf_sentinel(self):
        # n = 1: the layer norm maps every token to 0, so the moments are 0 / 0
        rep = run(HarnessConfig(n=1, heads=1, use_hadamard=False, outlier_channels=0, method="rtn"))
        data = json.loads(rep.to_json(), parse_constant=_reject_constant)
        for side in ("pre_hadamard", "post_hadamard"):
            assert rep.distribution[side]["excess_kurtosis"] == math.inf
            assert data["distribution"][side]["excess_kurtosis"] is None
        for x in (np.full((4, 3), 2.5), np.full((2, 2), 1e-300), np.full((1, 1), -7.0)):
            assert distribution_stats(x)["excess_kurtosis"] == math.inf

    def test_kurtosis_of_known_distributions(self):
        # two-point +-1: m4 = m2^2 = 1, so excess kurtosis -2
        assert distribution_stats(np.array([[1.0, -1.0]] * 4))["excess_kurtosis"] == -2.0
        x = np.random.default_rng(7).standard_normal((400, 500))
        assert abs(distribution_stats(x)["excess_kurtosis"]) < 0.05

    @pytest.mark.parametrize("scale", [1e80, 1e-100])
    def test_kurtosis_of_a_huge_or_tiny_batch_does_not_overflow(self, scale):
        x = np.array([[1.0, -1.0], [0.0, 1e-80]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = distribution_stats(scale * x)["excess_kurtosis"]
        want = distribution_stats(x)["excess_kurtosis"]
        assert math.isfinite(got) and math.isclose(got, want, rel_tol=1e-12)

    def test_no_hadamard_distribution_sides_match(self):
        rep = run(HarnessConfig(**SMALL, use_hadamard=False))
        assert rep.distribution["pre_hadamard"] == rep.distribution["post_hadamard"]


class TestEstimateCost:
    def test_macs_per_layer(self):
        cfg = HarnessConfig(n=16, heads=2, tokens=10, hidden=32)
        macs = estimate_cost(cfg)["matmul_macs"]
        assert macs["w_q"] == 10 * 16 * 16
        assert macs["w_fc1"] == 10 * 16 * 32
        assert macs["attention"] == 2 * 10 * 10 * 16

    def test_weight_byte_ratio(self):
        cost = estimate_cost(HarnessConfig(n=16, hidden=32, heads=2))
        assert cost["bytes_ratio_before_bias"] == 8.0
        params = 4 * 16 * 16 + 2 * 16 * 32
        assert cost["weight_bytes_fp32"] == 4 * params
        assert cost["weight_bytes_quant"] == params // 2
        assert cost["bias_overhead_bytes"] == 4 * 16 + 32 + 16

    @pytest.mark.parametrize("fmt, bits, ratio", [("E4M3", 8, 4.0), ("E2M1", 4, 8.0),
                                                  ("E2M2", 5, 6.4)])
    def test_fixed_format_sets_the_width(self, fmt, bits, ratio):
        # weight_bits sizes only auto-selected formats
        cost = estimate_cost(HarnessConfig(n=16, hidden=32, heads=2, weight_format=fmt))
        assert cost["weight_bytes_quant"] == (4 * 16 * 16 + 2 * 16 * 32) * bits // 8
        assert cost["bytes_ratio_before_bias"] == ratio

    def test_transform_ops_follow_v_mode(self):
        base = dict(n=16, heads=2, tokens=10, hidden=32)
        per_head = estimate_cost(HarnessConfig(**base))
        literal = estimate_cost(HarnessConfig(**base, v_mode="paper_literal"))
        points = lambda c: [t["point"] for t in c["hadamard"]["transforms"]]
        assert "post_attention" in points(per_head)
        assert "post_attention" not in points(literal)
        assert per_head["hadamard"]["adds"] > literal["hadamard"]["adds"]

    @pytest.mark.parametrize("v_mode", ["per_head_exact", "paper_literal"])
    def test_costed_points_are_the_fused_schedule(self, v_mode):
        cfg = HarnessConfig(**SMALL, v_mode=v_mode)
        w = init_weights(cfg)
        _, online = fuse_block(w, plan_fusion(w, v_mode=v_mode))
        costed = [t["point"] for t in estimate_cost(cfg)["hadamard"]["transforms"]]
        assert costed == [t.point for t in online]

    def test_no_transform_costs_nothing(self):
        cost = estimate_cost(HarnessConfig(**SMALL, use_hadamard=False))
        assert cost["hadamard"] == {"adds": 0, "muls": 0, "transforms": []}

    def test_add_count_closed_form_for_power_of_two_width(self):
        cfg = HarnessConfig(n=16, heads=2, tokens=10, hidden=32, v_mode="paper_literal")
        tr = {t["point"]: t for t in estimate_cost(cfg)["hadamard"]["transforms"]}
        assert tr["attn_input"]["adds"] == 10 * 16 * 4
        assert tr["post_gelu"]["adds"] == 10 * 32 * 5
