import json
from dataclasses import fields, replace

import numpy as np
import pytest

from fpqt.cli import _harness_config, build_parser, main
from fpqt.formats import BiasedFormat, FpFormat, grid
from fpqt.harness import HarnessConfig
from fpqt.tensors import read_tensors, write_tensors


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopLevel:
    def test_no_args_prints_usage_and_fails(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "error" in err.lower()

    def test_bad_flag_value(self, capsys):
        code, _, _ = run_cli(capsys, "hadamard", "--dim", "not_a_number")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestHadamardCommand:
    def test_factorization_json(self, capsys):
        code, out, _ = run_cli(capsys, "hadamard", "--dim", "48", "--rows", "2")
        assert code == 0
        data = json.loads(out)
        assert (data["p"], data["q"]) == (4, 12)
        assert data["adds"] == 2 * 48 * (2 + 11)

    def test_check_mode(self, capsys):
        code, out, _ = run_cli(capsys, "hadamard", "--dim", "24", "--check")
        assert code == 0
        data = json.loads(out)
        assert data["check_max_abs_err"] < 1e-10
        assert data["check_orthonormality_err"] < 1e-12

    def test_check_mode_covers_the_transpose(self, capsys):
        code, out, _ = run_cli(capsys, "hadamard", "--dim", "56", "--seed", "3", "--check")
        assert code == 0
        assert json.loads(out)["check_max_abs_err_transpose"] < 1e-12

    def test_unconstructible_dim_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "hadamard", "--dim", "6")
        assert code == 1
        assert "error" in err

    def test_check_limit(self, capsys):
        code, _, _ = run_cli(capsys, "hadamard", "--dim", "8192", "--check")
        assert code == 1


class TestInspectCommand:
    def test_stats_output(self, capsys, tmp_path, rng):
        path = str(tmp_path / "t.fpqt")
        write_tensors(path, {"w": rng.standard_normal((8, 4)), "v": np.ones(5)})
        code, out, _ = run_cli(capsys, "inspect", path)
        assert code == 0
        assert "w: shape=(8, 4)" in out
        assert "v: shape=(5,)" in out

    def test_json_output(self, capsys, tmp_path, rng):
        path = str(tmp_path / "t.fpqt")
        write_tensors(path, {"w": rng.standard_normal((8, 4))})
        code, out, _ = run_cli(capsys, "inspect", path, "--json")
        data = json.loads(out)
        assert code == 0
        assert data["w"]["shape"] == [8, 4]
        assert "channel_max_median_ratio" in data["w"]

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "inspect", str(tmp_path / "nope.fpqt"))
        assert code == 2

    def test_corrupt_file_is_container_error(self, capsys, tmp_path):
        path = tmp_path / "bad.fpqt"
        path.write_bytes(b"garbage not a container")
        code, _, err = run_cli(capsys, "inspect", str(path))
        assert code == 2
        assert "container" in err


class TestSelectFormatCommand:
    def test_selects_expected_format(self, capsys, tmp_path):
        w = np.concatenate([np.full(24, 0.5), [1.0], np.linspace(1.0, 16.0, 75)])
        path = str(tmp_path / "w.fpqt")
        write_tensors(path, {"w": w})
        code, out, _ = run_cli(capsys, "select-format", path)
        assert code == 0
        assert "E2M1" in out

    def test_json_table(self, capsys, tmp_path, rng):
        path = str(tmp_path / "w.fpqt")
        write_tensors(path, {"w": rng.standard_normal(64)})
        code, out, _ = run_cli(capsys, "select-format", path, "--json", "--bits", "5")
        data = json.loads(out)
        assert code == 0
        assert len(data["w"]["candidates"]) == 4


class TestQuantizeCommand:
    def test_roundtrip_values_on_grid(self, capsys, tmp_path, rng):
        src = str(tmp_path / "in.fpqt")
        dst = str(tmp_path / "out.fpqt")
        w = rng.standard_normal((6, 3)) * 5.0
        write_tensors(src, {"w": w})
        code, out, _ = run_cli(capsys, "quantize", src, dst, "--format", "E2M1")
        assert code == 0
        assert "format=E2M1" in out
        back = read_tensors(dst)
        assert set(back) == {"w", "w.bias"}
        assert back["w.bias"].shape == (3,)
        fmt = FpFormat(2, 1)
        for j in range(3):
            g = grid(BiasedFormat(fmt, int(back["w.bias"][j])))
            signed = np.unique(np.concatenate([-g, g]))
            # container stores float32, so compare against the cast grid
            assert np.isin(back["w"][:, j], signed.astype(np.float32)).all()

    def test_one_dim_tensor_quantizes_as_single_channel(self, capsys, tmp_path, rng):
        src, dst = str(tmp_path / "a.fpqt"), str(tmp_path / "b.fpqt")
        write_tensors(src, {"v": rng.standard_normal(9)})
        code, _, _ = run_cli(capsys, "quantize", src, dst, "--format", "E2M1")
        back = read_tensors(dst)
        assert code == 0
        assert back["v"].shape == (9,)
        assert back["v.bias"].shape == (1,)

    def test_auto_format(self, capsys, tmp_path, rng):
        src, dst = str(tmp_path / "a.fpqt"), str(tmp_path / "b.fpqt")
        write_tensors(src, {"w": rng.standard_normal((8, 2))})
        code, out, _ = run_cli(capsys, "quantize", src, dst)
        assert code == 0
        assert "format=E" in out

    def test_bias_name_collision_rejected(self, capsys, tmp_path, rng):
        src, dst = str(tmp_path / "a.fpqt"), str(tmp_path / "b.fpqt")
        write_tensors(src, {"w": rng.standard_normal(4), "w.bias": np.ones(1)})
        code, _, err = run_cli(capsys, "quantize", src, dst)
        assert code == 1
        assert "w.bias" in err


class TestFuseCommand:
    def _write_block(self, tmp_path, rng, n=16, hidden=32):
        path = str(tmp_path / "block.fpqt")
        write_tensors(
            path,
            {
                "w_q": rng.standard_normal((n, n)),
                "w_k": rng.standard_normal((n, n)),
                "w_v": rng.standard_normal((n, n)),
                "w_out": rng.standard_normal((n, n)),
                "w_fc1": rng.standard_normal((n, hidden)),
                "w_fc2": rng.standard_normal((hidden, n)),
            },
        )
        return path

    def test_fuse_and_invert_recovers_weights(self, capsys, tmp_path, rng):
        src = self._write_block(tmp_path, rng)
        fused = str(tmp_path / "fused.fpqt")
        back = str(tmp_path / "back.fpqt")
        code, out, _ = run_cli(capsys, "fuse", src, fused, "--heads", "2")
        assert code == 0
        assert "online transform at attn_input" in out
        code2, _, _ = run_cli(capsys, "fuse", fused, back, "--heads", "2", "--invert")
        assert code2 == 0
        orig, rec = read_tensors(src), read_tensors(back)
        for name in orig:
            assert np.abs(orig[name] - rec[name]).max() < 1e-5  # float32 storage

    def test_fuse_changes_weights(self, capsys, tmp_path, rng):
        src = self._write_block(tmp_path, rng)
        dst = str(tmp_path / "fused.fpqt")
        run_cli(capsys, "fuse", src, dst, "--heads", "2")
        assert not np.array_equal(read_tensors(dst)["w_q"], read_tensors(src)["w_q"])

    def test_missing_matrix_is_config_error(self, capsys, tmp_path, rng):
        path = str(tmp_path / "partial.fpqt")
        write_tensors(path, {"w_q": rng.standard_normal((4, 4))})
        code, _, err = run_cli(capsys, "fuse", path, str(tmp_path / "o.fpqt"))
        assert code == 1
        assert "missing" in err


class TestSimulateAndCost:
    SMALL = (
        "--n", "16", "--heads", "2", "--tokens", "16",
        "--hidden", "32", "--calib-samples", "32",
    )

    def test_simulate_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", *self.SMALL)
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert data["end_to_end"]["mse"] > 0.0

    def test_simulate_to_file(self, capsys, tmp_path):
        out_path = str(tmp_path / "report.json")
        code, out, _ = run_cli(capsys, "simulate", *self.SMALL, "--out", out_path)
        assert code == 0
        with open(out_path) as fh:
            data = json.load(fh)
        assert data["config"]["n"] == 16

    def test_simulate_flags_propagate(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", *self.SMALL, "--method", "rtn", "--no-hadamard",
        )
        data = json.loads(out)
        assert code == 0
        assert data["config"]["method"] == "rtn"
        assert data["config"]["use_hadamard"] is False
        assert data["cost"]["hadamard"]["transforms"] == []

    def test_invalid_config_is_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--n", "16", "--heads", "5")
        assert code == 1

    def test_cost_output(self, capsys):
        code, out, _ = run_cli(capsys, "cost", *self.SMALL)
        data = json.loads(out)
        assert code == 0
        assert data["bytes_ratio_before_bias"] == 8.0

    def test_cost_large_dim_factorization(self, capsys):
        code, out, _ = run_cli(
            capsys, "cost", "--n", "28672", "--heads", "28", "--tokens", "1",
        )
        assert code == 0
        data = json.loads(out)
        tr = {t["point"]: t for t in data["hadamard"]["transforms"]}
        assert tr["attn_input"]["adds"] == 28672 * (10 + 27)


class TestHarnessFlags:
    # one non-default value per HarnessConfig field, valid with every other default
    FLAGS = {
        "n": ("--n", "48", 48),
        "heads": ("--heads", "8", 8),
        "tokens": ("--tokens", "7", 7),
        "hidden": ("--hidden", "96", 96),
        "outlier_channels": ("--outlier-channels", "3", 3),
        "outlier_scale": ("--outlier-scale", "5.5", 5.5),
        "seed": ("--seed", "9", 9),
        "weight_format": ("--weight-format", "E3M0", "E3M0"),
        "weight_bits": ("--weight-bits", "5", 5),
        "act_format": ("--act-format", "E3M2", "E3M2"),
        "quantize_weights": ("--no-weight-quant", None, False),
        "quantize_acts": ("--no-act-quant", None, False),
        "use_hadamard": ("--no-hadamard", None, False),
        "hadamard_seed": ("--hadamard-seed", "4", 4),
        "v_mode": ("--v-mode", "paper_literal", "paper_literal"),
        "method": ("--method", "rtn", "rtn"),
        "calib_samples": ("--calib-samples", "33", 33),
        "alpha": ("--alpha", "10.0", 10.0),
        "heavy_tail_fraction": ("--heavy-tail-fraction", "0.25", 0.25),
    }

    @pytest.mark.parametrize("command", ["simulate", "cost"])
    def test_defaults_are_the_config_defaults(self, command):
        args = build_parser().parse_args([command])
        assert _harness_config(args) == HarnessConfig()

    def test_table_covers_every_field(self):
        assert list(self.FLAGS) == [f.name for f in fields(HarnessConfig)]

    @pytest.mark.parametrize("field", list(FLAGS))
    def test_flag_lands_in_its_own_field(self, field):
        flag, text, want = self.FLAGS[field]
        assert want != getattr(HarnessConfig(), field)
        for command in ("simulate", "cost"):
            args = build_parser().parse_args([command, flag] + ([text] if text else []))
            assert _harness_config(args) == replace(HarnessConfig(), **{field: want})
