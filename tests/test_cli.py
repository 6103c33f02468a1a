import io
import json
import os
import stat
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fpqt
from fpqt.cli import _harness_config, build_parser, main
from fpqt.errors import ShapeError
from fpqt.formats import BiasedFormat, FpFormat, grid
from fpqt.fusion import LAYER_NAMES, V_MODES, FusionPlan, layer_shapes
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
        assert out == ""

    def test_no_args_from_sys_argv_prints_only_usage(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["fpqt"])
        assert main() == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")

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

    def test_an_order_too_large_to_hold_still_has_op_counts(self, capsys):
        # a spec builds its 8 TiB signs and dense stage only when a transform runs
        code, out, _ = run_cli(capsys, "hadamard", "--dim", str(2**40), "--seed", "3")
        assert code == 0
        data = json.loads(out)
        assert (data["p"], data["q"], data["rows"]) == (2**40, 1, 1)
        assert (data["adds"], data["muls"]) == (2**40 * 40, 2**40)

    @pytest.mark.parametrize("check", [(), ("--check",)])
    def test_negative_seed_is_config_error(self, capsys, check):
        code, out, err = run_cli(capsys, "hadamard", "--dim", "8", "--seed", "-1", *check)
        assert (code, out) == (1, "")
        assert err == "fpqt: error: sign-diagonal seed must be nonnegative, got -1\n"


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

    def test_max_abs_of_negative_zeros_prints_positive_zero(self, capsys, tmp_path):
        path = str(tmp_path / "t.fpqt")
        write_tensors(path, {"z": np.full((2, 3), -0.0), "w": np.array([-4.0, 0.5])})
        code, out, _ = run_cli(capsys, "inspect", path, "--json")
        data = json.loads(out)
        assert code == 0
        assert data["z"]["max_abs"] == 0.0 and not np.signbit(data["z"]["max_abs"])
        assert data["w"]["max_abs"] == 4.0

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "inspect", str(tmp_path / "nope.fpqt"))
        assert code == 2

    def test_corrupt_file_is_container_error(self, capsys, tmp_path):
        path = tmp_path / "bad.fpqt"
        path.write_bytes(b"garbage not a container")
        code, _, err = run_cli(capsys, "inspect", str(path))
        assert code == 2
        assert "container" in err

    def test_more_dims_than_numpy_allows_is_container_error(self, capsys, tmp_path):
        path = tmp_path / "deep.fpqt"
        path.write_bytes(b"FPQT\x01" + struct.pack("<IH", 1, 1) + b"e"
                         + struct.pack("<BB65Q", 0, 65, *[1] * 65) + struct.pack("<f", 1.0))
        code, _, err = run_cli(capsys, "inspect", str(path))
        assert code == 2
        assert err.startswith("fpqt: container error:")


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

    def test_width_out_of_range_names_the_total_width(self, capsys, tmp_path):
        path = str(tmp_path / "w.fpqt")
        write_tensors(path, {"w": np.ones(4)})
        want = "fpqt: error: total width must be in 2..8 bits, got 9\n"
        for argv in (("select-format", path, "--bits", "9"), ("quantize", path, path, "--bits", "9"),
                     ("simulate", "--weight-bits", "9")):
            assert run_cli(capsys, *argv) == (1, "", want)


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
        code, out, err = run_cli(capsys, "quantize", src, dst)
        assert code == 1
        assert "w.bias" in err
        assert out == "" and os.listdir(tmp_path) == ["a.fpqt"]  # the write is atomic

    def test_bias_name_collision_rejected_with_the_bias_entry_first(self, capsys, tmp_path, rng):
        src, dst = str(tmp_path / "a.fpqt"), str(tmp_path / "b.fpqt")
        write_tensors(src, {"w.bias": np.ones(1), "w": rng.standard_normal(4)})
        code, out, err = run_cli(capsys, "quantize", src, dst)
        assert (code, out) == (1, "")
        assert err == "fpqt: error: duplicate tensor name 'w.bias'\n"
        assert os.listdir(tmp_path) == ["a.fpqt"]  # no OUT and no *.tmp

    @pytest.mark.parametrize("fmt", ["E11M0", "E1M53"])
    def test_format_beyond_float64_is_config_error(self, capsys, tmp_path, rng, fmt):
        src, dst = str(tmp_path / "a.fpqt"), str(tmp_path / "b.fpqt")
        write_tensors(src, {"w": rng.standard_normal((4, 3))})
        code, out, err = run_cli(capsys, "quantize", src, dst, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"fpqt: error: format {fmt} needs 1 <= n_e <= 10 and 0 <= n_m <= 52 in float64\n"
        assert os.listdir(tmp_path) == ["a.fpqt"]  # no OUT and no *.tmp

    @pytest.mark.parametrize("fmt", ["E2M1", "auto"])
    def test_zero_dim_entry_quantizes_as_single_channel(self, capsys, tmp_path, fmt):
        src, dst = str(tmp_path / "a.fpqt"), str(tmp_path / "b.fpqt")
        write_tensors(src, {"s": np.array(-2.7), "v": np.array([-2.7])})
        code, out, _ = run_cli(capsys, "quantize", src, dst, "--format", fmt)
        assert code == 0 and "s: format=E" in out and "channels=1 " in out
        back = read_tensors(dst)
        assert back["s"].shape == () and back["s.bias"].shape == (1,)
        # the same value as a 1-element vector, on the same grid
        assert back["s"] == back["v"][0] and back["s.bias"] == back["v.bias"]


    def test_values_float32_cannot_hold_are_refused(self, capsys, tmp_path, rng):
        # three columns in {-1, 0, 1} * 2^-149 take bias -153, whose grid steps
        # below float32's least subnormal: the cast would move their values
        # off the grid the command reports
        src, dst = str(tmp_path / "in.fpqt"), tmp_path / "out.fpqt"
        t = np.zeros((16, 4))
        t[:, :3] = rng.integers(-1, 2, (16, 3)) * 2.0**-149
        t[:, 3] = rng.standard_normal(16)
        write_tensors(src, {"t": t})
        write_tensors(str(dst), {"keep": np.ones(3)})
        before = dst.read_bytes()
        code, out, err = run_cli(capsys, "quantize", src, str(dst), "--format", "E2M1")
        assert (code, out) == (1, "")
        assert err == ("fpqt: error: tensor 't' quantized to E2M1 holds values that "
                       "float32 storage would move off the grid\n")
        assert dst.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["in.fpqt", "out.fpqt"]

    def test_a_grid_below_the_least_subnormal_that_float32_holds_is_written(
            self, capsys, tmp_path):
        # bias -151: the grid steps by 2^-151, but these values are 12, 4, 0
        # and -8 times 2^-151, all multiples of 2^-149, so the check passes them
        src, dst = str(tmp_path / "in.fpqt"), str(tmp_path / "out.fpqt")
        t = np.array([[3 * 2.0**-149], [2.0**-149], [0.0], [-(2.0**-148)]])
        write_tensors(src, {"t": t})
        code, _, _ = run_cli(capsys, "quantize", src, dst, "--format", "E2M1")
        back = read_tensors(dst)
        assert code == 0 and back["t.bias"].tolist() == [-151.0]
        assert np.array_equal(back["t"], t)


    def test_a_grid_with_more_significant_bits_than_float32_is_checked(self, capsys, tmp_path, rng):
        src, dst = str(tmp_path / "in.fpqt"), str(tmp_path / "out.fpqt")
        write_tensors(src, {"w": rng.standard_normal((8, 3))})
        assert run_cli(capsys, "quantize", src, dst, "--format", "E5M23")[0] == 0
        code, _, err = run_cli(capsys, "quantize", src, dst, "--format", "E5M30")
        assert code == 1 and "tensor 'w' quantized to E5M30" in err


class TestQuantizeAtomicOutput:
    """A bad input leaves no partial OUT: the output goes to a temporary file
    beside OUT that replaces it only after the last entry is written."""

    def _src_with_nan_in_last_payload(self, tmp_path, rng):
        src = str(tmp_path / "in.fpqt")
        write_tensors(src, {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal(5)})
        with open(src, "r+b") as fh:
            fh.seek(-4, os.SEEK_END)
            fh.write(struct.pack("<f", np.nan))
        return src

    def test_nan_in_last_tensor_creates_no_output(self, capsys, tmp_path, rng):
        src = self._src_with_nan_in_last_payload(tmp_path, rng)
        dst = tmp_path / "out.fpqt"
        code, out, err = run_cli(capsys, "quantize", src, str(dst))
        assert code == 2 and "NaN" in err and out == ""
        assert sorted(os.listdir(tmp_path)) == ["in.fpqt"]

    def test_nan_in_last_tensor_keeps_existing_output(self, capsys, tmp_path, rng):
        src = self._src_with_nan_in_last_payload(tmp_path, rng)
        dst = tmp_path / "out.fpqt"
        write_tensors(str(dst), {"keep": np.ones(3)})
        before = dst.read_bytes()
        code, _, _ = run_cli(capsys, "quantize", src, str(dst))
        assert code == 2
        assert dst.read_bytes() == before
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_output_may_be_the_input(self, capsys, tmp_path, rng):
        a, b = tmp_path / "a.fpqt", tmp_path / "b.fpqt"
        write_tensors(str(a), {"w": rng.standard_normal((6, 3)), "v": rng.standard_normal(4)})
        assert run_cli(capsys, "quantize", str(a), str(b))[0] == 0
        assert run_cli(capsys, "quantize", str(a), str(a))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["a.fpqt", "b.fpqt"]

    def test_output_mode_follows_umask(self, capsys, tmp_path, rng):
        src, dst = str(tmp_path / "in.fpqt"), tmp_path / "out.fpqt"
        write_tensors(src, {"w": rng.standard_normal(4)})
        old = os.umask(0o022)
        try:
            code, _, _ = run_cli(capsys, "quantize", src, str(dst))
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(dst.stat().st_mode) == 0o644


# the CLI in a child process whose files may grow to 1024 bytes only;
# Python ignores SIGXFSZ, so a write past the limit fails with EFBIG
_FSIZE_PROBE = (
    "import resource, sys\nfrom fpqt.cli import main\n"
    "resource.setrlimit(resource.RLIMIT_FSIZE,"
    " (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


class TestFailedWrite:
    """quantize, fuse and simulate --out write OUT through one path: a write
    that fails exits 2, keeps an existing OUT byte for byte and leaves no
    temporary file, and an error creating the file names OUT."""

    SMALL = ("--n", "16", "--heads", "2", "--tokens", "16", "--hidden", "32",
             "--calib-samples", "32")

    def _argv(self, tmp_path, rng, command, out):
        if command == "simulate":
            return ["simulate", *self.SMALL, "--out", out]
        src = str(tmp_path / "in.fpqt")
        if command == "quantize":
            write_tensors(src, {"w": rng.standard_normal((6, 3))})
            return ["quantize", src, out]
        write_tensors(src, {k: rng.standard_normal(s) for k, s in layer_shapes(8, 16).items()})
        return ["fuse", src, out, "--heads", "2"]

    @pytest.mark.parametrize("command", ["quantize", "fuse", "simulate"])
    def test_missing_directory_is_an_io_error_naming_out(self, capsys, tmp_path, rng, command):
        out = str(tmp_path / "nodir" / "out")
        code, stdout, err = run_cli(capsys, *self._argv(tmp_path, rng, command, out))
        assert (code, stdout) == (2, "")
        assert err.startswith("fpqt: i/o error: ") and err.count("\n") == 1
        assert out in err and ".tmp" not in err

    @pytest.mark.parametrize("kind", ["new", "file", "dir", "link", "dangling", "nodir"])
    @pytest.mark.parametrize("command", ["quantize", "fuse", "simulate"])
    def test_each_kind_of_out(self, tmp_path, rng, command, kind):
        # the fuzz oracle, on a valid input: only a directory and a missing
        # directory fail, and a symlink's target takes the result
        root = os.path.realpath(tmp_path)
        out = _make_out(root, kind)
        code = TestCliFuzz._oracle(self._argv(tmp_path, rng, command, out), json_out=False,
                                   out=(out, root))
        assert code == (2 if kind in ("dir", "nodir") else 0)

    def test_report_onto_a_fifo_is_refused(self, capsys, tmp_path):
        # a FIFO of this test's own, not /dev/null: code that failed to refuse
        # would replace the node; the open reader keeps a plain open() from blocking
        out = str(tmp_path / "fifo")
        os.mkfifo(out)
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, stdout, err = run_cli(capsys, "simulate", *self.SMALL, "--out", out)
        finally:
            os.close(reader)
        assert (code, stdout) == (2, "")
        assert err == f"fpqt: i/o error: {os.path.realpath(out)!r} exists and is not a regular file\n"
        assert stat.S_ISFIFO(os.lstat(out).st_mode) and os.listdir(tmp_path) == ["fifo"]

    @staticmethod
    def _cut_short(capsys, tmp_path, out, *argv):
        # a good OUT of over 1024 bytes, then the same command past the limit:
        # exit 2 with an error naming OUT, OUT byte-identical, no *.tmp
        pytest.importorskip("resource")  # the child sets its own file size limit
        assert run_cli(capsys, *argv)[0] == 0
        before, files = out.read_bytes(), sorted(os.listdir(tmp_path))
        assert len(before) > 1024
        src = str(Path(fpqt.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", _FSIZE_PROBE, *argv],
                               env=env, capture_output=True, text=True, timeout=300)
        assert (child.returncode, child.stdout) == (2, ""), child.stderr
        assert child.stderr == f"fpqt: i/o error: [Errno 27] File too large: {str(out)!r}\n"
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == files

    def test_a_report_cut_short_keeps_the_old_one(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        self._cut_short(capsys, tmp_path, out, "simulate", *self.SMALL, "--out", str(out))

    def test_a_container_cut_short_keeps_the_old_one(self, capsys, tmp_path, rng):
        src, out = str(tmp_path / "in.fpqt"), tmp_path / "out.fpqt"
        write_tensors(src, {"w": rng.standard_normal((64, 8))})
        self._cut_short(capsys, tmp_path, out, "quantize", src, str(out))


class TestEmptyEntry:
    """A zero-size entry is a valid container entry, but has no statistics:
    every command that needs them raises ShapeError naming it."""

    @staticmethod
    def _src(tmp_path):
        path = str(tmp_path / "in.fpqt")
        write_tensors(path, {"a": np.ones(3), "e": np.zeros((0, 4))})
        return path

    @pytest.mark.parametrize("argv", [["inspect"], ["inspect", "--json"], ["select-format"],
                                      ["select-format", "--json"], ["quantize", "--format", "auto"]])
    def test_statistics_of_an_empty_entry_are_a_shape_error(self, capsys, tmp_path, argv):
        src, dst = self._src(tmp_path), tmp_path / "out.fpqt"
        files = [src, str(dst)] if argv[0] == "quantize" else [src]
        args = build_parser().parse_args([argv[0], *files, *argv[1:]])
        with pytest.raises(ShapeError, match="entry 'e' is empty"):
            args.func(args)
        code, out, err = run_cli(capsys, argv[0], *files, *argv[1:])
        assert code == 1 and out == ""
        assert err == "fpqt: error: entry 'e' is empty (shape (0, 4)); its statistics are undefined\n"
        assert not dst.exists()

    def test_a_fixed_format_quantizes_an_empty_entry(self, capsys, tmp_path):
        dst = str(tmp_path / "out.fpqt")
        code, out, _ = run_cli(capsys, "quantize", self._src(tmp_path), dst, "--format", "E2M1")
        assert code == 0 and "e: format=E2M1 channels=4" in out
        got = read_tensors(dst)
        assert got["e"].shape == (0, 4) and got["e.bias"].shape == (4,)


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


class TestStrictJsonDumps:
    """An infinite spread or channel ratio is written as null, never as the
    non-standard Infinity."""

    def _src(self, tmp_path):
        # |values| have a zero 25% quantile under a nonzero max: spread = +inf,
        # and column medians of 0 give channel_max_median_ratio = +inf
        path = str(tmp_path / "spiky.fpqt")
        w = np.zeros((4, 3))
        w[0, 0] = 1.0
        write_tensors(path, {"w": w})
        return path

    def test_inspect_json(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "inspect", self._src(tmp_path), "--json")
        assert code == 0
        data = json.loads(out, parse_constant=_reject_constant)
        assert data["w"]["spread"] is None
        assert data["w"]["channel_max_median_ratio"] is None

    def test_select_format_json(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "select-format", self._src(tmp_path), "--json")
        assert code == 0
        data = json.loads(out, parse_constant=_reject_constant)
        assert data["w"]["spread"] is None
        assert {c["log2_distance"] for c in data["w"]["candidates"]} == {None}
        assert data["w"]["selected"] == "E3M0"

    def test_text_output_still_prints_inf(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "inspect", self._src(tmp_path))
        assert code == 0 and "spread=inf" in out


class TestFuseCommand:
    def test_v_mode_default_is_the_plan_default(self):
        assert build_parser().parse_args(["fuse", "in", "out"]).v_mode == FusionPlan.v_mode

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

    @pytest.mark.parametrize("w_q", [np.array(1.0), np.ones(16)])
    def test_w_q_that_is_not_a_matrix_is_shape_error(self, capsys, tmp_path, rng, w_q):
        src = self._write_block(tmp_path, rng)
        write_tensors(src, {**read_tensors(src), "w_q": w_q})
        dst = tmp_path / "fused.fpqt"
        code, out, err = run_cli(capsys, "fuse", src, str(dst), "--heads", "2")
        assert (code, out) == (1, "")
        assert err == f"fpqt: error: w_q must be 2-D, got shape {w_q.shape}\n"
        assert not dst.exists()

    def test_negative_seed_is_config_error(self, capsys, tmp_path, rng):
        src = self._write_block(tmp_path, rng)
        dst = tmp_path / "fused.fpqt"
        code, out, err = run_cli(capsys, "fuse", src, str(dst), "--heads", "2", "--seed", "-2")
        assert (code, out) == (1, "")
        assert err.startswith("fpqt: error: ") and "seed must be nonnegative, got -2" in err
        assert not dst.exists()

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

    @pytest.mark.parametrize("flag", ["--act-format", "--weight-format"])
    def test_format_beyond_float64_is_config_error(self, capsys, tmp_path, flag):
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "simulate", *self.SMALL, flag, "E11M0",
                                 "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "fpqt: error: format E11M0 needs 1 <= n_e <= 10 and 0 <= n_m <= 52 in float64\n"
        assert not out_path.exists()

    def test_invalid_config_is_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--n", "16", "--heads", "5")
        assert code == 1

    @pytest.mark.parametrize("flag", ["--seed", "--hadamard-seed"])
    def test_negative_seed_is_config_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "simulate", *self.SMALL, f"{flag}=-1")
        assert (code, out) == (1, "")
        assert err.startswith("fpqt: error: ") and "seed must be nonnegative, got -1" in err

    def test_negative_hadamard_seed_without_the_transform_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", *self.SMALL, "--no-hadamard",
                                 "--hadamard-seed", "-1")
        assert (code, out) == (1, "")
        assert err == "fpqt: error: hadamard_seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("flag", ["--outlier-scale", "--alpha", "--heavy-tail-fraction"])
    @pytest.mark.parametrize("value", ["-1e+3", "-1e3", "-2.5E-1"])
    def test_negative_exponent_value_as_its_own_word(self, capsys, flag, value):
        # argparse alone reads such a word as an unknown flag
        spaced = run_cli(capsys, "cost", *self.SMALL, flag, value)
        assert spaced == run_cli(capsys, "cost", *self.SMALL, f"{flag}={value}")

    def test_cost_with_a_negative_exponent_outlier_scale(self, capsys):
        argv = ("cost", "--n", "16", "--heads", "2")
        code, out, err = run_cli(capsys, *argv, "--outlier-scale", "-1e+3")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv, "--outlier-scale=-1e+3")[1]

    def test_negative_exponent_alpha_is_range_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--alpha", "-1e+1")
        assert (code, out) == (1, "")
        assert err == "fpqt: error: alpha must be in (0, 100) exclusive, got -10.0\n"

    def test_option_word_is_still_not_a_float_value(self, capsys):
        code, out, err = run_cli(capsys, "cost", "--outlier-scale", "--n", "16")
        assert (code, out) == (1, "")
        assert err == "fpqt: error: argument --outlier-scale: expected one argument\n"

    def test_cost_output(self, capsys):
        code, out, _ = run_cli(capsys, "cost", *self.SMALL)
        data = json.loads(out)
        assert code == 0
        assert data["bytes_ratio_before_bias"] == 8.0

    def test_cost_of_a_fixed_8_bit_format(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--weight-format", "E4M3")
        data = json.loads(out)
        assert code == 0
        assert data["weight_bytes_quant"] == data["weight_bytes_fp32"] // 4 == 49152
        assert data["bytes_ratio_before_bias"] == 4.0

    def test_cost_of_an_order_too_large_to_hold(self, capsys):
        # costing the plan builds none of its signs or stages: 8 TiB each at order 2^40
        code, out, _ = run_cli(capsys, "cost", "--n", str(2**40), "--heads", "4", "--tokens", "1",
                               "--hadamard-seed", "3")
        assert code == 0
        tr = {t["point"]: t for t in json.loads(out)["hadamard"]["transforms"]}
        assert tr["attn_input"]["adds"] == 2**40 * 40

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

    # each harness flag as --help shows it, then its help text, if it has one
    HELP = [
        "--n N model width", "--heads HEADS attention heads", "--tokens TOKENS tokens per batch",
        "--hidden HIDDEN FFN width (default 4*n)", "--outlier-channels OUTLIER_CHANNELS",
        "--outlier-scale OUTLIER_SCALE", "--seed SEED",
        "--weight-format WEIGHT_FORMAT 'auto' or a concrete format such as E2M1",
        "--weight-bits WEIGHT_BITS", "--act-format ACT_FORMAT", "--method {gptq,rtn}",
        "--calib-samples CALIB_SAMPLES", "--alpha ALPHA percentile for the spread indicator",
        "--heavy-tail-fraction HEAVY_TAIL_FRACTION", "--v-mode {per_head_exact,paper_literal}",
        "--no-hadamard", "--no-weight-quant", "--no-act-quant",
        "--hadamard-seed HADAMARD_SEED seed for random sign diagonals (default: none)",
    ]

    @pytest.mark.parametrize("command", ["simulate", "cost"])
    def test_help_shows_every_flag_and_its_help(self, command, capsys):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        options = " ".join(out.split("options:")[1].split())  # argparse's wrapping undone
        for line in self.HELP:
            assert f" {line} " in f"{options} "

    @pytest.mark.parametrize("field", list(FLAGS))
    def test_flag_lands_in_its_own_field(self, field):
        flag, text, want = self.FLAGS[field]
        assert want != getattr(HarnessConfig(), field)
        for command in ("simulate", "cost"):
            args = build_parser().parse_args([command, flag] + ([text] if text else []))
            assert _harness_config(args) == replace(HarnessConfig(), **{field: want})


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _flags(**values):
    # --flag=value, so that negative numbers such as -1e+300 are not read as flags
    return [f"--{k.replace('_', '-')}={v}" for k, v in values.items() if v is not None]


# derandomized: the same examples on every run, and no example database on disk
_FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_SMALL_ORDERS = st.sampled_from([1, 2, 4, 8, 12, 16, 20, 24, 28, 40, 48, 56, 64])
_SEEDS = st.one_of(st.none(), st.integers(-3, 2**64))


_VALID = {
    "n": st.sampled_from([4, 8, 16]),
    "heads": st.sampled_from([1, 2, 4]),
    "tokens": st.integers(1, 8),
    "hidden": st.one_of(st.none(), st.sampled_from([4, 12, 24, 40, 56])),
    "outlier_channels": st.integers(0, 4),
    "outlier_scale": st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
        [2.0**1000, -(2.0**1000), 1e307, 5e-324])),
    "seed": st.integers(0, 2**64),
    "hadamard_seed": st.one_of(st.none(), st.integers(0, 2**64)),
    "method": st.sampled_from(["gptq", "rtn"]),
    "calib_samples": st.integers(1, 24),
    "v_mode": st.sampled_from(["per_head_exact", "paper_literal"]),
}
_WIDE = {  # any value the flag's type parses, for the one field drawn out of range
    "n": st.integers(-2, 17),
    "heads": st.integers(-2, 17),
    "tokens": st.integers(-2, 8),
    "hidden": st.integers(-2, 64),
    "outlier_channels": st.integers(-2, 17),
    "outlier_scale": st.one_of(st.sampled_from([1e308, -1e308]), st.floats()),
    "seed": st.integers(-3, -1),
    "hadamard_seed": st.integers(-3, -1),
    "calib_samples": st.integers(-2, 0),
}


@st.composite
def _harness_argv(draw):
    """Valid harness flags, or with one field drawn from a wider range."""
    values = {name: draw(strategy) for name, strategy in _VALID.items()}
    wide = draw(st.one_of(st.none(), st.sampled_from(sorted(_WIDE))))
    if wide is not None:
        values[wide] = draw(_WIDE[wide])
    return _flags(**values) + (["--no-hadamard"] if draw(st.booleans()) else [])


_F32_MAX = float(np.finfo(np.float32).max)
# float32-exact values: zeros, the smallest subnormal and normal, the extremes
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 2.0**-149, -(2.0**-149), 2.0**-126,
                     _F32_MAX, -_F32_MAX]),
    st.floats(-_F32_MAX, _F32_MAX, width=32),
)
_SHAPES = st.one_of(st.just(()), hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
                    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5))


@st.composite
def _entries(draw):
    """Up to three entries: 0-d, 1-D, empty, 2-D or 3-D, constant or drawn;
    a name may collide with another's '.bias' output."""
    names = draw(st.lists(st.one_of(st.sampled_from(["w", "w.bias", ""]), st.text(max_size=3)),
                          max_size=3, unique=True))
    entries = {}
    for name in names:
        shape = draw(_SHAPES)
        if draw(st.booleans()):
            entries[name] = np.full(shape, draw(_VALUES))
        else:
            entries[name] = draw(hnp.arrays(np.float64, shape, elements=_VALUES))
    return entries


# 'auto', E0..E12 by M0..M64, other case or padding, and strings that are no format
_FORMATS = st.one_of(
    st.just("auto"),
    st.builds("E{}M{}".format, st.integers(0, 12), st.integers(0, 64)),
    st.sampled_from(["e2m1", " E4M3 ", "E2M1x", "M2E1", "E-1M2", "E2M-1", "E", "", "2"]),
    st.text(max_size=6),
)
_ALPHAS = st.one_of(st.just(25.0), st.floats(-1.0, 101.0, allow_nan=False))
_BITS = st.one_of(st.just(4), st.integers(0, 10))
_NORMS = ("ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta")


@st.composite
def _block_entries(draw):
    """The six matrices and four norm vectors of a small block, one of them
    perhaps missing or of another shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # orders 6, 3 and 0 have no Hadamard transform, so fuse must refuse them
    n = draw(st.sampled_from([1, 2, 4, 12, 0, 6]))
    hidden = draw(st.sampled_from([1, 8, 12, 0, 3]))
    entries = {name: rng.standard_normal(shape) for name, shape in layer_shapes(n, hidden).items()}
    entries.update({name: rng.standard_normal(n) for name in _NORMS})
    name = draw(st.sampled_from(LAYER_NAMES + _NORMS))
    defect = draw(st.one_of(st.none(), st.sampled_from(["missing", "shape"])))
    if defect == "missing":
        del entries[name]
    elif defect == "shape":
        entries[name] = rng.standard_normal(draw(_SHAPES))
    return entries


# OUT for a command that writes one: a new path, an existing file or
# directory, a symlink to an existing file, a dangling symlink, or a path in
# a missing directory
_OUT_KINDS = st.sampled_from(["new", "file", "dir", "link", "dangling", "nodir"])


def _make_out(root, kind):
    """An OUT path of the given kind in the directory root."""
    out = os.path.join(root, "out")
    if kind == "file":
        Path(out).write_bytes(b"old OUT")
    elif kind == "dir":
        os.mkdir(out)
    elif kind == "link":
        Path(root, "target").write_bytes(b"old target")
        os.symlink(os.path.join(root, "target"), out)
    elif kind == "dangling":
        os.symlink(os.path.join(root, "gone"), out)
    elif kind == "nodir":
        out = os.path.join(root, "missing", "out")
    return out


def _tree(root):
    """Each path under root, with its link target, its bytes, or 'dir'."""
    state = {}
    for top, dirs, files in os.walk(root):
        for p in (os.path.join(top, name) for name in dirs + files):
            state[p] = (os.readlink(p) if os.path.islink(p)
                        else "dir" if os.path.isdir(p) else Path(p).read_bytes())
    return state


class TestCliFuzz:
    """Every command either prints its result (exit 0, strict JSON on stdout
    wherever JSON was asked for) or fails with exit 1 or 2, one `fpqt:` line
    on stderr and nothing on stdout; no exception, traceback or
    RuntimeWarning escapes main().  A command that writes OUT changes
    nothing else in OUT's directory: on success OUT, or the target of a
    symlink OUT, is a new regular file holding the result, and the link
    stays a link; on failure every file and link there, a pre-existing OUT
    included, is as it was, and no temporary file is left."""

    @staticmethod
    def _oracle(argv, json_out=True, out=None):
        """out: (OUT, the directory it was made in), for a command that writes OUT."""
        before = _tree(out[1]) if out else {}
        code, stdout, err = _main_in_process(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 0:
            if json_out:
                json.loads(stdout, parse_constant=_reject_constant)
            assert err == "", argv
        else:
            assert stdout == "", argv
            assert err.startswith("fpqt: ") and err.count("\n") == 1, (argv, err)
        if out:
            after = _tree(out[1])
            if code == 0:
                written = os.path.realpath(out[0])
                assert isinstance(before.pop(written, b""), bytes), argv  # was absent or a file
                result = after.pop(written)
                if argv[0] == "simulate":
                    json.loads(result, parse_constant=_reject_constant)
                else:
                    read_tensors(out[0])
            assert after == before, argv
        return code

    @staticmethod
    def _in_tmp(kind, command, entries=None):
        """command(src, (OUT, directory)) in a fresh directory holding entries
        at src, if any, and OUT of the given kind."""
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.realpath(tmp)
            src = os.path.join(root, "in.fpqt")
            if entries is not None:
                write_tensors(src, entries)
            command(src, (_make_out(root, kind), root))

    @_FUZZ
    @given(entries=_entries(), alpha=_ALPHAS, as_json=st.booleans())
    def test_inspect(self, entries, alpha, as_json):
        self._in_tmp("new", lambda src, _: self._oracle(
            ["inspect", src, *_flags(alpha=alpha)] + (["--json"] if as_json else []),
            json_out=as_json), entries)

    @_FUZZ
    @given(entries=_entries(), bits=_BITS, alpha=_ALPHAS, as_json=st.booleans())
    def test_select_format(self, entries, bits, alpha, as_json):
        self._in_tmp("new", lambda src, _: self._oracle(
            ["select-format", src, *_flags(bits=bits, alpha=alpha)]
            + (["--json"] if as_json else []), json_out=as_json), entries)

    @_FUZZ
    @given(entries=_entries(), fmt=_FORMATS, bits=_BITS, alpha=_ALPHAS, kind=_OUT_KINDS)
    def test_quantize(self, entries, fmt, bits, alpha, kind):
        self._in_tmp(kind, lambda src, out: self._oracle(
            ["quantize", src, out[0], *_flags(format=fmt, bits=bits, alpha=alpha)],
            json_out=False, out=out), entries)

    @_FUZZ
    @given(entries=_block_entries(), heads=st.one_of(st.sampled_from([1, 2]), st.integers(-1, 5)),
           seed=_SEEDS, v_mode=st.sampled_from(V_MODES), invert=st.booleans(), kind=_OUT_KINDS)
    def test_fuse(self, entries, heads, seed, v_mode, invert, kind):
        self._in_tmp(kind, lambda src, out: self._oracle(
            ["fuse", src, out[0], *_flags(heads=heads, seed=seed, v_mode=v_mode)]
            + (["--invert"] if invert else []), json_out=False, out=out), entries)

    @_FUZZ
    @given(data=st.data(), rows=st.integers(-2, 2**40), seed=_SEEDS, check=st.booleans())
    def test_hadamard(self, data, rows, seed, check):
        # --check builds the dense matrix, so it draws only small orders
        small = st.one_of(_SMALL_ORDERS, st.integers(-4, 300))
        dim = data.draw(small if check else st.one_of(small, st.integers(-2**62, 2**62)))
        self._oracle(["hadamard", *_flags(dim=dim, rows=rows, seed=seed)]
                     + (["--check"] if check else []))

    @_FUZZ
    @given(argv=_harness_argv())
    def test_cost(self, argv):
        self._oracle(["cost", *argv])

    @_FUZZ
    @given(argv=_harness_argv(), kind=st.one_of(st.none(), _OUT_KINDS))
    def test_simulate(self, argv, kind):
        if kind is None:
            self._oracle(["simulate", *argv])
        else:
            self._in_tmp(kind, lambda src, out: self._oracle(
                ["simulate", *argv, "--out", out[0]], json_out=False, out=out))
