import os
import re
import stat
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpqt import tensors
from fpqt.errors import FormatError, NumericalError, ShapeError
from fpqt.fusion import block_forward
from fpqt.formats import FpFormat
from fpqt.gptq import CalibrationSet, gptq_quantize, layer_objective
from fpqt.hadamard import HadamardSpec, apply_right
from fpqt.harness import HarnessConfig, distribution_stats, init_weights
from fpqt.quantize import channel_bias, minmax_quantize, quant_error, snap_per_channel
from fpqt.select import spread_indicator
from fpqt.tensors import (
    _write_entries,
    as_working,
    channel_max_median_ratio,
    channel_stat,
    iter_tensors,
    max_abs,
    read_tensors,
    write_tensors,
)


class TestChannelStat:
    def test_max_abs_and_median_abs(self):
        x = np.array([[1.0, -5.0], [-3.0, 2.0], [2.0, 0.0]])
        assert channel_stat(x, "max_abs").tolist() == [3.0, 5.0]
        # channel peaks 3 and 5: largest 5 over median 4
        assert channel_max_median_ratio(x) == 1.25

    def test_max_median_ratio_zero_median_is_inf(self):
        x = np.zeros((4, 3))
        x[0, 0] = 2.0
        assert channel_max_median_ratio(x) == float("inf")
        assert channel_max_median_ratio(np.zeros((2, 2))) == float("inf")
        assert channel_max_median_ratio(np.full((2, 3), -7.0)) == 1.0

    def test_validation(self):
        with pytest.raises(ShapeError):
            channel_stat(np.zeros(4), "max_abs")
        with pytest.raises(ShapeError):
            channel_max_median_ratio(np.zeros(4))
        for stat in ("median_abs", "quantile", "nope"):
            with pytest.raises(ValueError, match="unknown stat"):
                channel_stat(np.zeros((2, 2)), stat)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_an_empty_batch_is_refused_by_shape(self, shape):
        # no peak to take over no samples, no median over no channels
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            channel_stat(np.zeros(shape), "max_abs")
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            channel_max_median_ratio(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_batch_is_refused(self, bad):
        # a NaN or Inf peak would give a NaN ratio, and a NaN or Inf kurtosis
        x = np.array([[bad, 1.0], [2.0, 3.0]])
        for stat in (lambda: channel_stat(x, "max_abs"), lambda: channel_max_median_ratio(x),
                     lambda: distribution_stats(x)):
            with pytest.raises(NumericalError, match="non-finite"):
                stat()



class TestMaxAbs:
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -3.5, np.finfo(float).max, -np.finfo(float).max]

    @pytest.mark.parametrize("axis", [None, 0, 1, -1, (0, 1)])
    def test_equals_the_peak_of_the_abs_copy(self, rng, axis):
        x = rng.standard_normal((7, 9)) * 2.0 ** rng.integers(-60, 60, (7, 9))
        x.flat[rng.choice(x.size, len(self.EDGES), replace=False)] = self.EDGES
        got = np.asarray(max_abs(x, axis))
        assert got.tobytes() == np.asarray(np.abs(x).max(axis=axis)).tobytes()

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_an_all_zero_line_gives_positive_zero(self, axis):
        for x in (np.zeros((3, 4)), np.full((3, 4), -0.0), np.array([[0.0, -0.0]] * 3)):
            got = np.asarray(max_abs(x, axis))
            assert (got == 0.0).all() and not np.signbit(got).any()
        assert not np.signbit(channel_stat(np.full((2, 3), -0.0), "max_abs")).any()

    def test_an_empty_line_gives_positive_zero(self):
        got = max_abs(np.zeros((0, 3)), 0)
        assert got.tolist() == [0.0] * 3 and not np.signbit(got).any()
        assert max_abs(np.zeros(0)) == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_line_carries_through(self, bad):
        x = np.ones((3, 4))
        x[1, 2] = bad
        want = np.nan if np.isnan(bad) else np.inf
        np.testing.assert_array_equal(max_abs(x, 0), [1.0, 1.0, want, 1.0])
        np.testing.assert_array_equal(max_abs(x, 1), [1.0, want, 1.0])
        np.testing.assert_array_equal(max_abs(x), want)

    def test_takes_no_abs_copy(self, rng):
        x = rng.standard_normal((256, 512))
        tracemalloc.start()
        try:
            max_abs(x)
            max_abs(x, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 16

E2M1 = FpFormat(2, 1)
_CAL = CalibrationSet(np.eye(4))
_BLOCK = init_weights(HarnessConfig(n=4, heads=2, hidden=8))

# every public entry point that casts its array input to the working dtype,
# called with that input
ENTRY_POINTS = {
    "minmax_quantize": lambda z: minmax_quantize(z, E2M1),
    "snap_per_channel": lambda z: snap_per_channel(z, E2M1, 0),
    "channel_bias": lambda z: channel_bias(z, E2M1),
    "quant_error": lambda z: quant_error(np.ones((4, 4)), z),
    "spread_indicator": lambda z: spread_indicator(z),
    "CalibrationSet": lambda z: CalibrationSet(z),
    "gptq_quantize": lambda z: gptq_quantize(z, _CAL, E2M1),
    "layer_objective": lambda z: layer_objective(np.ones((4, 4)), z, _CAL),
    "apply_right": lambda z: apply_right(z, HadamardSpec(4)),
    "block_forward": lambda z: block_forward(z, _BLOCK),
    "channel_stat": lambda z: channel_stat(z, "max_abs"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_complex_input_is_a_type_error_naming_the_dtype(entry, dtype):
    # the cast would drop the imaginary part, with only a ComplexWarning
    z = (np.arange(16.0).reshape(4, 4) + 1j).astype(dtype)
    with pytest.raises(TypeError, match=f"got dtype {np.dtype(dtype)}"):
        ENTRY_POINTS[entry](z)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("text", [np.full((4, 4), "a"), np.full((4, 4), b"1"),
                                  np.zeros((4, 4), dtype="V8")], ids=["str", "bytes", "void"])
def test_text_input_is_a_type_error_naming_the_dtype(entry, text):
    # was numpy's raw ValueError (could not convert string to float), or for
    # bytes holding a number a silent parse of the text
    with pytest.raises(TypeError, match=re.escape(f"got dtype {text.dtype}")):
        ENTRY_POINTS[entry](text)


def test_complex_payload_is_refused_before_anything_is_written(tmp_path):
    out = tmp_path / "z.fpqt"
    with pytest.raises(TypeError, match="got dtype complex128"):
        write_tensors(out, {"a": np.ones(2), "z": np.ones(2) + 1j})
    assert not out.exists()


def test_text_payload_is_refused_before_anything_is_written(tmp_path):
    out = tmp_path / "s.fpqt"
    with pytest.raises(TypeError, match="got dtype <U3"):
        write_tensors(out, {"a": np.ones(2), "s": np.array(["1.5"])})
    assert not out.exists()


def test_as_working_casts_and_copies_on_request():
    x = np.arange(3.0)
    assert as_working(x) is x and as_working(x, copy=True) is not x
    assert as_working([1, 2]).dtype == np.float64
    with pytest.raises(TypeError, match="got dtype complex128"):
        as_working([[1.0, 1j]])
class TestContainerRoundtrip:
    def test_multiple_shapes_exact_float32(self, tmp_container, rng):
        path = tmp_container()
        tensors = {
            "vec": rng.standard_normal(7),
            "mat": rng.standard_normal((3, 5)),
            "cube": rng.standard_normal((2, 3, 4)),
            "empty_name_ok é": rng.standard_normal((2,)),
        }
        write_tensors(path, tensors)
        back = read_tensors(path)
        assert list(back) == list(tensors)  # insertion order preserved
        for name, orig in tensors.items():
            assert back[name].shape == orig.shape
            assert back[name].dtype == np.float64
            np.testing.assert_array_equal(
                back[name], orig.astype(np.float32).astype(np.float64)
            )

    def test_empty_container(self, tmp_container):
        path = tmp_container()
        write_tensors(path, {})
        assert read_tensors(path) == {}

    def test_write_rejects_non_finite(self, tmp_container):
        with pytest.raises(NumericalError):
            write_tensors(tmp_container(), {"a": np.array([1.0, np.nan])})
        with pytest.raises(NumericalError):
            write_tensors(tmp_container(), {"a": np.array([np.inf])})


class TestPathArgument:
    def test_a_file_descriptor_is_refused_and_left_open(self, tmp_container):
        path = tmp_container()
        write_tensors(path, {"a": np.ones(2)})
        fd = os.open(path, os.O_RDONLY)
        try:
            for call in (read_tensors, lambda p: next(iter_tensors(p)),
                         lambda p: write_tensors(p, {"a": np.ones(2)})):
                with pytest.raises(TypeError, match="path must be a str, bytes or os.PathLike"):
                    call(fd)
            os.fstat(fd)  # still the caller's
        finally:
            os.close(fd)

    @pytest.mark.parametrize("bad", [None, 3.0, ["a.fpqt"]])
    def test_other_non_paths_are_refused(self, bad):
        for call in (read_tensors, lambda p: write_tensors(p, {})):
            with pytest.raises(TypeError, match="path must be a str, bytes or os.PathLike"):
                call(bad)

    def test_bytes_and_pathlike_paths_are_accepted(self, tmp_path):
        write_tensors(tmp_path / "a.fpqt", {"a": np.ones(2)})
        assert list(read_tensors(os.fsencode(tmp_path / "a.fpqt"))) == ["a"]

    def test_a_non_string_name_is_refused_and_the_file_left(self, tmp_container):
        path = tmp_container()
        write_tensors(path, {"a": np.ones(2)})
        with pytest.raises(TypeError, match="tensor name must be a str, got int 1"):
            write_tensors(path, {"b": np.ones(2), 1: np.ones(2)})
        assert list(read_tensors(path)) == ["a"]


class TestContainerErrors:
    def _valid_bytes(self, tmp_path):
        path = str(tmp_path / "ok.fpqt")
        write_tensors(path, {"a": np.array([1.0, 2.0])})
        with open(path, "rb") as fh:
            return bytearray(fh.read())

    def _expect(self, tmp_path, data, offset=None):
        """read_tensors raises FormatError at offset."""
        path = str(tmp_path / "bad.fpqt")
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(FormatError) as exc:
            read_tensors(path)
        if offset is not None:
            assert exc.value.offset == offset
        assert "byte offset" in str(exc.value)

    def test_bad_magic(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        data[:4] = b"XXXX"
        self._expect(tmp_path, data, offset=0)

    def test_bad_version(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        data[4] = 9
        self._expect(tmp_path, data, offset=4)

    def test_truncated_payload(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        self._expect(tmp_path, data[:-3])

    def test_truncated_header(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        self._expect(tmp_path, data[:6])

    def test_trailing_bytes(self, tmp_path):
        data = self._valid_bytes(tmp_path) + b"\x00\x01"
        self._expect(tmp_path, data, offset=len(data) - 2)

    def test_bad_dtype_tag(self, tmp_path):
        # entry layout after 9-byte header: name_len(2) + name(1) + dtype(1)...
        data = self._valid_bytes(tmp_path)
        data[12] = 7
        self._expect(tmp_path, data, offset=12)

    def test_duplicate_names(self, tmp_path):
        path = str(tmp_path / "dup_src.fpqt")
        write_tensors(path, {"a": np.array([1.0]), "b": np.array([2.0])})
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        idx = data.find(b"b", 9)
        data[idx] = ord("a")
        self._expect(tmp_path, data)

    def test_non_finite_payload(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        payload_offset = len(data) - 8
        data[payload_offset : payload_offset + 4] = struct.pack("<f", np.nan)
        self._expect(tmp_path, data, offset=payload_offset)

    def test_bad_utf8_name(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        data[11] = 0xFF  # the one-byte name "a"
        self._expect(tmp_path, data, offset=11)

    def test_empty_entry_with_oversized_dims(self, tmp_path):
        # dims (0, 2**62): no payload bytes, but no array can take that shape
        data = bytearray(b"FPQT\x01" + struct.pack("<IH", 1, 1) + b"e")
        data += struct.pack("<BB2Q", 0, 2, 0, 2**62)
        self._expect(tmp_path, data, offset=14)

    @pytest.mark.parametrize("ndim", [65, 255])
    def test_more_dims_than_numpy_allows(self, tmp_path, ndim):
        # dims all 1 and a 4-byte payload: only the dim count is at fault
        data = bytearray(b"FPQT\x01" + struct.pack("<IH", 1, 1) + b"e")
        data += struct.pack(f"<BB{ndim}Q", 0, ndim, *[1] * ndim) + struct.pack("<f", 1.0)
        self._expect(tmp_path, data, offset=14)

    def test_thirty_two_dims_read(self, tmp_path):
        path = str(tmp_path / "deep.fpqt")
        write_tensors(path, {"e": np.ones((1,) * 32)})
        assert read_tensors(path)["e"].shape == (1,) * 32

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_tensors(str(tmp_path / "does_not_exist.fpqt"))


class TestStreaming:
    def _write(self, tmp_container, rng):
        path = tmp_container()
        ts = {"v": rng.standard_normal(5), "m": rng.standard_normal((3, 4)), "s": np.array(2.5)}
        write_tensors(path, ts)
        return path, ts

    def test_entries_come_in_file_order(self, tmp_container, rng):
        path, ts = self._write(tmp_container, rng)
        for (name, arr), (want_name, want) in zip(iter_tensors(path), ts.items(), strict=True):
            assert name == want_name and arr.dtype == np.float64
            np.testing.assert_array_equal(arr, want.astype(np.float32))

    def test_trailing_bytes_found_once_the_stream_is_drained(self, tmp_container, rng):
        path, ts = self._write(tmp_container, rng)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        stream = iter_tensors(path)
        assert [next(stream)[0] for _ in ts] == list(ts)
        with pytest.raises(FormatError, match="trailing"):
            next(stream)

    def test_abandoned_stream_closes_its_file(self, tmp_container, rng, monkeypatch):
        path, _ = self._write(tmp_container, rng)
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(tensors, "open", recording_open, raising=False)
        stream = iter_tensors(path)
        next(stream)
        assert not opened[0].closed
        stream.close()
        assert opened[0].closed


class TestAtomicWrite:
    def _entries(self, *names, fail_after=None):
        for i, name in enumerate(names):
            if i == fail_after:
                raise FormatError("bad input entry", 0)
            yield name, np.arange(3.0) + i

    def test_failure_leaves_existing_output_and_no_temp_file(self, tmp_path):
        path = str(tmp_path / "out.fpqt")
        write_tensors(path, {"old": np.ones(2)})
        before = Path(path).read_bytes()
        for bad in (self._entries("a", "b", fail_after=1),
                    self._entries("a", "b", "a"),
                    iter([("a", np.ones(2)), ("b", np.array([np.nan]))])):
            with pytest.raises((FormatError, ValueError, NumericalError)):
                _write_entries(path, bad)
            assert Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["out.fpqt"]

    def test_failure_creates_no_output(self, tmp_path):
        path = str(tmp_path / "out.fpqt")
        with pytest.raises(FormatError):
            _write_entries(path, self._entries("a", fail_after=0))
        assert os.listdir(tmp_path) == []

    def test_duplicate_name_rejected(self, tmp_container):
        with pytest.raises(ValueError, match="duplicate"):
            _write_entries(tmp_container(), self._entries("a", "a"))

    def test_value_beyond_float32_rejected(self, tmp_container):
        with pytest.raises(NumericalError):
            write_tensors(tmp_container(), {"a": np.array([1.0, 1e39])})

    def test_name_beyond_the_u16_length_field_rejected(self, tmp_path):
        path = str(tmp_path / "out.fpqt")
        write_tensors(path, {"old": np.ones(2)})
        before = Path(path).read_bytes()
        write_tensors(str(tmp_path / "max.fpqt"), {"é" * 0x7FFF + "a": np.ones(1)})  # 65,535 bytes
        with pytest.raises(ValueError, match="^tensor name too long: 65536 bytes$"):
            write_tensors(path, {"a": np.ones(2), "é" * 0x8000: np.ones(1)})
        assert Path(path).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["max.fpqt", "out.fpqt"]

    def test_temp_name_collision_draws_again(self, tmp_path, monkeypatch):
        path = tmp_path / "out.fpqt"
        taken = tmp_path / f".out.fpqt.{bytes(4).hex()}.tmp"
        taken.write_bytes(b"someone else's")
        draws = iter([bytes(4), b"\x01" * 4])
        monkeypatch.setattr(tensors.os, "urandom", lambda k: next(draws))
        write_tensors(str(path), {"a": np.ones(2)})
        assert next(draws, None) is None  # the taken name was drawn, then a free one
        assert list(read_tensors(str(path))) == ["a"]
        assert taken.read_bytes() == b"someone else's"
        assert sorted(os.listdir(tmp_path)) == [taken.name, "out.fpqt"]

    def test_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_tensors(str(tmp_path / "new.fpqt"), {"a": np.ones(1)})
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "new.fpqt").st_mode) == 0o640

    def test_symlink_target_is_replaced_and_link_kept(self, tmp_path):
        target, link = tmp_path / "target.fpqt", tmp_path / "link.fpqt"
        write_tensors(str(target), {"old": np.ones(1)})
        link.symlink_to(target)
        write_tensors(str(link), {"new": np.ones(1)})
        assert link.is_symlink() and list(read_tensors(str(target))) == ["new"]

    def test_non_regular_target_refused(self, tmp_path):
        with pytest.raises(FileExistsError, match="not a regular file"):
            write_tensors(str(tmp_path), {"a": np.ones(1)})
        assert os.listdir(tmp_path) == []


# derandomized: the same examples on every run, and no example database on disk
_FUZZ_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_entry_shapes = st.lists(st.integers(0, 3), min_size=0, max_size=3).map(tuple)


@st.composite
def _containers(draw):
    """Bytes of a valid 3-entry container with small random shapes."""
    names = draw(st.lists(st.text(min_size=0, max_size=4), min_size=3, max_size=3, unique=True))
    shapes = draw(st.lists(_entry_shapes, min_size=3, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {name: rng.standard_normal(shape) for name, shape in zip(names, shapes)}


def _parse(path):
    """Read the container at path; read_tensors may raise FormatError, with
    an offset, and nothing else."""
    try:
        read_tensors(path)
    except FormatError as exc:
        assert isinstance(exc.offset, int) and exc.offset >= 0


class TestContainerFuzz:
    @_FUZZ_SETTINGS
    @given(_containers())
    def test_every_strict_prefix_is_a_format_error(self, tmp_path, ts):
        path = str(tmp_path / "fuzz.fpqt")
        write_tensors(path, ts)
        data = Path(path).read_bytes()
        assert list(read_tensors(path)) == list(ts)
        for cut in range(len(data)):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            with pytest.raises(FormatError) as exc:
                read_tensors(path)
            assert 0 <= exc.value.offset <= cut

    @_FUZZ_SETTINGS
    @given(_containers(), st.data())
    def test_flipped_byte_parses_or_is_a_format_error(self, tmp_path, ts, data):
        path = str(tmp_path / "fuzz.fpqt")
        write_tensors(path, ts)
        raw = bytearray(Path(path).read_bytes())
        for _ in range(8):
            at = data.draw(st.integers(0, len(raw) - 1))
            flip = data.draw(st.integers(1, 255))
            raw[at] ^= flip
            with open(path, "wb") as fh:
                fh.write(raw)
            _parse(path)
            raw[at] ^= flip
