import struct

import numpy as np
import pytest

from fpqt.errors import FormatError, NumericalError, ShapeError
from fpqt.tensors import (
    _partitioned_magnitudes,
    channel_max_median_ratio,
    channel_stat,
    read_tensors,
    write_tensors,
)
from oracles import oracle_quantile_nearest_rank


def quantile_nearest_rank(values, alpha):
    """The quantile spread_indicator divides by, read from the partition."""
    flat, k = _partitioned_magnitudes(values, alpha)
    assert (flat[:k] <= flat[k]).all() and (flat[k:] >= flat[k]).all()
    return float(flat[k])


class TestQuantileNearestRank:
    def test_matches_sort_oracle(self, rng):
        for n in (1, 2, 3, 17, 100):
            vals = rng.standard_normal(n)
            for alpha in (1e-9, 10.0, 25.0, 50.0, 75.0, 99.0, 100.0 - 1e-9):
                assert quantile_nearest_rank(vals, alpha) == oracle_quantile_nearest_rank(
                    vals, alpha
                )

    def test_small_alpha_gives_min_large_gives_max(self, rng):
        vals = rng.standard_normal(50)
        mags = np.abs(vals)
        assert quantile_nearest_rank(vals, 1e-12) == mags.min()
        assert quantile_nearest_rank(vals, 100.0 - 1e-12) == mags.max()

    def test_uses_magnitudes(self):
        assert quantile_nearest_rank(np.array([-8.0, 1.0, 2.0]), 99.0) == 8.0

    def test_nearest_rank_convention(self):
        # N = 4, alpha = 25 -> k = ceil(1) = 1 -> smallest magnitude
        assert quantile_nearest_rank(np.array([4.0, 3.0, 2.0, 1.0]), 25.0) == 1.0
        # alpha just above 25 -> k = 2
        assert quantile_nearest_rank(np.array([4.0, 3.0, 2.0, 1.0]), 25.01) == 2.0

    def test_rejects_bad_alpha_and_empty(self):
        with pytest.raises(ValueError):
            quantile_nearest_rank(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            quantile_nearest_rank(np.ones(3), 100.0)
        with pytest.raises(ValueError, match="empty"):
            quantile_nearest_rank(np.array([]), 50.0)

    def test_input_is_untouched(self, rng):
        for vals in (rng.standard_normal((7, 5)), np.abs(rng.standard_normal(35))):
            before = vals.copy()
            quantile_nearest_rank(vals, 40.0)
            assert np.array_equal(vals, before)


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


class TestContainerErrors:
    def _valid_bytes(self, tmp_path):
        path = str(tmp_path / "ok.fpqt")
        write_tensors(path, {"a": np.array([1.0, 2.0])})
        with open(path, "rb") as fh:
            return bytearray(fh.read())

    def _expect(self, tmp_path, data, offset=None):
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

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_tensors(str(tmp_path / "does_not_exist.fpqt"))
