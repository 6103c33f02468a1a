"""The snap kernel and its callers in float32, the container's width.

Where _fits says float32 holds every point of the grids, a _Grid made for
float32 gives, bit for bit and sign of zero included, what the float64
snap and the scalar oracle give for the same float32 values.  channel_bias,
spread_indicator, sqnr and quant_error read a float32 array without a
float64 copy and return what they return for its float64 upcast, and the
container writer stores a float32 array as it stores its upcast.  fpqt
quantize snaps in float32 exactly where _fits holds.
"""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpqt import cli
from fpqt.errors import NumericalError
from fpqt.formats import FpFormat, parse_format
from fpqt.quantize import _fits, _Grid, channel_bias, minmax_quantize, quant_error, sqnr
from fpqt.select import spread_indicator
from fpqt.tensors import _iter_entries, read_tensors, write_tensors
from oracles import oracle_snap

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
F32 = np.finfo(np.float32)
E2M1 = FpFormat(2, 1)


def _bits(x: np.ndarray) -> bytes:
    """The float64 bytes of x, so -0.0 and +0.0 differ."""
    return np.asarray(x, dtype=np.float64).tobytes()


def _bias_range(fmt: FpFormat) -> tuple[int, int]:
    """The biases at which float32 holds fmt's grid: lowest step 2^(b + 1 - n_m)
    at least 2^-149, ceiling max_val * 2^b below 2^128."""
    return fmt.n_m - 150, F32.maxexp - math.frexp(fmt.max_val)[1]


def _float32_values(rng, fmt: FpFormat, bias: np.ndarray, rows: int) -> np.ndarray:
    """rows x len(bias) float32 values around each column's grid: random magnitudes
    from below the lowest step to above the ceiling, exact ties (k + 1/2) 2^s and
    their float32 neighbours, the ramp's near-tie (1/2 - 2^-25) 2^lo, float32
    subnormals, the largest float32, signed zeros and small negatives."""
    lo = bias + 1 - fmt.n_m
    top = np.array([math.frexp(fmt.max_val)[1] + int(b) for b in bias])  # ceiling < 2^top
    cols = []
    for c in range(bias.size):
        exps = rng.integers(lo[c] - 3, min(top[c] + 3, F32.maxexp), size=rows)
        mags = np.ldexp(rng.uniform(0.5, 1.0, rows), exps)
        # ties on the ramp (spacing 2^lo) or a level (2^(lo + e - 1)), where float32 holds them
        s = lo[c] + rng.integers(0, 1 << fmt.n_e, size=rows)
        j = rng.integers(0, 1 << (fmt.n_m + 1), size=rows)
        ties = np.ldexp(2.0 * j + 1.0, s - 1)
        ties = ties[ties < F32.max]
        ties = ties[ties.astype(np.float32) == ties].astype(np.float32)
        special = [0.0, -0.0, -math.ldexp(1.0, int(lo[c]) - 2), F32.max, -F32.max,
                   F32.smallest_subnormal, -3 * F32.smallest_subnormal, F32.smallest_normal]
        if lo[c] >= -124:  # the float32 just below 1/2 a ramp step
            special.append(math.ldexp(0.5 - 2.0**-25, int(lo[c])))
        col = np.concatenate([
            np.asarray(mags, np.float32), ties, np.nextafter(ties, np.float32(0)),
            np.nextafter(ties, np.float32(np.inf)), np.asarray(special, np.float32),
            rng.integers(1, 1 << 23, size=4) * np.float32(F32.smallest_subnormal)])
        col = col[np.isfinite(col)]
        col = np.resize(rng.permutation(col), rows)
        cols.append(np.where(rng.random(rows) < 0.5, -col, col))
    return np.stack(cols, axis=1).astype(np.float32)


@st.composite
def float32_grids(draw, max_grid_bits: int = 23):
    """(fmt, bias, x): a format with n_m <= 23 and at most max_grid_bits code
    bits, biases inside _bias_range (some at its edges), and float32 values."""
    n_m = draw(st.integers(0, min(23, max_grid_bits - 1)))
    n_e = draw(st.integers(1, min(8, max_grid_bits - n_m)))
    fmt = FpFormat(n_e, n_m)
    low, high = _bias_range(fmt)
    if low > high:  # no bias fits: the ceiling's level needs more than float32's range
        fmt = FpFormat(1, n_m)
        low, high = _bias_range(fmt)
    edge = st.sampled_from([low, high, low + 1, high - 1])
    bias = np.array(draw(st.lists(st.one_of(edge, st.integers(low, high)), min_size=1, max_size=4)))
    bias = np.clip(bias, low, high)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return fmt, bias, _float32_values(rng, fmt, bias, draw(st.integers(1, 40)))


def _snap(x: np.ndarray, fmt: FpFormat, bias: np.ndarray, dtype) -> np.ndarray:
    src = x.astype(dtype)
    return _Grid(fmt, bias, dtype).snap(src, np.empty_like(src))


class TestFloat32Kernel:
    @_SETTINGS
    @given(float32_grids())
    def test_equals_the_float64_snap(self, case):
        fmt, bias, x = case
        assert _fits(fmt, bias, np.float32)
        got = _snap(x, fmt, bias, np.float32)
        assert got.dtype == np.float32
        assert _bits(got) == _bits(_snap(x, fmt, bias, np.float64))

    @_SETTINGS
    @given(float32_grids(max_grid_bits=9))
    def test_equals_the_oracle_snap(self, case):
        fmt, bias, x = case
        want = oracle_snap(x, fmt.n_e, fmt.n_m, bias)
        want = np.where(x < 0, -np.abs(want), np.abs(want))  # the snap's sign is x < 0
        assert _bits(_snap(x, fmt, bias, np.float32)) == _bits(want)

    @pytest.mark.parametrize("fmt", [E2M1, FpFormat(3, 0), FpFormat(1, 22), FpFormat(7, 23)],
                             ids=str)
    def test_ties_and_the_unit_value_below_one_half(self, fmt):
        # on the ramp (spacing 2^lo) ties (k + 1/2) 2^lo round away from zero, and
        # (1/2 - 2^-25) 2^lo, the float32 below the first tie, rounds to zero
        low, high = _bias_range(fmt)
        for b in sorted({max(low, min(high, -20)), max(low, -124 + fmt.n_m - 1), high}):
            lo = b + 1 - fmt.n_m
            k = np.arange(min(8, 1 << fmt.n_m), dtype=np.float64)
            x = np.ldexp(np.concatenate([k + 0.5, -(k + 0.5)]), lo)
            if lo >= -124:
                x = np.append(x, [math.ldexp(0.5 - 2.0**-25, lo), -math.ldexp(0.5 - 2.0**-25, lo)])
            x = x[x.astype(np.float32) == x].astype(np.float32)
            bias = np.array([b])
            got = _snap(x[:, None], fmt, bias, np.float32)[:, 0]
            assert _bits(got) == _bits(_snap(x[:, None], fmt, bias, np.float64)[:, 0])
            half = np.abs(x.astype(np.float64)) / math.ldexp(1.0, lo)
            want = np.copysign(np.floor(half + 0.5), x) * math.ldexp(1.0, lo)
            want = np.where(x < 0, -np.abs(want), np.abs(want))
            assert _bits(got) == _bits(want), b

    @pytest.mark.parametrize("bias,x,want", [
        # the finest grid float32 holds: E2M1 at bias -149, {0, 1, 2, 3, 4, 6, 8, 12} 2^-149;
        # ties 5 and 7 round away from zero, 13 and float32's max clamp to the ceiling
        (-149, [0.0, -0.0, 1, -1, 5, -7, 11, 13, 2.0**277, -(2.0**277)],
         [0.0, 0.0, 1, -1, 6, -8, 12, 12, 12, -12]),
        # steps of 2^-140 = 512 subnormals: small negatives round to -0.0, the half step away
        (-140, [-1, -255, -256, 256, 768, 2**23 - 1], [-0.0, -0.0, -512, 512, 1024, 6144]),
    ])
    def test_subnormals_ceiling_and_signed_zeros(self, bias, x, want):
        tiny = F32.smallest_subnormal
        x = np.clip(np.array(x) * tiny, -F32.max, F32.max).astype(np.float32)  # 2^277 tiny: the max
        bias = np.array([bias])
        got = _snap(x, E2M1, bias, np.float32)
        assert _bits(got) == _bits(np.array(want) * tiny)
        assert _bits(got) == _bits(_snap(x, E2M1, bias, np.float64))

    def test_grid_constants_follow_the_width(self):
        g32, g64 = _Grid(E2M1, np.array([0, 3]), np.float32), _Grid(E2M1, np.array([0, 3]))
        assert g32.vmax.dtype == np.float32 and g64.vmax.dtype == np.float64
        assert g32.half_below == np.float32(0.5 - 2.0**-25) and g32.half_below < 0.5
        assert g64.half_below == 0.5 - 2.0**-54
        assert np.float32(0.5 - 2.0**-54) == 0.5  # why float32 needs its own constant
        assert (g32.min_exp, g64.min_exp) == (-149, -1074)
        assert (g32.sign.dtype, g64.sign.dtype) == (np.int32, np.int64)


class TestFitBoundary:
    @pytest.mark.parametrize("fmt", [E2M1, FpFormat(5, 23), FpFormat(3, 0)], ids=str)
    def test_lowest_step_and_ceiling(self, fmt):
        low, high = _bias_range(fmt)
        # steps of 2^-149 and a ceiling below 2^128
        assert _fits(fmt, np.array([low, high]), np.float32)
        assert not _fits(fmt, np.array([low - 1, 0]), np.float32)  # a step of 2^-150
        assert not _fits(fmt, np.array([0, high + 1]), np.float32)  # a ceiling above float32's max
        assert _fits(fmt, np.array([low - 1, high + 1]), np.float64)

    def test_significant_bits(self):
        assert _fits(FpFormat(5, 23), np.array([0]), np.float32)
        assert not _fits(FpFormat(5, 24), np.array([0]), np.float32)
        assert _fits(FpFormat(5, 24), np.array([0]), np.float64)

    @staticmethod
    def quantize(monkeypatch, tmp_path, t, fmt):
        """The widths fpqt quantize snaps t in at --format fmt, its exit code and stderr."""
        seen = []

        class Recording(_Grid):
            def __init__(self, fmt, bias, dtype=np.float64):
                seen.append(np.dtype(dtype))
                super().__init__(fmt, bias, dtype)

        monkeypatch.setattr(cli, "_Grid", Recording)
        src, dst = str(tmp_path / "in.fpqt"), str(tmp_path / "out.fpqt")
        write_tensors(src, {"t": t})
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["quantize", src, dst, "--format", fmt])
        return seen, code, err.getvalue()

    @pytest.mark.parametrize("t,fmt,width,bias", [
        # E2M1 at bias -149 steps by 2^-149; at -150 by 2^-150, which float32 cannot hold
        ([[12 * 2.0**-149], [2.0**-149], [-(5 * 2.0**-149)]], "E2M1", np.float32, -149),
        ([[6 * 2.0**-149], [2.0**-149], [-(2.0**-148)]], "E2M1", np.float64, -150),
        # 24 significant bits are float32's own: the ceiling (2 - 2^-23) 2^(31 + bias)
        ([[1.0 + 2.0**-23], [-(3.0 - 2.0**-22)], [0.1]], "E5M23", np.float32, -31),
    ])
    def test_the_command_snaps_in_float32_where_it_fits(self, monkeypatch, tmp_path,
                                                         t, fmt, width, bias):
        t = np.array(t, dtype=np.float32).astype(np.float64)
        want = minmax_quantize(t, parse_format(fmt))
        assert want.bias.tolist() == [bias]
        assert self.quantize(monkeypatch, tmp_path, t, fmt)[:2] == ([np.dtype(width)], 0)
        out = read_tensors(tmp_path / "out.fpqt")
        assert out["t.bias"].tolist() == [bias]
        assert _bits(out["t"]) == _bits(want.values.astype(np.float32))

    def test_a_grid_with_25_significant_bits_is_snapped_in_float64_and_checked(
            self, monkeypatch, tmp_path):
        # E5M24's ceiling (2 - 2^-24) 2^(31 + bias) has 25 significant bits, so a
        # value that clamps onto it is refused by the float32 check
        t = np.array([[1.0 + 2.0**-23], [-(3.0 - 2.0**-22)], [0.1]], dtype=np.float32)
        seen, code, err = self.quantize(monkeypatch, tmp_path, t.astype(np.float64), "E5M24")
        assert (seen, code) == ([np.dtype(np.float64)], 1)
        assert "float32 storage would move off the grid" in err


class TestCallersReadFloat32:
    @staticmethod
    def pool(rng, shape) -> np.ndarray:
        """float32 values of many magnitudes, with zeros, subnormals and extremes."""
        x = np.ldexp(rng.standard_normal(shape), rng.integers(-150, 120, shape)).astype(np.float32)
        x.flat[:6] = [0.0, -0.0, F32.smallest_subnormal, -F32.max, F32.max, F32.smallest_normal]
        return x

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_the_same_bits_as_the_float64_upcast(self, rng, order):
        for shape in [(7,), (40, 9), (3, 50, 4), (70000,)]:
            x = np.asarray(self.pool(rng, shape), order=order)
            wide = x.astype(np.float64)
            for alpha in (1.0, 25.0, 99.0):
                assert spread_indicator(x, alpha) == spread_indicator(wide, alpha)
            for axis in (None, -1, 0):
                assert np.array_equal(channel_bias(x, E2M1, axis), channel_bias(wide, E2M1, axis))
            q = minmax_quantize(wide, E2M1).values.astype(np.float32)
            for a, b in ((x, q), (q, x), (x, x * np.float32(0.75)), (x, np.zeros_like(x))):
                for metric in (sqnr, quant_error):
                    got, want = metric(a, b), metric(a.astype(np.float64), b.astype(np.float64))
                    assert {k: float(v).hex() for k, v in got.items()} == {
                        k: float(v).hex() for k, v in want.items()}

    def test_non_finite_float32_raises_as_float64_does(self):
        x = np.array([1.0, np.inf, 2.0], dtype=np.float32)
        for call in (lambda w: spread_indicator(w), lambda w: channel_bias(w, E2M1),
                     lambda w: sqnr(w, np.ones_like(w)), lambda w: quant_error(np.ones_like(w), w)):
            for w in (x, x.astype(np.float64)):
                with pytest.raises(NumericalError):
                    call(w)

    def test_no_float64_copy_is_made(self, rng):
        x = rng.standard_normal((2048, 1024)).astype(np.float32)  # 8 MiB; its upcast is 16
        q = minmax_quantize(x, E2M1).values.astype(np.float32)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the partition's one float32 |W| copy; the error sums' float64 scratch is
        # three blocks (768 KiB); the peaks are one row
        assert peak(lambda: spread_indicator(x)) <= 1.1 * x.nbytes
        assert peak(lambda: channel_bias(x, E2M1)) <= 0.01 * x.nbytes
        assert peak(lambda: sqnr(x, q)) <= 0.15 * x.nbytes
        assert peak(lambda: quant_error(x, q)) <= 0.15 * x.nbytes

    def test_write_tensors_stores_float32_as_its_upcast(self, rng, tmp_path):
        ts = {"m": self.pool(rng, (33, 17)), "f": np.asfortranarray(self.pool(rng, (5, 8))),
              "v": self.pool(rng, (64,)), "s": np.array(-0.0, dtype=np.float32),
              "e": np.zeros((0, 3), dtype=np.float32), "view": self.pool(rng, (9, 12))[::2, 1::3]}
        narrow, wide = tmp_path / "narrow.fpqt", tmp_path / "wide.fpqt"
        write_tensors(narrow, ts)
        write_tensors(wide, {k: v.astype(np.float64) for k, v in ts.items()})
        assert narrow.read_bytes() == wide.read_bytes()

    def test_the_float32_stream_yields_the_stored_values(self, rng, tmp_path):
        path = tmp_path / "t.fpqt"
        ts = {"m": self.pool(rng, (6, 5)), "s": np.array(2.5, dtype=np.float32)}
        write_tensors(path, ts)
        for (name, got), (want_name, want) in zip(_iter_entries(path, np.float32), ts.items(),
                                                  strict=True):
            assert name == want_name and got.dtype == np.float32
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
