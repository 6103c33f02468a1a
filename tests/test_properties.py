"""Property tests of the quantizers: random formats against the scalar grid
oracle, and the exact symmetries the quantizers promise.

MinMax and GPTQ snap with exact power-of-two arithmetic, so scaling a
tensor by 2^k (well inside float64's normal range) scales every result by
2^k bit for bit and shifts every bias by k; GPTQ's error feedback depends
on the calibration set only through ratios of its Cholesky factor, so
scaling that set by 2^b as well changes nothing else.  Each output channel
is quantized on its own, so permuting channels permutes the results.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fpqt.errors import NumericalError
from fpqt.formats import BiasedFormat, FpFormat, grid
from fpqt.gptq import CalibrationSet, gptq_quantize
from fpqt.quantize import channel_bias, minmax_quantize
from oracles import oracle_grid, oracle_nearest

# derandomized: the same examples on every run, and no example database on disk
_PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_MAX = np.finfo(np.float64).max
_TINY = np.finfo(np.float64).tiny  # smallest normal; below it lie the subnormals


@st.composite
def formats(draw):
    """An ExMy format of 2 to 8 bits."""
    n_bits = draw(st.integers(2, 8))
    n_e = draw(st.integers(1, n_bits - 1))
    return FpFormat(n_e, n_bits - 1 - n_e)


def _magnitudes(lo: float, hi: float) -> st.SearchStrategy:
    mags = st.floats(min_value=lo, max_value=hi, allow_subnormal=lo < _TINY)
    return st.one_of(mags, mags.map(lambda v: -v), st.just(0.0))


# one magnitude band per tensor, so every channel's grid sits in that band
_BANDS = {
    "subnormal": _magnitudes(5e-324, _TINY),
    "normal": _magnitudes(2.0**-30, 2.0**30),
    "near_max": _magnitudes(2.0**1020, _MAX),
}


def oracle_bias(amax: float, fmt: FpFormat) -> int:
    """Largest b with max_val * 2^b <= amax, in exact rational arithmetic;
    0 for an all-zero channel."""
    if amax == 0.0:
        return 0
    b = math.frexp(amax)[1] - math.frexp(fmt.max_val)[1] + 1
    while Fraction(fmt.max_val) * Fraction(2) ** b > Fraction(amax):
        b -= 1
    return b


class TestRandomFormatsAgainstOracleGrid:
    @_PROPERTY_SETTINGS
    @given(formats(), st.sampled_from(sorted(_BANDS)), st.data())
    def test_minmax_is_the_nearest_oracle_grid_point(self, fmt, band, data):
        a = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 3)),
                                 elements=_BANDS[band]))
        biases = [oracle_bias(float(np.abs(a[:, c]).max()), fmt) for c in range(a.shape[1])]
        try:
            q = minmax_quantize(a, fmt, channel_axis=-1)
        except NumericalError:
            # only a grid whose lowest spacing 2^(bias + 1 - n_m) sinks below
            # float64's smallest subnormal 2^-1074 may be refused
            assert min(biases) + 1 - fmt.n_m < -1074
            return
        assert q.bias.tolist() == biases
        for c, b in enumerate(biases):
            levels = oracle_grid(fmt.n_e, fmt.n_m, b)
            assert np.array_equal(grid(BiasedFormat(fmt, b)), levels)
            for x, got in zip(a[:, c], q.values[:, c]):
                assert got == oracle_nearest(float(x), levels), (x, got)


def _same_bits(got, want) -> bool:
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def weights(draw, max_in: int = 80):
    """(in_dim, out_dim) weights with per-column scales 2^-20 .. 2^20, and a
    calibration set of 2 in_dim samples; in_dim may cross GPTQ's block edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    in_dim, out_dim = draw(st.integers(1, max_in)), draw(st.integers(1, 6))
    w = rng.standard_normal((in_dim, out_dim)) * np.exp2(rng.integers(-20, 21, size=out_dim))
    return w, CalibrationSet(rng.standard_normal((2 * in_dim, in_dim)))


def _skewed_gptq_case():
    """60 x 7 weights and 150 calibration samples with one 30x input column."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((150, 60))
    x[:, 5] *= 30
    return rng.standard_normal((60, 7)), CalibrationSet(x)


class TestScaleEquivariance:
    @_PROPERTY_SETTINGS
    @given(formats(), weights(), st.integers(-200, 200), st.sampled_from([-1, 0, None]))
    def test_channel_bias_and_minmax(self, fmt, wc, k, axis):
        w, _ = wc
        scaled = np.ldexp(w, k)
        assert np.array_equal(channel_bias(scaled, fmt, axis), channel_bias(w, fmt, axis) + k)
        q, qs = minmax_quantize(w, fmt, axis), minmax_quantize(scaled, fmt, axis)
        assert np.array_equal(qs.bias, q.bias + k)
        assert _same_bits(qs.values, np.ldexp(q.values, k))

    @_PROPERTY_SETTINGS
    @given(formats(), weights(), st.integers(-800, 800), st.integers(-450, 450))
    # joint scalings that break a sweep dividing by the diagonal of R^-1: the
    # scaled errors overflow (NaN weights) or underflow (plain MinMax rounding)
    @example(FpFormat(2, 1), _skewed_gptq_case(), 846, 374)
    @example(FpFormat(2, 1), _skewed_gptq_case(), -900, -480)
    def test_gptq(self, fmt, wc, k, b):
        w, cal = wc
        q = gptq_quantize(w, cal, fmt)
        qs = gptq_quantize(np.ldexp(w, k), CalibrationSet(np.ldexp(cal.x, b)), fmt)
        assert np.array_equal(qs.bias, q.bias + k)
        assert _same_bits(qs.values, np.ldexp(q.values, k))


class TestColumnPermutationEquivariance:
    @_PROPERTY_SETTINGS
    @given(formats(), weights(), st.randoms(use_true_random=False))
    def test_minmax(self, fmt, wc, random):
        w, _ = wc
        perm = list(range(w.shape[1]))
        random.shuffle(perm)
        q, qp = minmax_quantize(w, fmt), minmax_quantize(w[:, perm], fmt)
        assert np.array_equal(qp.bias, q.bias[perm])
        assert _same_bits(qp.values, q.values[:, perm])

    @_PROPERTY_SETTINGS
    @given(formats(), weights(), st.randoms(use_true_random=False))
    def test_gptq(self, fmt, wc, random):
        w, cal = wc
        perm = list(range(w.shape[1]))
        random.shuffle(perm)
        q, qp = gptq_quantize(w, cal, fmt), gptq_quantize(w[:, perm], cal, fmt)
        assert np.array_equal(qp.bias, q.bias[perm])
        assert _same_bits(qp.values, q.values[:, perm])

