"""Property tests of the quantizers: random formats against the scalar grid
oracle, and the exact symmetries the quantizers promise.

MinMax and GPTQ snap with exact power-of-two arithmetic, so scaling a
tensor by 2^k (well inside float64's normal range) scales every result by
2^k bit for bit and shifts every bias by k; GPTQ's error feedback depends
on the calibration set only through ratios of its Cholesky factor, so
scaling that set by 2^b as well changes nothing else.  Each output channel
is quantized on its own, so permuting channels permutes the results.  Both
error-metric entries, quant_error and sqnr, give the bits of a frozen
reference that reads every peak before any sum, float32 operands the bits
of their float64 upcast, but for the sqnr_db and cosine that reference
loses at extreme magnitude gaps: there they give those of exact sums.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fpqt import quantize
from fpqt.errors import NumericalError
from fpqt.formats import BiasedFormat, FpFormat, grid
from fpqt.gptq import CalibrationSet, gptq_quantize
from fpqt.quantize import channel_bias, minmax_quantize, quant_error, sqnr
from oracles import byte_reference_quant_error, oracle_grid, oracle_nearest

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


class TestQuantErrorCosine:
    @_PROPERTY_SETTINGS
    @given(hnp.arrays(np.float64, st.integers(1, 49), elements=_BANDS["normal"]))
    # the sums of [1, 2] against itself give 5 / (sqrt(5) * sqrt(5)) = 1 - 2^-52
    @example(np.array([1.0, 2.0]))
    def test_identical_opposite_and_near_identical(self, a):
        assert quant_error(a, a.copy())["cosine"] == 1.0
        nonzero = bool(a.any())
        opposite = quant_error(a, -a)["cosine"]
        assert -1.0 <= opposite <= -1.0 + 1e-12 if nonzero else opposite == 1.0
        near = quant_error(a, a * (1.0 + 1e-15))["cosine"]
        assert 1.0 - 1e-12 <= near <= 1.0


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



def _exact_sums(a, q) -> tuple[int, int, int, int]:
    """Sums of a^2, q^2, a*q and (a - q)^2, exact, as integers in units of 2^-2148:
    every float64 is an integer multiple of 2^-1074."""
    scaled = lambda x: [n * (1 << 1074) // d for n, d in map(float.as_integer_ratio, np.ravel(x).tolist())]
    av, qv = scaled(np.asarray(a, dtype=np.float64)), scaled(np.asarray(q, dtype=np.float64))
    return (sum(x * x for x in av), sum(y * y for y in qv), sum(x * y for x, y in zip(av, qv)),
            sum((x - y) ** 2 for x, y in zip(av, qv)))


def exact_sqnr_db(a, q) -> float:
    """10 log10(sum a^2 / sum (a - q)^2) by math.log10 of the exact sums."""
    saa, _, _, sdd = _exact_sums(a, q)
    return 10.0 * (math.log10(saa) - math.log10(sdd))


def exact_cosine(a, q) -> float:
    """sum a*q / sqrt(sum a^2 * sum q^2) from the exact sums: its square is
    rounded once, then its square root."""
    saa, sqq, saq, _ = _exact_sums(a, q)
    return (-1.0 if saq < 0 else 1.0) * math.sqrt(float(Fraction(saq * saq, saa * sqq)))


def reference_defects(a, q) -> tuple[bool, bool]:
    """Whether the byte reference's sqnr_db, and its cosine, can carry the defects
    quant_error mends, with a margin of two binades: sqnr_db where its quotient
    of sums is not a normal float64 or a's squares can be subnormal after the
    joint scaling, cosine where a's or q's squares can be.  Both are False when
    a or q is all zeros or a equals q, where the sentinels hold."""
    a, q = np.asarray(a, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if not np.any(a) or not np.any(q) or np.array_equal(a, q):
        return False, False
    ka, kq = (math.frexp(float(np.abs(x).max()))[1] for x in (a, q))
    k = max(ka, kq) if abs(max(ka, kq)) > 256 else 0
    ed = math.frexp(float(np.abs(np.ldexp(a, -k) - np.ldexp(q, -k)).max()))[1]
    kd = ed if abs(ed) > 256 else 0
    # the reference's quotient, sum (2^-k a)^2 / sum (2^-(k + kd) (a - q))^2, is at least
    # 2^(2 (ka - k - 1)) / (size 2^(2 (ed - kd))); only below that bound are exact sums read
    low = 2 * (ka - k - 1) - math.log2(a.size) - 2 * (ed - kd) < -1020
    tiny_quotient = low and exact_sqnr_db(a, q) / (10.0 * math.log10(2.0)) + 2 * kd < -1020
    return tiny_quotient or ka - k <= -509, min(ka, kq) - k <= -509


def assert_error_metrics_match_the_byte_reference(a, q):
    """quant_error and sqnr give the reference's floats, bit for bit, but for
    the metrics the reference gets wrong: where its quotient of sums leaves
    float64 its sqnr_db is -inf, or +inf for a nonzero signal, and where that
    quotient or a's squares can be subnormal (reference_defects) it loses
    bits, so the entries give exact_sqnr_db instead; where a's or q's squares
    can be subnormal it loses the cosine, and quant_error gives exact_cosine."""
    bits = lambda metrics: {key: float(v).hex() for key, v in metrics.items()}
    with np.errstate(divide="ignore"):  # the reference's log10 of a quotient that sank to 0
        want = bits(byte_reference_quant_error(a, q))
    got, got_sqnr = quant_error(a, q), sqnr(a, q)
    sqnr_defect, cosine_defect = reference_defects(a, q)
    if sqnr_defect or (math.isinf(float.fromhex(want["sqnr_db"])) and np.any(a) and np.any(a != q)):
        true_db = exact_sqnr_db(a, q)
        for entry in (got, got_sqnr):
            assert math.isclose(entry.pop("sqnr_db"), true_db, rel_tol=1e-12)
        del want["sqnr_db"]
    if cosine_defect:  # sum a*q rounds by about n eps of |a| |q| (Cauchy-Schwarz): abs_tol
        assert math.isclose(got.pop("cosine"), exact_cosine(a, q), rel_tol=1e-12, abs_tol=1e-12)
        del want["cosine"]
    assert bits(got) == want
    assert bits(got_sqnr) == {key: want[key] for key in ("mse", "sqnr_db") if key in want}


@st.composite
def error_pairs(draw):
    """(a, q) of 1 to 3 dims, up to 8 blocks, each C- or Fortran-ordered, with
    magnitudes 2^-600 to 2^600 spread over up to 2^+-30 around a drawn center:
    q is a's snap, a's relative perturbation, a plus an error of any magnitude,
    an independent tensor, zeros, or a itself."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=64))
    center, spread = draw(st.integers(-600, 600)), draw(st.integers(0, 30))
    exps = np.clip(center + rng.integers(-spread, spread + 1, shape), -600, 600)
    a = np.ldexp(rng.standard_normal(shape), exps)
    tiny_or_huge = lambda: np.ldexp(rng.standard_normal(shape), draw(st.integers(-600, 600)))
    q = {
        "snap": lambda: minmax_quantize(a, draw(formats()), channel_axis=None).values,
        "near": lambda: a * (1.0 + np.ldexp(rng.standard_normal(shape), -draw(st.integers(1, 52)))),
        "error": lambda: a + tiny_or_huge(),
        "other": tiny_or_huge,
        "zeros": lambda: np.zeros(shape),
        "same": a.copy,
    }[draw(st.sampled_from(["snap", "near", "error", "other", "zeros", "same"]))]()
    order = lambda x: np.asfortranarray(x) if draw(st.booleans()) else x
    return order(a), order(q)


@st.composite
def float32_error_pairs(draw):
    """error_pairs in float32, the width fpqt quantize measures in: magnitudes
    2^-149 (float32's least subnormal) to 2^124 spread over up to 2^+-30 around
    a drawn center, and q a's snap, a's relative perturbation, a plus an error
    of any float32 magnitude, an independent tensor, zeros, or a itself."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=64))
    center, spread = draw(st.integers(-149, 124)), draw(st.integers(0, 30))
    normal = lambda exps: np.ldexp(rng.standard_normal(shape), np.clip(exps, -149, 124))
    a = normal(center + rng.integers(-spread, spread + 1, shape))
    tiny_or_huge = lambda: normal(draw(st.integers(-149, 124)))
    q = {
        "snap": lambda: minmax_quantize(a, draw(formats()), channel_axis=None).values,
        "near": lambda: a * (1.0 + np.ldexp(rng.standard_normal(shape), -draw(st.integers(1, 23)))),
        "error": lambda: a + tiny_or_huge(),
        "other": tiny_or_huge,
        "zeros": lambda: np.zeros(shape),
        "same": a.copy,
    }[draw(st.sampled_from(["snap", "near", "error", "other", "zeros", "same"]))]()
    order = lambda x: np.asfortranarray(x) if draw(st.booleans()) else x
    return order(a.astype(np.float32)), order(q.astype(np.float32))


def _edge(value: float, size: int = 64) -> np.ndarray:
    """size values with peak magnitude exactly value, the others below it."""
    a = np.random.default_rng(5).uniform(-1.0, 1.0, size) * value
    a[0] = value
    return a


_BELOW = lambda x: float(np.nextafter(x, 0.0))
_PEAKS = [2.0**256, _BELOW(2.0**256), 2.0**-257, _BELOW(2.0**-257)]


class TestErrorMetricsAgainstByteReference:
    """quant_error reads the exact peak first, as the reference does; sqnr forms
    its sums first and reads the peak only outside bounds that prove it needs
    no scaling.  These pin that both entries give the reference's bits, and
    the exact sums' sqnr_db and cosine where the reference loses them."""

    @settings(_PROPERTY_SETTINGS, max_examples=150)
    @given(error_pairs())
    # signal / mse sinks below float64's least subnormal: log10(0) was -inf with a RuntimeWarning
    @example((np.array([6.47203554e-86]), np.array([-6.11867925e+76])))
    def test_random_shapes_orders_and_magnitudes(self, pair):
        assert_error_metrics_match_the_byte_reference(*pair)

    @settings(_PROPERTY_SETTINGS, max_examples=100)
    @given(st.integers(1, 40), st.integers(-1000, 1000), st.integers(-1000, 1000),
           st.sampled_from(["other", "error"]), st.integers(0, 2**32 - 1))
    def test_magnitude_ratios_up_to_two_to_the_thousand(self, size, center, gap, kind, seed):
        # a and q (or a and the error a - q) apart by up to 2^1000: the quotient of the
        # sums leaves float64 once the gap passes about 2^511, and a's squares can sink to zero
        rng = np.random.default_rng(seed)
        a = np.ldexp(rng.standard_normal(size), center)
        other = np.ldexp(rng.standard_normal(size), np.clip(center + gap, -1000, 1000))
        q = other if kind == "other" else a + other
        assert_error_metrics_match_the_byte_reference(a, q)
        if np.any(a) and np.any(a != q):  # neither the zero-error nor the zero-signal sentinel
            assert math.isfinite(quant_error(a, q)["sqnr_db"])

    @settings(_PROPERTY_SETTINGS, max_examples=100)
    @given(st.integers(1, 40), st.integers(-20, 20), st.integers(-1000, 1000), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_cosine_at_magnitude_gaps_up_to_two_to_the_thousand(self, size, center, gap, flip, seed):
        # q is a scaled by 2^gap and by factors in [1/2, 2], so every product a_i q_i has
        # one sign and the cosine lies far from 0; beyond a gap of about 2^511 the smaller
        # tensor's squares sink after the joint scaling, and its cosine read 0.0
        rng = np.random.default_rng(seed)
        a = np.ldexp(rng.standard_normal(size), center)
        q = np.ldexp(a * rng.uniform(0.5, 2.0, size), gap) * (-1.0 if flip else 1.0)
        assert math.isclose(quant_error(a, q)["cosine"], exact_cosine(a, q), rel_tol=1e-12)

    def test_parallel_tensors_far_apart_have_cosine_one(self):
        assert quant_error(np.full(4, 2.0**-530), np.full(4, 2.0**500))["cosine"] == 1.0

    @settings(_PROPERTY_SETTINGS, max_examples=100)
    @given(st.sampled_from([(-300, -260, 250), (70, 90, 600), (-530, -510, -255)]),
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_sqnr_db_where_the_quotient_or_a_s_squares_are_subnormal(self, regime, size, seed):
        # a 2^-300 to 2^-260 beside q near 2^250: the quotient of the sums is subnormal;
        # a near 2^80 beside q near 2^600, and a near 2^-520 beside q near 2^-256: a's
        # squares are subnormal after the joint scaling, beside a subnormal and a normal
        # quotient.  Dividing the sums there read sqnr_db up to 1e-4 off (relative), and
        # the cosine from the jointly scaled sums up to 3e-6 off
        lo, hi, q_exp = regime
        rng = np.random.default_rng(seed)
        a = np.ldexp(rng.standard_normal(size), rng.integers(lo, hi + 1))
        q = np.ldexp(rng.uniform(0.5, 1.0, size) * rng.choice([-1.0, 1.0], size), q_exp)
        got = quant_error(a, q)
        assert math.isclose(got["sqnr_db"], exact_sqnr_db(a, q), rel_tol=1e-12)
        assert math.isclose(got["cosine"], exact_cosine(a, q), rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(sqnr(a, q)["sqnr_db"], exact_sqnr_db(a, q), rel_tol=1e-12)

    @settings(_PROPERTY_SETTINGS, max_examples=100)
    @given(float32_error_pairs())
    def test_float32_pairs_give_the_bits_of_their_float64_upcast(self, pair):
        # the reference reads the float64 upcast; the entries read float32 as it is
        a, q = pair
        assert_error_metrics_match_the_byte_reference(a, q)
        assert_error_metrics_match_the_byte_reference(a, q.astype(np.float64))  # a mixed pair

    @pytest.mark.parametrize("peak", _PEAKS, ids=float.hex)
    def test_peak_at_the_scaling_edge(self, peak):
        a = _edge(peak)
        for q in (minmax_quantize(a, FpFormat(2, 1), channel_axis=None).values, a * 0.75, -a):
            assert_error_metrics_match_the_byte_reference(a, q)
            assert_error_metrics_match_the_byte_reference(q, a)  # the peak in q alone
        assert_error_metrics_match_the_byte_reference(a / 2, -a / 2)  # in a - q alone

    @pytest.mark.parametrize("total", [2.0**508, 2.0**512], ids=float.hex)
    @pytest.mark.parametrize("terms", [1, 4])
    def test_sum_of_squares_at_the_window_edge(self, total, terms):
        a = np.full(terms, math.sqrt(total / terms))  # sum a^2 is total
        assert_error_metrics_match_the_byte_reference(a, a * 0.75)
        assert_error_metrics_match_the_byte_reference(a * 0.75, a)  # sum q^2 is total
        assert_error_metrics_match_the_byte_reference(a / 2, -a / 2)  # sum (a - q)^2 is total

    def test_small_value_among_many_zeros_is_refused(self, monkeypatch):
        # sum a^2 is 2^-500, below size * 2^-513 = 2^-499, so the window cannot
        # prove the peak reaches 2^-257 and the exact peak is read
        a = np.zeros(2**14)
        a[123] = 2.0**-250
        reads = []
        peak_exponents = quantize._peak_exponents
        monkeypatch.setattr(quantize, "_peak_exponents", lambda a, q: reads.append(1) or peak_exponents(a, q))
        for q in (np.zeros_like(a), a / 2):
            assert_error_metrics_match_the_byte_reference(a, q)
            assert len(reads) == 2  # once for quant_error and once for sqnr
            reads.clear()

    def test_sqnr_takes_one_lean_pass_inside_the_window(self, monkeypatch):
        a = np.random.default_rng(0).standard_normal((300, 200))
        q = minmax_quantize(a, FpFormat(2, 1)).values
        calls = []
        sums, peak_exponents = quantize._error_sums, quantize._peak_exponents
        monkeypatch.setattr(quantize, "_error_sums", lambda *args, **kw: calls.append(kw) or sums(*args, **kw))
        monkeypatch.setattr(quantize, "_peak_exponents", lambda a, q: calls.append("peak") or peak_exponents(a, q))
        assert_error_metrics_match_the_byte_reference(a, q)
        # quant_error's peak read and one full pass, then sqnr's lean one
        assert calls == ["peak", {}, {"full": False}]

    @pytest.mark.parametrize("same", [True, False], ids=["a_equals_q", "all_zeros"])
    def test_no_error_or_no_signal(self, same):
        a = np.random.default_rng(1).standard_normal((50, 7)) if same else np.zeros((50, 7))
        assert_error_metrics_match_the_byte_reference(a, a.copy())
        assert_error_metrics_match_the_byte_reference(np.zeros_like(a), a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("where", ["a", "q", "both"])
    def test_non_finite_values_raise_the_same_error(self, bad, where):
        a = np.random.default_rng(2).standard_normal(40)
        q = minmax_quantize(a, FpFormat(2, 1)).values.copy()
        for name, x in (("a", a), ("q", q)):
            if where in (name, "both"):
                x[17] = bad
        for entry in (byte_reference_quant_error, quant_error, sqnr):
            with pytest.raises(NumericalError, match="^error metrics of non-finite values are undefined$"):
                entry(a, q)
