"""The float32 GEMM path of the quantized block forward gives the float64 bytes.

block_forward runs a linear layer as a float32 GEMM of integer forms when
act_quant is given and both operands have one (see fusion.block_forward);
writeable copies of the same weights have no integer form, so they force
the float64 path.  The claim is exactness, so the bytes must not depend on
the BLAS thread count either: CI reruns this file under 2 OpenBLAS threads.
"""

from dataclasses import replace

import numpy as np
import pytest

from fpqt import fusion
from fpqt.fusion import (EXP_WINDOW, F32_UNITS, GEMM_BITS, LAYER_NAMES, WEIGHT_BITS,
                         DiTBlockWeights, _int_form, block_forward)
from fpqt.formats import FpFormat, parse_format
from fpqt.harness import HarnessConfig, gen_activations, init_weights, quantize_block_weights
from fpqt.quantize import minmax_quantize

FORMATS = [parse_format(f) for f in ("E1M2", "E2M1", "E3M0", "E4M3")]
E2M1 = FpFormat(2, 1)


@pytest.fixture
def gemms(monkeypatch):
    """Counts the float32 GEMMs block_forward runs."""
    calls = []

    def spy(a, w):
        calls.append((a.q.shape, w.q.shape))
        return exact_gemm(a, w)

    exact_gemm = fusion._exact_gemm
    monkeypatch.setattr(fusion, "_exact_gemm", spy)
    return calls


def read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def writeable_copy(w: DiTBlockWeights) -> DiTBlockWeights:
    return replace(w, **{name: np.array(m) for name, m in w.matrices().items()})


def to_edge(x: np.ndarray, edge: int | None, axis: int) -> np.ndarray:
    """x scaled by a power of two so that its largest (edge > 0) or smallest
    (edge < 0) nonzero peak exponent along axis is edge."""
    peak = np.abs(x).max(axis=axis, initial=0.0)
    if edge is None or not peak.any():
        return x
    e = np.frexp(peak[peak > 0])[1]
    return np.ldexp(x, edge - (e.max() if edge > 0 else e.min()))


def quantized_block(n, hidden, heads, fmt, edge, seed=0) -> DiTBlockWeights:
    """A block whose matrices sit on per-column fmt grids, read-only, each
    with some -0.0 entries and pushed to the exponent edge."""
    rng = np.random.default_rng(seed)
    mats = {}
    for name, (din, dout) in fusion.layer_shapes(n, hidden).items():
        w = minmax_quantize(rng.standard_normal((din, dout)), fmt).values.copy()
        w[1::3, ::2] = -0.0
        mats[name] = read_only(to_edge(w, edge, 0))
    ln = {name: rng.standard_normal(n) for name in ("ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta")}
    return DiTBlockWeights(**mats, heads=heads, **ln)


def act_quant_for(fmt, axis, edge):
    def act_quant(a, point):
        q = minmax_quantize(a, fmt, channel_axis=axis).values.copy()
        q[::2, 1::3] = -0.0
        q[1:2] = -0.0  # a whole row of -0.0
        return to_edge(q, edge, 1)
    return act_quant


# (activation edge, weight edge): the two on opposite edges of the exponent
# window, both on its lower edge, and one just outside it
EDGES = [(None, None), (EXP_WINDOW, -EXP_WINDOW), (-EXP_WINDOW, EXP_WINDOW),
         (-EXP_WINDOW, -EXP_WINDOW), (EXP_WINDOW + 1, -EXP_WINDOW), (0, -EXP_WINDOW - 1)]


@pytest.mark.parametrize("edges", EDGES, ids=str)
@pytest.mark.parametrize("axis", [0, -1], ids=["per_token", "per_channel"])
@pytest.mark.parametrize("fmt", FORMATS, ids=str)
@pytest.mark.parametrize("dims", [(16, 48, 4), (1, 3584, 1)], ids=["K16_48", "K1_3584"])
def test_quantized_forward_bytes_equal_the_float64_path(gemms, dims, fmt, axis, edges):
    n, hidden, heads = dims
    edge_a, edge_w = edges
    w = quantized_block(n, hidden, heads, fmt, edge_w)
    act_quant = act_quant_for(fmt, axis, edge_a)
    rng = np.random.default_rng(1)
    for tokens in (0, 1, 2, 5):
        x = rng.standard_normal((tokens, n))
        want = block_forward(x, writeable_copy(w), act_quant=act_quant)
        assert not gemms
        assert block_forward(x, w, act_quant=act_quant).tobytes() == want.tobytes(), tokens
        if (tokens and edge_a == EXP_WINDOW + 1) or edge_w == -EXP_WINDOW - 1:
            assert not gemms  # each point, or each matrix, has a line outside the window
        elif axis == 0 and str(fmt) in ("E1M2", "E2M1"):  # need s_a >= 3 and 4
            assert len(gemms) == len(LAYER_NAMES), tokens
        gemms.clear()


@pytest.mark.parametrize("edges", EDGES[:4], ids=str)
def test_serve_shape_takes_the_float32_path_for_every_layer(gemms, edges):
    # serve-w4a4's shape (K = 512 and 1536), weights per column, E2M1 activations per token
    edge_a, edge_w = edges
    cfg = HarnessConfig(n=512, heads=8, hidden=1536, tokens=128, method="rtn", seed=3,
                        hadamard_seed=4)
    fused, online = fusion.fuse_block(init_weights(cfg), cfg.plan)
    qw, _ = quantize_block_weights(cfg, fused, None)
    del fused
    qw = replace(qw, **{name: read_only(to_edge(m, edge_w, 0)) for name, m in qw.matrices().items()})
    act_quant = act_quant_for(E2M1, 0, edge_a)
    x = gen_activations(cfg)
    for tokens in (128, 1, 0):
        want = block_forward(x[:tokens], writeable_copy(qw), online, act_quant=act_quant)
        assert not gemms
        got = block_forward(x[:tokens], qw, online, act_quant=act_quant)
        assert got.tobytes() == want.tobytes(), tokens
        assert len(gemms) == len(LAYER_NAMES), tokens
        gemms.clear()


@pytest.mark.parametrize("dtype", [np.int8, np.float32], ids=["int8", "float32"])
class TestIntForm:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_exponent_window_is_inclusive(self, axis, dtype):
        x = np.array([[3.0, -1.0], [-2.5, 0.5]])
        x = x if axis == 1 else x.T
        for e, has_form in ((EXP_WINDOW, True), (-EXP_WINDOW, True),
                            (EXP_WINDOW + 1, False), (-EXP_WINDOW - 1, False)):
            y = np.ldexp(x, e - 2)  # both lines' peaks, 3 and 2.5 times 2^(e - 2), have exponent e
            form = _int_form(y, 7, axis, dtype)
            assert (form is not None) == has_form, e
            if has_form:
                assert form.q.dtype == dtype and np.abs(form.q).max() < 2**7
                assert np.array_equal(form.q * np.expand_dims(form.scale, axis), y)

    def test_needs_integers_below_two_to_the_bits(self, dtype):
        x = np.array([[12.0, 1.0, 0.5]])  # 12 = 0.75 * 2^4: unit 2^(4 - bits)
        assert _int_form(x, 5, 1, dtype) is not None
        assert _int_form(x, 4, 1, dtype) is None

    def test_a_fraction_a_cast_would_drop_has_no_form(self, dtype):
        x = np.array([[96.0 + 2.0**-30, 1.0]])  # 96 = 0.75 * 2^7: the unit is 1 at bits 7
        assert np.float32(x[0, 0]) == 96.0
        assert _int_form(x, 7, 1, dtype) is None

    def test_a_value_that_would_sink_to_zero_has_no_form(self, dtype):
        # 2^-700 shifted by 7 - 400 lies below the least subnormal
        x = np.array([[2.0**399, 2.0**-700]])
        assert np.ldexp(x, 7 - 400)[0, 1] == 0.0
        assert _int_form(x, 7, 1, dtype) is None

    def test_non_finite_has_no_form(self, dtype):
        for bad in (np.nan, np.inf):
            assert _int_form(np.array([[1.0, bad]]), 7, 1, dtype) is None


class TestWeightForms:
    def test_read_only_weights_keep_int8_forms_filled_per_layer(self):
        w = quantized_block(16, 32, 2, E2M1, None)
        assert w.int_form("w_fc2") is w.int_form("w_fc2")
        assert list(w._int_forms) == ["w_fc2"]
        form = w.int_form("w_fc2")
        assert form.q.dtype == np.int8 and form.q.shape == w.w_fc2.shape
        assert np.array_equal(form.q * form.scale, w.w_fc2)

    def test_writeable_weights_or_views_of_them_have_no_form(self):
        w = quantized_block(16, 32, 2, E2M1, None)
        m = np.array(w.w_q)
        view = m[:]
        view.flags.writeable = False
        for blk in (writeable_copy(w), replace(w, w_q=view)):
            assert blk.int_form("w_q") is None
            assert "w_q" not in blk._int_forms

    def test_a_matrix_made_writeable_again_loses_its_form(self):
        w = quantized_block(16, 32, 2, E2M1, None)
        assert w.int_form("w_q") is not None
        w.w_q.flags.writeable = True  # it owns its data, so numpy allows this
        assert w.int_form("w_q") is None

    def test_weights_off_an_int8_grid_have_no_form(self):
        w = quantized_block(16, 32, 2, parse_format("E4M3"), None)
        assert w.int_form("w_q") is None and w._int_forms == {"w_q": None}


@pytest.fixture
def values_forms(monkeypatch):
    """For each float32 GEMM block_forward runs, whether its input entered as
    its own values (a values form, scale None)."""
    calls = []

    def spy(a, w):
        calls.append(a.scale is None)
        return exact_gemm(a, w)

    exact_gemm = fusion._exact_gemm
    monkeypatch.setattr(fusion, "_exact_gemm", spy)
    return calls


def act_bits(k: int) -> int:
    """s_a for a layer with in_dim k (see block_forward)."""
    return GEMM_BITS - WEIGHT_BITS - (k - 1).bit_length()


# (row unit exponent at the window's edge, whether the values form holds it)
UNIT_EDGES = [(F32_UNITS[0], True), (F32_UNITS[0] - 1, False),
              (F32_UNITS[1], True), (F32_UNITS[1] + 1, False)]


@pytest.mark.parametrize("unit, inside", UNIT_EDGES, ids=lambda v: str(v))
def test_values_form_at_the_float32_window_edges(values_forms, unit, inside):
    # the lowest (or highest) nonzero row unit 2^(e_t - s_a) of every input at the
    # edge, a +0.0 row and a -0.0 row beside it: the float64 bytes on either side,
    # and the values form exactly inside the window
    w = quantized_block(16, 48, 4, E2M1, None)

    def act_quant(a, point):
        q = minmax_quantize(a, E2M1, channel_axis=0).values.copy()
        q[::2, 1::3] = -0.0
        q[1:2], q[2:3] = -0.0, 0.0
        return to_edge(q, unit + act_bits(q.shape[1]), 1)

    x = np.random.default_rng(2).standard_normal((5, 16))
    want = block_forward(x, writeable_copy(w), act_quant=act_quant)
    assert not values_forms
    assert block_forward(x, w, act_quant=act_quant).tobytes() == want.tobytes()
    assert values_forms == [inside] * len(LAYER_NAMES)


@pytest.mark.parametrize("unit, inside", UNIT_EDGES, ids=lambda v: str(v))
@pytest.mark.parametrize("k", [16, 3584])
def test_values_form_gemm_gives_the_float64_product(unit, inside, k):
    rng = np.random.default_rng(k)
    bits = act_bits(k)
    w = minmax_quantize(rng.standard_normal((k, 24)), E2M1).values.copy()
    w[:, 0] = 6.0  # E2M1's ceiling: the int8 form holds 96 all down the column
    # four rows of integers below 2^bits, each peaking at 2^bits - 1, in units at the
    # edge and up to 2^7 inside it, then a +0.0 row and a -0.0 row; the row at the
    # upper edge is 2^bits - 1 throughout, so its sum with column 0 nears 2^128 there
    ints = rng.integers(-2**bits + 1, 2**bits, (4, k)).astype(np.float64)
    ints[:, 0] = 2**bits - 1
    ints[:, 1::5] = -0.0
    ints[3] = 2**bits - 1
    shifts = np.array([0, 0, 3, 7]) - (7 if unit > 0 else 0)
    a = np.vstack([np.ldexp(ints, (unit + shifts)[:, None]), np.zeros(k), np.full(k, -0.0)])
    form = _int_form(a, bits, 1, np.float32)
    assert (form.scale is None) == inside
    if inside:
        assert form.q.dtype == np.float32 and np.array_equal(form.q, a)
    got = fusion._exact_gemm(form, _int_form(w, WEIGHT_BITS, 0, np.int8))
    assert got.tobytes() == (a @ w).tobytes()
