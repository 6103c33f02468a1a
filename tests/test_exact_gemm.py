"""The float32 GEMM path of the quantized block forward gives the float64 bytes.

block_forward runs a linear layer as a float32 GEMM when act_quant is
given, the input's row units lie in F32_UNITS and the weights have an int8
form (see fusion.block_forward); writeable copies of the same weights have
no int8 form, so they force the float64 path.  The claim is exactness, so
the bytes must not depend on the BLAS thread count either: CI reruns this
file under 2 OpenBLAS threads.
"""

from dataclasses import replace

import numpy as np
import pytest

from fpqt import fusion
from fpqt.fusion import (EXP_WINDOW, F32_UNITS, GEMM_BITS, LAYER_NAMES, WEIGHT_BITS,
                         DiTBlockWeights, _int_form, _integer_units, block_forward)
from fpqt.formats import FpFormat, parse_format
from fpqt.harness import HarnessConfig, gen_activations, init_weights, quantize_block_weights
from fpqt.quantize import minmax_quantize

FORMATS = [parse_format(f) for f in ("E1M2", "E2M1", "E3M0", "E4M3")]
E2M1 = FpFormat(2, 1)


@pytest.fixture
def gemms(monkeypatch):
    """The float32 GEMMs block_forward runs: shapes, and whether the input is nonzero."""
    calls = []

    def spy(a, w):
        calls.append((a.shape, w.q.shape, bool(a.any())))
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


def act_bits(k: int) -> int:
    """s_a for a layer with in_dim k (see block_forward)."""
    return GEMM_BITS - WEIGHT_BITS - (k - 1).bit_length()


def act_quant_for(fmt, axis, edge):
    """fmt's snap of each input, some entries -0.0, row 1 all -0.0 and row 2 all
    +0.0, pushed to edge: a peak exponent, or ("unit", u) for the row unit
    2^(e - s_a) of the layer's in_dim."""
    def act_quant(a, point):
        q = minmax_quantize(a, fmt, channel_axis=axis).values.copy()
        q[::2, 1::3] = -0.0
        q[1:2], q[2:3] = -0.0, 0.0
        at = edge[1] + act_bits(q.shape[1]) if isinstance(edge, tuple) else edge
        return to_edge(q, at, 1)
    return act_quant


# (activation edge, weight edge): row units on either edge of F32_UNITS beside weights on
# either edge of the exponent window, then just outside F32_UNITS; activation peak exponents
# on the window's edges and just outside it, and weights just outside it
LOW, HIGH = ("unit", F32_UNITS[0]), ("unit", F32_UNITS[1])
EDGES = [(None, None), (LOW, EXP_WINDOW), (LOW, -EXP_WINDOW), (HIGH, -EXP_WINDOW),
         (("unit", F32_UNITS[0] - 1), EXP_WINDOW), (("unit", F32_UNITS[1] + 1), -EXP_WINDOW),
         (EXP_WINDOW, -EXP_WINDOW), (-EXP_WINDOW, EXP_WINDOW), (EXP_WINDOW + 1, -EXP_WINDOW),
         (0, -EXP_WINDOW - 1)]
INSIDE = EDGES[:4]  # every row unit in F32_UNITS, every weight peak exponent in the window


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
        inside = edges in INSIDE or not tokens
        if edge_w == -EXP_WINDOW - 1:
            assert not gemms  # each matrix has a column outside the window
        elif not inside:  # a nonzero row lies outside F32_UNITS; an all-zero input lies in it
            assert not any(nonzero for *_, nonzero in gemms)
        elif axis == 0 and str(fmt) in ("E1M2", "E2M1"):  # need s_a >= 3 and 4
            assert len(gemms) == len(LAYER_NAMES), tokens
        gemms.clear()


@pytest.mark.parametrize("edges", INSIDE + [EDGES[4], EDGES[6]], ids=str)
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
        inside = edges in INSIDE or not tokens
        assert len(gemms) == (len(LAYER_NAMES) if inside else 0), tokens
        gemms.clear()


class TestIntegerUnits:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_unit_window_is_inclusive(self, axis):
        x = np.array([[3.0, -1.0], [-2.5, 0.5]])
        x = x if axis == 1 else x.T
        lowest, highest = F32_UNITS
        for u, found in ((lowest, True), (highest, True), (lowest - 1, False), (highest + 1, False)):
            y = np.ldexp(x, u + 7 - 2)  # both lines' peaks, 3 and 2.5 times 2^(u + 5), have exponent u + 7
            got = _integer_units(y, 7, axis, F32_UNITS)
            assert (got is not None) == found, u
            if found:
                q, units = got
                assert np.abs(q).max() < 2**7 and np.array_equal(units, [u, u])
                assert np.array_equal(np.ldexp(q, np.expand_dims(units, axis)), y)

    def test_a_zero_line_has_unit_two_to_the_minus_bits(self):
        q, units = _integer_units(np.array([[0.0, -0.0], [3.0, 1.0]]), 7, 1, F32_UNITS)
        assert np.array_equal(units, [-7, -5]) and np.array_equal(q, [[0.0, 0.0], [96.0, 32.0]])


# each finder with a line peak whose shift, 7 - e, is the most negative its window allows
FINDERS = [(lambda x: _int_form(x.T), 2.0**(EXP_WINDOW - 1)),
           (lambda x: _integer_units(x, 7, 1, F32_UNITS), 2.0**(F32_UNITS[1] + 6))]


@pytest.mark.parametrize("find, peak", FINDERS, ids=["int8_columns", "float32_rows"])
class TestIntForm:
    def test_needs_integers_below_two_to_the_bits(self, find, peak):
        x = np.array([[12.0, 1.0, 2.0**-3]])  # 12 = 0.75 * 2^4: the unit is 2^(4 - 7)
        assert find(x) is not None
        assert find(x / [[1.0, 1.0, 2.0]]) is None

    def test_a_fraction_a_cast_would_drop_has_no_form(self, find, peak):
        x = np.array([[96.0 + 2.0**-30, 1.0]])  # 96 = 0.75 * 2^7: the unit is 1 at bits 7
        assert np.float32(x[0, 0]) == 96.0
        assert find(x) is None

    def test_a_value_that_would_sink_to_zero_has_no_form(self, find, peak):
        x = np.array([[peak, 2.0**-1000]])
        assert np.ldexp(x, 7 - np.frexp(peak)[1])[0, 1] == 0.0
        assert find(x[:, :1]) is not None and find(x) is None

    def test_non_finite_has_no_form(self, find, peak):
        for bad in (np.nan, np.inf):
            assert find(np.array([[1.0, bad]])) is None


def test_int8_form_exponent_window_is_inclusive():
    x = np.array([[3.0, -1.0], [-2.5, 0.5]]).T
    for e, has_form in ((EXP_WINDOW, True), (-EXP_WINDOW, True),
                        (EXP_WINDOW + 1, False), (-EXP_WINDOW - 1, False)):
        y = np.ldexp(x, e - 2)  # both columns' peaks, 3 and 2.5 times 2^(e - 2), have exponent e
        form = _int_form(y)
        assert (form is not None) == has_form, e
        if has_form:
            assert form.q.dtype == np.int8 and np.abs(form.q).max() < 2**7
            assert np.array_equal(form.q * form.scale, y)


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


# (row unit exponent at the window's edge, whether the values form holds it)
UNIT_EDGES = [(F32_UNITS[0], True), (F32_UNITS[0] - 1, False),
              (F32_UNITS[1], True), (F32_UNITS[1] + 1, False)]


@pytest.mark.parametrize("unit, inside", UNIT_EDGES, ids=lambda v: str(v))
def test_values_form_at_the_float32_window_edges(gemms, unit, inside):
    # the lowest (or highest) nonzero row unit 2^(e_t - s_a) of every input at the
    # edge, a +0.0 row and a -0.0 row beside it: the float64 bytes on either side,
    # and the float32 GEMM exactly inside the window
    w = quantized_block(16, 48, 4, E2M1, None)
    act_quant = act_quant_for(E2M1, 0, ("unit", unit))
    x = np.random.default_rng(2).standard_normal((5, 16))
    want = block_forward(x, writeable_copy(w), act_quant=act_quant)
    assert not gemms
    assert block_forward(x, w, act_quant=act_quant).tobytes() == want.tobytes()
    assert len(gemms) == (len(LAYER_NAMES) if inside else 0)


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
    assert (_integer_units(a, bits, 1, F32_UNITS) is not None) == inside
    if inside:
        a32 = a.astype(np.float32)
        assert np.array_equal(a32, a)
        assert fusion._exact_gemm(a32, _int_form(w)).tobytes() == (a @ w).tobytes()
