import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fpqt.errors import NumericalError, ShapeError
from fpqt.formats import FpFormat
from fpqt.fusion import (
    LAYER_INPUTS,
    LAYER_NAMES,
    ONLINE_POINTS,
    DiTBlockWeights,
    FusionPlan,
    OnlineTransform,
    attention,
    block_forward,
    cross_head_apply,
    fuse_block,
    gelu,
    layer_norm,
    plan_fusion,
    softmax,
)
from fpqt.hadamard import build, realize
from fpqt.quantize import minmax_quantize
from fpqt.tensors import max_abs


def make_weights(n=32, heads=2, hidden=None, seed=0) -> DiTBlockWeights:
    hidden = hidden or 2 * n
    rng = np.random.default_rng(seed)

    def mat(i, o):
        return rng.standard_normal((i, o)) / math.sqrt(i)

    return DiTBlockWeights(
        w_q=mat(n, n),
        w_k=mat(n, n),
        w_v=mat(n, n),
        w_out=mat(n, n),
        w_fc1=mat(n, hidden),
        w_fc2=mat(hidden, n),
        heads=heads,
        ln1_gamma=1.0 + 0.1 * rng.standard_normal(n),
        ln1_beta=0.1 * rng.standard_normal(n),
        ln2_gamma=1.0 + 0.1 * rng.standard_normal(n),
        ln2_beta=0.1 * rng.standard_normal(n),
    )


def e2m1(a, point):
    """The harness's activation quantizer at E2M1: one bias per channel."""
    return minmax_quantize(a, FpFormat(2, 1), channel_axis=-1).values


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def dense_fusion(w, plan) -> dict[str, np.ndarray]:
    """fuse_block's weights computed with realized dense transforms."""
    hn, hf = realize(plan.input_spec), realize(plan.hidden_spec)
    hd, hv = realize(plan.head_spec), np.kron(realize(plan.heads_spec), realize(plan.head_spec))
    out = {name: hn.T @ getattr(w, name) for name in ("w_q", "w_k", "w_v", "w_fc1")}
    out["w_fc2"] = hf.T @ w.w_fc2
    if plan.v_mode == "per_head_exact":
        out["w_v"] = out["w_v"] @ np.kron(np.eye(w.heads), hd)
        out["w_out"] = hv.T @ w.w_out
    else:
        out["w_v"] = out["w_v"] @ hv
        out["w_out"] = hv @ w.w_out
    return out


class TestBlockWeights:
    def test_properties(self):
        w = make_weights(n=24, heads=4, hidden=48)
        assert (w.n, w.hidden, w.head_dim) == (24, 48, 6)
        assert list(w.matrices()) == list(LAYER_NAMES)

    def test_shape_validation(self):
        good = make_weights()
        with pytest.raises(ShapeError):
            replace(good, w_k=np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            replace(good, w_fc2=np.zeros((5, good.n)))
        with pytest.raises(ShapeError):
            replace(good, ln1_gamma=np.zeros(good.n + 1))
        with pytest.raises(ShapeError):
            replace(good, heads=5)  # 5 does not divide 32

    def test_matrix_the_dims_are_read_from_must_be_2d(self):
        good = make_weights()
        for name in ("w_q", "w_fc1"):
            for bad in (np.array(1.0), np.ones(good.n)):
                want = re.escape(f"{name} must be 2-D, got shape {bad.shape}")
                with pytest.raises(ShapeError, match=want):
                    replace(good, **{name: bad})

    def test_omitted_norms_are_the_float64_identity(self, rng):
        w = make_weights(n=16, heads=2)
        bare = DiTBlockWeights(**w.matrices(), heads=w.heads)
        for name in ("ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta"):
            norm = getattr(bare, name)
            assert norm.dtype == np.float64 and norm.shape == (16,)
            assert np.array_equal(norm, np.full(16, 1.0 if name.endswith("gamma") else 0.0))
        explicit = DiTBlockWeights(**w.matrices(), heads=w.heads,
                                   ln1_gamma=np.ones(16), ln1_beta=np.zeros(16),
                                   ln2_gamma=np.ones(16), ln2_beta=np.zeros(16))
        x = rng.standard_normal((8, 16))
        out = block_forward(x, bare)
        assert out.tobytes() == block_forward(x, explicit).tobytes()
        assert block_forward(x, bare, act_quant=e2m1).tobytes() == \
            block_forward(x, explicit, act_quant=e2m1).tobytes()

    def test_omitting_one_norm_keeps_the_others(self):
        w = make_weights(n=16, heads=2)
        part = DiTBlockWeights(**w.matrices(), heads=w.heads, ln2_beta=w.ln2_beta)
        assert part.ln2_beta is w.ln2_beta
        assert np.array_equal(part.ln1_gamma, np.ones(16))

    @pytest.mark.parametrize("heads", [2.0, True, "2", None])
    def test_heads_must_be_an_int(self, heads):
        w = make_weights(n=16, heads=2)
        with pytest.raises(ValueError, match=re.escape(f"heads must be int, got {heads!r}")):
            DiTBlockWeights(**w.matrices(), heads=heads)

    def test_integral_heads_is_kept_as_int(self):
        w = make_weights(n=16, heads=2)
        block = DiTBlockWeights(**w.matrices(), heads=np.int64(2))
        assert type(block.heads) is int and block.heads == 2


class TestNonlinearities:
    def test_layer_norm_matches_manual(self, rng):
        x = rng.standard_normal((6, 10)) * 3.0
        g = rng.standard_normal(10)
        b = rng.standard_normal(10)
        got = layer_norm(x, g, b)
        for i in range(6):
            mu = x[i].mean()
            var = x[i].var()
            want = (x[i] - mu) / np.sqrt(var + 1e-6) * g + b
            assert np.allclose(got[i], want, atol=1e-14)

    def test_layer_norm_of_a_huge_row_does_not_overflow(self, rng):
        x = rng.standard_normal((4, 10))
        g, b = rng.standard_normal(10), rng.standard_normal(10)
        big = x.copy()
        big[1] *= 2.0**600  # its variance would be 2^1200
        got = layer_norm(big, g, b)  # pytest turns an overflow warning into an error
        want = layer_norm(x, g, b)
        assert np.array_equal(got[[0, 2, 3]], want[[0, 2, 3]])  # other rows untouched
        assert np.allclose(got[1], (x[1] - x[1].mean()) / x[1].std() * g + b, atol=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_layer_norm_is_numpys_mean_and_var_formula_bit_for_bit(self, data):
        # random shapes and magnitudes 2^+-600 (rows past 2^256 take the rescale),
        # constant, +0.0 and -0.0 rows, float32 input, identity or random gamma and beta
        # (or beta -0.0, where the sign of each zero of the result shows)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (*data.draw(st.lists(st.integers(1, 4), max_size=2)), data.draw(st.integers(1, 64)))
        f32 = data.draw(st.booleans())
        lo, hi = (-120, 90) if f32 else (-600, 600)
        x = np.ldexp(rng.standard_normal(shape), data.draw(st.integers(lo, hi))
                     + rng.integers(0, data.draw(st.integers(0, 30)) + 1, shape[:-1] + (1,)))
        rows = x.reshape(-1, shape[-1])
        for row in rows[rng.random(len(rows)) < 0.3]:
            row[:] = data.draw(st.sampled_from([0.0, -0.0, 3.0, -(2.0**lo), 1.5 * 2.0**hi]))
        x = x.astype(np.float32) if f32 else x
        gamma, beta = {"identity": (np.ones(shape[-1]), np.zeros(shape[-1])),
                       "random": (rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])),
                       "-0.0 shift": (rng.standard_normal(shape[-1]), np.full(shape[-1], -0.0)),
                       }[data.draw(st.sampled_from(["identity", "random", "-0.0 shift"]))]
        want = np.asarray(x, dtype=np.float64)
        _, k = np.frexp(max_abs(want, -1))
        want = np.ldexp(want, np.where(k > 256, 128 - k, 0)[..., np.newaxis])
        mean, var = want.mean(axis=-1, keepdims=True), want.var(axis=-1, keepdims=True)
        want = (want - mean) / np.sqrt(var + 1e-6) * gamma + beta
        got = layer_norm(x, gamma, beta)
        assert np.isfinite(got).all() and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("which", ["gamma", "beta"])
    @pytest.mark.parametrize("shape", [(9,), (11,), (1, 10), ()])
    def test_layer_norm_vector_of_another_shape_is_named(self, rng, which, shape):
        # was numpy's broadcast ValueError, or a silent broadcast for (1, 10) and ()
        x, vecs = rng.standard_normal((6, 10)), {"gamma": np.ones(10), "beta": np.zeros(10)}
        vecs[which] = np.ones(shape)
        with pytest.raises(ShapeError, match=re.escape(
                f"layer norm {which} must have shape (10,) for input (6, 10), got {shape}")):
            layer_norm(x, **vecs)

    def test_layer_norm_of_complex_input_is_a_type_error(self):
        # was numpy's frexp TypeError, naming no input
        with pytest.raises(TypeError, match="complex input is not supported, got dtype complex"):
            layer_norm(np.ones((2, 4), dtype=complex), np.ones(4), np.zeros(4))

    def test_gelu_matches_gaussian_cdf(self, rng):
        x = rng.standard_normal(100) * 4.0
        # ndtr is the standard normal CDF (what scipy.stats.norm.cdf calls)
        assert np.allclose(gelu(x), x * scipy.special.ndtr(x), atol=1e-14)

    def test_gelu_known_points(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([30.0]))[0] == pytest.approx(30.0)
        assert gelu(np.array([-30.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_softmax_rows_sum_to_one_and_stable(self, rng):
        x = rng.standard_normal((4, 7)) * 500.0
        s = softmax(x)
        assert np.allclose(s.sum(axis=-1), 1.0)
        assert np.isfinite(s).all()

    def test_softmax_over_an_empty_axis_is_empty(self):
        assert softmax(np.zeros((2, 0))).shape == (2, 0)
        assert softmax(np.zeros((0, 3))).shape == (0, 3)
        assert softmax(np.zeros((3, 0, 0)), axis=1).shape == (3, 0, 0)

    @pytest.mark.parametrize("x", [np.array([["a", "b"]]), np.array([[b"a"]]),
                                   np.ones((2, 3), dtype=complex)], ids=["str", "bytes", "complex"])
    def test_softmax_of_non_numeric_input_is_a_type_error(self, x):
        # strings were numpy's UFuncTypeError from the subtraction, naming no input
        with pytest.raises(TypeError, match=re.escape(f"not supported, got dtype {x.dtype}")):
            softmax(x)

    def test_softmax_matches_naive_on_small_values(self, rng):
        x = rng.standard_normal((3, 5))
        naive = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        assert np.allclose(softmax(x), naive, atol=1e-14)


def reference_softmax(x, axis=-1):
    """softmax as three fresh arrays: the expression the in-place one keeps."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def reference_gelu(x):
    """gelu as the one expression the in-place one keeps: (0.5 x) (1 + erf)."""
    return 0.5 * x * (1.0 + scipy.special.erf(x / math.sqrt(2.0)))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 vs 0.0 too


class TestInPlaceNonlinearities:
    """softmax and gelu compute in their own buffers, bit-identical to the
    expressions they replaced, and leave their input untouched."""

    @staticmethod
    def softmax_inputs(rng):
        wide = rng.standard_normal((6, 9)) * np.exp2(rng.integers(-30, 30, size=(6, 1)))
        huge = rng.standard_normal((4, 9))
        huge[0, 3], huge[1, 0], huge[2, [1, 5]], huge[3] = 1e300, -1e300, (1e300, -1e300), 1e300
        return [rng.standard_normal((5, 7)), wide, huge, rng.standard_normal((2, 3, 4)) * 50.0]

    @staticmethod
    def gelu_inputs(rng):
        tiny = np.array([5e-324, -5e-324, 1e-310, -1e-310, 0.0, -0.0])
        # x (1 + erf) overflows near the float64 maximum where (0.5 x) (1 + erf) does not
        huge = np.finfo(np.float64).max * np.array([1.0, -1.0, 0.6, -0.6])
        return [rng.standard_normal(500) * 6.0, np.linspace(-40.0, -38.0, 2001),
                -38.0 - 2.0 * rng.random((7, 11)), tiny, huge, rng.standard_normal((3, 4)) * 1e300]

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmax_is_bit_identical_and_leaves_its_input(self, rng, axis):
        for x in self.softmax_inputs(rng):
            before = x.copy()
            assert_same_bits(softmax(x, axis=axis), reference_softmax(before, axis=axis))
            assert_same_bits(x, before)

    def test_gelu_is_bit_identical_and_leaves_its_input(self, rng):
        for x in self.gelu_inputs(rng):
            before = x.copy()
            assert_same_bits(gelu(x), reference_gelu(before))
            assert_same_bits(x, before)

    def test_gelu_of_a_zero_dim_input(self):
        assert gelu(np.float64(1.5)) == reference_gelu(np.float64(1.5))


def einsum_attention(q, k, v, heads):
    """Attention as per-token einsums over (tokens, heads, head_dim) views."""
    tokens, n = q.shape
    d = n // heads
    qh, kh, vh = (a.reshape(tokens, heads, d) for a in (q, k, v))
    scores = np.einsum("thd,shd->hts", qh, kh) / math.sqrt(d)
    ctx = np.einsum("hts,shd->thd", reference_softmax(scores), vh)
    return ctx.reshape(tokens, n)


class TestAttention:
    @pytest.mark.parametrize("head_dim", [1, 16, 64])
    @pytest.mark.parametrize("tokens", [1, 3, 128])
    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_matches_einsum_reference(self, heads, tokens, head_dim):
        rng = np.random.default_rng([heads, tokens, head_dim])
        n = heads * head_dim
        q, k, v = (rng.standard_normal((tokens, n)) * s for s in (3.0, 1.0, 1.0))
        got = attention(q, k, v, heads)
        want = einsum_attention(q, k, v, heads)
        assert got.shape == (tokens, n)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("shapes", [((3, 8), (2, 8), (2, 8)), ((2, 8), (2, 8), (2, 4)),
                                        ((2, 8), (2, 4), (2, 8)), ((8,), (8,), (8,))])
    def test_q_k_and_v_of_different_shapes_are_named(self, shapes):
        # q and k of different lengths were numpy's reshape ValueError
        q, k, v = (np.ones(s) for s in shapes)
        want = "q, k and v must share one (tokens, width) shape, got {}, {} and {}".format(*shapes)
        with pytest.raises(ShapeError, match=re.escape(want)):
            attention(q, k, v, 2)

    @pytest.mark.parametrize("heads", [0, -2, 3])
    def test_heads_that_do_not_divide_the_width_rejected(self, heads):
        # 0 used to divide by zero, and 3 at width 4 failed in numpy's reshape
        q = np.ones((2, 4))
        with pytest.raises(ShapeError, match=f"head count {heads} must divide width 4"):
            attention(q, q, q, heads)


def assert_block_roundtrip(w, plan):
    """fuse_block then fuse_block(..., inverse=True) gives back every matrix,
    and the inverse schedules no online transform."""
    fused, online = fuse_block(w, plan)
    assert online == plan.online
    back, none = fuse_block(fused, plan, inverse=True)
    assert none == ()
    for name, m in w.matrices().items():
        assert rel_err(getattr(back, name), m) < 1e-12, name
        assert not np.array_equal(getattr(fused, name), m), name  # every layer was fused
    assert back.ln1_gamma is w.ln1_gamma  # the norms pass through


class TestOfflineFusion:
    # whole-block round trips; each name says which factor its inputs vary:
    # the block input's sign seed, the value-path mode, the feed-forward width
    @pytest.mark.parametrize("seed", [None, 3])
    def test_input_fusion_roundtrip(self, seed):
        w = make_weights()
        assert_block_roundtrip(w, plan_fusion(w, seed=seed))

    @pytest.mark.parametrize("v_mode", ["per_head_exact", "paper_literal"])
    def test_v_out_fusion_roundtrip(self, v_mode):
        w = make_weights(heads=4)
        assert_block_roundtrip(w, plan_fusion(w, seed=1, v_mode=v_mode))

    @pytest.mark.parametrize("plan", ["plan", None, (32, 64, 2)], ids=repr)
    def test_plan_that_is_not_a_fusion_plan_is_named(self, plan):
        # was an AttributeError on plan.n
        with pytest.raises(TypeError,
                           match=f"^plan must be a FusionPlan, got {type(plan).__name__}$"):
            fuse_block(make_weights(), plan)

    def test_ffn_fusion_roundtrip(self):
        for hidden in (64, 896):  # 896 = 32 * 28: a q = 28 width
            w = make_weights(hidden=hidden)
            assert_block_roundtrip(w, plan_fusion(w, seed=2))

    @pytest.mark.parametrize("v_mode", ["per_head_exact", "paper_literal"])
    def test_fused_weights_match_dense_fusion(self, v_mode):
        # orders 48, 224, 12 and 4: base factors 12, 28, 12 and a power of two
        w = make_weights(n=48, heads=4, hidden=224)
        plan = plan_fusion(w, seed=5, v_mode=v_mode)  # every factor gets a nontrivial sign diagonal
        fused, _ = fuse_block(w, plan)
        for name, want in dense_fusion(w, plan).items():
            assert rel_err(getattr(fused, name), want) < 1e-12, name

    @pytest.mark.parametrize("v_mode", ["per_head_exact", "paper_literal"])
    def test_fused_weights_are_c_contiguous(self, v_mode):
        # a transposed view would make every later ravel of the weight copy
        w = make_weights(n=48, heads=4)
        plan = plan_fusion(w, seed=1, v_mode=v_mode)
        fused, _ = fuse_block(w, plan)
        back, _ = fuse_block(fused, plan, inverse=True)
        for weights in (fused, back):
            for name, m in weights.matrices().items():
                assert m.flags.c_contiguous, name

    def test_transform_cancellation_identity(self, rng):
        # (x H)(H^T W) == x W, the identity every fusion rests on
        n = 24
        spec = build(n, seed=7)
        h = realize(spec)
        x = rng.standard_normal((5, n))
        w = rng.standard_normal((n, 3))
        assert np.allclose((x @ h) @ (h.T @ w), x @ w, atol=1e-12)

    def test_value_path_composition_identity(self):
        # (I_h (x) H_d)(H_h (x) I_d) == H_h (x) H_d
        plan = plan_fusion(make_weights(n=24, heads=2), seed=5)
        hd = realize(plan.head_spec)
        hh = realize(plan.heads_spec)
        left = np.kron(np.eye(2), hd) @ np.kron(hh, np.eye(12))
        assert np.allclose(left, np.kron(hh, hd), atol=1e-12)


class TestOnlineSchedule:
    def test_per_head_exact_schedule(self):
        w = make_weights()
        _, online = fuse_block(w, plan_fusion(w))
        assert [t.point for t in online] == [
            "attn_input",
            "post_attention",
            "ffn_input",
            "post_gelu",
        ]

    def test_paper_literal_schedule_has_no_cross_head_stage(self):
        w = make_weights()
        _, online = fuse_block(w, plan_fusion(w, v_mode="paper_literal"))
        assert [t.point for t in online] == ["attn_input", "ffn_input", "post_gelu"]

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            OnlineTransform(point="nowhere", spec=build(8))

    def test_spec_must_be_a_hadamard_spec(self):
        # a string was accepted and the forward failed later on its .mix
        with pytest.raises(TypeError, match="spec must be a HadamardSpec, got str"):
            OnlineTransform("attn_input", "x")

    def test_unknown_v_mode_rejected(self):
        w = make_weights()
        with pytest.raises(ValueError):
            plan_fusion(w, v_mode="bogus")


class TestCrossHeadApply:
    def test_matches_dense_kron(self, rng):
        h, d = 4, 6
        spec = build(h, seed=3)
        x = rng.standard_normal((5, h * d))
        dense = np.kron(realize(spec), np.eye(d))
        assert np.abs(cross_head_apply(x, spec) - x @ dense).max() < 1e-12

    def test_shape_check(self, rng):
        with pytest.raises(ShapeError):
            cross_head_apply(rng.standard_normal((2, 10)), build(4))
        with pytest.raises(ShapeError):
            cross_head_apply(rng.standard_normal(8), build(4))

    @pytest.mark.parametrize("width", [6, 9, 30])
    def test_width_heads_does_not_divide_rejected(self, rng, width):
        with pytest.raises(ShapeError, match=rf"4 \* head_dim.*\(3, {width}\)"):
            cross_head_apply(rng.standard_normal((3, width)), build(4))

    def test_complex_input_is_a_type_error(self):
        with pytest.raises(TypeError, match="complex input is not supported"):
            cross_head_apply(np.ones((2, 8), dtype=complex), build(4))

    @pytest.mark.parametrize("spec", ["spec", 4, None], ids=repr)
    def test_spec_that_is_not_a_hadamard_spec_is_named(self, spec):
        # was an AttributeError on heads_spec.dim
        with pytest.raises(TypeError,
                           match=f"^heads_spec must be a HadamardSpec, got {type(spec).__name__}$"):
            cross_head_apply(np.ones((2, 8)), spec)


class TestFusionPlan:
    def test_init_parameters(self):
        names = [f.name for f in fields(FusionPlan) if f.init]
        assert names == ["n", "hidden", "heads", "seed", "v_mode"]

    @pytest.mark.parametrize("seed", [None, 0, 7])
    def test_specs_built_from_dims_and_seed(self, seed):
        plan = FusionPlan(48, 96, 4, seed)
        specs = (plan.input_spec, plan.hidden_spec, plan.head_spec, plan.heads_spec)
        assert [s.dim for s in specs] == [48, 96, 12, 4]
        want = [None] * 4 if seed is None else [seed + k for k in range(4)]
        assert [s.seed for s in specs] == want
        assert plan == plan_fusion(make_weights(n=48, heads=4, hidden=96), seed)

    def test_specs_are_read_only(self):
        plan = FusionPlan(32, 64, 2)
        with pytest.raises(FrozenInstanceError):
            plan.input_spec = build(32)
        with pytest.raises(TypeError):
            FusionPlan(32, 64, 2, input_spec=build(32))

    @pytest.mark.parametrize("dims,role", [
        ((36, 144, 4), "n = 36"),
        ((64, 200, 4), "hidden = 200"),
        ((24, 96, 4), "n // heads = 6"),
        ((48, 192, 3), "heads = 3"),
    ])
    def test_unconstructible_order_names_its_role(self, dims, role):
        with pytest.raises(ValueError, match=re.escape(role)):
            FusionPlan(*dims)

    @pytest.mark.parametrize("field, value", [("seed", "1"), ("n", 4.0), ("heads", None),
                                              ("v_mode", 0)])
    def test_wrong_type_rejected_naming_the_field(self, field, value):
        args = {"n": 4, "hidden": 16, "heads": 2, "seed": 1, "v_mode": "per_head_exact"}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FusionPlan(**{**args, field: value})

    def test_heads_must_divide_n(self):
        with pytest.raises(ValueError, match="heads 3 must divide n 32"):
            FusionPlan(32, 64, 3)

    @pytest.mark.parametrize("seed", [-1, -4])
    def test_negative_seed_rejected_at_the_plan(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be nonnegative, got {seed}"):
            plan_fusion(make_weights(), seed=seed)

    @pytest.mark.parametrize("block,plan_block", [
        ({"n": 128, "heads": 4}, {"n": 64, "heads": 4}),
        ({"n": 32, "heads": 4}, {"n": 64, "heads": 4}),
        ({"n": 64, "heads": 8}, {"n": 64, "heads": 4}),
        ({"n": 32, "hidden": 128}, {"n": 32, "hidden": 64}),
    ])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_plan_for_other_dims_rejected(self, block, plan_block, inverse):
        w, other = make_weights(**block), make_weights(**plan_block)
        want = (rf"\({other.n}, {other.hidden}, {other.heads}\) cannot fuse a block "
                rf"with \({w.n}, {w.hidden}, {w.heads}\)")
        with pytest.raises(ShapeError, match=want):
            fuse_block(w, plan_fusion(other), inverse=inverse)


class TestBlockInvariance:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("seed", [None, 11])
    def test_fused_forward_matches_reference(self, heads, seed, rng):
        w = make_weights(n=32, heads=heads, seed=heads)
        x = rng.standard_normal((10, 32))
        ref = block_forward(x, w)
        fused, online = fuse_block(w, plan_fusion(w, seed=seed))
        assert rel_err(block_forward(x, fused, online), ref) < 1e-10

    def test_paper_literal_exact_only_for_single_head(self, rng):
        x = rng.standard_normal((10, 32))
        w1 = make_weights(n=32, heads=1)
        fused, online = fuse_block(w1, plan_fusion(w1, v_mode="paper_literal"))
        assert rel_err(block_forward(x, fused, online), block_forward(x, w1)) < 1e-10

        w4 = make_weights(n=32, heads=4)
        fused4, online4 = fuse_block(w4, plan_fusion(w4, v_mode="paper_literal"))
        assert (
            rel_err(block_forward(x, fused4, online4), block_forward(x, w4)) > 1e-6
        )


class TestBlockForward:
    def test_input_validation(self):
        w = make_weights()
        with pytest.raises(ShapeError):
            block_forward(np.zeros((4, w.n + 1)), w)
        with pytest.raises(ShapeError):
            block_forward(np.zeros(w.n), w)

    @pytest.mark.parametrize("entry", ["x", None, build(32)], ids=repr)
    def test_online_entry_that_is_not_an_online_transform_is_named(self, entry):
        # was an AttributeError on the entry's .point
        w = make_weights()
        with pytest.raises(TypeError, match=f"^online entries must be OnlineTransform, "
                                             f"got {type(entry).__name__}$"):
            block_forward(np.ones((4, w.n)), w, online=[entry])

    def test_a_zero_token_batch_gives_an_empty_output(self):
        w = make_weights(n=24, heads=2)  # order 24 takes the transform's a = 4 stage
        x = np.zeros((0, w.n))
        assert block_forward(x, w).shape == (0, w.n)
        fused, online = fuse_block(w, plan_fusion(w, seed=3))
        taps = {}
        assert block_forward(x, fused, online, taps=taps).shape == (0, w.n)
        assert [a.shape[0] for a in taps.values()] == [0, 0, 0, 0]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_names_x(self, bad):
        # an all-inf x used to warn inside softmax, and a NaN x came back as NaN
        w = make_weights()
        for x in (np.full((4, w.n), bad), np.where(np.eye(4, w.n) == 1, bad, 1.0)):
            with pytest.raises(NumericalError, match="block input x holds non-finite values"):
                block_forward(x, w)
        # the shape check comes first
        with pytest.raises(ShapeError):
            block_forward(np.full((4, w.n + 1), bad), w)

    @pytest.mark.parametrize("name", LAYER_NAMES)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weights_raise_without_a_warning(self, rng, name, bad):
        # an Inf weight used to warn in matmul, and a NaN one gave an all-NaN
        # output; past an act_quant, NaN or Inf in w_q .. w_fc1 surfaced as the
        # quantizer's "cannot quantize non-finite values", naming no layer
        w = make_weights(n=16, heads=2)
        m = getattr(w, name).copy()
        m[0, 0] = bad
        x = rng.standard_normal((4, 16))
        for act_quant in (None, e2m1):
            with pytest.raises(NumericalError, match=f"^{name} holds NaN or Inf$") as info:
                block_forward(x, replace(w, **{name: m}), act_quant=act_quant)  # no warning
            assert isinstance(info.value.__cause__, NumericalError)

    def test_every_non_finite_array_is_named(self, rng):
        w = make_weights(n=16, heads=2)
        bad = {"w_k": w.w_k.copy(), "w_fc2": w.w_fc2.copy(), "ln2_beta": w.ln2_beta.copy()}
        for a in bad.values():
            a.flat[-1] = np.nan
        with pytest.raises(NumericalError, match="^w_k, w_fc2, ln2_beta hold NaN or Inf$"):
            block_forward(rng.standard_normal((4, 16)), replace(w, **bad))

    def test_a_non_finite_act_quant_result_names_the_weights(self, rng):
        w = make_weights(n=16, heads=2)
        x = rng.standard_normal((4, 16))
        nan_out = lambda a, point: np.full_like(a, np.nan)
        with pytest.raises(NumericalError, match="^act_quant gave NaN or Inf at 'attn_input'$"):
            block_forward(x, w, act_quant=nan_out)  # finite weights: the first error stands
        w_v = w.w_v.copy()
        w_v[0, 0] = np.inf
        with pytest.raises(NumericalError, match="^w_v holds NaN or Inf$") as info:
            block_forward(x, replace(w, w_v=w_v), act_quant=nan_out)
        assert str(info.value.__cause__) == "act_quant gave NaN or Inf at 'attn_input'"

    def test_finite_weights_that_overflow_keep_the_first_error(self, rng):
        w = make_weights(n=16, heads=2)
        huge = replace(w, w_q=w.w_q * 1e200, w_k=w.w_k * 1e200)  # scores overflow
        x = rng.standard_normal((4, 16))
        with pytest.raises(NumericalError,
                           match="^block output holds NaN or Inf: its values overflowed$") as info:
            block_forward(x, huge)
        assert info.value.__cause__ is None
        with pytest.raises(NumericalError, match="^cannot quantize non-finite values$") as info:
            block_forward(x, huge, act_quant=e2m1)
        assert info.value.__cause__ is None

    def test_taps_only_stops_at_the_last_tap_and_needs_taps(self, rng):
        w = make_weights(n=16, heads=2)
        x = rng.standard_normal((4, 16))
        full, tapped = {}, {}
        block_forward(x, w, taps=full)
        assert block_forward(x, w, taps=tapped, taps_only=True) is None
        assert all(tapped[p].tobytes() == full[p].tobytes() for p in ONLINE_POINTS)
        with pytest.raises(ValueError, match="taps_only needs a taps dict"):
            block_forward(x, w, taps_only=True)
        with pytest.raises(TypeError):  # keyword-only
            block_forward(x, w, (), None, {}, True)

    def test_duplicate_online_point_rejected(self, rng):
        w = make_weights()
        spec = build(w.n)
        online = (
            OnlineTransform("attn_input", spec),
            OnlineTransform("attn_input", spec),
        )
        with pytest.raises(ValueError):
            block_forward(rng.standard_normal((4, w.n)), w, online)

    def test_taps_record_every_layer_input(self, rng):
        w = make_weights(n=16, heads=2, hidden=32)
        x = rng.standard_normal((6, 16))
        taps = {}
        block_forward(x, w, taps=taps)
        assert list(taps) == list(ONLINE_POINTS)
        assert [a.shape for a in taps.values()] == [(6, 16), (6, 16), (6, 16), (6, 32)]
        for name, mat in w.matrices().items():  # every layer's input is one tap
            assert taps[LAYER_INPUTS[name]].shape[1] == mat.shape[0]

    def test_taps_see_post_transform_inputs(self, rng):
        # each fused tap is the unfused one times the rotation in front of its layer
        w = make_weights(n=16, heads=2)
        x = rng.standard_normal((6, 16))
        plan = plan_fusion(w, seed=3)
        t0, t1 = {}, {}
        block_forward(x, w, taps=t0)
        block_forward(x, *fuse_block(w, plan), taps=t1)
        hn, eye_h, eye_d = realize(plan.input_spec), np.eye(w.heads), np.eye(w.head_dim)
        rotation = {
            "attn_input": hn,
            "post_attention": np.kron(eye_h, realize(plan.head_spec))
            @ np.kron(realize(plan.heads_spec), eye_d),
            "ffn_input": hn,
            "post_gelu": realize(plan.hidden_spec),
        }
        for point in ONLINE_POINTS:
            assert not np.allclose(t1[point], t0[point]), point
            assert rel_err(t1[point], t0[point] @ rotation[point]) < 1e-12, point

    def test_identity_act_quant_is_a_no_op(self, rng):
        w = make_weights()
        x = rng.standard_normal((5, w.n))
        out = block_forward(x, w, act_quant=lambda a, layer: a)
        assert np.array_equal(out, block_forward(x, w))

    def test_zeroing_act_quant_reduces_to_skip_connections(self, rng):
        w = make_weights()
        x = rng.standard_normal((5, w.n))
        out = block_forward(x, w, act_quant=lambda a, layer: np.zeros_like(a))
        assert np.array_equal(out, x)

    def test_act_quant_sees_layer_names(self, rng):
        w = make_weights()
        seen = []

        def q(a, layer):
            seen.append(layer)
            return a

        block_forward(rng.standard_normal((3, w.n)), w, act_quant=q)
        assert seen == list(ONLINE_POINTS)  # once per input, so W_q, W_k, W_v share one
        assert sorted(set(LAYER_INPUTS.values())) == sorted(ONLINE_POINTS)

    @pytest.mark.parametrize("point", ONLINE_POINTS)
    @pytest.mark.parametrize("bad,error,message", [
        (lambda a: a[:, :-1], ShapeError, r"act_quant gave shape \(3, \d+\) at '{}', expected"),
        (lambda a: a.ravel(), ShapeError, r"act_quant gave shape \(\d+,\) at '{}', expected"),
        (lambda a: a + 1j, TypeError, r"act_quant gave complex values at '{}', dtype complex128"),
        (lambda a: a.astype(str), TypeError,
         r"act_quant gave string, bytes or void values at '{}', dtype <U\d+"),
        (lambda a: a.astype(bytes), TypeError,
         r"act_quant gave string, bytes or void values at '{}', dtype \|S\d+"),
        (lambda a: a.astype("V8"), TypeError,
         r"act_quant gave string, bytes or void values at '{}', dtype \|V8"),
        (lambda a: np.where(a > 0, np.nan, a), NumericalError, r"act_quant gave NaN or Inf at '{}'"),
        (lambda a: a - np.inf, NumericalError, r"act_quant gave NaN or Inf at '{}'"),
    ], ids=["narrower", "flat", "complex", "str", "bytes", "void", "nan", "inf"])
    def test_bad_act_quant_results_name_their_point(self, rng, point, bad, error, message):
        # were numpy's matmul ValueError, a complex128 output and a NaN output;
        # string, bytes and void were as_working's TypeError, naming no point
        w = make_weights()
        q = lambda a, p: bad(a) if p == point else a
        with pytest.raises(error, match="^" + message.format(point)):
            block_forward(rng.standard_normal((3, w.n)), w, act_quant=q)

    def test_act_quant_results_are_cast_to_float64(self, rng):
        w = make_weights()
        x = rng.standard_normal((3, w.n))
        out = block_forward(x, w, act_quant=lambda a, p: a.astype(np.float32))
        want = block_forward(x, w, act_quant=lambda a, p: a.astype(np.float32).astype(np.float64))
        assert out.dtype == np.float64 and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tokens", [1, 5])
    def test_fused_forward_taps_then_quantizes_each_point_in_order(self, rng, tokens):
        w = make_weights(n=32, heads=4)
        fused, online = fuse_block(w, plan_fusion(w, seed=1))
        taps, seen = {}, []

        def q(a, point):
            assert a is taps[point]  # tapped before it is quantized
            seen.append(point)
            return a

        block_forward(rng.standard_normal((tokens, w.n)), fused, online, act_quant=q, taps=taps)
        assert list(taps) == seen == list(ONLINE_POINTS)
