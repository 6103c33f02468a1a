"""Hadamard weight fusion and the toy attention block it is verified on.

Every online transform H inserted in front of a linear layer is cancelled
offline by folding H^T into that layer's weight: (x H)(H^T W) = x W, so the
full-precision network is unchanged while the quantizer sees the
outlier-free rotated activations.  Concretely:

  * block input (post-norm): x -> x H_n online; W_q, W_k, W_v, W_fc1 each
    absorb H_n^T on the left.
  * value/output path: the per-head value slices absorb the head-dim factor
    (W_v <- W_v (I_h (x) H_d)) offline, a cheap cross-head mix (H_h (x) I_d)
    runs online after head concat, and W_out absorbs the exact inverse of
    the composition, (H_h (x) H_d)^T, offline.  The composition identity
    (I (x) H_d)(H_h (x) I) = H_h (x) H_d makes the pair orthogonal.
  * feed-forward hidden: GELU output -> apply H_hidden online; W_fc2 absorbs
    H_hidden^T.

A FusionPlan holds only (n, hidden, heads, seed, v_mode) and builds its four
factors from them once.  fuse_block, the one fusion call, folds every offline
factor into a block of those dims and returns FusionPlan.online, the online
schedule that harness.estimate_cost costs; inverse=True undoes a fusion.
Every factor is one HadamardSpec.mix: H along the middle axis of a view of
the weight, no copy.

The 'paper_literal' value mode instead folds the full H_h (x) H_d into W_v
with no online stage; column mixing then crosses head boundaries before
per-head attention, so it is only equivalent for a single head.  It is kept
for measurement, not asserted as an invariance.

The block itself is a pre-norm transformer block: LN -> multi-head
attention -> residual, LN -> GELU feed-forward -> residual.  Attention
runs as batched matmul over heads, so its scores and context go through
BLAS.  Softmax, GELU (exact erf form), and layer norms stay in full
precision; the six linear layers are the quantization surface.

Quantized linear layers run as exact float32 GEMMs: see block_forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NumericalError, ShapeError, check_instance, check_types
from .hadamard import HadamardSpec, apply_right
from .tensors import as_working, max_abs

LN_EPS = 1e-6
# the float32 GEMM path: every integer of magnitude below 2^24 is a float32
GEMM_BITS = 24
WEIGHT_BITS = 7  # s_w: a weight form's integers lie below 2^7, so they fit int8
EXP_WINDOW = 400  # |peak exponent| of a weight column; keeps products and results normal
# the row units 2^(e - s) of an input the float32 GEMM takes as its own values: float32's
# least subnormal up to the unit at which GEMM_BITS-bit integers stay below 2^128
F32_UNITS = (-149, 128 - GEMM_BITS)

ONLINE_POINTS = ("attn_input", "post_attention", "ffn_input", "post_gelu")
V_MODES = ("per_head_exact", "paper_literal")
LAYER_NAMES = ("w_q", "w_k", "w_v", "w_out", "w_fc1", "w_fc2")
NORM_NAMES = ("ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta")
# the input point each linear layer reads; W_q, W_k and W_v share one input
LAYER_INPUTS = {"w_q": "attn_input", "w_k": "attn_input", "w_v": "attn_input",
                "w_out": "post_attention", "w_fc1": "ffn_input", "w_fc2": "post_gelu"}


def layer_shapes(n: int, hidden: int) -> dict[str, tuple[int, int]]:
    """(in_dim, out_dim) of each linear layer, in LAYER_NAMES order."""
    shapes = ((n, n), (n, n), (n, n), (n, n), (n, hidden), (hidden, n))
    return dict(zip(LAYER_NAMES, shapes))


@dataclass(frozen=True)
class DiTBlockWeights:
    """Weights of one block; matrices are input_dim x output_dim.  A layer norm
    left out is the identity, float64 gamma = 1 and beta = 0, as the toy block
    has no conditioning."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_out: np.ndarray
    w_fc1: np.ndarray
    w_fc2: np.ndarray
    heads: int
    ln1_gamma: np.ndarray | None = None
    ln1_beta: np.ndarray | None = None
    ln2_gamma: np.ndarray | None = None
    ln2_beta: np.ndarray | None = None

    def __post_init__(self):
        check_types(self)
        for name in ("w_q", "w_fc1"):  # n and hidden are read from their shapes
            if np.ndim(getattr(self, name)) != 2:
                raise ShapeError(f"{name} must be 2-D, got shape {np.shape(getattr(self, name))}")
        n = self.n
        for name, shape in layer_shapes(n, self.hidden).items():
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} must be {shape}, got {getattr(self, name).shape}")
        for name in NORM_NAMES:
            if getattr(self, name) is None:
                object.__setattr__(self, name, np.full(n, 1.0 if name.endswith("gamma") else 0.0))
            if getattr(self, name).shape != (n,):
                raise ShapeError(f"{name} must be {(n,)}, got {getattr(self, name).shape}")
        if self.heads < 1 or n % self.heads != 0:
            raise ShapeError(f"head count {self.heads} must divide model dim {n}")

    @property
    def n(self) -> int:
        return self.w_q.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_fc1.shape[1]

    @property
    def head_dim(self) -> int:
        return self.n // self.heads

    def matrices(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in LAYER_NAMES}

    def name_non_finite(self, exc: NumericalError) -> None:
        """Raise a NumericalError, chained from exc, that names each matrix or
        layer-norm vector holding NaN or Inf, if any does."""
        arrays = {**self.matrices(), **{name: getattr(self, name) for name in NORM_NAMES}}
        bad = [name for name, w in arrays.items() if not np.isfinite(w).all()]
        if bad:
            raise NumericalError(f"{', '.join(bad)} {'holds' if len(bad) == 1 else 'hold'} "
                                 f"NaN or Inf") from exc

    @cached_property
    def _int_forms(self) -> dict[str, _IntForm | None]:
        return {}

    def int_form(self, name: str) -> _IntForm | None:
        """The int8 form of layer name's weights, per output column with
        s_w = WEIGHT_BITS (fusion._int_form), or None.  Built on first
        use and kept with the block.  A matrix that is writeable, or views a
        writeable array, has none, checked on every call, so a kept form
        cannot go stale while its matrix stays read-only."""
        base = w = getattr(self, name)
        while isinstance(base, np.ndarray):
            if base.flags.writeable:
                return None
            base = base.base
        forms = self._int_forms
        if name not in forms:
            forms[name] = _int_form(w)
        return forms[name]


@dataclass(frozen=True)
class OnlineTransform:
    """A transform the runtime applies at a named point of the forward pass.

    block_forward's per-point feed step runs it: at 'post_attention' the
    cross-head mix (H_h (x) I_d) of the head-count spec (cross_head_apply),
    at every other point the spec's full transform (apply_right).
    """

    point: str
    spec: HadamardSpec

    def __post_init__(self):
        if self.point not in ONLINE_POINTS:
            raise ValueError(f"unknown online point {self.point!r}; have {ONLINE_POINTS}")
        check_instance(self.spec, HadamardSpec, "spec")


@dataclass(frozen=True)
class FusionPlan:
    """The four transform factors of a block fusion, built once from its dims:
    input_spec of order n (block input), hidden_spec of order hidden (FFN),
    head_spec of order n // heads and heads_spec of order heads, seeded with
    seed + 0 .. seed + 3 in that order (seed=None: no sign diagonals)."""

    n: int
    hidden: int
    heads: int
    seed: int | None = None
    v_mode: str = "per_head_exact"
    input_spec: HadamardSpec = field(init=False, repr=False, compare=False)
    hidden_spec: HadamardSpec = field(init=False, repr=False, compare=False)
    head_spec: HadamardSpec = field(init=False, repr=False, compare=False)
    heads_spec: HadamardSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_types(self)
        if self.v_mode not in V_MODES:
            raise ValueError(f"unknown v_mode {self.v_mode!r}; have {V_MODES}")
        if self.heads < 1 or self.n % self.heads != 0:
            raise ValueError(f"heads {self.heads} must divide n {self.n}")
        roles = (("input_spec", "n", self.n), ("hidden_spec", "hidden", self.hidden),
                 ("head_spec", "n // heads", self.n // self.heads),
                 ("heads_spec", "heads", self.heads))
        for k, (name, role, order) in enumerate(roles):
            try:
                spec = HadamardSpec(order, None if self.seed is None else self.seed + k)
            except ValueError as exc:
                raise ValueError(f"transform of order {role} = {order}: {exc}") from None
            object.__setattr__(self, name, spec)

    @property
    def online(self) -> tuple[OnlineTransform, ...]:
        """The runtime transforms that cancel this plan's fusion, in
        ONLINE_POINTS order; paper_literal has no post-attention mix."""
        specs = {"attn_input": self.input_spec, "post_attention": self.heads_spec,
                 "ffn_input": self.input_spec, "post_gelu": self.hidden_spec}
        return tuple(OnlineTransform(p, specs[p]) for p in ONLINE_POINTS
                     if p != "post_attention" or self.v_mode == "per_head_exact")


def plan_fusion(weights: DiTBlockWeights, seed: int | None = None,
                v_mode: str = FusionPlan.v_mode) -> FusionPlan:
    """The FusionPlan for a block's dims (see FusionPlan for the seeds)."""
    return FusionPlan(weights.n, weights.hidden, weights.heads, seed, v_mode)


# ---------------------------------------------------------------------------
# Offline weight fusion (fast factored transforms; runs once, before quantization)
# ---------------------------------------------------------------------------


def fuse_block(
    weights: DiTBlockWeights, plan: FusionPlan, inverse: bool = False
) -> tuple[DiTBlockWeights, tuple[OnlineTransform, ...]]:
    """Fold every offline factor into the weights and return them with
    plan.online, or with inverse=True fold the factors back out and return ().
    W_v takes its left factor, then its right one; the inverse runs in reverse.
    TypeError unless plan is a FusionPlan, and ShapeError unless it was built
    for the block's (n, hidden, heads)."""
    check_instance(plan, FusionPlan, "plan")
    planned, dims = (plan.n, plan.hidden, plan.heads), (weights.n, weights.hidden, weights.heads)
    if planned != dims:
        raise ShapeError(f"plan for (n, hidden, heads) = {planned} cannot fuse a block with {dims}")
    h, d = plan.heads_spec.dim, plan.head_spec.dim
    literal = plan.v_mode == "paper_literal"

    def left(w: np.ndarray, spec: HadamardSpec = plan.input_spec) -> np.ndarray:  # H^T W, or H W
        return spec.mix(w, (1, spec.dim, -1), inverse)

    def value(w: np.ndarray) -> np.ndarray:  # W_v (I_h (x) H_d), then (H_h (x) I_d) if literal
        w = plan.head_spec.mix(w, (-1, d, 1), inverse)
        return plan.heads_spec.mix(w, (-1, h, d), inverse) if literal else w

    # the folds are independent and run in decreasing order of scratch, so the
    # most scratch meets the fewest folded matrices: w_fc2 and w_fc1 (a wide
    # stage output and result), then w_v and w_out (two chained mixes: three
    # n x n arrays), then w_q and w_k (two)
    fused = {"w_fc2": left(weights.w_fc2, plan.hidden_spec), "w_fc1": left(weights.w_fc1)}
    fused["w_v"] = left(value(weights.w_v)) if inverse else value(left(weights.w_v))
    # per_head_exact: (H_h (x) H_d)^T W_out; paper_literal: (H_h (x) H_d) W_out
    t = inverse != literal
    fused["w_out"] = plan.heads_spec.mix(plan.head_spec.mix(weights.w_out, (h, d, -1), t),
                                         (1, h, -1), t)
    fused.update({name: left(getattr(weights, name)) for name in ("w_q", "w_k")})
    return replace(weights, **fused), () if inverse else plan.online


# ---------------------------------------------------------------------------
# Toy block forward
# ---------------------------------------------------------------------------


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-token layer norm with learned scale/shift, eps = 1e-6.  A row peaking
    beyond 2^256 is first scaled by an exact power of two into [2^127, 2^128),
    so its variance cannot overflow and eps stays negligible beside it.
    ShapeError naming gamma or beta unless its shape is (width,), and
    as_working's TypeError for complex or non-numeric input."""
    x, gamma, beta = as_working(x), as_working(gamma), as_working(beta)
    for name, v in (("gamma", gamma), ("beta", beta)):
        if v.shape != x.shape[-1:]:
            raise ShapeError(f"layer norm {name} must have shape {x.shape[-1:]} for input "
                             f"{x.shape}, got {v.shape}")
    _, k = np.frexp(max_abs(x, -1))
    if (k > 256).any():
        x = np.ldexp(x, np.where(k > 256, 128 - k, 0)[..., np.newaxis])
    # x.var's own steps, bit for bit, on the one x - mean the result is built in
    d = x - x.mean(axis=-1, keepdims=True)
    var = np.add.reduce(np.square(d), axis=-1, keepdims=True) / x.shape[-1]
    d /= np.sqrt(var + LN_EPS)
    d *= gamma
    d += beta
    return d


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: (0.5 x) (1 + erf(x / sqrt(2))), in one fresh buffer.
    scipy.special, for erf, is imported on the first call, not with fpqt."""
    import scipy.special

    y = np.asarray(x / math.sqrt(2.0))  # a 0-d input divides to a scalar
    scipy.special.erf(y, out=y)
    y += 1.0
    y *= 0.5 * x
    return y


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax: x - max, exponentiated and normalized in
    one fresh buffer; as_working's TypeError for complex or non-numeric x."""
    x = as_working(x)
    e = x - x.max(axis=axis, keepdims=True, initial=-np.inf)  # an empty axis is no error
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def cross_head_apply(x: np.ndarray, heads_spec: HadamardSpec) -> np.ndarray:
    """Apply (H_h (x) I_d) on the right of an (m, h*d) batch: H_h along the
    head axis of its (m, h, d) view, with d = width // h.

    Only log2(h) butterfly stages per within-head coordinate: cost
    m * n * log2(h) additions via the fast path on the head axis.  TypeError
    unless heads_spec is a HadamardSpec.
    """
    check_instance(heads_spec, HadamardSpec, "heads_spec")
    x, h = as_working(x), heads_spec.dim
    if x.ndim != 2 or x.shape[1] % h != 0:
        raise ShapeError(f"expected (m, {h} * head_dim) input, got {x.shape}")
    return heads_spec.mix(x, (len(x), h, x.shape[1] // h))


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> np.ndarray:
    """Scaled dot-product attention per head, as batched matmul over heads;
    ShapeError unless q, k and v share one 2-D shape and heads divides its width."""
    if q.ndim != 2 or not q.shape == k.shape == v.shape:
        raise ShapeError(f"q, k and v must share one (tokens, width) shape, got "
                         f"{q.shape}, {k.shape} and {v.shape}")
    tokens, n = q.shape
    if heads < 1 or n % heads != 0:
        raise ShapeError(f"head count {heads} must divide width {n}")
    d = n // heads
    qh = q.reshape(tokens, heads, d).transpose(1, 0, 2)  # (heads, tokens, d)
    kh = k.reshape(tokens, heads, d).transpose(1, 2, 0)  # (heads, d, tokens)
    vh = v.reshape(tokens, heads, d).transpose(1, 0, 2)
    scores = qh @ kh
    scores /= math.sqrt(d)
    ctx = softmax(scores) @ vh
    return ctx.transpose(1, 0, 2).reshape(tokens, n)


@dataclass(frozen=True)
class _IntForm:
    """w = q * scale per column of a 2-D w: q holds int8 integers of magnitude
    below 2^WEIGHT_BITS, and scale each column's unit 2^(e - WEIGHT_BITS), e
    being the frexp exponent of that column's peak (see _int_form)."""

    q: np.ndarray
    scale: np.ndarray


def _integer_units(x: np.ndarray, bits: int, axis: int, units: tuple[int, int],
                   peak: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """(q, u) when a 2-D x is integers q of magnitude below 2^bits times one unit
    2^u per row (axis=1) or column (axis=0): u = e - bits, e being the frexp
    exponent of that line's peak (0 for a zero peak), and q = ldexp(x, -u);
    peak is max_abs(x, axis), when the caller has it.  None unless every peak
    is finite, every u lies in units = (lowest, highest) and every q is an
    integer."""
    if peak is None:
        peak = max_abs(x, axis)
    if not np.isfinite(peak).all():
        return None
    u = np.frexp(peak)[1] - bits
    lowest, highest = units
    if u.min(initial=lowest) < lowest or u.max(initial=highest) > highest:
        return None
    q = np.ldexp(x, np.expand_dims(-u, axis))
    if not np.array_equal(np.rint(q), q):
        return None
    # only a negative shift can sink a nonzero value to zero
    if u.max(initial=0) > 0 and np.count_nonzero(q) != np.count_nonzero(x):
        return None
    return q, u


def _int_form(w: np.ndarray) -> _IntForm | None:
    """The int8 form of a 2-D w per column with s_w = WEIGHT_BITS, or None
    unless _integer_units finds one with every peak exponent |e| <= EXP_WINDOW."""
    found = _integer_units(w, WEIGHT_BITS, 0, (-EXP_WINDOW - WEIGHT_BITS, EXP_WINDOW - WEIGHT_BITS))
    return None if found is None else _IntForm(found[0].astype(np.int8), np.ldexp(1.0, found[1]))


def _exact_gemm(a: np.ndarray, w: _IntForm) -> np.ndarray:
    """The float32 activations a times w: one float32 GEMM of a and w's integers,
    cast to float64 and scaled by each column's unit (see block_forward)."""
    out = (a @ w.q.astype(np.float32)).astype(np.float64)
    out *= w.scale
    return out


def block_forward(
    x: np.ndarray,
    weights: DiTBlockWeights,
    online: tuple[OnlineTransform, ...] = (),
    act_quant: Callable[[np.ndarray, str], np.ndarray] | None = None,
    taps: dict[str, np.ndarray] | None = None,
    *,
    taps_only: bool = False,
) -> np.ndarray | None:
    """Run the block.  The six linear layers read four inputs, one per
    ONLINE_POINTS entry (see LAYER_INPUTS), and each input passes one feed
    step: the online transform scheduled at its point, if any, then the
    tap (taps[point] = a, when taps is given), then act_quant(a, point),
    when given.  An act_quant result of another shape is a ShapeError, a
    complex one a TypeError and one holding NaN or Inf a NumericalError,
    each naming the point.  With taps_only, which needs taps, the forward
    returns None once the last point (post_gelu) is tapped, without the
    w_fc2 GEMM and residual add: calibration reads the four taps alone.

    The body runs with numpy's overflow and invalid warnings off.  When
    act_quant raises a NumericalError or gives NaN or Inf, or the output is
    not finite, the weights are scanned, on that path alone: a NumericalError
    chained from the first error names each matrix or layer-norm vector
    holding NaN or Inf.  With all of them finite the first error stands, and
    a non-finite output is a NumericalError saying the values overflowed.

    With act_quant given, a layer runs as one float32 GEMM when its input is,
    per row, integers below 2^s_a times a unit 2^(e_a - s_a) in F32_UNITS,
    with s_a = GEMM_BITS - WEIGHT_BITS - ceil(log2 K) (K is the layer's
    in_dim and e_a the frexp exponent of the row's peak), and its weights
    have the int8 form of DiTBlockWeights.int_form (s_w = WEIGHT_BITS, column
    units 2^(e_w - s_w) with |e_w| <= EXP_WINDOW): the input enters as its
    own values in float32, and the result, cast to float64, is scaled by the
    column units.  Every other layer is a @ w in float64.  Both give the
    same bytes.  Each product of the GEMM is an integer below 2^(s_a + s_w)
    in the row's unit, so every partial sum of K of them, in any order,
    blocking or thread count, is an integer below 2^24 in that unit, which
    lies between float32's least subnormal and 2^104, where such sums stay
    below 2^128: float32 holds each exactly.  Scaled by a column unit, it is
    an integer below 2^24 in a unit between 2^-556 and 2^497, a normal
    float64, and a @ w's float64 products and partial sums are the same
    integers in the same units; both BLAS sums start from +0.0, so a zero
    result is +0.0 on either path.  W_q, W_k and W_v share their input's
    float32 values."""
    if taps_only and taps is None:
        raise ValueError("taps_only needs a taps dict to fill")
    x = as_working(x)
    if x.ndim != 2 or x.shape[1] != weights.n:
        raise ShapeError(f"expected (tokens, {weights.n}) input, got {x.shape}")
    if not np.isfinite(x).all():
        raise NumericalError("block input x holds non-finite values")
    at = {}
    for t in online:
        if not isinstance(t, OnlineTransform):
            raise TypeError(f"online entries must be OnlineTransform, got {type(t).__name__}")
        if t.point in at:
            raise ValueError(f"duplicate online transform at {t.point!r}")
        at[t.point] = t.spec

    def feed(a: np.ndarray, point: str) -> tuple[np.ndarray, np.ndarray | None]:
        if point in at:
            spec = at[point]
            a = cross_head_apply(a, spec) if point == "post_attention" else apply_right(a, spec)
        if taps is not None:
            taps[point] = a
        if act_quant is None:
            return a, None
        q = np.asarray(act_quant(a, point))
        if q.dtype.kind in "cSUV":  # as_working refuses these too, but names no point
            what = "complex" if q.dtype.kind == "c" else "string, bytes or void"
            raise TypeError(f"act_quant gave {what} values at {point!r}, dtype {q.dtype}")
        q = as_working(q)
        if q.shape != a.shape:
            raise ShapeError(f"act_quant gave shape {q.shape} at {point!r}, expected {a.shape}")
        peak = max_abs(q, 1)
        if not np.isfinite(peak).all():
            raise NumericalError(f"act_quant gave NaN or Inf at {point!r}")
        bits = GEMM_BITS - WEIGHT_BITS - (q.shape[1] - 1).bit_length()
        exact = _integer_units(q, bits, 1, F32_UNITS, peak) is not None
        return q, q.astype(np.float32) if exact else None

    def linear(fed: tuple[np.ndarray, np.ndarray | None], name: str) -> np.ndarray:
        a, a32 = fed
        w_form = None if a32 is None else weights.int_form(name)
        return a @ getattr(weights, name) if w_form is None else _exact_gemm(a32, w_form)

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            a = feed(layer_norm(x, weights.ln1_gamma, weights.ln1_beta), "attn_input")
            ctx = attention(linear(a, "w_q"), linear(a, "w_k"), linear(a, "w_v"), weights.heads)
            x2 = linear(feed(ctx, "post_attention"), "w_out")  # a fresh array: add in place
            x2 += x
            f = feed(layer_norm(x2, weights.ln2_gamma, weights.ln2_beta), "ffn_input")
            h = feed(gelu(linear(f, "w_fc1")), "post_gelu")
            if taps_only:  # a non-finite tap is refused by CalibrationSet
                return None
            out = linear(h, "w_fc2")
            out += x2
    except NumericalError as exc:  # from act_quant or its result's check
        weights.name_non_finite(exc)
        raise
    if not np.isfinite(out).all():
        weights.name_non_finite(NumericalError("block output holds NaN or Inf"))
        raise NumericalError("block output holds NaN or Inf: its values overflowed")
    return out
