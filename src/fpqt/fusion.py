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
Every factor is H along one axis of a reshaped view of the weight, no copy.

The 'paper_literal' value mode instead folds the full H_h (x) H_d into W_v
with no online stage; column mixing then crosses head boundaries before
per-head attention, so it is only equivalent for a single head.  It is kept
for measurement, not asserted as an invariance.

The block itself is a pre-norm transformer block: LN -> multi-head
attention -> residual, LN -> GELU feed-forward -> residual.  Attention
runs as batched matmul over heads, so its scores and context go through
BLAS.  Softmax, GELU (exact erf form), and layer norms stay in full
precision; the six linear layers are the quantization surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.special

from .errors import ShapeError
from .hadamard import HadamardSpec, _mix, apply_right
from .tensors import WORKING_DTYPE

LN_EPS = 1e-6

ONLINE_POINTS = ("attn_input", "post_attention", "ffn_input", "post_gelu")
V_MODES = ("per_head_exact", "paper_literal")
LAYER_NAMES = ("w_q", "w_k", "w_v", "w_out", "w_fc1", "w_fc2")
# the input point each linear layer reads; W_q, W_k and W_v share one input
LAYER_INPUTS = {"w_q": "attn_input", "w_k": "attn_input", "w_v": "attn_input",
                "w_out": "post_attention", "w_fc1": "ffn_input", "w_fc2": "post_gelu"}


def layer_shapes(n: int, hidden: int) -> dict[str, tuple[int, int]]:
    """(in_dim, out_dim) of each linear layer, in LAYER_NAMES order."""
    shapes = ((n, n), (n, n), (n, n), (n, n), (n, hidden), (hidden, n))
    return dict(zip(LAYER_NAMES, shapes))


@dataclass(frozen=True)
class DiTBlockWeights:
    """Weights of one block; matrices are input_dim x output_dim."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_out: np.ndarray
    w_fc1: np.ndarray
    w_fc2: np.ndarray
    heads: int
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray

    def __post_init__(self):
        for name in ("w_q", "w_fc1"):  # n and hidden are read from their shapes
            if np.ndim(getattr(self, name)) != 2:
                raise ShapeError(f"{name} must be 2-D, got shape {np.shape(getattr(self, name))}")
        n = self.n
        for name, shape in layer_shapes(n, self.hidden).items():
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} must be {shape}, got {getattr(self, name).shape}")
        for name in ("ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta"):
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
                v_mode: str = "per_head_exact") -> FusionPlan:
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
    ShapeError unless the plan was built for the block's (n, hidden, heads)."""
    planned, dims = (plan.n, plan.hidden, plan.heads), (weights.n, weights.hidden, weights.heads)
    if planned != dims:
        raise ShapeError(f"plan for (n, hidden, heads) = {planned} cannot fuse a block with {dims}")
    h, d = plan.heads_spec.dim, plan.head_spec.dim
    literal = plan.v_mode == "paper_literal"

    def mix(w: np.ndarray, view: tuple[int, ...], spec: HadamardSpec,
            transpose: bool = inverse) -> np.ndarray:  # H along the middle axis of the view
        return _mix(w.reshape(view), spec, transpose).reshape(w.shape)

    def left(w: np.ndarray, spec: HadamardSpec = plan.input_spec) -> np.ndarray:  # H^T W, or H W
        return mix(w, (1, spec.dim, -1), spec)

    def value(w: np.ndarray) -> np.ndarray:  # W_v (I_h (x) H_d), then (H_h (x) I_d) if literal
        w = mix(w, (-1, d, 1), plan.head_spec)
        return mix(w, (-1, h, d), plan.heads_spec) if literal else w

    # per_head_exact: (H_h (x) H_d)^T W_out; paper_literal: (H_h (x) H_d) W_out
    t = inverse != literal
    w_out = mix(mix(weights.w_out, (h, d, -1), plan.head_spec, t), (1, h, -1), plan.heads_spec, t)
    fused = replace(
        weights,
        **{name: left(getattr(weights, name)) for name in ("w_q", "w_k", "w_fc1")},
        w_v=left(value(weights.w_v)) if inverse else value(left(weights.w_v)),
        w_out=w_out,
        w_fc2=left(weights.w_fc2, plan.hidden_spec),
    )
    return fused, () if inverse else plan.online


# ---------------------------------------------------------------------------
# Toy block forward
# ---------------------------------------------------------------------------


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-token layer norm with learned scale/shift, eps = 1e-6.  A row peaking
    beyond 2^256 is first scaled by an exact power of two into [2^127, 2^128),
    so its variance cannot overflow and eps stays negligible beside it."""
    _, k = np.frexp(np.abs(x).max(axis=-1, keepdims=True))
    if (k > 256).any():
        x = np.ldexp(x, np.where(k > 256, 128 - k, 0))
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gamma + beta


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: (0.5 x) (1 + erf(x / sqrt(2))), in one fresh buffer."""
    y = np.asarray(x / math.sqrt(2.0))  # a 0-d input divides to a scalar
    scipy.special.erf(y, out=y)
    y += 1.0
    y *= 0.5 * x
    return y


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax: x - max, exponentiated and normalized in
    one fresh buffer."""
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def cross_head_apply(x: np.ndarray, heads_spec: HadamardSpec) -> np.ndarray:
    """Apply (H_h (x) I_d) on the right of an (m, h*d) batch: H_h along the
    head axis of its (m, h, d) view, with d = width // h.

    Only log2(h) butterfly stages per within-head coordinate: cost
    m * n * log2(h) additions via the fast path on the head axis.
    """
    h = heads_spec.dim
    if x.ndim != 2 or x.shape[1] % h != 0:
        raise ShapeError(f"expected (m, {h} * head_dim) input, got {x.shape}")
    return _mix(x.reshape(len(x), h, x.shape[1] // h), heads_spec).reshape(x.shape)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> np.ndarray:
    """Scaled dot-product attention per head, as batched matmul over heads."""
    tokens, n = q.shape
    d = n // heads
    qh = q.reshape(tokens, heads, d).transpose(1, 0, 2)  # (heads, tokens, d)
    kh = k.reshape(tokens, heads, d).transpose(1, 2, 0)  # (heads, d, tokens)
    vh = v.reshape(tokens, heads, d).transpose(1, 0, 2)
    scores = qh @ kh
    scores /= math.sqrt(d)
    ctx = softmax(scores) @ vh
    return ctx.transpose(1, 0, 2).reshape(tokens, n)


def block_forward(
    x: np.ndarray,
    weights: DiTBlockWeights,
    online: tuple[OnlineTransform, ...] = (),
    act_quant: Callable[[np.ndarray, str], np.ndarray] | None = None,
    taps: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Run the block.  The six linear layers read four inputs, one per
    ONLINE_POINTS entry (see LAYER_INPUTS), and each input passes one feed
    step: the online transform scheduled at its point, if any, then the
    tap (taps[point] = a, when taps is given), then act_quant(a, point),
    when given."""
    x = np.asarray(x, dtype=WORKING_DTYPE)
    if x.ndim != 2 or x.shape[1] != weights.n:
        raise ShapeError(f"expected (tokens, {weights.n}) input, got {x.shape}")
    at = {}
    for t in online:
        if t.point in at:
            raise ValueError(f"duplicate online transform at {t.point!r}")
        at[t.point] = t.spec

    def feed(a: np.ndarray, point: str) -> np.ndarray:
        if point in at:
            spec = at[point]
            a = cross_head_apply(a, spec) if point == "post_attention" else apply_right(a, spec)
        if taps is not None:
            taps[point] = a
        return act_quant(a, point) if act_quant is not None else a

    a = feed(layer_norm(x, weights.ln1_gamma, weights.ln1_beta), "attn_input")
    ctx = attention(a @ weights.w_q, a @ weights.w_k, a @ weights.w_v, weights.heads)
    x2 = x + feed(ctx, "post_attention") @ weights.w_out
    f = feed(layer_norm(x2, weights.ln2_gamma, weights.ln2_beta), "ffn_input")
    return x2 + feed(gelu(f @ weights.w_fc1), "post_gelu") @ weights.w_fc2
