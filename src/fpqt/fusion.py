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

FusionPlan.online is the one schedule of these online stages, in forward
order; fuse_block returns it and harness.estimate_cost costs it.

The 'paper_literal' value mode instead folds the full H_h (x) H_d into W_v
with no online stage; column mixing then crosses head boundaries before
per-head attention, so it is only equivalent for a single head.  It is kept
for measurement, not asserted as an invariance.

The block itself is a pre-norm transformer block: LN -> multi-head
attention -> residual, LN -> GELU feed-forward -> residual.  Softmax,
GELU (exact erf form), and layer norms stay in full precision; the six
linear layers are the quantization surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.special

from .errors import ShapeError
from .hadamard import HadamardSpec, apply_right, build
from .tensors import WORKING_DTYPE

LN_EPS = 1e-6

ONLINE_POINTS = ("attn_input", "post_attention", "ffn_input", "post_gelu")
V_MODES = ("per_head_exact", "paper_literal")
LAYER_NAMES = ("w_q", "w_k", "w_v", "w_out", "w_fc1", "w_fc2")


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

    point 'post_attention' applies the cross-head mix (H_h (x) I_d) of the
    given head-count spec; every other point applies the spec's full
    transform with apply_right.
    """

    point: str
    spec: HadamardSpec

    def __post_init__(self):
        if self.point not in ONLINE_POINTS:
            raise ValueError(f"unknown online point {self.point!r}; have {ONLINE_POINTS}")


@dataclass(frozen=True)
class FusionPlan:
    """The four transform factors a block fusion uses.

    input_spec has order n (block input), hidden_spec order hidden (FFN),
    head_spec order n/heads, heads_spec order heads.
    """

    input_spec: HadamardSpec
    hidden_spec: HadamardSpec
    head_spec: HadamardSpec
    heads_spec: HadamardSpec
    v_mode: str = "per_head_exact"

    def __post_init__(self):
        if self.v_mode not in V_MODES:
            raise ValueError(f"unknown v_mode {self.v_mode!r}; have {V_MODES}")

    @property
    def online(self) -> tuple[OnlineTransform, ...]:
        """The runtime transforms that cancel this plan's fusion, in
        ONLINE_POINTS order; paper_literal has no post-attention mix."""
        specs = {"attn_input": self.input_spec, "post_attention": self.heads_spec,
                 "ffn_input": self.input_spec, "post_gelu": self.hidden_spec}
        return tuple(OnlineTransform(p, specs[p]) for p in ONLINE_POINTS
                     if p != "post_attention" or self.v_mode == "per_head_exact")


def plan_fusion(
    weights: DiTBlockWeights, seed: int | None = None, v_mode: str = "per_head_exact"
) -> FusionPlan:
    """Build the four specs for a block's dims; seed=None disables the
    random sign diagonals, an integer seeds each factor deterministically."""
    seeds = [None] * 4 if seed is None else [seed + k for k in range(4)]
    return FusionPlan(
        input_spec=build(weights.n, seeds[0]),
        hidden_spec=build(weights.hidden, seeds[1]),
        head_spec=build(weights.head_dim, seeds[2]),
        heads_spec=build(weights.heads, seeds[3]),
        v_mode=v_mode,
    )


# ---------------------------------------------------------------------------
# Offline weight fusion (fast factored transforms; runs once, before quantization)
# ---------------------------------------------------------------------------


def _transposed(x: np.ndarray) -> np.ndarray:
    """C-contiguous x.T; a transposed view would make every later ravel copy."""
    return np.ascontiguousarray(x.T)


def _value_right(x: np.ndarray, plan: FusionPlan, transpose: bool) -> np.ndarray:
    """x @ (H_h (x) H_d), or x @ (H_h (x) H_d)^T when transpose is set.

    (I_h (x) H_d) and (H_h (x) I_d) commute, so either direction is the
    per-head stage followed by the cross-head mix."""
    d = plan.head_spec.dim
    per_head = apply_right(x.reshape(-1, d), plan.head_spec, transpose=transpose)
    return cross_head_apply(per_head.reshape(x.shape), plan.heads_spec, d, transpose=transpose)


def fuse_input(
    weights: DiTBlockWeights, plan: FusionPlan, inverse: bool = False
) -> DiTBlockWeights:
    """Fold H^T into every layer fed by a transformed block input, or with
    inverse=True fold H back in.  H^T W = (W^T H)^T, so both run apply_right."""
    spec = plan.input_spec
    return replace(weights, **{
        name: _transposed(apply_right(getattr(weights, name).T, spec, transpose=inverse))
        for name in ("w_q", "w_k", "w_v", "w_fc1")
    })


def fuse_v_out(
    weights: DiTBlockWeights, plan: FusionPlan, inverse: bool = False
) -> DiTBlockWeights:
    """Fold the value-path transform into W_v and its inverse into W_out, or
    with inverse=True undo that."""
    if plan.v_mode == "per_head_exact":
        # W_v (I_h (x) H_d) and (H_h (x) H_d)^T W_out
        d = plan.head_spec.dim
        w_v = apply_right(weights.w_v.reshape(-1, d), plan.head_spec, transpose=inverse)
        w_v = w_v.reshape(weights.w_v.shape)
        w_out = _transposed(_value_right(weights.w_out.T, plan, inverse))
    else:  # paper_literal: W_v (H_h (x) H_d) and (H_h (x) H_d) W_out
        w_v = _value_right(weights.w_v, plan, inverse)
        w_out = _transposed(_value_right(weights.w_out.T, plan, not inverse))
    return replace(weights, w_v=w_v, w_out=w_out)


def fuse_ffn(
    weights: DiTBlockWeights, plan: FusionPlan, inverse: bool = False
) -> DiTBlockWeights:
    """Fold H_hidden^T into W_fc2 (pairs with the online post-GELU transform),
    or with inverse=True fold H_hidden back in."""
    w_fc2 = apply_right(weights.w_fc2.T, plan.hidden_spec, transpose=inverse)
    return replace(weights, w_fc2=_transposed(w_fc2))


def fuse_block(
    weights: DiTBlockWeights, plan: FusionPlan
) -> tuple[DiTBlockWeights, tuple[OnlineTransform, ...]]:
    """Fully fuse a block; returns the new weights and plan.online."""
    return fuse_ffn(fuse_v_out(fuse_input(weights, plan), plan), plan), plan.online


# ---------------------------------------------------------------------------
# Toy block forward
# ---------------------------------------------------------------------------


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-token layer norm with learned scale/shift, eps = 1e-6."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gamma + beta


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: 0.5 x (1 + erf(x / sqrt(2)))."""
    return 0.5 * x * (1.0 + scipy.special.erf(x / math.sqrt(2.0)))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def cross_head_apply(
    x: np.ndarray, heads_spec: HadamardSpec, head_dim: int, transpose: bool = False
) -> np.ndarray:
    """Apply (H_h (x) I_d), or its transpose, on the right of an (m, h*d) batch.

    Only log2(h) butterfly stages per within-head coordinate: cost
    m * n * log2(h) additions via the fast path on the head axis.
    """
    m, n = x.shape
    h = heads_spec.dim
    if n != h * head_dim:
        raise ShapeError(f"expected (m, {h * head_dim}) input, got {x.shape}")
    cols = x.reshape(m, h, head_dim).transpose(0, 2, 1).reshape(m * head_dim, h)
    mixed = apply_right(cols, heads_spec, transpose=transpose)
    return mixed.reshape(m, head_dim, h).transpose(0, 2, 1).reshape(m, n)


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> np.ndarray:
    tokens, n = q.shape
    d = n // heads
    qh = q.reshape(tokens, heads, d)
    kh = k.reshape(tokens, heads, d)
    vh = v.reshape(tokens, heads, d)
    scores = np.einsum("thd,shd->hts", qh, kh) / math.sqrt(d)
    attn = softmax(scores, axis=-1)
    ctx = np.einsum("hts,shd->thd", attn, vh)
    return ctx.reshape(tokens, n)


def block_forward(
    x: np.ndarray,
    weights: DiTBlockWeights,
    online: tuple[OnlineTransform, ...] = (),
    act_quant: Callable[[np.ndarray, str], np.ndarray] | None = None,
    taps: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Run the block.  online transforms fire at their named points;
    act_quant(a, layer_name), when given, quantizes each linear layer's
    input; taps, when given, records each layer's input (post-transform,
    pre-quantization) under its layer name."""
    x = np.asarray(x, dtype=WORKING_DTYPE)
    if x.ndim != 2 or x.shape[1] != weights.n:
        raise ShapeError(f"expected (tokens, {weights.n}) input, got {x.shape}")
    at = {}
    for t in online:
        if t.point in at:
            raise ValueError(f"duplicate online transform at {t.point!r}")
        at[t.point] = t

    def feed(a: np.ndarray, layer: str) -> np.ndarray:
        if taps is not None:
            taps[layer] = a
        return act_quant(a, layer) if act_quant is not None else a

    a = layer_norm(x, weights.ln1_gamma, weights.ln1_beta)
    if "attn_input" in at:
        a = apply_right(a, at["attn_input"].spec)
    q = feed(a, "w_q") @ weights.w_q
    k = feed(a, "w_k") @ weights.w_k
    v = feed(a, "w_v") @ weights.w_v
    ctx = _attention(q, k, v, weights.heads)
    if "post_attention" in at:
        ctx = cross_head_apply(ctx, at["post_attention"].spec, weights.head_dim)
    x2 = x + feed(ctx, "w_out") @ weights.w_out

    f = layer_norm(x2, weights.ln2_gamma, weights.ln2_beta)
    if "ffn_input" in at:
        f = apply_right(f, at["ffn_input"].spec)
    g = gelu(feed(f, "w_fc1") @ weights.w_fc1)
    if "post_gelu" in at:
        g = apply_right(g, at["post_gelu"].spec)
    return x2 + feed(g, "w_fc2") @ weights.w_fc2
