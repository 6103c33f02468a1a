"""End-to-end quantization harness on a toy attention block.

Builds a seeded random block (Gaussian weights scaled by 1/sqrt(in_dim)),
feeds it unit-Gaussian token batches with a few outlier-scaled channels,
and measures what each quantization configuration does to the block output
against the full-precision reference.  The pipeline order matches the
deployment story: fuse transforms into weights offline, quantize the fused
weights (Hessian-guided or plain MinMax), then at runtime apply the online
transforms, quantize activations per channel, and run the quantized matmuls
in working precision.  Softmax, GELU, and layer norms stay full precision.

The report is a plain JSON-serializable structure with a versioned schema;
serialization is deterministic, so identical config and seed give
byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np
import scipy.stats

from .formats import parse_format
from .fusion import (
    LAYER_NAMES,
    DiTBlockWeights,
    OnlineTransform,
    block_forward,
    fuse_block,
    layer_norm,
    plan_fusion,
)
from .gptq import CalibrationSet, GptqConfig, gptq_quantize
from .hadamard import apply_right, build, factorize, op_count
from .quantize import minmax_quantize, quant_error
from .select import SelectionConfig, select_format, spread_indicator
from .tensors import WORKING_DTYPE, channel_stat

SCHEMA_VERSION = 1
HEAVY_TAIL_SCALE = 10.0


@dataclass(frozen=True)
class HarnessConfig:
    n: int = 64
    heads: int = 4
    tokens: int = 128
    hidden: Optional[int] = None  # None -> 4 * n
    outlier_channels: int = 2
    outlier_scale: float = 100.0
    seed: int = 0
    weight_format: str = "auto"  # 'auto' or a concrete E<k>M<j>
    weight_bits: int = 4
    act_format: str = "E2M1"
    quantize_weights: bool = True
    quantize_acts: bool = True
    use_hadamard: bool = True
    hadamard_seed: Optional[int] = None  # None -> no random sign diagonal
    v_mode: str = "per_head_exact"
    method: str = "gptq"  # or 'rtn'
    calib_samples: int = 512
    alpha: float = 25.0
    heavy_tail_fraction: float = 0.0

    def __post_init__(self):
        if self.n < 1 or self.tokens < 1:
            raise ValueError("n and tokens must be positive")
        if self.heads < 1 or self.n % self.heads != 0:
            raise ValueError(f"heads {self.heads} must divide n {self.n}")
        if not 0 <= self.outlier_channels <= self.n:
            raise ValueError(
                f"outlier_channels {self.outlier_channels} must be in 0..n ({self.n})"
            )
        if self.method not in ("gptq", "rtn"):
            raise ValueError(f"method must be gptq or rtn, got {self.method!r}")
        if self.calib_samples < 1:
            raise ValueError("calib_samples must be positive")
        if not 0.0 <= self.heavy_tail_fraction <= 1.0:
            raise ValueError("heavy_tail_fraction must be in [0, 1]")
        parse_format(self.act_format)
        if self.weight_format != "auto":
            parse_format(self.weight_format)
        SelectionConfig(n_bits=self.weight_bits, alpha=self.alpha)
        if self.use_hadamard:
            for field, order in (("n", self.n), ("hidden", self.hidden_dim),
                                 ("n // heads", self.n // self.heads), ("heads", self.heads)):
                try:
                    factorize(order)
                except ValueError as exc:
                    raise ValueError(f"use_hadamard needs a transform of order "
                                     f"{field} = {order}: {exc}") from None

    @property
    def hidden_dim(self) -> int:
        return self.hidden if self.hidden is not None else 4 * self.n


@dataclass(frozen=True)
class QuantReport:
    schema_version: int
    config: dict
    layers: dict
    end_to_end: dict
    distribution: dict
    cost: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "layers": self.layers,
            "end_to_end": self.end_to_end,
            "distribution": self.distribution,
            "cost": self.cost,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def _to_py(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {k: _to_py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_py(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _rng(cfg: HarnessConfig, *stream: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, *stream])


def init_weights(cfg: HarnessConfig) -> DiTBlockWeights:
    """Gaussian weights scaled by 1/sqrt(in_dim); optional heavy-tail
    entries (scaled 10x) to diversify per-matrix format selection."""
    rng = _rng(cfg, 0)
    n, hidden = cfg.n, cfg.hidden_dim

    def mat(in_dim: int, out_dim: int) -> np.ndarray:
        w = rng.standard_normal((in_dim, out_dim)) / math.sqrt(in_dim)
        if cfg.heavy_tail_fraction > 0.0:
            mask = rng.random((in_dim, out_dim)) < cfg.heavy_tail_fraction
            w = np.where(mask, w * HEAVY_TAIL_SCALE, w)
        return w

    return DiTBlockWeights(
        w_q=mat(n, n),
        w_k=mat(n, n),
        w_v=mat(n, n),
        w_out=mat(n, n),
        w_fc1=mat(n, hidden),
        w_fc2=mat(hidden, n),
        heads=cfg.heads,
        ln1_gamma=np.ones(n, dtype=WORKING_DTYPE),
        ln1_beta=np.zeros(n, dtype=WORKING_DTYPE),
        ln2_gamma=np.ones(n, dtype=WORKING_DTYPE),
        ln2_beta=np.zeros(n, dtype=WORKING_DTYPE),
    )


def outlier_columns(cfg: HarnessConfig) -> np.ndarray:
    """The channel indices that carry outliers; fixed per config seed so
    every batch drawn for that config shares the same outlier structure."""
    return np.sort(_rng(cfg, 3).choice(cfg.n, size=cfg.outlier_channels, replace=False))


def gen_activations(cfg: HarnessConfig, index: int = 0) -> np.ndarray:
    """Unit-Gaussian (tokens, n) batch with the outlier channels scaled.

    index selects independent batches under the same config: 0 is the
    evaluation batch, 1.. are calibration batches.
    """
    x = _rng(cfg, 1, index).standard_normal((cfg.tokens, cfg.n))
    cols = outlier_columns(cfg)
    if cols.size:
        x[:, cols] *= cfg.outlier_scale
    return x


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


def collect_calibration(
    cfg: HarnessConfig,
    weights: DiTBlockWeights,
    online: tuple[OnlineTransform, ...],
) -> dict[str, CalibrationSet]:
    """Per-layer inputs from full-precision forwards on fresh seeded batches."""
    draws = math.ceil(cfg.calib_samples / cfg.tokens)
    collected: dict[str, list[np.ndarray]] = {name: [] for name in LAYER_NAMES}
    for i in range(draws):
        taps: dict[str, np.ndarray] = {}
        block_forward(gen_activations(cfg, index=i + 1), weights, online, taps=taps)
        for name in LAYER_NAMES:
            collected[name].append(taps[name])
    return {
        name: CalibrationSet(np.vstack(chunks)[: cfg.calib_samples])
        for name, chunks in collected.items()
    }


def quantize_block_weights(
    cfg: HarnessConfig,
    weights: DiTBlockWeights,
    calib: dict[str, CalibrationSet] | None,
) -> tuple[DiTBlockWeights, dict]:
    """Quantize the six linear layers; returns new weights and per-layer metrics."""
    sel_cfg = SelectionConfig(n_bits=cfg.weight_bits, alpha=cfg.alpha)
    quantized = {}
    reports = {}
    for name, w in weights.matrices().items():
        if cfg.weight_format == "auto":
            fmt = select_format(w, sel_cfg)
        else:
            fmt = parse_format(cfg.weight_format)
        if cfg.method == "gptq":
            qt = gptq_quantize(w, calib[name], fmt)
        else:
            qt = minmax_quantize(w, fmt, channel_axis=-1)
        quantized[name] = qt.values
        err = quant_error(w, qt.values)
        reports[name] = {
            "format": str(fmt),
            "method": cfg.method,
            "spread": spread_indicator(w, cfg.alpha),
            "bias_min": int(qt.bias.min()),
            "bias_max": int(qt.bias.max()),
            "weight_mse": err["mse"],
            "weight_sqnr_db": err["sqnr_db"],
        }
    return replace(weights, **quantized), reports


def distribution_stats(batch: np.ndarray) -> dict:
    """Channel outlier profile: max over per-channel maxima divided by their
    median, plus excess kurtosis of the flattened values."""
    cmax = channel_stat(batch, "max_abs")
    med = float(np.median(cmax))
    top = float(cmax.max())
    ratio = float("inf") if med == 0.0 else top / med
    return {
        "channel_max_median_ratio": ratio,
        "excess_kurtosis": float(scipy.stats.kurtosis(batch.ravel())),
    }


def estimate_cost(cfg: HarnessConfig) -> dict:
    """Static operation and byte accounting for one forward pass."""
    n, h, t, hidden = cfg.n, cfg.heads, cfg.tokens, cfg.hidden_dim
    dims = {
        "w_q": (n, n),
        "w_k": (n, n),
        "w_v": (n, n),
        "w_out": (n, n),
        "w_fc1": (n, hidden),
        "w_fc2": (hidden, n),
    }
    layer_macs = {name: t * din * dout for name, (din, dout) in dims.items()}
    attention_macs = 2 * t * t * n  # scores and context, summed over heads

    hadamard_ops = {"adds": 0, "muls": 0, "transforms": []}
    if cfg.use_hadamard:
        # Op counts are independent of the sign-diagonal seed, so the specs
        # can be built from dimensions alone without touching any weights.
        input_spec, hidden_spec, heads_spec = build(n), build(hidden), build(h)
        stages = [
            ("attn_input", op_count(t, input_spec)),
            ("ffn_input", op_count(t, input_spec)),
            ("post_gelu", op_count(t, hidden_spec)),
        ]
        if cfg.v_mode == "per_head_exact":
            # cross-head mix runs the fast path on (tokens * head_dim, heads)
            stages.insert(1, ("post_attention", op_count(t * (n // h), heads_spec)))
        for point, ops in stages:
            hadamard_ops["adds"] += ops["adds"]
            hadamard_ops["muls"] += ops["muls"]
            hadamard_ops["transforms"].append({"point": point, **ops})

    param_count = sum(din * dout for din, dout in dims.values())
    out_channels = sum(dout for _, dout in dims.values())
    bytes_fp32 = 4 * param_count
    bytes_quant = param_count * cfg.weight_bits // 8
    return {
        "matmul_macs": {**layer_macs, "attention": attention_macs},
        "hadamard": hadamard_ops,
        "weight_bytes_fp32": bytes_fp32,
        "weight_bytes_quant": bytes_quant,
        "bias_overhead_bytes": out_channels,  # one 8-bit exponent bias per channel
        "bytes_ratio_before_bias": bytes_fp32 / bytes_quant,
    }


def run(cfg: HarnessConfig) -> QuantReport:
    """Run the full pipeline once and report."""
    weights = init_weights(cfg)
    x = gen_activations(cfg, index=0)
    ref = block_forward(x, weights)

    if cfg.use_hadamard:
        plan = plan_fusion(weights, cfg.hadamard_seed, cfg.v_mode)
        qbase, online = fuse_block(weights, plan)
    else:
        plan = None
        qbase, online = weights, ()

    pre = layer_norm(x, weights.ln1_gamma, weights.ln1_beta)
    post = apply_right(pre, plan.input_spec) if plan is not None else pre

    layer_reports: dict = {}
    if cfg.quantize_weights:
        calib = None
        if cfg.method == "gptq":
            calib = collect_calibration(cfg, qbase, online)
        qbase, layer_reports = quantize_block_weights(cfg, qbase, calib)

    act_fmt = parse_format(cfg.act_format)
    act_quant = None
    if cfg.quantize_acts:
        act_quant = lambda a, layer: minmax_quantize(a, act_fmt, channel_axis=-1).values

    out = block_forward(x, qbase, online, act_quant=act_quant)

    return QuantReport(
        schema_version=SCHEMA_VERSION,
        config=_to_py(asdict(cfg)),
        layers=_to_py(layer_reports),
        end_to_end=_to_py(quant_error(ref, out)),
        distribution=_to_py(
            {"pre_hadamard": distribution_stats(pre), "post_hadamard": distribution_stats(post)}
        ),
        cost=_to_py(estimate_cost(cfg)),
    )
