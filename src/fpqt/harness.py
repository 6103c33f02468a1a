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

from .formats import parse_format
from .fusion import (
    LAYER_INPUTS,
    ONLINE_POINTS,
    V_MODES,
    DiTBlockWeights,
    FusionPlan,
    OnlineTransform,
    block_forward,
    fuse_block,
    layer_shapes,
    plan_fusion,
)
from .gptq import CalibrationSet, gptq_quantize
from .hadamard import op_count
from .quantize import minmax_quantize, quant_error
from .select import SelectionConfig, format_for_spread, spread_indicator
from .tensors import WORKING_DTYPE, channel_max_median_ratio

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
        for name, value in (("n", self.n), ("tokens", self.tokens), ("hidden", self.hidden_dim),
                            ("calib_samples", self.calib_samples)):
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        # keeps gen_activations finite: its unit-Gaussian draws lie far below 2^23
        if not abs(self.outlier_scale) <= 2.0**1000:
            raise ValueError(f"|outlier_scale| must be at most 2^1000, got {self.outlier_scale}")
        if self.v_mode not in V_MODES:
            raise ValueError(f"v_mode must be one of {V_MODES}, got {self.v_mode!r}")
        if self.heads < 1 or self.n % self.heads != 0:
            raise ValueError(f"heads {self.heads} must divide n {self.n}")
        if not 0 <= self.outlier_channels <= self.n:
            raise ValueError(
                f"outlier_channels {self.outlier_channels} must be in 0..n ({self.n})"
            )
        if self.method not in ("gptq", "rtn"):
            raise ValueError(f"method must be gptq or rtn, got {self.method!r}")
        if not 0.0 <= self.heavy_tail_fraction <= 1.0:
            raise ValueError("heavy_tail_fraction must be in [0, 1]")
        parse_format(self.act_format)
        if self.weight_format != "auto":
            parse_format(self.weight_format)
        SelectionConfig(n_bits=self.weight_bits, alpha=self.alpha)
        if self.use_hadamard:  # names the role of an unconstructible order or a bad seed
            FusionPlan(self.n, self.hidden_dim, self.heads, self.hadamard_seed, self.v_mode)
        for name in ("seed", "hadamard_seed"):  # the report echoes a seed even when unused
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

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

    def to_json(self) -> str:
        return strict_json(asdict(self))


def strict_json(obj) -> str:
    """Deterministic, strict JSON text: keys sorted, indented by 2, and the
    +inf sentinel (an unbounded sqnr_db, spread or channel ratio) written as
    null.  Any other non-finite float raises ValueError."""
    return json.dumps(_inf_as_null(obj), sort_keys=True, indent=2, allow_nan=False)


def _inf_as_null(obj):
    if isinstance(obj, dict):
        return {k: _inf_as_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_inf_as_null(v) for v in obj]
    return None if isinstance(obj, float) and obj == math.inf else obj


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _rng(cfg: HarnessConfig, *stream: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, *stream])


def init_weights(cfg: HarnessConfig) -> DiTBlockWeights:
    """Gaussian weights scaled by 1/sqrt(in_dim); optional heavy-tail
    entries (scaled 10x) to diversify per-matrix format selection."""
    rng = _rng(cfg, 0)
    n = cfg.n

    def mat(in_dim: int, out_dim: int) -> np.ndarray:
        w = rng.standard_normal((in_dim, out_dim))
        w /= math.sqrt(in_dim)
        if cfg.heavy_tail_fraction > 0.0:
            mask = rng.random((in_dim, out_dim)) < cfg.heavy_tail_fraction
            w = np.where(mask, w * HEAVY_TAIL_SCALE, w)
        return w

    return DiTBlockWeights(
        **{name: mat(*shape) for name, shape in layer_shapes(n, cfg.hidden_dim).items()},
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
    """The four layer inputs, by point, from full-precision forwards on fresh seeded batches."""
    draws = math.ceil(cfg.calib_samples / cfg.tokens)
    tapped: list[dict[str, np.ndarray]] = [{} for _ in range(draws)]
    for i, taps in enumerate(tapped):
        block_forward(gen_activations(cfg, index=i + 1), weights, online, taps=taps)
    return {point: CalibrationSet(np.vstack([t[point] for t in tapped])[: cfg.calib_samples])
            for point in ONLINE_POINTS}


def quantize_block_weights(
    cfg: HarnessConfig,
    weights: DiTBlockWeights,
    calib: dict[str, CalibrationSet] | None,
) -> tuple[DiTBlockWeights, dict]:
    """Quantize the six linear layers; returns new weights and per-layer metrics."""
    quantized = {}
    reports = {}
    for name, w in weights.matrices().items():
        spread = spread_indicator(w, cfg.alpha)
        if cfg.weight_format == "auto":
            fmt = format_for_spread(spread, cfg.weight_bits)
        else:
            fmt = parse_format(cfg.weight_format)
        if cfg.method == "gptq":
            qt = gptq_quantize(w, calib[LAYER_INPUTS[name]], fmt)
        else:
            qt = minmax_quantize(w, fmt, channel_axis=-1)
        quantized[name] = qt.values
        err = quant_error(w, qt.values)
        reports[name] = {
            "format": str(fmt),
            "method": cfg.method,
            "spread": spread,
            "bias_min": int(qt.bias.min()),
            "bias_max": int(qt.bias.max()),
            "weight_mse": err["mse"],
            "weight_sqnr_db": err["sqnr_db"],
        }
    return replace(weights, **quantized), reports


def distribution_stats(batch: np.ndarray) -> dict:
    """Channel outlier profile: max over per-channel maxima divided by their
    median, plus excess kurtosis m4 / m2^2 - 3 of the flattened values; +inf
    (the sentinel) when m2 is zero or lost to rounding, as for a constant batch.
    A batch whose peak lies beyond 2^+-256 is first scaled by the power of two
    that brings the peak into [0.5, 1), as in quant_error, so m4 cannot
    overflow or sink into subnormals; kurtosis is scale-invariant."""
    x = batch.ravel()
    _, k = math.frexp(float(np.abs(x).max(initial=0.0)))
    if abs(k) > 256:
        x = np.ldexp(x, -k)
    mean = x.mean()
    d = (x - mean) ** 2
    m2 = d.mean()
    flat = m2 <= (np.finfo(WORKING_DTYPE).eps * mean) ** 2  # scipy.stats.kurtosis's test
    return {
        "channel_max_median_ratio": channel_max_median_ratio(batch),
        "excess_kurtosis": math.inf if flat else float(np.mean(d * d) / m2**2 - 3),
    }


def estimate_cost(cfg: HarnessConfig) -> dict:
    """Static operation and byte accounting for one forward pass."""
    n, h, t = cfg.n, cfg.heads, cfg.tokens
    dims = layer_shapes(n, cfg.hidden_dim)
    layer_macs = {name: t * din * dout for name, (din, dout) in dims.items()}
    attention_macs = 2 * t * t * n  # scores and context, summed over heads

    hadamard_ops = {"adds": 0, "muls": 0, "transforms": []}
    if cfg.use_hadamard:
        # op counts do not depend on the sign-diagonal seed, so the plan has none
        for tr in FusionPlan(n, cfg.hidden_dim, h, v_mode=cfg.v_mode).online:
            # the cross-head mix runs the fast path on (tokens * head_dim, heads)
            ops = op_count(t * (n // h) if tr.point == "post_attention" else t, tr.spec)
            hadamard_ops["adds"] += ops["adds"]
            hadamard_ops["muls"] += ops["muls"]
            hadamard_ops["transforms"].append({"point": tr.point, **ops})

    param_count = sum(din * dout for din, dout in dims.values())
    out_channels = sum(dout for _, dout in dims.values())
    bytes_fp32 = 4 * param_count
    fixed = cfg.weight_format != "auto"  # a fixed format has its own width
    bits = parse_format(cfg.weight_format).n_bits if fixed else cfg.weight_bits
    bytes_quant = param_count * bits // 8
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
    taps: dict[str, np.ndarray] = {}
    ref = block_forward(x, weights, taps=taps)
    pre, taps = taps["attn_input"], {}  # keep only the block input across quantization

    qbase, online = weights, ()
    if cfg.use_hadamard:
        qbase, online = fuse_block(weights, plan_fusion(weights, cfg.hadamard_seed, cfg.v_mode))

    layer_reports: dict = {}
    if cfg.quantize_weights:
        qbase, layer_reports = quantize_block_weights(  # the calibration sets die with the call
            cfg, qbase, collect_calibration(cfg, qbase, online) if cfg.method == "gptq" else None)

    act_fmt = parse_format(cfg.act_format)
    act_quant = None
    if cfg.quantize_acts:
        act_quant = lambda a, point: minmax_quantize(a, act_fmt, channel_axis=-1).values

    out = block_forward(x, qbase, online, act_quant=act_quant, taps=taps)
    post = taps["attn_input"]  # the same input after the online transform

    return QuantReport(
        schema_version=SCHEMA_VERSION,
        config=asdict(cfg),
        layers=layer_reports,
        end_to_end=quant_error(ref, out),
        distribution={"pre_hadamard": distribution_stats(pre),
                      "post_hadamard": distribution_stats(post)},
        cost=estimate_cost(cfg),
    )
