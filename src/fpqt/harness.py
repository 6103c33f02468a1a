"""End-to-end quantization harness on a toy attention block.

Builds a seeded random block (Gaussian weights scaled by 1/sqrt(in_dim)),
feeds it unit-Gaussian token batches with a few outlier-scaled channels,
and measures what each quantization configuration does to the block output
against the full-precision reference.  The pipeline order matches the
deployment story: fuse transforms into weights offline, quantize the fused
weights (Hessian-guided or plain MinMax), then at runtime apply the online
transforms, quantize activations, and run the quantized matmuls.  Softmax,
GELU, and layer norms stay full precision.

Quantized linear layers run as exact float32 GEMMs: see fusion.block_forward.

run() quantizes activations with one exponent bias per input channel
(channel_axis=-1 on (tokens, width)), taken from the evaluated batch itself.
That bias sits on the matmul's contraction axis and changes with the batch,
so it cannot be folded into the weights offline.  perfbench's serve-w4a4
workload quantizes per token (channel_axis=0) instead.

A HarnessConfig builds its FusionPlan (cfg.plan), activation format
(cfg.act_fmt) and fixed weight format (cfg.weight_fmt) once.  estimate_cost
costs each transform of cfg.plan.online as op_count(tokens * width // order),
width being its point's input width.

The report is a plain JSON-serializable structure with a versioned schema;
serialization is deterministic, so identical config and seed give
byte-identical reports.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import NumericalError, check_instance, check_types
from .formats import FpFormat, parse_format
from .fusion import (
    LAYER_INPUTS,
    LAYER_NAMES,
    ONLINE_POINTS,
    V_MODES,
    DiTBlockWeights,
    FusionPlan,
    OnlineTransform,
    block_forward,
    fuse_block,
    layer_shapes,
)
from .gptq import CalibrationSet, gptq_quantize
from .hadamard import op_count
from .quantize import minmax_quantize, quant_error, sqnr
from .select import SelectionConfig, format_for_spread, spread_indicator
from .tensors import WORKING_DTYPE, channel_max_median_ratio, max_abs

SCHEMA_VERSION = 1
HEAVY_TAIL_SCALE = 10.0
METHODS = ("gptq", "rtn")


def _flag(default, **cli):
    """A field whose `fpqt simulate`/`cost` flag takes these argparse keywords (help, choices)."""
    return field(default=default, metadata=cli)


@dataclass(frozen=True)
class HarnessConfig:
    n: int = _flag(64, help="model width")
    heads: int = _flag(4, help="attention heads")
    tokens: int = _flag(128, help="tokens per batch")
    hidden: int | None = _flag(None, help="FFN width (default 4*n)")
    outlier_channels: int = 2
    outlier_scale: float = 100.0
    seed: int = 0
    weight_format: str = _flag("auto", help="'auto' or a concrete format such as E2M1")
    weight_bits: int = SelectionConfig.n_bits
    act_format: str = "E2M1"
    quantize_weights: bool = True
    quantize_acts: bool = True
    use_hadamard: bool = True
    hadamard_seed: int | None = _flag(None, help="seed for random sign diagonals (default: none)")
    v_mode: str = _flag(FusionPlan.v_mode, choices=V_MODES)
    method: str = _flag("gptq", choices=METHODS)
    calib_samples: int = 512
    alpha: float = _flag(SelectionConfig.alpha, help="percentile for the spread indicator")
    heavy_tail_fraction: float = 0.0

    def __post_init__(self):
        check_types(self)
        for name, value in (("n", self.n), ("tokens", self.tokens), ("hidden", self.hidden_dim),
                            ("calib_samples", self.calib_samples)):
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        # keeps gen_activations finite: its unit-Gaussian draws lie far below 2^23
        scale = self.outlier_scale  # compared as a Python number: a float32 cannot hold 2^1000
        if not abs(scale if isinstance(scale, numbers.Rational) else float(scale)) <= 2.0**1000:
            raise ValueError(f"|outlier_scale| must be at most 2^1000, got {self.outlier_scale}")
        if self.v_mode not in V_MODES:
            raise ValueError(f"v_mode must be one of {V_MODES}, got {self.v_mode!r}")
        if self.heads < 1 or self.n % self.heads != 0:
            raise ValueError(f"heads {self.heads} must divide n {self.n}")
        if not 0 <= self.outlier_channels <= self.n:
            raise ValueError(
                f"outlier_channels {self.outlier_channels} must be in 0..n ({self.n})"
            )
        if self.method not in METHODS:
            raise ValueError(f"method must be gptq or rtn, got {self.method!r}")
        if not 0.0 <= self.heavy_tail_fraction <= 1.0:
            raise ValueError("heavy_tail_fraction must be in [0, 1]")
        self.act_fmt  # built here, as are weight_fmt and the plan, and cached for the run
        self.weight_fmt
        SelectionConfig(n_bits=self.weight_bits, alpha=self.alpha)
        self.plan
        for name in ("seed", "hadamard_seed"):  # the report echoes a seed even when unused
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @property
    def hidden_dim(self) -> int:
        return self.hidden if self.hidden is not None else 4 * self.n

    # built once per config and cached; not fields, so asdict, == and hash skip them
    @cached_property
    def act_fmt(self) -> FpFormat:
        return parse_format(self.act_format)

    @cached_property
    def weight_fmt(self) -> FpFormat | None:  # None: 'auto' selects each layer's format
        return None if self.weight_format == "auto" else parse_format(self.weight_format)

    @cached_property
    def plan(self) -> FusionPlan | None:  # None without the transform
        if not self.use_hadamard:
            return None  # else names the role of an unconstructible order or a bad seed
        return FusionPlan(self.n, self.hidden_dim, self.heads, self.hadamard_seed, self.v_mode)


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
    """The generator of one seeded stream; TypeError unless cfg is a HarnessConfig,
    so init_weights, gen_activations, outlier_columns and run name a wrong cfg."""
    check_instance(cfg, HarnessConfig, "cfg")
    return np.random.default_rng([cfg.seed, *stream])


def init_weights(cfg: HarnessConfig) -> DiTBlockWeights:
    """Gaussian weights scaled by 1/sqrt(in_dim); optional heavy-tail
    entries (scaled 10x) to diversify per-matrix format selection.  TypeError
    unless cfg is a HarnessConfig."""
    rng = _rng(cfg, 0)

    def mat(in_dim: int, out_dim: int) -> np.ndarray:
        w = rng.standard_normal((in_dim, out_dim))
        w /= math.sqrt(in_dim)
        if cfg.heavy_tail_fraction > 0.0:
            mask = rng.random((in_dim, out_dim)) < cfg.heavy_tail_fraction
            w = np.where(mask, w * HEAVY_TAIL_SCALE, w)
        return w

    shapes = layer_shapes(cfg.n, cfg.hidden_dim)
    return DiTBlockWeights(**{name: mat(*shape) for name, shape in shapes.items()}, heads=cfg.heads)


def outlier_columns(cfg: HarnessConfig) -> np.ndarray:
    """The channel indices that carry outliers; fixed per config seed so
    every batch drawn for that config shares the same outlier structure."""
    return np.sort(_rng(cfg, 3).choice(cfg.n, size=cfg.outlier_channels, replace=False))


def gen_activations(cfg: HarnessConfig, index: int = 0) -> np.ndarray:
    """Unit-Gaussian (tokens, n) batch with the outlier channels scaled.

    index selects independent batches under the same config: 0 is the
    evaluation batch, 1.. are calibration batches.  TypeError unless cfg is a
    HarnessConfig.
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
    """The four layer inputs, by point, from full-precision forwards on fresh
    seeded batches.  Each forward stops at its last tap, post_gelu: the
    w_fc2 output, which no calibration set reads, is never computed.
    TypeError unless cfg is a HarnessConfig."""
    check_instance(cfg, HarnessConfig, "cfg")
    draws = math.ceil(cfg.calib_samples / cfg.tokens)
    tapped: list[dict[str, np.ndarray]] = [{} for _ in range(draws)]
    for i, taps in enumerate(tapped):
        x = gen_activations(cfg, index=i + 1)
        block_forward(x, weights, online, taps=taps, taps_only=True)
    return {point: CalibrationSet(np.vstack([t[point] for t in tapped])[: cfg.calib_samples])
            for point in ONLINE_POINTS}


def quantize_block_weights(
    cfg: HarnessConfig,
    weights: DiTBlockWeights,
    calib: dict[str, CalibrationSet] | None,
) -> tuple[DiTBlockWeights, dict]:
    """Quantize the six linear layers; returns new weights and per-layer metrics.

    Each layer takes cfg's fixed format or the one its spread selects.  RTN
    snaps each layer on its own.  GPTQ sweeps the layers that read one input
    point (LAYER_INPUTS) in one format as one matrix, their columns side by
    side (W_q | W_k | W_v), which gives each layer the bytes a sweep of its
    own would, so a calibration set is factored once per format.  Sweeps
    run widest input first: post_gelu's hidden x hidden factor is taken
    before any quantized output exists, and each factor dies with its
    sweep.  The block given is left unchanged; the returned matrices are
    read-only, so the block's integer forms (DiTBlockWeights.int_form) can
    be kept, and the reports follow LAYER_NAMES order.  With method gptq, a
    ValueError names any calibration point calib lacks, before any sweep.
    TypeError unless cfg is a HarnessConfig.
    """
    check_instance(cfg, HarnessConfig, "cfg")
    if cfg.method == "gptq":
        missing = [p for p in ONLINE_POINTS if calib is None or p not in calib]
        if missing:
            raise ValueError(f"method 'gptq' needs a calibration set at {', '.join(missing)}; "
                             f"calib {'is None' if calib is None else 'lacks them'}")
    mats = weights.matrices()
    try:
        spreads = {name: spread_indicator(w, cfg.alpha) for name, w in mats.items()}
    except NumericalError as exc:
        weights.name_non_finite(exc)
        raise
    fmts = {name: cfg.weight_fmt or format_for_spread(spread, cfg.weight_bits)
            for name, spread in spreads.items()}
    sweeps: dict[tuple, list[str]] = {}
    for name in LAYER_NAMES:
        key = (LAYER_INPUTS[name], fmts[name]) if cfg.method == "gptq" else (name,)
        sweeps.setdefault(key, []).append(name)

    quantized, biases = {}, {}
    for names in sorted(sweeps.values(), key=lambda names: -mats[names[0]].shape[0]):
        fmt = fmts[names[0]]
        w = np.hstack([mats[name] for name in names]) if len(names) > 1 else mats[names[0]]
        if cfg.method == "gptq":
            qt = gptq_quantize(w, calib[LAYER_INPUTS[names[0]]], fmt)
        else:
            qt = minmax_quantize(w, fmt, channel_axis=-1)
        del w
        edges = np.cumsum([mats[name].shape[1] for name in names])[:-1]
        parts = zip(names, np.split(qt.values, edges, axis=1), np.split(qt.bias, edges))
        for name, values, bias in parts:  # C-contiguous, as BLAS read each layer before
            quantized[name], biases[name] = np.ascontiguousarray(values), bias
            quantized[name].flags.writeable = False

    reports = {}
    for name in LAYER_NAMES:
        err = sqnr(mats[name], quantized[name])
        reports[name] = {
            "format": str(fmts[name]),
            "method": cfg.method,
            "spread": spreads[name],
            "bias_min": int(biases[name].min()),
            "bias_max": int(biases[name].max()),
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
    overflow or sink into subnormals; kurtosis is scale-invariant.  ShapeError
    unless the batch is 2-D and nonempty."""
    ratio = channel_max_median_ratio(batch)
    x = batch.ravel()
    _, k = math.frexp(float(max_abs(x)))
    if abs(k) > 256:
        x = np.ldexp(x, -k)
    mean = x.mean()
    d = (x - mean) ** 2
    m2 = d.mean()
    flat = m2 <= (np.finfo(WORKING_DTYPE).eps * mean) ** 2  # scipy.stats.kurtosis's test
    return {
        "channel_max_median_ratio": ratio,
        "excess_kurtosis": math.inf if flat else float(np.mean(d * d) / m2**2 - 3),
    }


def estimate_cost(cfg: HarnessConfig) -> dict:
    """Static operation and byte accounting for one forward pass; TypeError
    unless cfg is a HarnessConfig."""
    check_instance(cfg, HarnessConfig, "cfg")
    n, t = cfg.n, cfg.tokens
    dims = layer_shapes(n, cfg.hidden_dim)
    layer_macs = {name: t * din * dout for name, (din, dout) in dims.items()}
    attention_macs = 2 * t * t * n  # scores and context, summed over heads

    widths = {LAYER_INPUTS[name]: din for name, (din, _) in dims.items()}
    hadamard_ops = {"adds": 0, "muls": 0, "transforms": []}
    for tr in cfg.plan.online if cfg.plan else ():
        ops = op_count(t * widths[tr.point] // tr.spec.dim, tr.spec)
        hadamard_ops["adds"] += ops["adds"]
        hadamard_ops["muls"] += ops["muls"]
        hadamard_ops["transforms"].append({"point": tr.point, **ops})

    param_count = sum(din * dout for din, dout in dims.values())
    out_channels = sum(dout for _, dout in dims.values())
    bytes_fp32 = 4 * param_count
    # a fixed format has its own width
    bits = cfg.weight_fmt.n_bits if cfg.weight_fmt else cfg.weight_bits
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
    """Run the full pipeline once and report; TypeError unless cfg is a HarnessConfig."""
    weights = init_weights(cfg)
    x = gen_activations(cfg, index=0)
    taps: dict[str, np.ndarray] = {}
    ref = block_forward(x, weights, taps=taps)
    pre, taps = taps["attn_input"], {}  # keep only the block input across quantization

    qbase, online = fuse_block(weights, cfg.plan) if cfg.plan else (weights, ())
    del weights  # with a plan, the unfused block is not held across quantization

    layer_reports: dict = {}
    if cfg.quantize_weights:
        qbase, layer_reports = quantize_block_weights(  # the calibration sets die with the call
            cfg, qbase, collect_calibration(cfg, qbase, online) if cfg.method == "gptq" else None)

    act_quant = None
    if cfg.quantize_acts:
        act_quant = lambda a, point: minmax_quantize(a, cfg.act_fmt, channel_axis=-1).values

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
