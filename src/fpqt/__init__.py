"""fpqt: low-precision floating-point quantization toolkit.

Minifloat (ExMy) grids with per-channel power-of-two exponent biases,
data-driven format selection, fast Hadamard transforms with exact fusion
into the weights of an attention block, Hessian-guided weight rounding,
and an end-to-end measurement harness on a toy block.
"""

from .errors import FormatError, FpqtError, NumericalError, ShapeError
from .formats import BiasedFormat, FpFormat, candidate_formats, grid, parse_format
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
    gelu,
    layer_norm,
    plan_fusion,
    softmax,
)
from .gptq import CalibrationSet, gptq_quantize, hessian, layer_objective
from .hadamard import (
    BASE_ORDERS,
    HadamardSpec,
    OpCounter,
    apply_right,
    base_matrix,
    build,
    factorize,
    op_count,
    realize,
)
from .harness import (
    HarnessConfig,
    QuantReport,
    estimate_cost,
    gen_activations,
    init_weights,
    run,
)
from .quantize import (
    QuantizedTensor,
    channel_bias,
    minmax_quantize,
    quant_error,
    snap_per_channel,
    sqnr,
)
from .select import SelectionConfig, select_format, selection_table, spread_indicator
from .tensors import (
    channel_max_median_ratio,
    channel_stat,
    iter_tensors,
    read_tensors,
    write_tensors,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_ORDERS",
    "BiasedFormat",
    "CalibrationSet",
    "DiTBlockWeights",
    "FormatError",
    "FpFormat",
    "FpqtError",
    "FusionPlan",
    "HadamardSpec",
    "HarnessConfig",
    "LAYER_INPUTS",
    "LAYER_NAMES",
    "NumericalError",
    "ONLINE_POINTS",
    "OnlineTransform",
    "OpCounter",
    "QuantReport",
    "QuantizedTensor",
    "SelectionConfig",
    "ShapeError",
    "V_MODES",
    "apply_right",
    "base_matrix",
    "block_forward",
    "build",
    "candidate_formats",
    "channel_bias",
    "channel_max_median_ratio",
    "channel_stat",
    "estimate_cost",
    "factorize",
    "fuse_block",
    "gelu",
    "gen_activations",
    "gptq_quantize",
    "grid",
    "hessian",
    "init_weights",
    "iter_tensors",
    "layer_norm",
    "layer_objective",
    "minmax_quantize",
    "op_count",
    "parse_format",
    "plan_fusion",
    "quant_error",
    "read_tensors",
    "realize",
    "run",
    "select_format",
    "selection_table",
    "snap_per_channel",
    "softmax",
    "spread_indicator",
    "sqnr",
    "write_tensors",
    "__version__",
]
