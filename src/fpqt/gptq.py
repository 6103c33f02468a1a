"""Hessian-guided weight rounding on minifloat grids.

GPTQ accumulates H = 2 X^T X from calibration inputs, dampens its diagonal,
and snaps input dimension j (row j of the weights, natural order, blocked)
after feeding forward the errors of the rows before it.  With H = R R^T, R
upper, the classic update through U = R^-1, w'_j = w_j - sum_{i<j} U[i, j] e_i
with e_i = (w'_i - q_i) / U[i, i], solves U^T e = W - Q, so e = R^T (W - Q)
and w'_j = w_j + sum_{i<j} S[i, j] (w_i - q_i) with S[i, j] = R[i, j] / R[j, j]
on the original w: no triangular inverse, no division in the sweep.  Each
CalibrationSet factors once for all weights that read its inputs; each output
channel snaps on the grid MinMax would give it, its bias frozen from w.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import NumericalError, ShapeError
from .formats import FpFormat
from .quantize import QuantizedTensor, _grid_constants, _snap, channel_bias
from .tensors import WORKING_DTYPE

DAMPING = 1e-2  # added to the Hessian diagonal, relative to its mean
BLOCK_SIZE = 64  # rows per block of the sweep; changes only the summation order


@dataclass(frozen=True)
class CalibrationSet:
    """Layer inputs gathered from full-precision forward passes: one row
    per sample, one column per input dimension.  x is a read-only copy, so
    the cached factor always matches it."""

    x: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=WORKING_DTYPE)
        x.flags.writeable = False
        if x.ndim != 2:
            raise ShapeError(f"calibration set must be 2-D, got shape {x.shape}")
        if x.shape[0] == 0:
            raise ValueError("calibration set has no samples")
        if x.shape[1] == 0:
            raise ShapeError(f"calibration set has no input dimensions, shape {x.shape}")
        if not np.isfinite(x).all():
            raise NumericalError("calibration set contains NaN or Inf")
        object.__setattr__(self, "x", x)

    @property
    def samples(self) -> int:
        return self.x.shape[0]

    @property
    def in_dim(self) -> int:
        return self.x.shape[1]

    @cached_property
    def hessian_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(dead, S^T), computed once: the input dimensions no sample reaches, and
        R^T with row j divided by R[j, j] (C-contiguous, unit lower-triangular) for
        R R^T = H, H's dead diagonal set to 1 and dampened; NumericalError if H
        overflows or is not positive-definite."""
        h = hessian(self)
        dead = np.diag(h) == 0.0
        h[dead, dead] = 1.0
        with np.errstate(over="ignore"):
            h[np.diag_indices(self.in_dim)] += DAMPING * float(np.mean(np.diag(h)))
        if not np.isfinite(np.diag(h)).all():
            raise NumericalError("calibration set overflows the dampened Hessian in float64")
        r = _upper_cholesky(h)
        st = np.divide(r.T, np.diag(r)[:, None], out=h)  # h is spent
        dead.flags.writeable = st.flags.writeable = False  # shared by every caller
        return dead, st


def hessian(cal: CalibrationSet) -> np.ndarray:
    """Proxy Hessian of the layer reconstruction objective: 2 X^T X.

    Symmetric positive-semidefinite; CalibrationSet.hessian_factor
    dampens it.  Raises NumericalError when the calibration set overflows it.
    """
    with np.errstate(over="ignore"):
        h = 2.0 * (cal.x.T @ cal.x)
    if not np.isfinite(h).all():
        raise NumericalError("calibration set overflows the Hessian 2 X^T X in float64")
    return h


def layer_objective(w: np.ndarray, w_hat: np.ndarray, cal: CalibrationSet) -> float:
    """Reconstruction error ||X w_hat - X w||_F^2 on the calibration inputs."""
    w = np.asarray(w, dtype=WORKING_DTYPE)
    w_hat = np.asarray(w_hat, dtype=WORKING_DTYPE)
    if w.shape != w_hat.shape:
        raise ShapeError(f"mismatched weight shapes {w.shape} and {w_hat.shape}")
    if w.shape[0] != cal.in_dim:
        raise ShapeError(f"weights {w.shape} do not match calibration dim {cal.in_dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = cal.x @ (w_hat - w)
        obj = float(np.sum(diff * diff))
    if not np.isfinite(obj):
        raise NumericalError("reconstruction error overflows float64")
    return obj


def _upper_cholesky(h: np.ndarray) -> np.ndarray:
    """Upper-triangular R with positive diagonal and R R^T = h: the lower
    Cholesky factor of the index-reversed h, reversed back; NumericalError
    unless h is positive-definite."""
    try:
        lower = scipy.linalg.cholesky(h[::-1, ::-1], lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dampened Hessian is not positive-definite: {exc}") from exc
    return lower[::-1, ::-1]


def gptq_quantize(w: np.ndarray, cal: CalibrationSet, fmt: FpFormat) -> QuantizedTensor:
    """Quantize an input_dim x output_dim weight matrix against calibration data.

    Deterministic: natural input-dim order, BLOCK_SIZE rows per block, no shuffling.
    The per-output-channel exponent biases are frozen from the original w,
    so the result is directly comparable to plain MinMax rounding (identical
    grids, identical bias vector).  Weights quantized against one cal share
    its Hessian factor.  Raises NumericalError when the calibration set
    overflows the Hessian, the dampened Hessian is not positive-definite, or
    the fed-forward errors overflow.
    """
    w = np.array(w, dtype=WORKING_DTYPE, order="C")  # a copy: dead rows are zeroed
    if w.ndim != 2:
        raise ShapeError(f"weights must be 2-D, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NumericalError("weights contain NaN or Inf")
    if w.shape[0] != cal.in_dim:
        raise ShapeError(f"weights {w.shape} do not match calibration dim {cal.in_dim}")
    bias = channel_bias(w, fmt, channel_axis=-1)
    vmax, lo = _grid_constants(fmt, bias)

    dead, st = cal.hessian_factor
    w[dead] = 0.0

    q = np.empty_like(w)
    delta = np.empty_like(w)  # w - q, row by row
    for i1 in range(0, cal.in_dim, BLOCK_SIZE):
        i2 = min(i1 + BLOCK_SIZE, cal.in_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            pre = w[i1:i2] + st[i1:i2, :i1] @ delta[:i1]
            for k, j in enumerate(range(i1, i2)):
                pre[k] += st[j, i1:j] @ delta[i1:j]
                q[j] = pre[k]
                _snap(q[j], fmt.n_m, vmax, lo)
                np.subtract(w[j], q[j], out=delta[j])
        if not np.isfinite(pre).all():
            raise NumericalError("GPTQ error feedback overflows float64")
    return QuantizedTensor(values=q, bias=bias)
