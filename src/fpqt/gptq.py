"""Hessian-guided weight rounding on minifloat grids.

Classic GPTQ machinery: accumulate H = 2 X^T X from calibration inputs,
dampen the diagonal, process input dimensions one at a time (in natural
order, blocked for locality), and after rounding each one, shift its
rounding error onto the not-yet-quantized dimensions through the upper
Cholesky factor U of the inverse Hessian (H^-1 = U^T U).  U comes from one
Cholesky and one triangular inverse: the lower factor L of the
index-reversed Hessian, reversed back on both axes, is an upper R with
H = R R^T, so U = R^-1.  H, its damping and U belong to the CalibrationSet,
which computes U once for all weights that read its inputs.  Input dimension
j is row j of the weights, so each step snaps one contiguous row.  The
single change from the integer-grid original is the rounding step: values
snap to the nearest point of a minifloat grid whose per-output-channel
exponent bias is frozen from the original weights before any error
propagation, so every output channel keeps the grid MinMax would have given
it.
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
    def inverse_hessian_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(dead, U), computed once: the input dimensions no sample reaches, and
        the upper U with U^T U = H^-1 for H with its dead diagonal set to 1,
        then dampened; NumericalError if H overflows or is not positive-definite."""
        h = hessian(self)
        dead = np.diag(h) == 0.0
        h[dead, dead] = 1.0
        with np.errstate(over="ignore"):
            h[np.diag_indices(self.in_dim)] += DAMPING * float(np.mean(np.diag(h)))
        if not np.isfinite(np.diag(h)).all():
            raise NumericalError("calibration set overflows the dampened Hessian in float64")
        u = _inverse_hessian_factor(h)
        dead.flags.writeable = u.flags.writeable = False  # shared by every caller
        return dead, u


@dataclass(frozen=True)
class GptqConfig:
    block_size: int = 64

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError(f"block_size must be positive, got {self.block_size}")


def hessian(cal: CalibrationSet) -> np.ndarray:
    """Proxy Hessian of the layer reconstruction objective: 2 X^T X.

    Symmetric positive-semidefinite; CalibrationSet.inverse_hessian_factor
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
    diff = cal.x @ (w_hat - w)
    return float(np.sum(diff * diff))


def _inverse_hessian_factor(h: np.ndarray) -> np.ndarray:
    """Upper-triangular U with positive diagonal and U^T U = h^-1, by the
    reversed Cholesky and dtrtri; NumericalError unless h is positive-definite."""
    try:
        lower = scipy.linalg.cholesky(h[::-1, ::-1], lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dampened Hessian is not positive-definite: {exc}") from exc
    u, info = scipy.linalg.lapack.dtrtri(lower[::-1, ::-1], lower=0)
    if info != 0:
        raise NumericalError(f"Hessian factor is singular (dtrtri info={info})")
    return u


def gptq_quantize(
    w: np.ndarray, cal: CalibrationSet, fmt: FpFormat, cfg: GptqConfig = GptqConfig()
) -> QuantizedTensor:
    """Quantize an input_dim x output_dim weight matrix against calibration data.

    Deterministic: natural input-dim order, fixed block size, no shuffling.
    The per-output-channel exponent biases are frozen from the original w,
    so the result is directly comparable to plain MinMax rounding (identical
    grids, identical bias vector).  Weights quantized against one cal share
    its inverse-Hessian factor.  Raises NumericalError when the calibration
    set overflows the Hessian or the dampened Hessian is not positive-definite.
    """
    w = np.array(w, dtype=WORKING_DTYPE, order="C")  # the sweep updates it in place
    if w.ndim != 2:
        raise ShapeError(f"weights must be 2-D, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NumericalError("weights contain NaN or Inf")
    if w.shape[0] != cal.in_dim:
        raise ShapeError(f"weights {w.shape} do not match calibration dim {cal.in_dim}")
    in_dim = w.shape[0]
    bias = channel_bias(w, fmt, channel_axis=-1)
    vmax, lo = _grid_constants(fmt, bias)

    dead, u = cal.inverse_hessian_factor
    w[dead] = 0.0

    q = np.empty_like(w)
    for i1 in range(0, in_dim, cfg.block_size):
        i2 = min(i1 + cfg.block_size, in_dim)
        block = w[i1:i2]
        err = np.empty_like(block)
        for j in range(i1, i2):
            k = j - i1
            q[j] = block[k]
            _snap(q[j], fmt.n_m, vmax, lo)
            np.subtract(block[k], q[j], out=err[k])
            err[k] /= u[j, j]
            block[k + 1 :] -= u[j, j + 1 : i2, None] * err[k]
        if i2 < in_dim:
            w[i2:] -= u[i1:i2, i2:].T @ err
    return QuantizedTensor(values=q, fmt=fmt, bias=bias, channel_axis=-1)
