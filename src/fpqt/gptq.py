"""Hessian-guided weight rounding on minifloat grids.

GPTQ accumulates H = 2 X^T X from calibration inputs, dampens its diagonal,
and snaps input dimension j (row j of the weights, natural order, blocked)
after feeding forward the errors of the rows before it.  With H = R R^T, R
upper, the classic update through U = R^-1, w'_j = w_j - sum_{i<j} U[i, j] e_i
with e_i = (w'_i - q_i) / U[i, i], solves U^T e = W - Q, so e = R^T (W - Q)
and w'_j = w_j + sum_{i<j} S[i, j] (w_i - q_i) with S[i, j] = R[i, j] / R[j, j]
on the original w: no triangular inverse, no division in the sweep.  Each
call factors its calibration set from one triangle of H, one dsyrk and one
dpotrf, and keeps no factor; each output channel depends on its own column
alone and snaps on the grid MinMax would give it, its bias frozen from w,
so weights that read one input sweep as one matrix.
A sweep makes one quantize._Grid, which works out the grid constants once
and keeps the snap's row-sized scratch, so a row snaps the fed-forward row
block[k] straight into q[j] with no allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError, check_instance
from .formats import FpFormat
from .quantize import QuantizedTensor, _Grid, channel_bias
from .tensors import as_working

DAMPING = 1e-2  # added to the Hessian diagonal, relative to its mean
BLOCK_SIZE = 64  # rows per block of the sweep; changes only the summation order


@dataclass(frozen=True)
class CalibrationSet:
    """Layer inputs gathered from full-precision forward passes: one row
    per sample, one column per input dimension.  x is a read-only copy, so
    no later write to the caller's array reaches a factor taken from it."""

    x: np.ndarray

    def __post_init__(self):
        x = as_working(self.x, copy=True)
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


def hessian(cal: CalibrationSet) -> np.ndarray:
    """Proxy Hessian of the layer reconstruction objective: 2 X^T X.

    Symmetric positive-semidefinite; hessian_factor dampens it.  Raises
    NumericalError when the calibration set overflows it, and TypeError
    unless cal is a CalibrationSet.
    """
    h = _gram(cal)
    h += np.tril(h, -1).T  # the mirror: the upper triangle is 0
    return h


def _gram(cal: CalibrationSet) -> np.ndarray:
    """2 X^T X in the lower triangle of a fresh C-contiguous array whose strict
    upper triangle is 0: one scipy dsyrk, alpha = 2 for the exact doubling.
    NumericalError when it overflows, TypeError unless cal is a CalibrationSet.
    scipy.linalg is imported on the first call, not with fpqt."""
    check_instance(cal, CalibrationSet, "cal")
    import scipy.linalg

    h = np.zeros((cal.in_dim, cal.in_dim))
    # h.T is Fortran-ordered, so dsyrk fills it in place; its upper triangle is h's lower one
    h = scipy.linalg.blas.dsyrk(2.0, cal.x.T, c=h.T, trans=0, lower=0, overwrite_c=1).T
    if not np.isfinite(h).all():
        raise NumericalError("calibration set overflows the Hessian 2 X^T X in float64")
    return h


def hessian_factor(cal: CalibrationSet) -> tuple[np.ndarray, np.ndarray]:
    """(dead, S^T): the input dimensions no sample reaches, and R^T with row j
    divided by R[j, j] (C-contiguous, unit lower-triangular, read-only) for
    R R^T = H, H's dead diagonal set to 1 and dampened; NumericalError if H
    overflows or is not positive-definite.  One n x n buffer holds H, then
    J H J, then U with U^T U = J H J, then S^T, for R = J U^T J.  At in_dim
    >= 256, scipy's dpotrf gives other last bits under 1 and 2 BLAS threads.
    Only one triangle is ever computed: H's lower one, by _gram, is J H J's
    upper one, which _upper_cholesky factors; the other stays 0 throughout.
    TypeError unless cal is a CalibrationSet."""
    h = _gram(cal)
    dead = np.diag(h) == 0.0
    h[dead, dead] = 1.0
    with np.errstate(over="ignore"):
        h[np.diag_indices(cal.in_dim)] += DAMPING * float(np.mean(np.diag(h)))
    if not np.isfinite(np.diag(h)).all():
        raise NumericalError("calibration set overflows the dampened Hessian in float64")
    _reverse_in_place(h)
    st = _upper_cholesky(h)  # in h's buffer
    st /= np.diag(st).copy()[:, None]
    _reverse_in_place(st)
    dead.flags.writeable = st.flags.writeable = False
    return dead, st


def layer_objective(w: np.ndarray, w_hat: np.ndarray, cal: CalibrationSet) -> float:
    """Reconstruction error ||X w_hat - X w||_F^2 on the calibration inputs.

    NumericalError naming w or w_hat when it holds NaN or Inf, or when the
    error of finite weights overflows float64; TypeError unless cal is a
    CalibrationSet."""
    check_instance(cal, CalibrationSet, "cal")
    w = as_working(w)
    w_hat = as_working(w_hat)
    if w.shape != w_hat.shape:
        raise ShapeError(f"mismatched weight shapes {w.shape} and {w_hat.shape}")
    if w.shape[0] != cal.in_dim:
        raise ShapeError(f"weights {w.shape} do not match calibration dim {cal.in_dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = cal.x @ (w_hat - w)
        obj = float(np.sum(diff * diff))
    if not np.isfinite(obj):  # as it is whenever w or w_hat holds NaN or Inf
        for name, a in (("w", w), ("w_hat", w_hat)):
            if not np.isfinite(a).all():
                raise NumericalError(f"{name} holds NaN or Inf")
        raise NumericalError("reconstruction error overflows float64")
    return obj


def _upper_cholesky(h: np.ndarray) -> np.ndarray:
    """Upper-triangular U with positive diagonal and U^T U = h, read from h's
    upper triangle alone and written over it, in h's own buffer when h is
    C-contiguous; h's strict lower triangle is left as given (dpotrf with no
    clean pass), so pass it zeroed.  NumericalError unless h is
    positive-definite.  scipy.linalg, for dpotrf, is imported on the first
    call, not with fpqt."""
    import scipy.linalg

    lower, info = scipy.linalg.lapack.dpotrf(h.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NumericalError(f"dampened Hessian is not positive-definite: {info}-th "
                             "leading minor of the array is not positive definite")
    return lower.T


def _reverse_in_place(a: np.ndarray) -> None:
    """Reverse a C-contiguous array's flat memory, so a[i, j] takes a[-1 - i,
    -1 - j], by swapping mirrored 64-row blocks through one block of scratch."""
    flat = a.reshape(-1)
    size, step = flat.size, 64 * a.shape[-1]
    for i in range(0, size // 2, step):
        k = min(step, size // 2 - i)
        head, tail = flat[i : i + k], flat[size - i - k : size - i]
        spare = head[::-1].copy()
        head[:] = tail[::-1]
        tail[:] = spare


def gptq_quantize(w: np.ndarray, cal: CalibrationSet, fmt: FpFormat) -> QuantizedTensor:
    """Quantize an input_dim x output_dim weight matrix against calibration data.

    Deterministic: natural input-dim order, BLOCK_SIZE rows per block, no shuffling.
    The per-output-channel exponent biases are frozen from the original w,
    so the result is directly comparable to plain MinMax rounding (identical
    grids, identical bias vector).  Columns side by side give each the bytes
    a call of its own would, for one factorisation of cal.  Raises
    NumericalError when w holds NaN or Inf (from channel_bias), the
    calibration set overflows the Hessian, the dampened Hessian is not
    positive-definite, or the fed-forward errors overflow, and TypeError when
    cal is not a CalibrationSet or fmt is not an FpFormat, before the
    calibration set is factored.
    """
    check_instance(cal, CalibrationSet, "cal")
    w = as_working(w)
    if w.ndim != 2:
        raise ShapeError(f"weights must be 2-D, got shape {w.shape}")
    if w.shape[0] != cal.in_dim:
        raise ShapeError(f"weights {w.shape} do not match calibration dim {cal.in_dim}")
    bias = channel_bias(w, fmt, channel_axis=-1)  # a bad fmt or a NaN fails before the factor
    dead, st = hessian_factor(cal)  # before the copy, so its scratch never meets it
    w = np.array(w, order="C")  # a copy: dead rows zeroed, then w - q
    w[dead] = 0.0

    q = np.empty_like(w)
    grid = _Grid(fmt, bias)  # constants once, scratch reused by every row
    pre = np.empty((min(BLOCK_SIZE, cal.in_dim), w.shape[1]))  # one block, reused
    feed = np.empty(w.shape[1])  # the row's fed-back error, reused
    for i1 in range(0, cal.in_dim, BLOCK_SIZE):
        i2 = min(i1 + BLOCK_SIZE, cal.in_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            # rows before i1 hold w - q; adding the block's own rows after the
            # product gives the bytes of w[i1:i2] + product, in one buffer
            block = np.matmul(st[i1:i2, :i1], w[:i1], out=pre[: i2 - i1])
            block += w[i1:i2]
            for k, j in enumerate(range(i1, i2)):
                block[k] += np.matmul(st[j, i1:j], w[i1:j], out=feed)
                grid.snap(block[k], q[j])
                w[j] -= q[j]
        if not np.isfinite(block).all():
            raise NumericalError("GPTQ error feedback overflows float64")
    return QuantizedTensor(values=q, bias=bias)
