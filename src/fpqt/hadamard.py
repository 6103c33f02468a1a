"""Hadamard transforms for activation outlier suppression.

An order-n Hadamard matrix is factored as H_n = H_p (x) H_q, where p is the
largest power of two such that q = n / p has a base matrix (q in {1, 12,
20, 28}; 12, 20 and 28 are built by Paley's construction).  Entries are
normalized by 1/sqrt(n) so the realized matrix is orthogonal, and a seeded
random +-1 diagonal D can be folded in on the right.  A HadamardSpec holds
only n and that seed (None: D = I); it works out (p, q) once, when built.

Every transform is H along one axis of a view: _mix applies H (or H^T) to
the middle axis of an (l, dim, r) array, apply_right is its (m, dim, 1)
case, and the cross-head mix and weight fusion pass reshaped views.  With
H_p = H_a (x) H_r, a the largest power of two dividing p with a^2 <= n, _mix
runs one dense multiply by the small (H_r (x) H_q) / sqrt(n) and one by H_a
across the a slices, without the dense matrix.  The operation counts
(OpCounter, op_count) model the kernel hardware would run, not numpy's
FLOPs: butterflies over the power-of-two factor and one dense base stage,
m*n*log2(p) + m*n*(q-1) additions and m*n + m*n*q multiplications for an
m x n input (the dense stage disappears when q = 1, leaving only the m*n
normalization multiplies; the sign diagonal folds into normalization and
adds nothing).  An orthogonal transform spreads any single-channel energy
spike uniformly across all channels, which is what crushes channel-wise
outliers before quantization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ShapeError
from .tensors import WORKING_DTYPE

# Paley's first construction (R. E. A. C. Paley, "On orthogonal matrices",
# 1933): over a field GF(r), r = q - 1 = 3 (mod 4), with quadratic character
# chi, H_q = [[1, 1^T], [-1, I + Q]] where Q[i, j] = chi(x_i - x_j).  Each
# order maps to (p, c) with GF(r) = GF(p)[t] / (t^k + c_(k-1) t^(k-1) + ...
# + c_0), c constant term first and empty for a prime field; element x_i has
# the base-p digits of i, lowest first.
_PALEY_FIELDS = {12: (11, ()), 20: (19, ()), 28: (3, (2, 0, 1))}

BASE_ORDERS = (1, *_PALEY_FIELDS)


def base_matrix(q: int) -> np.ndarray:
    """The unnormalized +-1 base matrix of a supported order."""
    if q == 1:
        return np.ones((1, 1), dtype=WORKING_DTYPE)
    if q not in _PALEY_FIELDS:
        raise ValueError(f"no base Hadamard matrix of order {q}; have {BASE_ORDERS}")
    p, c = _PALEY_FIELDS[q]
    k = max(len(c), 1)
    place = p ** np.arange(k)
    digits = np.arange(q - 1)[:, np.newaxis] // place % p  # row i holds x_i
    chi = np.full(q - 1, -1.0)  # 0 at x_0 = 0, +1 on the nonzero squares
    chi[0] = 0.0
    for x in digits[1:]:
        sq = np.convolve(x, x)
        for d in range(2 * k - 2, k - 1, -1):  # t^d = -t^(d-k) (c_0 + ... + c_(k-1) t^(k-1))
            sq[d - k : d] -= sq[d] * np.array(c)
        chi[sq[:k] % p @ place] = 1.0
    h = np.ones((q, q), dtype=WORKING_DTYPE)
    h[1:, 0] = -1.0
    h[1:, 1:] = chi[(digits[:, np.newaxis] - digits) % p @ place] + np.eye(q - 1)
    return h


def factorize(n: int) -> tuple[int, int]:
    """Split n = p * q with p the largest usable power of two.

    q = 1 whenever n is itself a power of two; otherwise the odd part of n
    must be 3, 5, or 7 with at least two factors of two to spare, giving
    q in {12, 20, 28}.  Anything else has no constructible order here.
    """
    if n < 1:
        raise ValueError(f"transform order must be positive, got {n}")
    odd = n
    while odd % 2 == 0:
        odd //= 2
    if odd == 1:
        return n, 1
    if odd in (3, 5, 7) and n % (4 * odd) == 0:
        return n // (4 * odd), 4 * odd
    raise ValueError(
        f"order {n} = 2^k * {odd} is not constructible: odd part must be 1, 3, 5, or 7 "
        f"with q = 4 * odd dividing n"
    )


@dataclass(frozen=True)
class HadamardSpec:
    """A realized-on-demand orthogonal transform: (H_p (x) H_q) / sqrt(n),
    optionally right-multiplied by a seeded random sign diagonal (seed=None
    means none).  p and q are factorize(dim), worked out once here."""

    dim: int
    seed: int | None = None
    p: int = field(init=False, compare=False)
    q: int = field(init=False, compare=False)

    def __post_init__(self):
        p, q = factorize(self.dim)
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"sign-diagonal seed must be nonnegative, got {self.seed}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def log2_p(self) -> int:
        return self.p.bit_length() - 1


def build(dim: int, seed: int | None = None) -> HadamardSpec:
    """Validate and factorize an order; seed=None means no sign diagonal."""
    return HadamardSpec(dim, seed)


def sign_diagonal(spec: HadamardSpec) -> np.ndarray | None:
    """The +-1 diagonal for a seeded spec, None when seed is None."""
    if spec.seed is None:
        return None
    rng = np.random.default_rng(spec.seed)
    return rng.integers(0, 2, size=spec.dim).astype(WORKING_DTYPE) * 2.0 - 1.0


def realize(spec: HadamardSpec) -> np.ndarray:
    """Dense orthogonal matrix: the reference for tests and `fpqt hadamard --check`."""
    h = np.kron(scipy.linalg.hadamard(spec.p, dtype=WORKING_DTYPE), base_matrix(spec.q))
    h /= math.sqrt(spec.dim)
    d = sign_diagonal(spec)
    if d is not None:
        h = h * d[np.newaxis, :]
    return h


@functools.lru_cache(maxsize=None)
def _factors(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """_mix's read-only stages (H_(p/a) (x) H_q) / sqrt(p q) and H_a, with a
    the largest power of two dividing p such that a^2 <= p q."""
    a = 1
    while p % (2 * a) == 0 and (2 * a) ** 2 <= p * q:
        a *= 2
    inner = np.kron(scipy.linalg.hadamard(p // a), base_matrix(q)) / math.sqrt(p * q)
    h_a = scipy.linalg.hadamard(a, dtype=WORKING_DTYPE)
    inner.flags.writeable = h_a.flags.writeable = False
    return inner, h_a


class OpCounter:
    """Tallies the additions and multiplications of the butterfly-plus-base
    kernel that a transform models (see the module docstring)."""

    def __init__(self):
        self.adds = 0
        self.muls = 0


def _mix(x: np.ndarray, spec: HadamardSpec, transpose: bool = False) -> np.ndarray:
    """H along the middle axis of an (l, dim, r) array: y[i, :, k] = x[i, :, k] @ H,
    or @ H^T when transpose is set; y is C-contiguous.

    The inner stage is a right GEMM when r = 1 and a batched inner^T @ x
    otherwise.  The sign diagonal scales the output (x @ H) or the input
    (x @ H^T); the Sylvester factors are symmetric, so only H_q is transposed.
    """
    l, n, r = x.shape
    inner, h_a = _factors(spec.p, spec.q)
    a, d = h_a.shape[0], sign_diagonal(spec)
    if transpose:
        inner = inner.T
        x = x if d is None else x * d[:, np.newaxis]
    y = x.reshape(l * a, n // a) @ inner if r == 1 else inner.T @ x.reshape(l * a, n // a, r)
    y = (h_a @ y.reshape(l, a, -1) if a > 1 else y).reshape(l, n, r)
    return y if d is None or transpose else y * d[:, np.newaxis]


def apply_right(
    x: np.ndarray, spec: HadamardSpec, counter: OpCounter | None = None, transpose: bool = False
) -> np.ndarray:
    """Compute x @ H, or x @ H^T when transpose is set, for an (m, dim) batch."""
    x = np.asarray(x, dtype=WORKING_DTYPE)
    if x.ndim != 2 or x.shape[1] != spec.dim:
        raise ShapeError(f"expected (m, {spec.dim}) input, got {x.shape}")
    if counter is not None:
        ops = op_count(x.shape[0], spec)
        counter.adds += ops["adds"]
        counter.muls += ops["muls"]
    return _mix(x[:, :, np.newaxis], spec, transpose)[:, :, 0]


def op_count(m: int, spec: HadamardSpec) -> dict[str, int]:
    """Operation counts of the modeled kernel on an (m, dim) input.

    adds = m*n*log2(p) + m*n*(q-1), muls = m*n + (m*n*q if q > 1 else 0):
    butterflies plus one base stage (module docstring), the same tallies an
    OpCounter accumulates on a real apply_right call in either direction.
    """
    if m < 0:
        raise ValueError(f"row count must be nonnegative, got {m}")
    n = spec.dim
    adds = m * n * spec.log2_p + m * n * (spec.q - 1)
    muls = m * n + (m * n * spec.q if spec.q > 1 else 0)
    return {"adds": adds, "muls": muls}
