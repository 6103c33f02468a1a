"""Independent reference implementations used to check the package.

Everything here is written as plain Python loops over scalars (or calls
into a different library path than the code under test) so that agreement
is meaningful rather than circular.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def oracle_grid(n_e: int, n_m: int, bias: int) -> list[float]:
    """All nonnegative representable magnitudes, ascending, via scalar math.

    Subnormals: m * 2^(1 - n_m + bias) for m in 0 .. 2^n_m - 1.
    Normals: for exponent e in 1 .. 2^n_e - 1, m * 2^(e - n_m + bias)
    for m in 2^n_m .. 2^(n_m+1) - 1.
    """
    vals = []
    for m in range(2**n_m):
        vals.append(m * math.ldexp(1.0, 1 - n_m + bias))
    for e in range(1, 2**n_e):
        for m in range(2**n_m, 2 ** (n_m + 1)):
            vals.append(m * math.ldexp(1.0, e - n_m + bias))
    return vals


def oracle_nearest(x: float, levels: list[float]) -> float:
    """Nearest signed grid value by linear scan; ties go away from zero.

    levels are the nonnegative magnitudes; the signed grid is their union
    with their negations.
    """
    signed = sorted(set([v for v in levels] + [-v for v in levels]))
    best, best_dist = None, None
    for g in signed:
        d = abs(x - g)
        if best is None or d < best_dist or (d == best_dist and abs(g) > abs(best)):
            best, best_dist = g, d
    return best


def oracle_snap(a: np.ndarray, n_e: int, n_m: int, bias: np.ndarray) -> np.ndarray:
    """oracle_nearest for every element of a, on the grid of its broadcast
    bias; each distinct (value, bias) pair is looked up once."""
    a = np.asarray(a, dtype=np.float64)
    pairs = (a + 1j * np.asarray(bias, dtype=np.float64)).ravel()  # (value, bias) as one key
    unique, inverse = np.unique(pairs, return_inverse=True)
    snapped = [oracle_nearest(p.real, oracle_grid(n_e, n_m, int(p.imag))) for p in unique.tolist()]
    return np.array(snapped)[inverse].reshape(a.shape)


def oracle_quant_error(a: np.ndarray, q: np.ndarray) -> dict[str, float]:
    """quant_error's metrics from exactly rounded sums (math.fsum) over
    Python floats.  Both tensors are first scaled by the power of two of
    their joint peak, and the error by that of its own peak, so no square
    overflows or sinks to zero; ratios do not depend on the scaling.  An mse
    beyond float64 is inf."""
    av, qv = np.ravel(a).tolist(), np.ravel(q).tolist()
    k = math.frexp(max(map(abs, av + qv)))[1]
    av, qv = [math.ldexp(x, -k) for x in av], [math.ldexp(x, -k) for x in qv]
    d = [x - y for x, y in zip(av, qv)]
    peak_d = max(map(abs, d))
    kd = math.frexp(peak_d)[1]
    d = [math.ldexp(x, -kd) for x in d]
    n = len(av)
    noise, signal = math.fsum(x * x for x in d) / n, math.fsum(x * x for x in av) / n
    na = math.sqrt(math.fsum(x * x for x in av))
    nq = math.sqrt(math.fsum(x * x for x in qv))
    try:
        mse = math.ldexp(noise, 2 * (k + kd))
    except OverflowError:
        mse = math.inf
    return {
        "mse": mse,
        "max_abs": math.ldexp(peak_d, k),
        "sqnr_db": 10.0 * math.log10(signal / noise) - 20.0 * math.log10(2.0) * kd,
        "cosine": math.fsum(x * y for x, y in zip(av, qv)) / (na * nq),
    }


def oracle_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def oracle_quantile_nearest_rank(values, alpha: float) -> float:
    """Lower nearest-rank percentile of the magnitudes: the
    k = ceil(alpha/100 * N)-th smallest |value|, 1-based."""
    vals = sorted(abs(float(v)) for v in np.asarray(values).ravel())
    n = len(vals)
    k = math.ceil(alpha / 100.0 * n)
    k = min(max(k, 1), n)
    return vals[k - 1]


def oracle_sylvester(n: int) -> np.ndarray:
    """Unnormalized +/-1 Hadamard matrix of power-of-two order by the
    doubling recursion H_2n = [[H, H], [H, -H]]."""
    assert n >= 1 and (n & (n - 1)) == 0
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def oracle_gptq_2x2(W: np.ndarray, X: np.ndarray, signed_grids) -> tuple[np.ndarray, bool]:
    """Exhaustive global optimum for a 2-input-dim layer.

    The objective ||X (What - W)||_F^2 separates over output columns, so
    each column independently picks the best pair from its signed grid.
    Returns (optimum, unique) where unique is False if any column had a
    second candidate within 1e-12 relative of the best.
    """
    assert W.shape[0] == 2
    out = np.empty_like(W)
    unique = True
    for j in range(W.shape[1]):
        g = signed_grids[j]
        best, best_obj, second = None, np.inf, np.inf
        for a, b in product(g, g):
            v = np.array([a, b])
            obj = float(np.sum((X @ (v - W[:, j])) ** 2))
            if obj < best_obj:
                second, best_obj, best = best_obj, obj, v
            elif obj < second:
                second = obj
        out[:, j] = best
        if second - best_obj < 1e-12 * max(1.0, best_obj):
            unique = False
    return out, unique


def oracle_gptq(W: np.ndarray, X: np.ndarray, n_e: int, n_m: int, biases, damping: float):
    """Textbook GPTQ (Frantar et al., Algorithm 1 unblocked) on per-column grids.

    Inverts the dampened Hessian with numpy, takes the upper factor U of
    H^-1 = U^T U, and after snapping row j with the scalar oracle pushes the
    scaled error (w_j - q_j) / U[j, j] onto the later rows through U[j, j+1:].
    Every input dimension must be reached by some sample.
    """
    h = 2.0 * (X.T @ X)
    h[np.diag_indices_from(h)] += damping * float(np.mean(np.diag(h)))
    u = np.linalg.cholesky(np.linalg.inv(h)).T
    w = np.array(W, dtype=np.float64)
    q = np.empty_like(w)
    levels = [oracle_grid(n_e, n_m, int(b)) for b in biases]
    for j in range(w.shape[0]):
        q[j] = [oracle_nearest(float(v), levels[c]) for c, v in enumerate(w[j])]
        w[j + 1 :] -= np.outer(u[j, j + 1 :], (w[j] - q[j]) / u[j, j])
    return q
