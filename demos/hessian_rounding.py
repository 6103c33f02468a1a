"""Round weights against the directions the data actually exercises.

Round-to-nearest treats every weight coordinate independently.  Hessian-
aware rounding quantizes columns one at a time and pushes each column's
residual into the not-yet-quantized columns, weighted by the calibration
second-moment matrix 2 X^T X.  That only helps when the Hessian has
off-diagonal structure: with isotropic inputs it degenerates to nearest
rounding, but with correlated (here: low-rank) inputs it can dump error
into directions the data never exercises.

This script quantizes the same weight matrix onto the same minifloat grid
under both input regimes and compares output reconstruction error on the
calibration set and on fresh draws from the same distribution.
"""

from __future__ import annotations

import argparse

import numpy as np

from fpqt import (
    CalibrationSet,
    gptq_quantize,
    layer_objective,
    minmax_quantize,
    parse_format,
)


def compare(w: np.ndarray, x_cal: np.ndarray, x_test: np.ndarray, fmt) -> None:
    cal = CalibrationSet(x=x_cal)
    test = CalibrationSet(x=x_test)
    rtn = minmax_quantize(w, fmt, channel_axis=-1).values
    hes = gptq_quantize(w, cal, fmt).values
    for label, w_hat in (("round-to-nearest", rtn), ("hessian-aware", hes)):
        w_mse = float(np.mean((w - w_hat) ** 2))
        print(f"  {label:17s} weight mse {w_mse:.3e}   "
              f"calib output err {layer_objective(w, w_hat, cal):9.2f}   "
              f"fresh output err {layer_objective(w, w_hat, test):9.2f}")
    ratio = layer_objective(w, rtn, cal) / layer_objective(w, hes, cal)
    print(f"  calib output error ratio (nearest / hessian-aware): {ratio:.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in-dim", type=int, default=48)
    parser.add_argument("--out-dim", type=int, default=48)
    parser.add_argument("--samples", type=int, default=256)
    parser.add_argument("--rank", type=int, default=None,
                        help="rank of the correlated input distribution "
                             "(default: in_dim // 4)")
    parser.add_argument("--format", default="E2M1")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rank = args.rank if args.rank is not None else args.in_dim // 4
    rng = np.random.default_rng(args.seed)
    fmt = parse_format(args.format)
    w = rng.standard_normal((args.in_dim, args.out_dim)) / np.sqrt(args.in_dim)

    print(f"weights {args.in_dim}x{args.out_dim}, format {fmt}")

    print(f"\nisotropic inputs (near-diagonal Hessian -- expect no gain):")
    x_cal = rng.standard_normal((args.samples, args.in_dim))
    x_test = rng.standard_normal((args.samples, args.in_dim))
    compare(w, x_cal, x_test, fmt)

    print(f"\nrank-{rank} correlated inputs (expect a clear gain):")
    mix = rng.standard_normal((rank, args.in_dim))
    x_cal = rng.standard_normal((args.samples, rank)) @ mix
    x_test = rng.standard_normal((args.samples, rank)) @ mix
    compare(w, x_cal, x_test, fmt)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
