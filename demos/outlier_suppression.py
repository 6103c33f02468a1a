"""Show an orthogonal transform crushing channel-wise activation outliers.

A few activation channels carrying values ~100x larger than the rest ruin
per-channel low-bit quantization: the bias anchors each channel's grid at
its own max, so the quiet channels are fine, but everything downstream of
a shared matmul sees the outlier energy.  Rotating the channel basis with
a Hadamard transform spreads that energy uniformly, after which a 4-bit
grid fits all channels comfortably.  The matching inverse is folded into
the next layer's weights offline, so the network function is unchanged.
"""

from __future__ import annotations

import argparse

import numpy as np

from fpqt import (
    apply_right,
    build,
    channel_max_median_ratio,
    channel_stat,
    minmax_quantize,
    parse_format,
    quant_error,
)


def profile(name: str, x: np.ndarray) -> None:
    cmax = channel_stat(x, "max_abs")
    print(
        f"{name}: channel max range [{cmax.min():.3f}, {cmax.max():.3f}], "
        f"max/median ratio {channel_max_median_ratio(x):.1f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--tokens", type=int, default=256)
    parser.add_argument("--outliers", type=int, default=2)
    parser.add_argument("--scale", type=float, default=100.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", default="E2M1")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.tokens, args.dim))
    cols = rng.choice(args.dim, args.outliers, replace=False)
    x[:, cols] *= args.scale
    print(f"outlier channels: {sorted(cols.tolist())} scaled {args.scale:g}x\n")

    spec = build(args.dim, seed=args.seed)
    y = apply_right(x, spec)

    profile("raw      ", x)
    profile("rotated  ", y)

    fmt = parse_format(args.format)
    w = rng.standard_normal((args.dim, args.dim)) / np.sqrt(args.dim)
    ref = x @ w

    # quantize activations per channel, then undo the rotation through the
    # weights: (x H) quantized, times H^T w = (w^T H)^T, by the fast transform
    qx = minmax_quantize(x, fmt, channel_axis=-1).values
    qy = minmax_quantize(y, fmt, channel_axis=-1).values
    out_raw = qx @ w
    out_rot = qy @ apply_right(w.T, spec).T

    print(f"\ndownstream matmul error with {fmt} activations:")
    print(f"  without transform: sqnr {quant_error(ref, out_raw)['sqnr_db']:.2f} dB")
    print(f"  with transform:    sqnr {quant_error(ref, out_rot)['sqnr_db']:.2f} dB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
