"""End-to-end low-precision pipeline on a toy attention + MLP block.

One call builds the block, injects activation outliers, fuses orthonormal
transforms into the weights, picks per-layer minifloat formats from the
weight statistics, rounds weights against calibration data, quantizes the
activations feeding every linear layer, and scores the quantized block
against the full-precision reference.  This script runs that pipeline with
and without the transform stage, prints the report highlights, and can dump
the full JSON report.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from fpqt import HarnessConfig, run
from fpqt.harness import METHODS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--tokens", type=int, default=128)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--weight-bits", type=int, default=HarnessConfig.weight_bits)
    parser.add_argument("--act-format", default=HarnessConfig.act_format)
    parser.add_argument("--method", choices=METHODS, default=HarnessConfig.method)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full report of the transform run here")
    args = parser.parse_args(argv)

    cfg = HarnessConfig(
        n=args.dim, heads=args.heads, tokens=args.tokens, seed=args.seed,
        weight_bits=args.weight_bits, act_format=args.act_format,
        method=args.method,
    )
    with_t = run(cfg)
    without_t = run(replace(cfg, use_hadamard=False))

    print(f"block dim {args.dim}, {args.heads} heads, {args.tokens} tokens, "
          f"{args.weight_bits}-bit weights ({args.method}), "
          f"activations {args.act_format}")

    d = with_t.distribution
    print("\nactivation outlier profile at the first quantization point:")
    print(f"  channel max/median ratio  before transform {d['pre_hadamard']['channel_max_median_ratio']:9.2f}"
          f"   after {d['post_hadamard']['channel_max_median_ratio']:7.2f}")
    print(f"  excess kurtosis           before transform {d['pre_hadamard']['excess_kurtosis']:9.2f}"
          f"   after {d['post_hadamard']['excess_kurtosis']:7.2f}")

    print("\nper-layer weight quantization (with transform):")
    for name, rep in with_t.layers.items():
        print(f"  {name:6s} format {rep['format']}  spread {rep['spread']:7.2f}  "
              f"bias [{rep['bias_min']:3d}, {rep['bias_max']:3d}]  "
              f"weight sqnr {rep['weight_sqnr_db']:6.2f} dB")

    a = with_t.end_to_end["sqnr_db"]
    b = without_t.end_to_end["sqnr_db"]
    print("\nend-to-end block output vs full-precision reference:")
    print(f"  with transforms    {a:6.2f} dB")
    print(f"  without transforms {b:6.2f} dB")
    print(f"  transform gain     {a - b:+6.2f} dB")

    c = with_t.cost
    print("\ncost accounting:")
    print(f"  matmul macs          {sum(c['matmul_macs'].values()):12d}")
    print(f"  transform adds       {c['hadamard']['adds']:12d}")
    print(f"  transform muls       {c['hadamard']['muls']:12d}")
    print(f"  weight bytes fp32    {c['weight_bytes_fp32']:12d}")
    print(f"  weight bytes quant   {c['weight_bytes_quant']:12d}"
          f"   ({c['bytes_ratio_before_bias']:.1f}x smaller before bias overhead)")

    if args.json:
        with open(args.json, "w") as fh:
            fh.write(with_t.to_json())
        print(f"\nfull report written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
