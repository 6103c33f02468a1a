"""Fold orthonormal transforms into a transformer block's weights.

Because H is orthonormal, (x H)(H^T W) == x W exactly: rotating the
activations and counter-rotating the weights leaves the block function
unchanged in exact arithmetic.  This script builds a small
attention + MLP block, fuses transforms into all six weight matrices,
checks the output is bit-level-close to the reference, and prints which
activation streams still need an online transform plus what those cost.
"""

from __future__ import annotations

import argparse

import numpy as np

from fpqt import (
    HarnessConfig,
    block_forward,
    build,
    estimate_cost,
    fuse_block,
    init_weights,
    op_count,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--tokens", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sign-seed", type=int, default=None,
                        help="seed the random sign flips on each transform")
    args = parser.parse_args(argv)

    cfg = HarnessConfig(n=args.dim, heads=args.heads, tokens=args.tokens,
                        seed=args.seed, hadamard_seed=args.sign_seed)
    weights = init_weights(cfg)
    rng = np.random.default_rng(args.seed + 1)
    x = rng.standard_normal((args.tokens, args.dim))

    reference = block_forward(x, weights)
    fused, online = fuse_block(weights, cfg.plan)
    fused_out = block_forward(x, fused, online=online)

    err = np.max(np.abs(fused_out - reference)) / np.max(np.abs(reference))
    print(f"block: dim={weights.n} heads={weights.heads} hidden={weights.hidden}")
    print(f"max relative deviation after fusion: {err:.3e}")

    print("\nonline transforms that remain in the forward pass:")
    for t, ops in zip(online, estimate_cost(cfg)["hadamard"]["transforms"]):
        print(
            f"  {t.point:16s} order={t.spec.dim:5d} factors=({t.spec.p},{t.spec.q})"
            f"  adds={ops['adds']:8d}  muls={ops['muls']:8d}"
        )

    dense_ops = 2 * args.tokens * args.dim * args.dim  # macs counted twice
    fast = op_count(args.tokens, build(args.dim))
    print(f"\ndense {args.dim}x{args.dim} multiply on {args.tokens} tokens: "
          f"~{dense_ops} adds+muls")
    print(f"fast transform of the same activations: "
          f"{fast['adds'] + fast['muls']} adds+muls")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
