"""Pick a minifloat layout from the data instead of guessing.

The spread indicator s = max|W| / quantile(|W|, alpha) measures how far a
tensor's extremes sit above its bulk.  Concentrated tensors waste exponent
range and want mantissa bits; heavy-tailed tensors clip and want exponent
bits.  The selector matches log2(s) against each candidate layout's covered
magnitude span and prints its reasoning here for three synthetic profiles.
"""

from __future__ import annotations

import argparse

import numpy as np

from fpqt import (
    SelectionConfig,
    minmax_quantize,
    parse_format,
    quant_error,
    selection_table,
)


def profiles(rng: np.random.Generator) -> dict[str, np.ndarray]:
    n = 4096
    return {
        "concentrated (uniform magnitudes)": rng.uniform(0.3, 1.0, n),
        "gaussian": rng.standard_normal(n),
        "heavy-tailed (gaussian + rare spikes)": np.where(
            rng.random(n) < 0.003, rng.standard_normal(n) * 60.0, rng.standard_normal(n)
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bits", type=int, default=SelectionConfig.n_bits)
    parser.add_argument("--alpha", type=float, default=SelectionConfig.alpha)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    cfg = SelectionConfig(n_bits=args.bits, alpha=args.alpha)
    rng = np.random.default_rng(args.seed)

    for name, w in profiles(rng).items():
        tab = selection_table(w, cfg)
        print(f"=== {name} ===")
        print(f"spread s = {tab['spread']:.2f} (alpha = {tab['alpha']:g})")
        for cand in tab["candidates"]:
            marker = " <-- selected" if cand["format"] == tab["selected"] else ""
            print(
                f"  {cand['format']}: spans {cand['range_ratio']:7.1f}x, "
                f"log2 distance {cand['log2_distance']:.3f}{marker}"
            )
        # sanity: measure what each candidate actually does to this tensor
        col = w.reshape(-1, 1)
        for cand in tab["candidates"]:
            fmt = parse_format(cand["format"])
            err = quant_error(col, minmax_quantize(col, fmt, channel_axis=-1).values)
            print(f"  measured {cand['format']} sqnr: {err['sqnr_db']:6.2f} dB")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
