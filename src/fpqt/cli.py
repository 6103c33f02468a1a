"""Command-line interface.

Subcommands:
  inspect        per-tensor statistics of a tensor container
  select-format  data-driven minifloat format choice per tensor
  quantize       per-channel MinMax quantization of a container
  hadamard       factorization and operation counts for one transform
  fuse           fold transforms into block weights (or invert)
  simulate       run the end-to-end harness and emit its JSON report
  cost           static cost accounting for a harness configuration

Exit codes: 0 success; 1 usage, configuration, or numerical error;
2 I/O or container-format error.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import closing
from dataclasses import fields

import numpy as np

from .errors import FormatError, FpqtError, ShapeError
from .formats import parse_format
from .fusion import (
    LAYER_NAMES,
    V_MODES,
    DiTBlockWeights,
    fuse_block,
    plan_fusion,
)
from .hadamard import apply_right, build, op_count, realize
from .harness import HarnessConfig, estimate_cost, run, strict_json
from .quantize import minmax_quantize, quant_error
from .select import SelectionConfig, select_format, selection_table, spread_indicator
from .tensors import (
    _write_entries,
    channel_max_median_ratio,
    iter_tensors,
    read_tensors,
    write_tensors,
)

_DENSE_CHECK_LIMIT = 4096


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes an exponent form such as -1e+3 for a flag
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Shared flag groups
# ---------------------------------------------------------------------------


def _add_harness_flags(p: argparse.ArgumentParser) -> None:
    d = HarnessConfig()
    p.add_argument("--n", type=int, default=d.n, help="model width")
    p.add_argument("--heads", type=int, default=d.heads, help="attention heads")
    p.add_argument("--tokens", type=int, default=d.tokens, help="tokens per batch")
    p.add_argument("--hidden", type=int, default=None, help="FFN width (default 4*n)")
    p.add_argument("--outlier-channels", type=int, default=d.outlier_channels)
    p.add_argument("--outlier-scale", type=float, default=d.outlier_scale)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--weight-format", default=d.weight_format,
                   help="'auto' or a concrete format such as E2M1")
    p.add_argument("--weight-bits", type=int, default=d.weight_bits)
    p.add_argument("--act-format", default=d.act_format)
    p.add_argument("--method", choices=("gptq", "rtn"), default=d.method)
    p.add_argument("--calib-samples", type=int, default=d.calib_samples)
    p.add_argument("--alpha", type=float, default=d.alpha,
                   help="percentile for the spread indicator")
    p.add_argument("--heavy-tail-fraction", type=float, default=d.heavy_tail_fraction)
    p.add_argument("--v-mode", choices=V_MODES, default=d.v_mode)
    p.add_argument("--no-hadamard", dest="use_hadamard", action="store_false")
    p.add_argument("--hadamard-seed", type=int, default=None,
                   help="seed for random sign diagonals (default: none)")
    p.add_argument("--no-weight-quant", dest="quantize_weights", action="store_false")
    p.add_argument("--no-act-quant", dest="quantize_acts", action="store_false")


def _harness_config(args: argparse.Namespace) -> HarnessConfig:
    return HarnessConfig(**{f.name: getattr(args, f.name) for f in fields(HarnessConfig)})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _nonempty(name: str, t: np.ndarray) -> np.ndarray:
    """t, or ShapeError naming the entry when it holds no values: an empty
    tensor has no extremes, moments or spread to select a format by."""
    if t.size == 0:
        raise ShapeError(f"entry {name!r} is empty (shape {t.shape}); "
                         f"its statistics are undefined")
    return t


def cmd_inspect(args: argparse.Namespace) -> int:
    stats = {}
    with closing(iter_tensors(args.file)) as entries:
        for name, t in entries:
            t = _nonempty(name, t)
            entry = {
                "shape": list(t.shape),
                "min": float(t.min()),
                "max": float(t.max()),
                "mean": float(t.mean()),
                "std": float(t.std()),
                "max_abs": float(np.abs(t).max()),
                "spread": spread_indicator(t, args.alpha),
            }
            if t.ndim == 2:
                entry["channel_max_median_ratio"] = channel_max_median_ratio(t)
            stats[name] = entry
    if args.json:
        print(strict_json(stats))
    else:
        for name, e in stats.items():
            line = (
                f"{name}: shape={tuple(e['shape'])} min={e['min']:.6g} "
                f"max={e['max']:.6g} mean={e['mean']:.6g} std={e['std']:.6g} "
                f"spread={e['spread']:.6g}"
            )
            if "channel_max_median_ratio" in e:
                line += f" channel_ratio={e['channel_max_median_ratio']:.6g}"
            print(line)
    return 0


def cmd_select_format(args: argparse.Namespace) -> int:
    cfg = SelectionConfig(n_bits=args.bits, alpha=args.alpha)
    with closing(iter_tensors(args.file)) as entries:
        tables = {name: selection_table(_nonempty(name, t), cfg) for name, t in entries}
    if args.json:
        print(strict_json(tables))
    else:
        for name, tab in tables.items():
            best = next(
                c for c in tab["candidates"] if c["format"] == tab["selected"]
            )
            print(
                f"{name}: spread={tab['spread']:.6g} -> {tab['selected']} "
                f"(log2 distance {best['log2_distance']:.4f})"
            )
    return 0


def cmd_quantize(args: argparse.Namespace) -> int:
    cfg = SelectionConfig(n_bits=args.bits, alpha=args.alpha)
    fixed = None if args.format == "auto" else parse_format(args.format)
    lines = []

    def quantized(entries):
        for name, t in entries:
            fmt = select_format(_nonempty(name, t), cfg) if fixed is None else fixed
            a = t.reshape(-1, 1) if t.ndim < 2 else t
            qt = minmax_quantize(a, fmt, channel_axis=-1)
            values = qt.values.reshape(t.shape)
            err = quant_error(t, values)
            lines.append(
                f"{name}: format={fmt} channels={qt.bias.size} "
                f"mse={err['mse']:.6g} sqnr_db={err['sqnr_db']:.4f}"
            )
            yield name, values
            yield f"{name}.bias", qt.bias.astype(np.float64)

    with closing(iter_tensors(args.input)) as entries:
        count = _write_entries(args.output, quantized(entries))
    for line in lines:
        print(line)
    print(f"wrote {count} tensors to {args.output}")
    return 0


def cmd_hadamard(args: argparse.Namespace) -> int:
    spec = build(args.dim, args.seed)
    ops = {"dim": spec.dim, "p": spec.p, "q": spec.q, "rows": args.rows}
    ops.update(op_count(args.rows, spec))
    if args.check:
        if args.dim > _DENSE_CHECK_LIMIT:
            raise ValueError(
                f"--check materializes a dense {args.dim}x{args.dim} matrix; "
                f"limit is {_DENSE_CHECK_LIMIT}"
            )
        x = np.random.default_rng(args.seed or 0).standard_normal((8, args.dim))
        dense = realize(spec)
        ops["check_max_abs_err"] = float(np.abs(apply_right(x, spec) - x @ dense).max())
        back = apply_right(x, spec, transpose=True)
        ops["check_max_abs_err_transpose"] = float(np.abs(back - x @ dense.T).max())
        ortho = float(np.abs(dense.T @ dense - np.eye(args.dim)).max())
        ops["check_orthonormality_err"] = ortho
    print(strict_json(ops))
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    tensors = read_tensors(args.input)
    missing = [n for n in LAYER_NAMES if n not in tensors]
    if missing:
        raise ValueError(f"container is missing required tensors: {missing}")
    n = tensors["w_q"].shape[:1]  # () when w_q is 0-d, which DiTBlockWeights rejects
    weights = DiTBlockWeights(
        **{name: tensors[name] for name in LAYER_NAMES},
        heads=args.heads,
        ln1_gamma=tensors.get("ln1_gamma", np.ones(n)),
        ln1_beta=tensors.get("ln1_beta", np.zeros(n)),
        ln2_gamma=tensors.get("ln2_gamma", np.ones(n)),
        ln2_beta=tensors.get("ln2_beta", np.zeros(n)),
    )
    plan = plan_fusion(weights, args.seed, args.v_mode)
    new, online = fuse_block(weights, plan, inverse=args.invert)
    write_tensors(args.output, {**tensors, **new.matrices()})
    verb = "unfused" if args.invert else "fused"
    print(f"{verb} block (n={weights.n}, heads={args.heads}, v_mode={args.v_mode}) "
          f"-> {args.output}")
    for tr in online:
        print(
            f"online transform at {tr.point}: dim {tr.spec.dim} = "
            f"{tr.spec.p} x {tr.spec.q}"
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    report = run(_harness_config(args))
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    print(strict_json(estimate_cost(_harness_config(args))))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fpqt", description=__doc__.splitlines()[0])
    sel = SelectionConfig()
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("inspect", help="per-tensor statistics of a container")
    p.add_argument("file")
    p.add_argument("--alpha", type=float, default=sel.alpha)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("select-format", help="choose a minifloat format per tensor")
    p.add_argument("file")
    p.add_argument("--bits", type=int, default=sel.n_bits)
    p.add_argument("--alpha", type=float, default=sel.alpha)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_select_format)

    p = sub.add_parser("quantize", help="MinMax-quantize every tensor in a container")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--format", default="auto",
                   help="'auto' or a concrete format such as E2M1")
    p.add_argument("--bits", type=int, default=sel.n_bits, help="width used when --format auto")
    p.add_argument("--alpha", type=float, default=sel.alpha)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("hadamard", help="factorization and op counts for one dim")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rows", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--check", action="store_true",
                   help="verify the fast path, x H and x H^T, against the dense matrix")
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("fuse", help="fold transforms into block weights")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--v-mode", choices=V_MODES, default="per_head_exact")
    p.add_argument("--invert", action="store_true", help="undo a previous fuse")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("simulate", help="run the end-to-end harness")
    _add_harness_flags(p)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cost", help="static cost accounting for a configuration")
    _add_harness_flags(p)
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"fpqt: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else int(exc.code)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"fpqt: container error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fpqt: i/o error: {exc}", file=sys.stderr)
        return 2
    except (FpqtError, ValueError) as exc:
        print(f"fpqt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
