"""Span tracing of the fpqt layers, installed from outside the program.

Each public function of a traced module is wrapped, and the wrapper is bound
under every module name that holds the original, so a call reaches the span
whichever namespace it looks the function up in (``apply_right`` is bound in
``hadamard``, ``fusion``, ``harness``, ``cli`` and the package itself).
Spans are kept in memory as tuples, written once at the end, and the
originals are restored on ``remove``.  A span's self time is its duration
minus the time its child spans cover; calls are synchronous, so children of
one span never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict

from fpqt import fusion

# Modules of src/fpqt whose public functions get spans.  `formats` is left
# out: its functions are descriptors whose cost falls inside `quantize`.
LAYERS = ("quantize", "select", "hadamard", "fusion", "gptq", "harness", "tensors", "cli")

ITERATION = "bench.iteration"

# Online transform points that block_forward reaches through a direct
# apply_right call, in the order the forward pass runs them; the remaining
# point, post_attention, runs through cross_head_apply.
_DIRECT_POINTS = tuple(p for p in fusion.ONLINE_POINTS if p != "post_attention")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _payload_bytes(tensors) -> int:
    """float32 container payload of a tensor dict, computed from array sizes."""
    return sum(4 * int(getattr(t, "size", 0)) for t in tensors.values())


def _block_points(args, kwargs):
    online = args[2] if len(args) > 2 else kwargs.get("online", ())
    present = {t.point for t in online}
    return {"points": tuple(p for p in _DIRECT_POINTS if p in present)}


# Work counts recorded per call, computed from arguments or result after the
# span has closed.  Bytes are computed from array sizes, never measured.
_ATTRS = {
    "hadamard.apply_right": lambda a, k, r: {
        "rows": int(_arg(a, k, 0, "x").shape[0]),
        "spec": _arg(a, k, 1, "spec"),
    },
    "hadamard.realize": lambda a, k, r: {"bytes": 8 * _arg(a, k, 0, "spec").dim ** 2},
    "gptq.gptq_quantize": lambda a, k, r: {"columns": int(_arg(a, k, 0, "w").shape[0])},
    "quantize.minmax_quantize": lambda a, k, r: {"elems": int(r.values.size)},
    "select.select_format": lambda a, k, r: {"elems": int(_arg(a, k, 0, "w").size)},
    "tensors.read_tensors": lambda a, k, r: {"bytes": _payload_bytes(r)},
    "tensors.write_tensors": lambda a, k, r: {"bytes": _payload_bytes(_arg(a, k, 1, "tensors"))},
    "fusion.block_forward": lambda a, k, r: _block_points(a, k),
}


class Tracer:
    """Wraps the public functions of the fpqt layers and records spans.

    A span is ``(id, parent_id, iteration, name, start, end, raised, attrs)``;
    id 0 is the implicit root.  ``iteration`` opens the benchmark's own span
    around one iteration, so every layer span belongs to exactly one.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stack = [0]
        self._iteration = -1
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _public_functions(self):
        for layer in LAYERS:
            mod = sys.modules[f"fpqt.{layer}"]
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not fname.startswith("_"):
                    yield f"{layer}.{fname}", fn

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self._public_functions()}
        holders = [mod for name, mod in list(sys.modules.items())
                   if name == "fpqt" or name.startswith("fpqt.")]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        attr_fn = _ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, tracer._iteration, name, t0, t1, True, None))
                raise
            t1 = clock()
            stack.pop()
            attrs = attr_fn(args, kwargs, result) if attr_fn is not None else None
            spans.append((sid, parent, tracer._iteration, name, t0, t1, False, attrs))
            return result

        return wrapper

    # -- the benchmark's own span --------------------------------------------

    def iteration(self, index: int, call, *args):
        """Run ``call(*args)`` as iteration ``index`` inside a root span."""
        self._iteration = index
        sid = next(self._ids)
        self._stack.append(sid)
        raised = True
        t0 = time.perf_counter()
        try:
            result = call(*args)
            raised = False
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, 0, index, ITERATION, t0, t1, raised, None))
            self._iteration = -1

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line; attrs keep only plain numbers."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, it, name, t0, t1, raised, attrs in self.spans:
                row = {"id": sid, "parent": parent, "iteration": it, "name": name,
                       "start": t0, "end": t1, "raised": raised}
                if attrs:
                    row["attrs"] = {k: v for k, v in attrs.items() if isinstance(v, (int, float))}
                fh.write(json.dumps(row) + "\n")


def summarize(spans, op_count) -> dict:
    """Per-iteration layer statistics from a span list.

    Returns ``{"iterations": {index: {stat_name: value}}, "errors":
    {function: count}}``.  Per-iteration stats are, for each traced
    function ``f``: ``f.calls``, ``f.self_s``, ``f.total_s`` and the sums of
    its recorded work counts (``f.columns``, ``f.elems``, ``f.bytes``,
    ``f.ops``); for apply_right also ``hadamard.apply_right.<point>.self_s``
    and ``.ops`` per online point; per module ``<module>.self_s``; and
    ``bench.iteration.wall_s`` / ``bench.iteration.self_s``.  ``op_count``
    is the untraced ``fpqt.hadamard.op_count``.
    """
    by_id = {}
    child_time = defaultdict(float)
    children = defaultdict(list)
    for span in spans:
        sid, parent, _, _, t0, t1, _, _ = span
        by_id[sid] = span
        child_time[parent] += t1 - t0
        children[parent].append(span)

    # apply_right calls made directly by block_forward map, in call order,
    # onto the points that forward pass runs; the cross-head mix is the
    # post_attention point.
    point_of = {}
    for sid, span in by_id.items():
        name, attrs = span[3], span[7]
        if name == "fusion.block_forward" and attrs:
            direct = sorted((s for s in children[sid] if s[3] == "hadamard.apply_right"),
                            key=lambda s: s[4])
            for point, s in zip(attrs["points"], direct):
                point_of[s[0]] = point
        elif name == "fusion.cross_head_apply":
            for s in children[sid]:
                if s[3] == "hadamard.apply_right":
                    point_of[s[0]] = "post_attention"

    iterations: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    errors: dict[str, int] = defaultdict(int)
    for span in spans:
        sid, parent, it, name, t0, t1, raised, attrs = span
        stats = iterations[it]
        dur = t1 - t0
        own = dur - child_time[sid]
        if name == ITERATION:
            stats["bench.iteration.wall_s"] += dur
            stats["bench.iteration.self_s"] += own
            continue
        if raised:
            errors[name] += 1
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += own
        stats[f"{name}.total_s"] += dur
        stats[f"{name.split('.')[0]}.self_s"] += own
        if attrs:
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    stats[f"{name}.{key}"] += value
            if name == "hadamard.apply_right":
                ops = op_count(attrs["rows"], attrs["spec"])
                n_ops = ops["adds"] + ops["muls"]
                stats[f"{name}.ops"] += n_ops
                point = point_of.get(sid)
                if point is not None:
                    stats[f"{name}.{point}.self_s"] += own
                    stats[f"{name}.{point}.ops"] += n_ops
    return {"iterations": {k: dict(v) for k, v in iterations.items()}, "errors": dict(errors)}


COUNT_SUFFIXES = (".calls", ".columns", ".elems", ".bytes", ".ops", ".rows")


def count_signature(stats: dict) -> dict:
    """The exact work counts of one iteration: calls, ops, columns, bytes."""
    return {k: int(v) for k, v in sorted(stats.items()) if k.endswith(COUNT_SUFFIXES)}


def layer_metric(name: str, per_iter: list[dict], errors: dict):
    """Value of one declared per-layer metric, from the per-iteration stats.

    Times are medians over the traced iterations; counts are those of one
    iteration (they repeat exactly); ``<count>_per_s`` divides a count by the
    median self time and ``mb_per_s`` does so for bytes in MB (10^6 bytes).
    """
    if name == "trace.iteration_self_frac":
        return statistics.median(
            s["bench.iteration.self_s"] / s["bench.iteration.wall_s"] for s in per_iter
        )

    def med(key):
        return statistics.median(s.get(key, 0.0) for s in per_iter)

    base, _, stat = name.rpartition(".")
    if stat == "errors":
        return errors.get(base, 0)
    if stat in ("self_s", "total_s"):
        return med(name)
    if stat in ("calls", "columns", "elems", "bytes", "ops"):
        return int(per_iter[0].get(name, 0))
    if stat.endswith("_per_s"):
        count_key = "bytes" if stat == "mb_per_s" else stat[: -len("_per_s")]
        scale = 1e-6 if stat == "mb_per_s" else 1.0
        seconds = med(f"{base}.self_s")
        count = per_iter[0].get(f"{base}.{count_key}", 0)
        return count * scale / seconds if seconds > 0 else 0.0
    raise KeyError(f"no rule computes per-layer metric {name!r}")
