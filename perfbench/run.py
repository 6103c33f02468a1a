"""fpqt benchmark: seeded closed-loop workloads against the public fpqt API.

    python3 perfbench/run.py --workload ptq-gptq --seed 1 --seconds 15 --trace 0

Runs one workload from the root of a source checkout, importing fpqt from
its ``src`` directory.  With ``--trace 0`` it times the workload and prints
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it times half
the run untraced and half with spans around every public function of the
fpqt layers, and prints every per-layer metric.  Every output is checked
outside the timed region.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Results and spans also
go to ``.perfbench/`` in the checkout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402

SETUP_REPEATS = 3
WORKLOADS = ("ptq-gptq", "ptq-rtn-wide", "serve-w4a4", "ckpt-quantize")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def import_program():
    """Import numpy, scipy and the checkout's own fpqt; refuse any other fpqt."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    try:
        import fpqt
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fpqt from {src}: {exc}")
    found = Path(fpqt.__file__).resolve().parent
    if found != (src / "fpqt").resolve():
        raise SystemExit(f"perfbench: imported fpqt from {found}, not from {src}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class SpeedProbe:
    """A fixed numpy kernel timed just before every iteration.

    On a shared host the CPU's speed drifts by tens of percent over tens of
    seconds, for the probe as for the program.  An iteration's time divided
    by the probe time taken just before it cancels much of that drift.  The
    probe's work (BLAS products, a sort, ufuncs on a few MB) depends on
    neither the seed nor fpqt, and is small enough to leave the caches
    mostly as the iteration left them.
    """

    NOMINAL_MS = 8.0  # the probe's typical time on the 2-vCPU Xeon host the bounds were set on
    SHARE = 0.05  # probe time per iteration, as a share of the previous iteration's time
    MIN_REPEATS = 3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.square = rng.standard_normal((256, 256))
        self.vec = rng.standard_normal(300_000)
        self.measure(0.0)  # first touch of the arrays is not part of a probe

    def measure(self, budget_s: float) -> float:
        """Median seconds of one probe run, over at least MIN_REPEATS runs
        and at least ``budget_s`` of probing."""
        np, spans = self.np, []
        while len(spans) < self.MIN_REPEATS or sum(spans) < budget_s:
            t0 = time.perf_counter()
            for _ in range(6):
                self.square @ self.square
            np.sort(self.vec)
            np.floor(np.exp(self.vec) * self.vec)
            spans.append(time.perf_counter() - t0)
        return statistics.median(spans)


def run_phase(wl, seconds, probe, tracer=None):
    """Closed loop: start iteration i+1 only after iteration i has returned.

    Runs until both ``seconds`` have passed and ``wl.min_iters`` iterations
    have started.  Returns the timed seconds of the iterations that
    succeeded, each one's ratio to the probe time taken just before it, the
    number attempted, and the failed ones' messages.
    """
    times, ratios, failed = [], [], []
    i, last_s = 0, 0.0
    start = time.perf_counter()
    while i < wl.min_iters or time.perf_counter() - start < seconds:
        args = wl.inputs(i)
        probe_s = probe.measure(probe.SHARE * last_s)
        t0 = time.perf_counter()
        try:
            out = tracer.iteration(i, wl.call, *args) if tracer else wl.call(*args)
        except Exception as exc:  # one failed operation; the loop goes on
            failed.append(f"iteration {i}: {type(exc).__name__}: {exc}")
        else:
            last_s = time.perf_counter() - t0
            times.append(last_s)
            ratios.append(last_s / probe_s)
            problems = wl.record(i, out)
            if problems:
                failed.append("; ".join(problems))
        i += 1
    return times, ratios, i, failed


def timing_line(name, seconds):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(seconds)
    ms = sorted(1e3 * s for s in seconds)
    parts = [f"timing {name}: median={statistics.median(ms):.4f} ms"]
    for pct in (99.9, 99.0, 90.0):
        if n * (1 - pct / 100) >= 10:
            parts.append(f"p{pct:g}={statistics.quantiles(ms, n=1000)[round(pct * 10) - 1]:.4f} ms")
            break
    parts.append(f"n={n}")
    return " ".join(parts)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = envinfo.pin_blas_threads()
    import_program()
    import_s = time.perf_counter() - T0

    import tracer as tracing
    import workloads
    from fpqt import hadamard

    spec = load_spec()
    env = envinfo.record(ROOT, threads)
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, args.scale, workdir)
    failures, attempted = [], 0
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)

        probe = SpeedProbe()
        seconds = args.seconds / 2 if args.trace else args.seconds
        times, ratios, n, failed = run_phase(wl, seconds, probe)
        attempted += n
        failures += failed
        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                traced_times, traced_ratios, n, failed = run_phase(wl, seconds, probe, tracer)
            attempted += n
            failures += failed
            traced = tracing.summarize(tracer.spans, hadamard.op_count)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        check = wl.finish()
        attempted += 1
        check_problems = list(check["failures"])
    finally:
        wl.cleanup()

    per_iter, signatures_equal = [], True
    if traced is not None:
        per_iter = [traced["iterations"][k] for k in sorted(traced["iterations"]) if k >= 0]
        signatures = [tracing.count_signature(s) for s in per_iter]
        signatures_equal = all(s == signatures[0] for s in signatures)
        if not signatures_equal:
            check_problems.append("work counts differ between traced iterations")
    if check_problems:
        failures.append("; ".join(check_problems))

    median_s = statistics.median(times)
    end_to_end = {
        "setup_s": setup_s,
        "iter_norm_ms": SpeedProbe.NOMINAL_MS * statistics.median(ratios),
        "sqnr_db": check["sqnr_db"],
        "peak_rss_mb": peak_rss_mb,
    }
    derived = wl.derived(median_s, times)
    derived["error_rate"] = (len(failures) / attempted, "fraction")

    if args.trace:
        declared = spec["per_layer"]
        k = min(len(ratios), len(traced_ratios))
        overhead = statistics.median(traced_ratios[:k]) / statistics.median(ratios[:k]) - 1.0
        values = {m["name"]: overhead if m["name"] == "trace.overhead_frac"
                  else tracing.layer_metric(m["name"], per_iter, traced["errors"])
                  for m in declared}
    else:
        declared = spec["end_to_end"]
        values = {m["name"]: end_to_end[m["name"]] for m in declared}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "env": env,
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        "iterations_s": times, "probe_ratios": ratios, "end_to_end": end_to_end,
        "derived": {k: v for k, (v, _) in derived.items()},
        "checksum": check["checksum"], "failures": failures,
    }
    if traced is not None:
        result["counts"] = tracing.count_signature(per_iter[0]) if per_iter else {}
        result["counts_repeat"] = signatures_equal
        result["traced_iterations_s"] = traced_times
        result["per_layer"] = values
        tracer.write(workdir / f"spans-{args.workload}-s{args.seed}.jsonl")
    stem = f"result-{args.workload}-s{args.seed}-t{args.trace}"
    (workdir / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print("env " + json.dumps(env, sort_keys=True))
    print(timing_line("iteration", times))
    print(f"timing setup: median={1e3 * statistics.median(setup_times):.4f} ms "
          f"n={len(setup_times)} import={1e3 * import_s:.4f} ms")
    for m in spec["end_to_end"]:
        print(f"metric {m['name']} {end_to_end[m['name']]:.6g} {m['unit']}")
    for name, (value, unit) in derived.items():
        print(f"derived {name} {value:.6g} {unit}")
    print(f"checksum {check['checksum']}")
    for problem in failures:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
