"""The four benchmark workloads, each a closed loop with one caller.

A workload builds its state in ``setup``, makes the inputs of iteration
``i`` in ``inputs(i)`` (untimed), runs one timed ``call``, checks that
call's output in ``record`` (untimed), and checks the run as a whole in
``finish``.  Every input derives from the workload seed; the library gets
only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import statistics

import numpy as np

import oracle
from fpqt import cli, formats, fusion, harness, quantize, select, tensors

FUSION_TOLERANCE = 1e-9  # relative error, fused vs unfused full-precision block


def derive_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


@contextlib.contextmanager
def patched(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _sqnr_db(ref: np.ndarray, out: np.ndarray) -> float:
    return 10.0 * math.log10(float(np.sum(ref * ref)) / float(np.sum((ref - out) ** 2)))


def _fusion_failures(weights, fused, online, x) -> list[str]:
    """The fused full-precision block must equal the unfused one."""
    err = _rel_err(fusion.block_forward(x, fused, online), fusion.block_forward(x, weights))
    if err <= FUSION_TOLERANCE:
        return []
    return [f"fused block deviates from the unfused one: relative error {err:.3e}"]


def _weight_failures(fp, quantized, layer_reports, method: str) -> list[str]:
    """Quantized weights against the independent grid snap.

    RTN weights must equal the snap of the full-precision weights.  GPTQ
    moves weights before rounding them, so its values must lie on the same
    per-channel grids (snapping them again changes nothing).
    """
    failures = []
    for name, w in fp.matrices().items():
        q = getattr(quantized, name)
        rep = layer_reports[name]
        fmt = formats.parse_format(rep["format"])
        bias = oracle.minmax_bias(w, fmt, -1)
        expected = oracle.snap(w if method == "rtn" else q, fmt, bias, -1)
        if not np.array_equal(expected, q):
            bad = int(np.count_nonzero(expected != q))
            failures.append(f"{name}: {bad} weights off the independent {fmt} grid snap")
        if (int(bias.min()), int(bias.max())) != (rep["bias_min"], rep["bias_max"]):
            failures.append(f"{name}: bias range {rep['bias_min']}..{rep['bias_max']} "
                            f"differs from the independent {int(bias.min())}..{int(bias.max())}")
    return failures


class Workload:
    min_iters = 3

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.tiny = scale == "tiny"

    def cleanup(self) -> None:
        pass


class Ptq(Workload):
    """One iteration is ``harness.run`` on a fresh seeded block."""

    REPORTS = 3  # iterations whose reports give sqnr_db and the checksum

    def __init__(self, params, tiny_params, seed, scale):
        super().__init__(seed, scale)
        self.params = tiny_params if self.tiny else params
        self.reports: dict[int, str] = {}

    def config(self, i: int) -> harness.HarnessConfig:
        return harness.HarnessConfig(**self.params, seed=derive_seed(self.seed, i))

    def setup(self) -> None:
        # load the lazily imported LAPACK and scipy paths on a toy block
        harness.run(harness.HarnessConfig(n=32, heads=2, calib_samples=64,
                                          method=self.params["method"], seed=self.seed))

    def inputs(self, i):
        return (self.config(i),)

    def call(self, cfg):
        return harness.run(cfg)

    def record(self, i: int, report) -> list[str]:
        sqnr = report.end_to_end["sqnr_db"]
        failures = [] if math.isfinite(sqnr) and sqnr > 0.0 else [f"iteration {i}: sqnr_db {sqnr}"]
        if i < self.REPORTS:
            text = report.to_json()
            if self.reports.setdefault(i, text) != text:
                failures.append(f"iteration {i}: report differs between the loop's runs")
        return failures

    def finish(self) -> dict:
        cfg = self.config(0)
        captured = {}

        def capture(cfg_, weights, calib):
            qweights, layer_reports = original(cfg_, weights, calib)
            captured.update(fused=weights, quantized=qweights, reports=layer_reports)
            return qweights, layer_reports

        with patched(harness, "quantize_block_weights", capture) as original:
            report = harness.run(cfg)
        failures = []
        if report.to_json() != self.reports[0]:
            failures.append("check run's report differs from iteration 0's")

        weights = harness.init_weights(cfg)
        plan = fusion.plan_fusion(weights, cfg.hadamard_seed, cfg.v_mode)
        fused, online = fusion.fuse_block(weights, plan)
        for name, w in fused.matrices().items():
            if not np.array_equal(w, getattr(captured["fused"], name)):
                failures.append(f"{name}: fused weights differ from the harness's")
        failures += _fusion_failures(weights, fused, online, harness.gen_activations(cfg, 0))
        failures += _weight_failures(fused, captured["quantized"], captured["reports"],
                                     cfg.method)

        texts = [self.reports[i] for i in range(self.REPORTS)]
        sqnrs = [json.loads(t)["end_to_end"]["sqnr_db"] for t in texts]
        return {
            "failures": failures,
            "sqnr_db": sum(sqnrs) / len(sqnrs),
            "checksum": hashlib.sha256("".join(texts).encode()).hexdigest(),
        }

    def derived(self, median_s: float, times: list[float]) -> dict:
        cfg = self.config(0)
        n, hidden = cfg.n, cfg.hidden_dim
        params = 4 * n * n + 2 * n * hidden
        return {"ptq_params_per_s": (params / median_s, "params/s")}


class Serve(Workload):
    """One iteration is a W4A4 forward of the fused, RTN-quantized block on a
    fresh batch; activations get E2M1 per-token MinMax."""

    min_iters = 100  # so that at least ten batches lie beyond the p90

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        dims = dict(n=64, heads=4, hidden=192, tokens=32) if self.tiny else \
            dict(n=512, heads=8, hidden=1536, tokens=128)
        self.cfg = harness.HarnessConfig(**dims, method="rtn", seed=derive_seed(seed, 0),
                                         hadamard_seed=derive_seed(seed, 1))
        self.act_fmt = formats.parse_format("E2M1")
        self.check_batches = 4 if self.tiny else 16
        self.outputs: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        cfg = self.cfg
        self.weights = harness.init_weights(cfg)
        plan = fusion.plan_fusion(self.weights, cfg.hadamard_seed, cfg.v_mode)
        self.fused, self.online = fusion.fuse_block(self.weights, plan)
        self.qweights, self.layer_reports = harness.quantize_block_weights(cfg, self.fused, None)
        rng = np.random.default_rng(derive_seed(self.seed, 2))
        self.outlier_cols = np.sort(rng.choice(cfg.n, size=cfg.outlier_channels, replace=False))
        self.call(self.batch(0))

    def batch(self, i: int) -> np.ndarray:
        x = np.random.default_rng([self.seed, 3, i]).standard_normal((self.cfg.tokens, self.cfg.n))
        x[:, self.outlier_cols] *= self.cfg.outlier_scale
        return x

    def act_quant(self, a, layer):
        return quantize.minmax_quantize(a, self.act_fmt, channel_axis=0).values

    def inputs(self, i):
        return (self.batch(i),)

    def call(self, x):
        return fusion.block_forward(x, self.qweights, self.online, act_quant=self.act_quant)

    def record(self, i: int, out) -> list[str]:
        failures = [] if np.isfinite(out).all() else [f"batch {i}: non-finite output"]
        if i < self.check_batches:
            kept = self.outputs.setdefault(i, out)
            if kept is not out and not np.array_equal(kept, out):
                failures.append(f"batch {i}: output differs between the loop's runs")
        return failures

    def finish(self) -> dict:
        failures = _weight_failures(self.fused, self.qweights, self.layer_reports, "rtn")
        digest = hashlib.sha256()
        sqnrs = []
        for i in range(self.check_batches):
            x = self.batch(i)
            ref = fusion.block_forward(x, self.weights)
            if i == 0:
                failures += _fusion_failures(self.weights, self.fused, self.online, x)
            seen = []

            def capture(a, layer):
                qt = quantize.minmax_quantize(a, self.act_fmt, channel_axis=0)
                seen.append((layer, a, qt))
                return qt.values

            out = fusion.block_forward(x, self.qweights, self.online, act_quant=capture)
            if i in self.outputs and not np.array_equal(out, self.outputs[i]):
                failures.append(f"batch {i}: check output differs from the timed one")
            for layer, a, qt in seen:
                bias = oracle.minmax_bias(a, self.act_fmt, 0)
                if not (np.array_equal(bias, qt.bias)
                        and np.array_equal(oracle.snap(a, self.act_fmt, bias, 0), qt.values)):
                    failures.append(f"batch {i} {layer}: activations off the independent grid snap")
            sqnrs.append(_sqnr_db(ref, out))
            digest.update(out.tobytes())
        return {"failures": failures, "sqnr_db": sum(sqnrs) / len(sqnrs),
                "checksum": digest.hexdigest()}

    def derived(self, median_s: float, times: list[float]) -> dict:
        p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else float("nan")
        return {"serve_tokens_per_s": (self.cfg.tokens / median_s, "tokens/s"),
                "batch_ms_p90": (1e3 * p90, "ms")}


class Ckpt(Workload):
    """One iteration is the in-process ``fpqt quantize IN OUT`` command on a
    float32 container, stdout discarded."""

    SHAPES = ((1024, 2048), (2048, 1024), (512, 4096), (4096, 512), (256, 8192), (8192, 256))
    TINY_SHAPES = ((64, 128), (128, 64))
    HEAVY_TAIL_FRACTION = 0.01  # entries scaled by harness.HEAVY_TAIL_SCALE

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale)
        tag = f"{seed}-{os.getpid()}"
        self.in_path = str(workdir / f"ckpt-{tag}-in.fpqt")
        self.out_path = str(workdir / f"ckpt-{tag}-out.fpqt")
        self.devnull = None

    def make_tensors(self) -> dict[str, np.ndarray]:
        """Half Gaussian, half with 1% of entries scaled like init_weights."""
        rng = np.random.default_rng([self.seed, 4])
        out = {}
        for i, shape in enumerate(self.TINY_SHAPES if self.tiny else self.SHAPES):
            for kind in ("gauss", "heavy"):
                w = rng.standard_normal(shape) / math.sqrt(shape[0])
                if kind == "heavy":
                    w[rng.random(shape) < self.HEAVY_TAIL_FRACTION] *= harness.HEAVY_TAIL_SCALE
                out[f"layer{i}.{kind}"] = w
        return out

    def setup(self) -> None:
        ts = self.make_tensors()
        self.payload_bytes = sum(4 * t.size for t in ts.values())
        tensors.write_tensors(self.in_path, ts)
        if self.devnull is None:
            self.devnull = open(os.devnull, "w")

    def inputs(self, i):
        return (["quantize", self.in_path, self.out_path],)

    def call(self, argv):
        with contextlib.redirect_stdout(self.devnull):
            return cli.main(argv)

    def record(self, i: int, rc) -> list[str]:
        return [] if rc == 0 else [f"iteration {i}: exit code {rc}"]

    def finish(self) -> dict:
        src = tensors.read_tensors(self.in_path)
        out = tensors.read_tensors(self.out_path)
        failures = []
        expected = set(src) | {f"{name}.bias" for name in src}
        if set(out) != expected:
            failures.append(f"output tensors {sorted(set(out) ^ expected)} unexpected or missing")
            return {"failures": failures, "sqnr_db": float("nan"), "checksum": ""}
        signal = noise = 0.0
        chosen = set()
        for name, t in src.items():
            fmt = select.select_format(t)
            chosen.add(str(fmt))
            q, bias = out[name], out[f"{name}.bias"]
            if bias.shape != (t.shape[1],):
                failures.append(f"{name}.bias has shape {bias.shape}, expected ({t.shape[1]},)")
                continue
            again = quantize.minmax_quantize(q, fmt, channel_axis=-1)
            if not (np.array_equal(again.values, q) and np.array_equal(again.bias, bias)):
                failures.append(f"{name}: re-quantizing the output is not the identity")
            ob = oracle.minmax_bias(t, fmt, -1)
            if not (np.array_equal(ob, bias) and np.array_equal(oracle.snap(t, fmt, ob, -1), q)):
                failures.append(f"{name}: output off the independent {fmt} grid snap")
            signal += float(np.sum(t * t))
            noise += float(np.sum((t - q) ** 2))
        if chosen != {"E2M1", "E3M0"}:
            failures.append(f"select_format chose {sorted(chosen)}, expected E2M1 and E3M0")
        with open(self.out_path, "rb") as fh:
            checksum = hashlib.sha256(fh.read()).hexdigest()
        return {"failures": failures, "sqnr_db": 10.0 * math.log10(signal / noise),
                "checksum": checksum}

    def derived(self, median_s: float, times: list[float]) -> dict:
        return {"ckpt_mb_per_s": (self.payload_bytes / 1e6 / median_s, "MB/s")}

    def cleanup(self) -> None:
        if self.devnull is not None:
            self.devnull.close()
        for path in (self.in_path, self.out_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def make(name: str, seed: int, scale: str, workdir) -> Workload:
    if name == "ptq-gptq":
        return Ptq(dict(n=512, heads=8, method="gptq"),
                   dict(n=64, heads=4, method="gptq", calib_samples=128), seed, scale)
    if name == "ptq-rtn-wide":
        return Ptq(dict(n=1024, heads=16, hidden=3584, method="rtn"),
                   dict(n=64, heads=4, hidden=224, method="rtn"), seed, scale)
    if name == "serve-w4a4":
        return Serve(seed, scale)
    if name == "ckpt-quantize":
        return Ckpt(seed, scale, workdir)
    raise ValueError(f"unknown workload {name!r}")
