"""Peak traced memory of run(), of one GPTQ factor, of one GPTQ sweep and
of `fpqt quantize`.

tracemalloc sees numpy's array buffers, so these bound how many dense
copies of the block, how many n x n arrays per Hessian factor, how many
weight-sized arrays per sweep, how many factors a stage holds at once, and
how many container entries `fpqt quantize` holds at once.
"""

import contextlib
import inspect
import io
import tracemalloc

import numpy as np
import pytest

from fpqt import cli, gptq
from fpqt.fusion import FusionPlan, fuse_block, layer_shapes
from fpqt.formats import FpFormat
from fpqt.gptq import CalibrationSet, gptq_quantize, hessian_factor
from fpqt.harness import HarnessConfig, collect_calibration, init_weights, quantize_block_weights, run
from fpqt.tensors import write_tensors


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method,bound", [("rtn", 2.5), ("gptq", 6.0)])
def test_run_peak_in_block_copies(method, bound):
    # the unfused block is dropped once fused, and the folds run in decreasing
    # order of scratch: the peak is two copies of the block plus one small
    # stage output (rtn), or that plus the calibration sets and the factors (gptq)
    cfg = HarnessConfig(n=256, heads=4, method=method)
    run(HarnessConfig(n=16, heads=2, method=method))  # lazy imports and caches
    weight_bytes = 8 * sum(i * o for i, o in layer_shapes(cfg.n, cfg.hidden_dim).values())
    assert traced_peak(lambda: run(cfg)) <= bound * weight_bytes


@pytest.mark.parametrize("seed,inverse", [(None, False), (3, False), (None, True), (3, True)])
def test_fuse_block_peak_is_its_output_plus_one_small_layer(seed, inverse):
    # wide folds first, then w_v and w_out (three n x n arrays each), then w_q
    # and w_k (two): a fold's scratch meets the fewest folded matrices, so the
    # call holds one n x n layer beside its output (1.01 unseeded, 1.13 seeded,
    # 1.01 for the seeded inverse; 2.01 when w_q and w_k folded before w_v and
    # w_out, and 4.00 for the seeded inverse while mix kept its signed input copy)
    cfg = HarnessConfig(n=256, heads=4)
    weights = init_weights(cfg)
    plan = FusionPlan(cfg.n, cfg.hidden_dim, cfg.heads, seed)
    fuse_block(weights, plan, inverse)  # the plan's lazy signs and stages
    block_bytes = 8 * sum(i * o for i, o in layer_shapes(cfg.n, cfg.hidden_dim).values())
    peak = traced_peak(lambda: fuse_block(weights, plan, inverse))
    assert peak <= block_bytes + 1.5 * 8 * cfg.n ** 2


def test_gptq_run_peak_with_one_factor_at_a_time():
    # four sweeps, widest input first, each factor freed with its sweep: the
    # hidden x hidden factor never meets a quantized output (4.32 measured)
    cfg = HarnessConfig(n=256, heads=4)
    run(HarnessConfig(n=16, heads=2))
    weight_bytes = 8 * sum(i * o for i, o in layer_shapes(cfg.n, cfg.hidden_dim).values())
    assert traced_peak(lambda: run(cfg)) <= 4.75 * weight_bytes


def test_block_quantization_holds_one_factor_at_a_time(monkeypatch):
    # a factor lives in the buffer _gram() allocates for 2 X^T X, so the live
    # array bytes allocated on that line are the factors alive, here read
    # whenever a sweep takes its factor: none before, exactly its own after
    lines, first = inspect.getsourcelines(gptq._gram)
    line = first + next(i for i, text in enumerate(lines) if "np.zeros" in text)
    on_line = [tracemalloc.Filter(True, gptq.__file__, lineno=line)]
    buffers = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]  # not array objects

    def live_factor_bytes():
        snapshot = tracemalloc.take_snapshot().filter_traces(on_line).filter_traces(buffers)
        return sum(t.size for t in snapshot.traces)

    seen = []

    def factor(cal):
        before = live_factor_bytes()
        dead, st = hessian_factor(cal)
        seen.append((before, live_factor_bytes(), st.nbytes))
        return dead, st

    monkeypatch.setattr(gptq, "hessian_factor", factor)
    cfg = HarnessConfig(n=32, heads=4, tokens=64, calib_samples=128)
    fused, online = fuse_block(init_weights(cfg), cfg.plan)
    calib = collect_calibration(cfg, fused, online)
    traced_peak(lambda: quantize_block_weights(cfg, fused, calib))  # traced, for the snapshots
    assert [nbytes for *_, nbytes in seen] == [8 * 128 * 128] + [8 * 32 * 32] * 3
    assert [(before, after) for before, after, _ in seen] == [(0, nbytes) for *_, nbytes in seen]


def test_hessian_factor_holds_one_n_by_n_buffer(rng):
    n = 1024
    cal = CalibrationSet(rng.standard_normal((512, n)))
    assert traced_peak(lambda: hessian_factor(cal)) < 1.5 * n * n * 8


def test_gptq_sweep_holds_two_weight_sized_arrays(rng):
    # the working copy turns into w - q row by row beside q; the factor, taken
    # before that copy, and one block of the sweep are all the call adds
    cal = CalibrationSet(rng.standard_normal((256, 512)))
    w = rng.standard_normal((512, 2048))
    assert traced_peak(lambda: gptq_quantize(w, cal, FpFormat(2, 1))) <= 2.5 * w.nbytes


def test_quantize_command_holds_one_entry_at_a_time(rng, tmp_path):
    # neither the command nor the container reader keeps entry k's arrays
    # while entry k + 1 is read and quantized, and the entry is read, selected,
    # snapped and measured in float32 (1.43 measured; 2.33 in float64, 4.55 when
    # both kept entry k)
    src, out = tmp_path / "in.fpqt", tmp_path / "out.fpqt"
    write_tensors(src, {f"t{i}": rng.standard_normal((512, 512)) for i in range(6)})
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["quantize", str(src), str(out)]) == 0  # lazy imports and caches
        peak = traced_peak(lambda: cli.main(["quantize", str(src), str(out)]))
        assert peak <= 1.66 * 8 * 512 * 512
