"""Peak traced memory of run(), of one GPTQ factor and of one GPTQ sweep.

tracemalloc sees numpy's array buffers, so these bound how many dense
copies of the block, how many n x n arrays per Hessian factor, and how many
weight-sized arrays per sweep a stage holds at once.
"""

import tracemalloc

import pytest

from fpqt.fusion import layer_shapes
from fpqt.formats import FpFormat
from fpqt.gptq import CalibrationSet, gptq_quantize
from fpqt.harness import HarnessConfig, run


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method,bound", [("rtn", 2.5), ("gptq", 6.0)])
def test_run_peak_in_block_copies(method, bound):
    # the unfused block is dropped once fused, and the wide matrices fold
    # first: the peak is two copies of the block plus one layer of scratch
    # (rtn), or that plus the calibration sets and the factors (gptq)
    cfg = HarnessConfig(n=256, heads=4, method=method)
    run(HarnessConfig(n=16, heads=2, method=method))  # lazy imports and caches
    weight_bytes = 8 * sum(i * o for i, o in layer_shapes(cfg.n, cfg.hidden_dim).values())
    assert traced_peak(lambda: run(cfg)) <= bound * weight_bytes


def test_hessian_factor_holds_one_n_by_n_buffer(rng):
    n = 1024
    cal = CalibrationSet(rng.standard_normal((512, n)))
    assert traced_peak(lambda: cal.hessian_factor) < 1.5 * n * n * 8


def test_gptq_sweep_holds_two_weight_sized_arrays(rng):
    # the working copy turns into w - q row by row beside q; the factor is cached
    cal = CalibrationSet(rng.standard_normal((256, 512)))
    cal.hessian_factor
    w = rng.standard_normal((512, 2048))
    assert traced_peak(lambda: gptq_quantize(w, cal, FpFormat(2, 1))) <= 2.5 * w.nbytes
