"""Pinned digests of quantizer output and of harness reports.

The snapping and GPTQ paths are exact-arithmetic code that gets rewritten
for speed; these SHA-256 digests were taken from the previous
implementation (floor(log2) snapping, GPTQ factor via cho_solve and a
second Cholesky) and must not move.  Each digest covers the value bytes
(so the sign of zero counts), the bias vector, and which inputs raise.
The GPTQ digests also fix BLAS summation order; they were taken with
numpy's bundled OpenBLAS 0.3.31 on x86-64, where 1 and 2 BLAS threads give
the same bytes.

The report digests cover run(cfg).to_json() and the estimate_cost JSON of
the CLI's `cost` command; they were taken before the layer shapes, the
online schedule and the per-weight spread each got a single owner, and fix
the whole pipeline's output for those configs (same BLAS caveat).
"""

import hashlib
import json

import numpy as np
import pytest

from fpqt.errors import NumericalError
from fpqt.formats import candidate_formats, parse_format
from fpqt.gptq import CalibrationSet, GptqConfig, gptq_quantize
from fpqt.harness import HarnessConfig, estimate_cost, run
from fpqt.quantize import minmax_quantize

MINMAX_DIGEST = "b9a2b4b9851763489fec46e311c5c142b40095c2de3c51fc20f1da33d5103d78"
GPTQ_DIGESTS = {
    256: "2295f1c50e1987761b539cedd52e23e80aaa99e293702b9dc7d2f7b4a8346b45",
    200: "a3ede4c7721d3bdc08960845939ec18b5f3ddff2895270840da6f26bbe063111",
}

REPORT_DIGESTS = {
    "gptq": ({}, "e47174f04a3b7af11dbccbe0f272f17f928e7271f9809909cb4f50d4c42a13dd"),
    "rtn": (
        dict(method="rtn"),
        "6b9f0da488be0f47fa6b3bdb1957b26f04d285a3f1af6d383ca79e2fb581eaae",
    ),
    "paper_literal": (
        dict(v_mode="paper_literal"),
        "02b88f79e5ff68675144815123b37bff11e67188d7f9865c74d8bd47f0032765",
    ),
    "no_hadamard": (
        dict(use_hadamard=False),
        "e1df8792270e6d16555dd2fd3428beb78f38ca66a03b9d8d2630714e554c09e6",
    ),
    # order 12 factors (n = 48 = 4 * 12, hidden = 192) with sign diagonals
    "q12_signs": (
        dict(n=48, heads=4, hidden=192, hadamard_seed=3),
        "8fc74197e0a4a0f8832d7c0438bcb2ff794907ff5df3a6c8f7db29d535f1d118",
    ),
    "heavy_tail": (
        dict(heavy_tail_fraction=0.05, seed=4),
        "00687ec5eed60f1f027bae58312f4ae23d37faba6d839689309e2c56cbe4adb8",
    ),
    "e3m0_rtn": (
        dict(weight_format="E3M0", method="rtn"),
        "1289300cb8c2d9460f5bec813d8e1bcc42beafcc1c81a9c2524dc596e8c42667",
    ),
}
COST_DIGEST = "3abbc0bec90392ed1913251bc8a4917a1374f4477faee3571c586f7a0e15353b"


def _minmax_inputs():
    """Seeded (9, 6) tensors spanning the float64 range."""
    rng = np.random.default_rng(20241018)
    shape = (9, 6)
    normal = rng.standard_normal(shape) * np.exp2(rng.integers(-40, 41, size=6))
    normal[:, 0] = 0.0
    normal[0, 1] = -0.0
    k = rng.integers(-60, 60, size=shape)
    edges = np.ldexp(1.0, k) * rng.choice([-1.0, 1.0], size=shape)
    edges[::2] = np.nextafter(edges[::2], 0.0)  # just below a power of two
    edges[1, :] = -0.0
    subnormal = rng.standard_normal(shape) * 1e-310 * np.exp2(-rng.integers(0, 20, size=6))
    subnormal[4, 2] = 5e-324
    subnormal[5, 3] = 0.0  # zeros sit on the lowest grid level
    near_max = rng.uniform(-1.0, 1.0, shape) * 1.7e308
    near_max[0, 0] = np.finfo(np.float64).max
    near_max[1, 1] = -np.finfo(np.float64).max
    return [normal, edges, subnormal, near_max]


def minmax_digest() -> str:
    """SHA-256 over minmax_quantize of every ExMy format of 2-8 bits on every
    seeded input, along channel axes -1, 0 and None."""
    h = hashlib.sha256()
    for a in _minmax_inputs():
        for n_bits in range(2, 9):
            for fmt in candidate_formats(n_bits):
                for axis in (-1, 0, None):
                    try:
                        q = minmax_quantize(a, fmt, channel_axis=axis)
                    except NumericalError:
                        h.update(b"NumericalError")
                        continue
                    h.update(q.values.tobytes())
                    h.update(np.asarray(q.bias, dtype="<i8").tobytes())
    return h.hexdigest()


def gptq_digest(in_dim: int) -> str:
    """SHA-256 over gptq_quantize values for two formats on seeded data with
    outlier input dimensions and one dead input dimension."""
    rng = np.random.default_rng(in_dim)
    w = rng.standard_normal((in_dim, 40)) / 4.0
    x = rng.standard_normal((3 * in_dim, in_dim))
    x[:, rng.integers(in_dim, size=4)] *= 30.0
    x[:, 7] = 0.0
    cal = CalibrationSet(x)
    h = hashlib.sha256()
    for fmt in (parse_format("E2M1"), parse_format("E3M2")):
        h.update(gptq_quantize(w, cal, fmt, GptqConfig()).values.tobytes())
    return h.hexdigest()


def test_minmax_output_digest_is_pinned():
    assert minmax_digest() == MINMAX_DIGEST


def test_gptq_output_digest_is_pinned():
    for in_dim, want in GPTQ_DIGESTS.items():
        assert gptq_digest(in_dim) == want, in_dim


@pytest.mark.parametrize("name", list(REPORT_DIGESTS))
def test_report_digest_is_pinned(name):
    kwargs, want = REPORT_DIGESTS[name]
    assert hashlib.sha256(run(HarnessConfig(**kwargs)).to_json().encode()).hexdigest() == want


def test_cost_digest_is_pinned():
    cost = estimate_cost(HarnessConfig(n=28672, heads=28, tokens=1))
    text = json.dumps(cost, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == COST_DIGEST
