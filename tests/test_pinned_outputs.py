"""Pinned digests of quantizer output.

The snapping and GPTQ paths are exact-arithmetic code that gets rewritten
for speed; these SHA-256 digests were taken from the previous
implementation (floor(log2) snapping, GPTQ factor via cho_solve and a
second Cholesky) and must not move.  Each digest covers the value bytes
(so the sign of zero counts), the bias vector, and which inputs raise.
The GPTQ digests also fix BLAS summation order; they were taken with
numpy's bundled OpenBLAS 0.3.31 on x86-64, where 1 and 2 BLAS threads give
the same bytes.
"""

import hashlib

import numpy as np

from fpqt.errors import NumericalError
from fpqt.formats import candidate_formats, parse_format
from fpqt.gptq import CalibrationSet, GptqConfig, gptq_quantize
from fpqt.quantize import minmax_quantize

MINMAX_DIGEST = "b9a2b4b9851763489fec46e311c5c142b40095c2de3c51fc20f1da33d5103d78"
GPTQ_DIGESTS = {
    256: "2295f1c50e1987761b539cedd52e23e80aaa99e293702b9dc7d2f7b4a8346b45",
    200: "a3ede4c7721d3bdc08960845939ec18b5f3ddff2895270840da6f26bbe063111",
}


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
