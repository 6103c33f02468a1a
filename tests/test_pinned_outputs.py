"""Pinned digests of quantizer output and of harness reports.

The snapping and GPTQ paths are exact-arithmetic code that gets rewritten
for speed; these SHA-256 digests were taken from the previous
implementation (floor(log2) snapping, GPTQ factor via cho_solve and a
second Cholesky) and must not move.  Each digest covers the value bytes
(so the sign of zero counts), the bias vector, and which inputs raise.
The GPTQ digests also fix BLAS summation order; they were taken with
numpy's bundled OpenBLAS 0.3.31 on x86-64.  1 and 2 BLAS threads give the
same pinned bytes, but not every step does: at in_dim >= 256 scipy's dpotrf
gives a Cholesky factor whose last bits differ between 1 and 2 threads, and
the pinned outputs agree only because no snapped weight sits at a grid tie
that such last-bit noise could flip.  They held, with every report digest, through the rewrite of
the sweep from the inverse factor U = R^-1 to the Cholesky form on R itself.
scipy's own bundled OpenBLAS (0.3.30 here) forms the Hessian 2 X^T X, one
dsyrk into one triangle, and runs its Cholesky factorisation, LAPACK dpotrf;
until the dsyrk, numpy's OpenBLAS (0.3.31) formed it, through the syrk that
X.T @ X takes, and every digest held across that move.  The digests held
again when that factor moved from scipy.linalg.cholesky on a reversed copy
to dpotrf in place on the one n x n buffer, and again when the sweep wrote
each row's w - q over its working copy of w in place of a third
weight-sized array.  pytest's report header names both builds.

The report digests cover run(cfg).to_json() and the estimate_cost JSON of
the CLI's `cost` command; they were taken before the layer shapes, the
online schedule and the per-weight spread each got a single owner, and fix
the whole pipeline's output for those configs (same BLAS caveat).  Five of
them (all but rtn and heavy_tail) were re-taken when attention moved from
einsum to batched matmul; their numbers held within SUM_ORDER_RTOL of
REPORT_NUMBERS, the largest move 5.2e-16 relative.  Five (all but q12_signs
and e3m0_rtn) were re-taken again when quant_error became one blocked pass
with numpy sums in place of BLAS dot products; the largest distance from
REPORT_NUMBERS is then 1.4e-15 relative.  quant_error no longer calls BLAS,
so its numbers are the same bytes on 1 and 2 threads at every size, not only
at the toy sizes of the pinned reports; a subprocess test checks the gptq
and rtn digests and an n=256 report under 1 and 2 threads.

The fusion digests cover fuse_block's matrices and those of its inverse,
applied to the same unfused block; they were taken when the inverse was
a chain of three per-stage calls, so they fix the order in which W_v's two
factors are folded in and out.  The benchmark-shape fusion digests and the
apply_right digest were taken when fusion reached H^T W as (W^T H)^T through
a column-major branch of apply_right and the cross-head mix ran apply_right
on a transposed copy, so they fix those bytes at sizes where the inner
stages split with a = 16, 32 and 128.

The container digests cover the OUT file and stdout of `fpqt quantize`
under --format auto and E2M1, and the stdout of `inspect` and
`select-format` (text and --json), on one seeded container; they were taken
when the CLI read and wrote the whole container at once, so they fix the
streamed path's bytes.

The minmax digest was re-taken once, when the snap's rounding step became
floor(u + (1/2 - 2^-54)) in units u of the lowest spacing: floor(u + 1/2)
rounded u = 1/2 - 2^-54 up to one unit, and the edges input holds such
values (a power of two less one ulp, half a spacing below a grid point).
Those elements, and only those, moved, from one spacing to zero, which is
where the scalar grid oracle puts them; the test beside the digest checks
every element of the edges input against that oracle.

The base-matrix digests cover base_matrix(q).tobytes() for every base order;
they were taken when the bases were stored as +- tables, so they fix the
construction that replaced the tables, entry for entry.

Summation-order protocol.  A change that only reorders floating-point sums
(a BLAS call for a numpy loop, say) may move the report digests, but not the
numbers behind them beyond SUM_ORDER_RTOL.  REPORT_NUMBERS holds every value
of the pinned run() reports, json.loads(run(cfg).to_json()) keyed by
REPORT_DIGESTS name, taken before attention moved from einsum to matmul.
Each float must stay within SUM_ORDER_RTOL of it relative; ints (biases,
counts), strings (formats), booleans, nulls and the key sets must match
exactly.  A rounding that flips near a grid tie moves one value a whole
grid step and fails this check; the bound is never widened for it.  Only
the digests of reports that pass here may be re-taken.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpqt
from fpqt.cli import main
from fpqt.errors import NumericalError
from fpqt.formats import candidate_formats, parse_format
from fpqt.fusion import fuse_block, plan_fusion
from fpqt.gptq import CalibrationSet, gptq_quantize
from fpqt.hadamard import apply_right, base_matrix, build
from fpqt.harness import HarnessConfig, estimate_cost, init_weights, run
from fpqt.quantize import minmax_quantize
from fpqt.tensors import write_tensors
from oracles import oracle_snap

# re-taken when the snap stopped taking a value just under half its grid's lowest
# spacing up to one spacing (was b9a2b4b9851763489fec46e311c5c142b40095c2de3c51fc20f1da33d5103d78)
MINMAX_DIGEST = "e6052df821bff9e914b29e1350fa94c0222e19b8e5e999ce71a5a3ac7f8e0515"
GPTQ_DIGESTS = {
    256: "2295f1c50e1987761b539cedd52e23e80aaa99e293702b9dc7d2f7b4a8346b45",
    200: "a3ede4c7721d3bdc08960845939ec18b5f3ddff2895270840da6f26bbe063111",
    # taken while numpy's syrk still formed the Hessian: its edge kernels and
    # scipy's dsyrk differ in the last bits at in_dims that are not multiples of 8
    77: "cb12999463e039cda906e05547295b10ddbc9e9db0157d56a882c211d36b7144",
    130: "dd195d1ec5ca1879d98b7f10cf85e9be2ee3a5e0b9474980fdc017b9457f53c2",
}

REPORT_DIGESTS = {
    "gptq": ({}, "0d78679398f64ddf53cd8e25f397549edd2ef7fc57e6e77f9a673f1cfd395a1c"),
    "rtn": (
        dict(method="rtn"),
        "9fe5cbb6d0fed53226e22bba4af7087a1d3bd2247f8f72af969ba310ef804692",
    ),
    "paper_literal": (
        dict(v_mode="paper_literal"),
        "7e1a395eba6c8acb143a9b5bf2d7cfe20b33a4ad955ad8b3a4e3da79e468f2d6",
    ),
    "no_hadamard": (
        dict(use_hadamard=False),
        "7958447f96e570cdc1595b02cab37f459879c5c829c47fd00f5c090998fd815d",
    ),
    # order 12 factors (n = 48 = 4 * 12, hidden = 192) with sign diagonals
    "q12_signs": (
        dict(n=48, heads=4, hidden=192, hadamard_seed=3),
        "acd0893a40527bfc746ddee42fd591f0ca060b0d140cf68b41db1e339a61a588",
    ),
    "heavy_tail": (
        dict(heavy_tail_fraction=0.05, seed=4),
        "0e4308f7c51812ffedaf65e329b54751759ecc1b6ada15288a0b4e0e792fe40e",
    ),
    "e3m0_rtn": (
        dict(weight_format="E3M0", method="rtn"),
        "dfe4f65dd935025132fff103b23475ae8ebde7ac6d3d1d240e6fc743eb164922",
    ),
}
REPORT_NUMBERS = Path(__file__).with_name("pinned_report_numbers.json")
SUM_ORDER_RTOL = 1e-12
COST_DIGEST = "3abbc0bec90392ed1913251bc8a4917a1374f4477faee3571c586f7a0e15353b"
# (fused, inverted) for n=48, heads=4, hidden=224 and plan seed 5: orders 48,
# 224, 12 and 4 (base factors 12, 28, 12 and a power of two), all sign-flipped
FUSION_DIGESTS = {
    "per_head_exact": (
        "43bb0653ab63cdefd3e305997d868eacf12658583a60e1378c0ce0579d30170f",
        "6297d4f3bfaf68f01f3147724408efdf8d95c5f711327fddbc8253aef4640b3a",
    ),
    "paper_literal": (
        "c489a7a0800e9f911c66394f227d22b976f7706c04c622e910204f09f7d971ef",
        "d3da3f0e9a3c024d1549ca2af0a6b85821b31be839081354ccfed8d997303cf6",
    ),
}
# the same at serve-w4a4's shape, n=512, heads=8, hidden=1536 and plan seed
# 7: orders 512, 1536, 64 and 8, where the inner stages split with a = 16
# (order 512) and a = 32 (order 1536), beyond the n=48 case's 12x12 factors
BENCH_FUSION_DIGESTS = {
    "per_head_exact": (
        "2327abd2f3a88a7a5b72a78d0fa70d1d0e98349e0dcd3193749cdc603e505ad6",
        "c0e4db6219690b22fd1826c6b4150a1b99437d39fd3bc5cafafdc1cf8695c780",
    ),
    "paper_literal": (
        "d90e9c8d2e96e3f53c268b1034abec92dfa670628651b294edf37166f3d212a8",
        "0b1cda49d20451615aabd76c96ff7ab7a60d5b913360cb8fa517b7d0e1f579a1",
    ),
}
# apply_right then apply_right(transpose=True) on 16 seeded rows at order
# 28672 = 1024 * 28 with a sign diagonal (seed 11): a = 128, a 224x224 inner
APPLY_RIGHT_DIGEST = "5abac987589e42a160654d0a81a0386a4deb5c7c07782b1cb5738f8c1c4b5101"
# (OUT file + stdout) of `fpqt quantize --format <key>`; auto picks E2M1,
# E1M2 and E3M0 for the three entries
CONTAINER_DIGESTS = {
    "auto": "cc9b6ddf24c8155c3ef630e4f6d41097cd3d7d9e4c32333fd845c92a937261c1",
    "E2M1": "4fcbe04dfecaeb0eebe80ee7e39ec47a6ca8c0876b3c55519faceb0e5f8a6267",
}
REPORT_COMMANDS_DIGEST = "aaa3c9d947a869ce55601d91a602c979e1e49597cb4eeb9a70535f95822332d5"
# base_matrix(q).tobytes() for every base order, taken when the bases were
# stored as +- tables; only this covers order 20
BASE_MATRIX_DIGESTS = {
    1: "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    12: "9618f34bdae24fc54413c604ae0eb4e6bb436298fd119d1920b76abfdbd0262c",
    20: "5864b42134313a7e63e584907c16848004c15f340f37f3d211fdb59e090c4c5b",
    28: "7780fde91c7aab6230b742cf5ccb8d460e03fbfaf0aef901c62522b04aa5c72d",
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
        h.update(gptq_quantize(w, cal, fmt).values.tobytes())
    return h.hexdigest()


def test_minmax_output_digest_is_pinned():
    assert minmax_digest() == MINMAX_DIGEST


def test_minmax_edges_input_snaps_as_the_oracle_does():
    edges = _minmax_inputs()[1]
    for n_bits in range(2, 9):
        for fmt in candidate_formats(n_bits):
            for axis in (-1, 0, None):
                q = minmax_quantize(edges, fmt, channel_axis=axis)
                bias = q.bias[:, None] if axis == 0 else q.bias
                want = oracle_snap(edges, fmt.n_e, fmt.n_m, bias)
                assert np.array_equal(q.values, want), (str(fmt), axis)


def test_gptq_output_digest_is_pinned():
    for in_dim, want in GPTQ_DIGESTS.items():
        assert gptq_digest(in_dim) == want, in_dim


@pytest.mark.parametrize("name", list(REPORT_DIGESTS))
def test_report_digest_is_pinned(name):
    kwargs, want = REPORT_DIGESTS[name]
    assert hashlib.sha256(run(HarnessConfig(**kwargs)).to_json().encode()).hexdigest() == want


# the gptq and rtn pinned reports, and an n=256 report whose quant_error
# inputs span many blocks
THREAD_PROBE_CONFIGS = [REPORT_DIGESTS["gptq"][0], REPORT_DIGESTS["rtn"][0],
                        dict(n=256, heads=8, method="rtn")]
THREAD_PROBE = (
    "import hashlib\nfrom fpqt.harness import HarnessConfig, run\n"
    f"for kwargs in {THREAD_PROBE_CONFIGS!r}:\n"
    "    print(hashlib.sha256(run(HarnessConfig(**kwargs)).to_json().encode()).hexdigest())\n"
)


def test_reports_do_not_depend_on_the_blas_thread_count():
    # a child process on the other BLAS thread count (1 or 2) than this one
    threads = "2" if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else "1"
    src = str(Path(fpqt.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen([sys.executable, "-c", THREAD_PROBE], env=env,
                             stdout=subprocess.PIPE, text=True)
    here = [hashlib.sha256(run(HarnessConfig(**kwargs)).to_json().encode()).hexdigest()
            for kwargs in THREAD_PROBE_CONFIGS]
    there = child.communicate(timeout=300)[0].split()
    assert child.returncode == 0
    assert there == here
    assert here[:2] == [REPORT_DIGESTS["gptq"][1], REPORT_DIGESTS["rtn"][1]]


HESSIAN_PROBE = (
    "import hashlib\nimport numpy as np\nfrom fpqt.gptq import CalibrationSet, hessian\n"
    "for in_dim in (77, 256, 2048):\n"
    "    x = np.random.default_rng(in_dim).standard_normal((512, in_dim))\n"
    "    print(hashlib.sha256(hessian(CalibrationSet(x)).tobytes()).hexdigest())\n"
)


def test_hessian_does_not_depend_on_the_blas_thread_count():
    # one child process on 1 BLAS thread, one on 2; unlike dpotrf's factor,
    # dsyrk's 2 X^T X keeps its bytes, at a multiple of 8 and off one
    src = str(Path(fpqt.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", HESSIAN_PROBE], env=env,
                               stdout=subprocess.PIPE, text=True, timeout=300, check=True)
        digests.append(child.stdout.split())
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


def assert_within_sum_order(got, want, path: str = "report") -> None:
    """Every float of got within SUM_ORDER_RTOL of want, relative; every
    other value, every key set and every length equal."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            assert_within_sum_order(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_within_sum_order(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float and abs(got - want) <= SUM_ORDER_RTOL * abs(want), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_report_numbers_cover_the_pinned_reports():
    assert json.loads(REPORT_NUMBERS.read_text()).keys() == REPORT_DIGESTS.keys()


@pytest.mark.parametrize("name", list(REPORT_DIGESTS))
def test_report_numbers_within_sum_order_bound(name):
    want = json.loads(REPORT_NUMBERS.read_text())[name]
    got = json.loads(run(HarnessConfig(**REPORT_DIGESTS[name][0])).to_json())
    assert_within_sum_order(got, want)


@pytest.mark.parametrize("edit", [
    lambda r: r["end_to_end"].update(mse=r["end_to_end"]["mse"] * (1 + 1e-11)),
    lambda r: r["layers"]["w_q"].update(bias_min=r["layers"]["w_q"]["bias_min"] + 1),
    lambda r: r["layers"]["w_q"].update(format="E3M0"),
    lambda r: r["layers"]["w_q"].update(bias_min=float(r["layers"]["w_q"]["bias_min"])),
    lambda r: r["cost"]["hadamard"]["transforms"].pop(),
    lambda r: r["distribution"].pop("pre_hadamard"),
], ids=["float_beyond_bound", "bias", "format", "int_as_float", "list_length", "key_set"])
def test_sum_order_check_rejects(edit):
    want = json.loads(REPORT_NUMBERS.read_text())["rtn"]
    got = json.loads(json.dumps(want))
    assert_within_sum_order(got, want)
    edit(got)
    with pytest.raises(AssertionError):
        assert_within_sum_order(got, want)


def test_cost_digest_is_pinned():
    cost = estimate_cost(HarnessConfig(n=28672, heads=28, tokens=1))
    text = json.dumps(cost, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == COST_DIGEST


@pytest.mark.parametrize("q", list(BASE_MATRIX_DIGESTS))
def test_base_matrix_digest_is_pinned(q):
    assert hashlib.sha256(base_matrix(q).tobytes()).hexdigest() == BASE_MATRIX_DIGESTS[q]


def matrices_digest(weights) -> str:
    """SHA-256 over the six matrices' bytes, in LAYER_NAMES order."""
    h = hashlib.sha256()
    for m in weights.matrices().values():
        h.update(m.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("v_mode", list(FUSION_DIGESTS))
def test_fusion_digest_is_pinned(v_mode):
    w = init_weights(HarnessConfig(n=48, heads=4, hidden=224))
    plan = plan_fusion(w, seed=5, v_mode=v_mode)
    fused, _ = fuse_block(w, plan)
    inverted, _ = fuse_block(w, plan, inverse=True)
    assert (matrices_digest(fused), matrices_digest(inverted)) == FUSION_DIGESTS[v_mode]


@pytest.mark.parametrize("v_mode", list(BENCH_FUSION_DIGESTS))
def test_bench_shape_fusion_digest_is_pinned(v_mode):
    w = init_weights(HarnessConfig(n=512, heads=8, hidden=1536))
    plan = plan_fusion(w, seed=7, v_mode=v_mode)
    fused, _ = fuse_block(w, plan)
    inverted, _ = fuse_block(w, plan, inverse=True)
    assert (matrices_digest(fused), matrices_digest(inverted)) == BENCH_FUSION_DIGESTS[v_mode]


def test_apply_right_digest_is_pinned():
    x = np.random.default_rng(28672).standard_normal((16, 28672))
    spec = build(28672, seed=11)
    h = hashlib.sha256(apply_right(x, spec).tobytes())
    h.update(apply_right(x, spec, transpose=True).tobytes())
    assert h.hexdigest() == APPLY_RIGHT_DIGEST


def _container_inputs():
    """Seeded entries: a 1-D vector, a Gaussian matrix, and a matrix with 2 %
    of its entries scaled 10x (heavy-tailed, so auto picks E3M0)."""
    rng = np.random.default_rng(20261018)
    heavy = rng.standard_normal((32, 24)) / 4.0
    heavy[rng.random(heavy.shape) < 0.02] *= 10.0
    return {
        "vec": rng.standard_normal(37),
        "mat": rng.standard_normal((16, 12)) / 3.0,
        "heavy": heavy,
    }


def container_digest(fmt: str) -> str:
    """SHA-256 of the OUT file `fpqt quantize --format fmt` writes for the
    seeded container, plus its stdout; paths are relative to the cwd."""
    write_tensors("in.fpqt", _container_inputs())
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["quantize", "in.fpqt", "out.fpqt", "--format", fmt]) == 0
    with open("out.fpqt", "rb") as fh:
        h = hashlib.sha256(fh.read())
    h.update(stdout.getvalue().encode())
    return h.hexdigest()


@pytest.mark.parametrize("fmt", list(CONTAINER_DIGESTS))
def test_container_quantize_digest_is_pinned(tmp_path, monkeypatch, fmt):
    monkeypatch.chdir(tmp_path)
    assert container_digest(fmt) == CONTAINER_DIGESTS[fmt]


def report_commands_digest() -> str:
    """SHA-256 of the stdout of inspect and select-format, as text and as
    --json, on the seeded container."""
    write_tensors("in.fpqt", _container_inputs())
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in (["inspect"], ["inspect", "--json"],
                     ["select-format"], ["select-format", "--json"]):
            assert main([argv[0], "in.fpqt", *argv[1:]]) == 0
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest()


def test_report_commands_digest_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert report_commands_digest() == REPORT_COMMANDS_DIGEST
