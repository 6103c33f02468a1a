"""The benchmark's own tests: tiny runs of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
WORKLOADS = ("ptq-gptq", "ptq-rtn-wide", "serve-w4a4", "ckpt-quantize")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, trace, cwd=ROOT, seed=SEED):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class Run:
    def __init__(self, workload, trace):
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        self.lines = proc.stdout.strip().splitlines()
        self.result = json.loads(self.lines[-1])
        stem = f"result-{workload}-s{SEED}-t{trace}.json"
        self.record = json.loads((ROOT / ".perfbench" / stem).read_text())


@pytest.fixture(scope="module")
def runs():
    """Each workload once untraced and twice traced, all on one seed."""
    out = {}
    for w in WORKLOADS:
        out[w, 0] = Run(w, 0)
        out[w, 1] = Run(w, 1)
        out[w, "again"] = Run(w, 1)
    return out


def test_benchmark_json_follows_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][0] == "python3" and len(SPEC["command"]) <= 32
    assert all(not a.startswith("/") and ".." not in a for a in SPEC["command"])
    assert all((ROOT / p).is_dir() for p in SPEC["paths"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_prints_exactly_the_declared_metrics(runs, workload, trace):
    run = runs[workload, trace]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = run.result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = [line.split()[1:] for line in run.lines if line.startswith("metric ")]
    assert printed and all(units[name] == unit for name, _, unit in printed)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(runs, workload):
    assert all(m["value"] > 0 for m in runs[workload, 0].result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_result(runs, workload):
    plain, traced = runs[workload, 0].record, runs[workload, 1].record
    assert plain["checksum"] and plain["checksum"] == traced["checksum"]
    assert plain["end_to_end"]["sqnr_db"] == traced["end_to_end"]["sqnr_db"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    first, second = runs[workload, 1].record, runs[workload, "again"].record
    assert first["counts_repeat"] and second["counts_repeat"]
    assert first["counts"] and first["counts"] == second["counts"]


def test_iteration_span_is_covered_by_layer_spans(runs):
    for w in WORKLOADS:
        assert runs[w, 1].result["metrics"]["trace.iteration_self_frac"]["value"] < 0.10


def test_environment_is_recorded(runs):
    env = runs["serve-w4a4", 0].record["env"]
    for key in ("nproc", "affinity", "cpu_model", "python", "numpy", "scipy", "blas",
                "blas_threads_requested", "blas_threads_loaded", "git_commit"):
        assert key in env
    assert 1 <= env["blas_threads_requested"] <= env["nproc"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("serve-w4a4", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracle_snap_rounds_to_nearest_ties_away():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import oracle
    from fpqt import formats

    fmt = formats.parse_format("E2M1")  # max 12 at bias 0; bias -1 grid: 0 .5 1 1.5 2 3 4 6
    a = np.array([[0.0], [0.25], [-0.25], [0.74], [0.75], [2.5], [5.0], [7.0], [-100.0]])
    bias = oracle.minmax_bias(np.array([[6.0]]), fmt, -1)
    assert bias.tolist() == [-1]
    got = oracle.snap(a, fmt, bias, -1).ravel().tolist()
    assert got == [0.0, 0.5, -0.5, 0.5, 1.0, 3.0, 6.0, 6.0, -6.0]
