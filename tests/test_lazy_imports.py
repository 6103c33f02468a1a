"""Which scipy modules a fresh fpqt process loads.

`import fpqt` loads numpy alone: gelu imports scipy.special (erf) and
gptq's Cholesky imports scipy.linalg (dpotrf) when first called, and the
Sylvester factors of every Hadamard transform are built by numpy.  Each
case runs in a new interpreter, since this one has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpqt.harness import HarnessConfig, init_weights
from fpqt.tensors import write_tensors

SRC = Path(__file__).parents[1] / "src"

# runs each argv of the JSON list in sys.argv[1] through cli.main, then
# prints the scipy compute modules loaded
SCRIPT = """
import contextlib, io, json, sys
import fpqt
from fpqt import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps([m for m in ("scipy.linalg", "scipy.special") if m in sys.modules]))
"""

TOY = ["--n", "16", "--heads", "2", "--tokens", "8", "--calib-samples", "16"]


def scipy_loaded_after(commands: list[list[str]]) -> list[str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_scipy_compute_module():
    assert scipy_loaded_after([]) == []


def test_container_and_transform_commands_run_without_scipy(tmp_path):
    block = tmp_path / "block.fpqt"
    write_tensors(block, init_weights(HarnessConfig(n=16, heads=2)).matrices())
    commands = [
        ["quantize", str(block), str(tmp_path / "q.fpqt")],
        ["inspect", str(block)],
        ["select-format", str(block)],
        ["cost", *TOY],
        ["hadamard", "--dim", "48", "--seed", "3", "--check"],
        ["fuse", str(block), str(tmp_path / "fused.fpqt"), "--heads", "2", "--seed", "1"],
    ]
    assert scipy_loaded_after(commands) == []


@pytest.mark.parametrize("method,loaded", [(["--method", "rtn"], ["scipy.special"]),
                                           ([], ["scipy.linalg", "scipy.special"])],
                         ids=["rtn", "gptq"])
def test_simulate_loads_only_what_it_computes_with(method, loaded):
    assert scipy_loaded_after([["simulate", *TOY, *method]]) == loaded
