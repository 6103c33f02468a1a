import os
import sys
from pathlib import Path

# One BLAS thread unless the environment says otherwise: at the tests' toy
# sizes a second thread only adds synchronisation.  Set before numpy loads
# OpenBLAS, which reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

# make the sibling oracles module importable from every test file
sys.path.insert(0, str(Path(__file__).parent))


def pytest_report_header(config):
    """numpy's and scipy's versions and BLAS builds, since the pinned digests
    fix BLAS summation order; versions alone where show_config has no dicts."""
    import scipy

    lines = []
    for module in (np, scipy):
        line = f"{module.__name__} {module.__version__}"
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            build = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
            line += f", BLAS {build}"
        except (TypeError, KeyError):  # no mode argument, or no BLAS entry
            pass
        lines.append(line)
    return lines


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tmp_container(tmp_path):
    """Path factory for tensor container files."""

    def make(name="tensors.fpqt"):
        return str(tmp_path / name)

    return make
