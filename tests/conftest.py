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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tmp_container(tmp_path):
    """Path factory for tensor container files."""

    def make(name="tensors.fpqt"):
        return str(tmp_path / name)

    return make
