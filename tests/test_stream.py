"""iter_tensors on a container that shrinks while it is being streamed."""

import os

import numpy as np
import pytest

from fpqt.errors import FormatError
from fpqt.tensors import iter_tensors, write_tensors


@pytest.mark.parametrize("keep", [0, 40, 200_000])
def test_a_container_cut_after_open_is_a_format_error(tmp_path, keep):
    # each field is counted after it is read, not only checked against the size
    # seen at open; a cut at the second entry's header once raised struct.error
    path = tmp_path / "c.fpqt"
    write_tensors(path, {"a": np.ones((256, 256)), "b": np.ones((256, 256))})
    stream = iter_tensors(path)
    name, _ = next(stream)
    assert name == "a"
    os.truncate(path, os.path.getsize(path) // 2 + 1 + keep)
    with pytest.raises(FormatError, match="^truncated container: expected "):
        next(stream)
    stream.close()
