"""The repository's pytest configuration keeps one failing test from ending
the session.  pyproject.toml turns DeprecationWarning into an error, and on a
failing example hypothesis imports libcst to print a patch, which warns
through mypy_extensions.TypedDict; unless that one warning is ignored, the
session stops with an INTERNALERROR and the tests after the failure never run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

FAILING_FIRST = '''
from hypothesis import given, settings, strategies as st

@settings(max_examples=20, derandomize=True, database=None)
@given(st.integers(0, 10))
def test_a_property_that_fails(x):
    assert x < 5

def test_after_it_one():
    pass

def test_after_it_two():
    pass
'''


def test_a_failing_property_leaves_the_later_tests_counted(tmp_path):
    path = tmp_path / "test_failing_first.py"
    path.write_text(FAILING_FIRST)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1].startswith("1 failed, 2 passed")

