"""The repo's pytest settings keep a run going past a failing property test.

``filterwarnings`` in pyproject.toml turns every warning into an error.  When
a Hypothesis test fails, Hypothesis imports libcst to describe the failing
example, and that import warns; as an error, the warning stops pytest with an
internal error, and no later test runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None, max_examples=5)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    module = tmp_path / "test_two.py"
    module.write_text(MODULE)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    command += ["-c", str(ROOT / "pyproject.toml"), str(module)]
    result = subprocess.run(command, capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
