"""The repository's pytest settings, checked on a child pytest run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_ONE_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    """hypothesis reports a failing example through libcst, whose import warns;
    `filterwarnings = ["error"]` alone turned that into an INTERNALERROR that
    ended the run before the next test."""
    (tmp_path / "test_two.py").write_text(ONE_FAILING_ONE_PASSING)
    args = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *args, "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
