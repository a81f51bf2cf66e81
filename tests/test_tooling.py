"""The repository's pytest settings, checked in a child pytest run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n != n


def test_plain_fails():
    assert False
'''


def test_a_failing_property_does_not_hide_later_failures(tmp_path):
    """With warnings as errors, a failing Hypothesis test must still let the
    session go on and report the failures after it."""
    (tmp_path / "test_two_failures.py").write_text(FAILING_TESTS)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two_failures.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode == 1, child.stdout + child.stderr
    assert "2 failed" in child.stdout, child.stdout
