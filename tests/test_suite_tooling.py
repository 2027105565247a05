"""The test suite's own set-up, run as pytest sessions in a subprocess."""

import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PYPROJECT = os.path.join(os.path.dirname(TESTS), "pyproject.toml")

_ONE_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


@pytest.mark.parametrize("extra", [[], ["-W", "error"]], ids=["ini", "ini+W-error"])
def test_a_failing_property_leaves_the_session_running(tmp_path, extra):
    # The suite's conftest is loaded as a plugin, and pyproject.toml gives
    # the ini's filterwarnings = ["error"]; CI adds -W error on top.
    module = tmp_path / "test_one_failing_property.py"
    module.write_text(_ONE_FAILING_PROPERTY)
    env = dict(os.environ, PYTHONPATH=TESTS + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", PYPROJECT, "-p", "conftest",
         "-p", "no:cacheprovider", *extra, str(module)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
    assert proc.returncode == 1
