"""The test harness itself: a failing Hypothesis test reports its
falsifying example also when warnings are errors, as in CI."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import symflow

FAILING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(deadline=None, database=None, max_examples=5)
@given(x=st.integers(0, 10))
def test_always_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_reports_example_under_warnings_as_errors(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_fails.py").write_text(FAILING_TEST)
    src = str(Path(symflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-W", "error", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
