"""The pytest settings of this project report every test of a session."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_FIRST = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, max_examples=5)
def test_property_fails(x):
    assert False


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # With warnings as errors, a warning raised while Hypothesis reports a
    # failure would stop the session there, before test_passes runs.
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_FIRST, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
