"""The pytest settings in ``pyproject.toml`` keep a failing property a test
failure.  Hypothesis's failure report imports modules that raise a
DeprecationWarning on import; with ``filterwarnings = ["error"]`` alone that
ended the whole session with INTERNALERROR and lost the falsifying example."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTIES = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_a_failing_property_is_reported_not_fatal(tmp_path):
    # the inner session runs in tmp_path, where hypothesis writes its
    # database and patch files, under the repository's pytest settings
    (tmp_path / "test_property.py").write_text(PROPERTIES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example: test_fails(" in out, out
