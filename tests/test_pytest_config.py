"""The suite's pytest configuration reports a failing test as a failure."""

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_hypothesis_test_fails_without_stopping_the_run(tmp_path):
    # A failing @given test makes hypothesis import libcst to write a patch,
    # and that import warns; under "error" alone the warning became an
    # INTERNALERROR (exit 3) and the tests after it never ran.
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_tiny.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings
        from hypothesis import strategies as st


        @given(st.integers())
        @settings(derandomize=True, database=None)
        def test_fails(n):
            assert n < 0


        def test_after():
            pass
        """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_tiny.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
