"""The project's pytest settings report a failing test as a failure.

``filterwarnings = ["error"]`` turns every warning into an error, including
warnings raised inside pytest plugins.  A warning in Hypothesis's failure
reporter then ends the whole run with ``INTERNALERROR`` (exit 3), skips the
remaining tests and loses the falsifying example.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_falsified_hypothesis_test_is_an_ordinary_failure(tmp_path):
    test_file = tmp_path / "test_falsified.py"
    test_file.write_text(
        textwrap.dedent(
            """
            from hypothesis import given
            from hypothesis import strategies as st


            @given(st.integers())
            def test_below_five(n):
                assert n < 5
            """
        )
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(test_file)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "1 failed" in output
