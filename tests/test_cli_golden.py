"""Golden CLI output: each request's stdout must equal its file under
tests/golden/, byte for byte, and so must the stderr of each request that
argparse rejects.

The files pin what every command prints today, across both backends and
every format, so a refactor that changes one digit fails here.  After an
intended output change, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import os
import sys
from pathlib import Path

import pytest

from golden_cases import CASES, ERROR_CASES, ERROR_COLUMNS
from ninepoint import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    code = cli.main(CASES[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_argparse_error_matches_golden(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", ERROR_COLUMNS)
    code = cli.main(ERROR_CASES[name])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INVALID_INPUT, "")
    assert captured.err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out").write_text(out.getvalue(), encoding="utf-8")
    os.environ["COLUMNS"] = ERROR_COLUMNS
    for name, argv in ERROR_CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if (code, out.getvalue()) != (cli.EXIT_INVALID_INPUT, ""):
            sys.exit(f"{name}: exit code {code}, stdout {out.getvalue()!r}")
        (GOLDEN / f"{name}.err").write_text(err.getvalue(), encoding="utf-8")
    print(f"wrote {len(CASES) + len(ERROR_CASES)} files to {GOLDEN}")
