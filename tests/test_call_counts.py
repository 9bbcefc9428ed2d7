"""``tools/call_counts.py`` prints, for each of its two fuzz jobs, a header
line, the functions called at least once per triangle with their calls
per triangle, and the total."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("call_counts", ROOT / "tools" / "call_counts.py")
call_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(call_counts)

COUNT_LINE = re.compile(r"^ +\d+\.\d\d  \S+$")


def test_prints_each_job_with_its_counts_per_triangle(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert call_counts.main([str(ROOT / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    headers = [i for i, line in enumerate(lines) if line.startswith("job: fuzz ")]
    assert len(headers) == len(call_counts.JOBS) and headers[0] == 0
    for start, end in zip(headers, headers[1:] + [len(lines)]):
        block = lines[start + 1:end]
        assert block[-1].endswith("  total per triangle")
        counts = {line.split()[1]: float(line.split()[0]) for line in block[:-1]}
        assert all(COUNT_LINE.match(line) for line in block[:-1])
        assert all(n >= 1 for n in counts.values())
        assert list(counts.values()) == sorted(counts.values(), reverse=True)
        assert counts["ninepoint.harness.check_identity_suite"] == 1.0


def test_counts_are_the_same_on_every_run():
    from ninepoint import cli

    job = ["fuzz", "--profile", "near-equilateral", "--count", "3"]
    first = call_counts.count_calls(cli.main, job)
    assert call_counts.count_calls(cli.main, job) == first
    assert first["ninepoint.feuerbach._tangency_numerators"] == 3 * 6


def test_usage():
    assert call_counts.main(["one", "two"]) == 2
