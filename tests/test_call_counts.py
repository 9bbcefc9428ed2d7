"""``tools/call_counts.py`` prints, for each of its two fuzz jobs, a header
line, the functions called at least once per triangle with their calls
per triangle, and the total; its compare mode lists the functions whose
calls differ between two source trees."""

import importlib.util
import re
import shutil
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
    # Python 3.10 names a method without its class.
    numerators = [n for name, n in first.items() if name.endswith(".tangency_numerators")]
    assert numerators == [3 * 6]


def test_float_job_builds_one_integer_form_and_no_fraction():
    # Float fuzz takes its sides and embedding from the generator's integer
    # form: no SideLengths rebuilds it, and no Fraction is built or read.
    from ninepoint import cli

    counts = call_counts.count_calls(cli.main, call_counts.JOBS[1])
    assert counts["ninepoint.triangle._integer_triangle"] == call_counts.COUNT
    assert [name for name in counts if name.startswith("fractions.")] == []


def test_usage():
    assert call_counts.main(["one", "two"]) == 2
    assert call_counts.main(["--compare", "one"]) == 2
    assert call_counts.main(["--compare"]) == 2


def test_compare_lists_the_functions_whose_calls_differ(tmp_path, capsys):
    src = ROOT / "src"
    changed = tmp_path / "src"
    shutil.copytree(src / "ninepoint", changed / "ninepoint",
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = changed / "ninepoint" / "harness.py"
    source = harness.read_text(encoding="utf-8")
    # One more call per float suite triangle, none on the exact job.
    line = "    cond = _conditioning(t)\n"
    assert source.count(line) == 1
    harness.write_text(source.replace(line, line + "    _conditioning(t)\n"), encoding="utf-8")

    assert call_counts.main(["--compare", str(src), str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("job: ")] == [
        line for line in lines if line.endswith("  total per triangle")
    ]
    assert len(lines) == 2 * len(call_counts.JOBS)

    assert call_counts.main(["--compare", str(src), str(changed)]) == 1
    exact, floating = "\n".join(capsys.readouterr().out.splitlines()).split("\njob: ")
    assert len(exact.splitlines()) == 2
    floating = floating.splitlines()
    assert floating[1].split() == ["1.00", "2.00", "ninepoint.triangle._conditioning"]
    base, head, *_ = floating[2].split()
    assert floating[2].endswith("  total per triangle") and float(head) == float(base) + 1
    assert len(floating) == 3
