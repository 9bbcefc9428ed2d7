"""``tools/call_counts.py`` prints, for each of its three jobs (two fuzz
jobs and the first requests of the CLI benchmark workload), a header line,
the functions called at least once per triangle with their calls per
triangle, and the total; its compare mode lists the functions whose calls
differ between two source trees."""

import contextlib
import importlib.util
import io
import re
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("call_counts", ROOT / "tools" / "call_counts.py")
call_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(call_counts)

COUNT_LINE = re.compile(r"^ +\d+\.\d\d  \S+$")


def test_prints_each_job_with_its_counts_per_triangle(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert call_counts.main([str(ROOT / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    headers = [i for i, line in enumerate(lines) if line.startswith("job: ")]
    assert [lines[i] for i in headers] == [f"job: {title}" for title, _ in call_counts.jobs()]
    assert len(headers) == len(call_counts.JOBS) + 1 and headers[0] == 0
    for start, end in zip(headers, headers[1:] + [len(lines)]):
        block = lines[start + 1:end]
        assert block[-1].endswith("  total per triangle")
        counts = {line.split()[1]: float(line.split()[0]) for line in block[:-1]}
        assert all(COUNT_LINE.match(line) for line in block[:-1])
        assert all(n >= 1 for n in counts.values())
        assert list(counts.values()) == sorted(counts.values(), reverse=True)
        if lines[start].startswith("job: fuzz "):
            assert counts["ninepoint.harness.check_identity_suite"] == 1.0
        else:
            # One CLI request per triangle, and no identity suite.
            assert counts["ninepoint.cli.main"] == 1.0
            assert "ninepoint.harness.check_identity_suite" not in counts


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


@pytest.mark.parametrize("command", ["feuerbach", "compute"])
@pytest.mark.parametrize("sides", ["3,4,5", "13/3,4,15/7", "7/3,7/3,7/3"])
def test_exact_answer_reads_no_fraction_after_its_input(command, sides):
    # An exact JSON answer is written from the kernel's integer ratios: the
    # only fractions calls are those that reading the three sides makes
    # (parsing them, and the exact embedding that 3,4,5 has).
    from ninepoint import cli

    argv = [command, "--sides", sides, "--format", "json"]

    def read_input(argv):
        return cli._resolve_input(cli._plain_request(argv))

    def fraction_calls(counts):
        return {name: n for name, n in counts.items() if name.startswith("fractions.")}

    parsed = fraction_calls(call_counts.count_calls(read_input, argv))
    assert parsed["fractions.Fraction.__new__"] >= 3
    assert fraction_calls(call_counts.count_calls(cli.main, argv)) == parsed


def test_float_job_hands_the_suite_float_pairs(monkeypatch):
    # Float fuzz embeds its triangle as float pairs, so no Point2 is built
    # and none is lifted, and the tangency decision writes its bounds out:
    # the two calls per triangle left are the suite's bisector-foot bound
    # and the sum check of its incenter round trip.
    # The calls are counted by wrapping, because Python 3.10 names every
    # __init__ of a module alike in the profile hook.
    from ninepoint import cli
    from ninepoint.numeric import ToleranceProfile
    from ninepoint.triangle import FloatPlane, Point2

    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(Point2, "__init__", counted("Point2", Point2.__init__))
    monkeypatch.setattr(FloatPlane, "lift", staticmethod(counted("lift", FloatPlane.lift)))
    monkeypatch.setattr(ToleranceProfile, "bound", counted("bound", ToleranceProfile.bound))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(call_counts.JOBS[1])) == 0
    assert calls["Point2"] == 0 and calls["lift"] == 0
    assert 0 < calls["bound"] <= 2 * call_counts.COUNT


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
    assert len(lines) == 2 * len(call_counts.jobs())

    assert call_counts.main(["--compare", str(src), str(changed)]) == 1
    exact, floating, requests = "\n".join(capsys.readouterr().out.splitlines()).split("\njob: ")
    assert len(exact.splitlines()) == 2
    floating = floating.splitlines()
    assert floating[1].split() == ["1.00", "2.00", "ninepoint.triangle._conditioning"]
    base, head, *_ = floating[2].split()
    assert floating[2].endswith("  total per triangle") and float(head) == float(base) + 1
    assert len(floating) == 3
    # The CLI requests run no identity suite.
    assert requests.startswith("cli_mixed_rational ") and len(requests.splitlines()) == 2


def test_cli_job_is_the_first_requests_of_the_benchmark_workload():
    # The job runs, in order, the requests that tools/output_digest.py
    # takes from the workload at the job's seed.
    spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    title, job = call_counts.jobs()[-1]
    assert title == "cli_mixed_rational --seed 1 (first 20 requests)"
    assert len(job) == call_counts.COUNT
    assert {argv[0] for argv in job} == {"compute", "feuerbach", "svg"}
    requests = digest.request_set(call_counts.CLI_SEED, call_counts.COUNT)
    n = call_counts.COUNT
    assert [i for i in range(len(requests)) if requests[i:i + n] == job] != []


def test_cli_job_seeks_each_exact_embedding_once():
    # Every request of the CLI job is on exact sides, and each seeks its
    # canonical frame once, svg requests included.
    from ninepoint import cli

    _, job = call_counts.jobs()[-1]
    counts = call_counts.count_calls(cli.main, *job)
    assert counts["ninepoint.cli.main"] == call_counts.COUNT
    assert counts["ninepoint.triangle._canonical_frame"] == call_counts.COUNT
