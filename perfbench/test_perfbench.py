"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import ninepoint  # noqa: E402
import ninepoint.centers  # noqa: E402
import ninepoint.triangle  # noqa: E402
from ninepoint import cli  # noqa: E402
from ninepoint.triangle import SideLengths  # noqa: E402


def _argvs(name: str, seed: int, n: int, warmup: bool = False):
    stream = workloads.WORKLOADS[name].requests(seed, warmup=warmup)
    return [request.argv for request in itertools.islice(stream, n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv_lists(name):
    assert _argvs(name, 7, 120) == _argvs(name, 7, 120)
    assert _argvs(name, 7, 120) != _argvs(name, 8, 120)
    assert not set(map(tuple, _argvs(name, 7, 120))) & set(map(tuple, _argvs(name, 7, 120, True)))


def test_mixed_rational_triangles_are_valid():
    requests = _argvs("cli_mixed_rational", 3, 500)
    digits = set()
    for argv in requests:
        a, b, c = workloads.sides_of(argv)
        assert a + b > c and b + c > a and c + a > b
        SideLengths(a, b, c)  # raises on an invalid triangle
        digits.add(len(argv[2].split(",")[0].split("/")[1]))
    assert min(digits) == workloads.MIXED_MIN_DIGITS
    assert max(digits) <= workloads.MIXED_MAX_DIGITS


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "ninepoint" or name.startswith("ninepoint.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    with tracer.Tracer() as active:
        assert ninepoint.triangle.metrics is not before[("ninepoint.triangle", "metrics")]
        assert ninepoint.centers.metrics is ninepoint.triangle.metrics
        assert ninepoint.metrics is ninepoint.triangle.metrics
        assert cli.main(["feuerbach", "--sides", "3,4,5", "--format", "json"]) == 0
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    summary = active.summary([1.0])
    assert summary["cli.main"]["calls"] == 1
    assert summary["feuerbach.feuerbach_report"]["calls"] == 1
    assert summary["harness.check_identity_suite"]["calls"] == 0
    assert all(entry["self_ns"] >= 0 for entry in summary.values())
    assert not active.absent


def test_self_time_excludes_child_spans():
    traced = tracer.Tracer(("a.f", "a.g"))
    traced.spans.extend([(0, 0, 100, tracer.NO_PARENT, 0), (1, 10, 70, 0, 0), (1, 75, 95, 0, 0)])
    summary = traced.summary([2.0])
    assert summary["a.f"] == {"calls": 1, "self_ns": 40.0, "hits": 0}
    assert summary["a.g"]["calls"] == 2 and summary["a.g"]["self_ns"] == 160.0


def _answer(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_checks_accept_correct_answers():
    for argv in _argvs("cli_mixed_rational", 5, 30):
        code, stdout = _answer(argv)
        assert checks.check_output(argv, code, stdout) == ([], 0.0)


def test_checks_flag_a_wrong_circumradius():
    argv = ["feuerbach", "--sides", "13/3,4,15/7", "--format", "json"]
    code, stdout = _answer(argv)
    doc = json.loads(stdout)
    assert doc["metrics"]["R_sq"] == workloads.fraction_text(
        checks.circumradius_sq(Fraction(13, 3), Fraction(4), Fraction(15, 7))
    )
    doc["metrics"]["R_sq"] = "1/1"
    problems, _ = checks.check_output(argv, code, json.dumps(doc))
    assert any("R_sq" in problem for problem in problems)


def test_checks_flag_failed_fuzz_and_broken_svg():
    argv = _argvs("fuzz_generic_exact", 1, 1)[0]
    code, stdout = _answer(argv)
    assert checks.check_output(argv, code, stdout) == ([], 0.0)
    doc = json.loads(stdout)
    doc["passes"] -= 1
    assert checks.check_output(argv, code, json.dumps(doc))[0]
    assert checks.check_output(["svg", "--sides", "3,4,5"], 0, "<svg><g></svg>")[0]
    assert checks.check_output(argv, 3, stdout)[0] == ["exit code 3"]
