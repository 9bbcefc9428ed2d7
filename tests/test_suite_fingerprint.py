"""The identity suite check by check: for six cases, every check's
name, verdict, residual (as ``float.hex``) and detail, in order, must equal
tests/golden/suite_fingerprint.json.

The fuzz goldens pin only pass counts and the largest residual; this file
pins each check, so a change to how the suite compares values (or to the
order of its checks) shows here first.  The cases are an exact triangle
with a rational altitude, whose own frame is Cartesian, exact
near-degenerate sides whose altitude is irrational (their frame has the
metric x^2 + m*t^2 with m != 1), the same triangle on floats with its
float vertices, the generic triangle on floats, and the exact generic and
the float near-degenerate triangle with a kernel fault (the excenter Eb
built with the weights of Ec), which pin the residuals of failed checks
and that both kernels read the weight table when they are called.  After
an intended change, rewrite the golden with

    PYTHONPATH=src python tests/test_suite_fingerprint.py
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from ninepoint.centers import CENTER_WEIGHTS
from ninepoint.harness import FuzzProfile, check_identity_suite, random_triangle
from ninepoint.triangle import _canonical_frame
from point2_reference import as_float

GOLDEN = Path(__file__).parent / "golden" / "suite_fingerprint.json"


def _case(kind: str, seed: int, on_floats: bool):
    """The sides and the embedding the suite takes: float vertices for
    float sides, None for exact sides, which run on their own frame."""
    sides, vertices = random_triangle(FuzzProfile(kind=kind, seed=seed), 0)
    if on_floats:
        return sides.as_float(), tuple(as_float(p) for p in vertices)
    return sides, None


@contextmanager
def _eb_weighted_as_ec():
    saved = CENTER_WEIGHTS["Eb"]
    CENTER_WEIGHTS["Eb"] = CENTER_WEIGHTS["Ec"]
    try:
        yield
    finally:
        CENTER_WEIGHTS["Eb"] = saved


CASES = {
    "generic_exact": lambda: _case("generic", 4, False),
    "generic_exact_faulty_eb": lambda: _case("generic", 4, False),
    "generic_float": lambda: _case("generic", 4, True),
    "neardegen_exact_irrational_frame": lambda: _case("near-degenerate", 3, False),
    "neardegen_float": lambda: _case("near-degenerate", 3, True),
    "neardegen_float_faulty_eb": lambda: _case("near-degenerate", 3, True),
}


def fingerprint(name: str):
    sides, vertices = CASES[name]()
    if name.endswith("_faulty_eb"):
        with _eb_weighted_as_ec():
            report = check_identity_suite(sides, vertices)
    else:
        report = check_identity_suite(sides, vertices)
    return [
        [check.name, check.passed, float.hex(check.residual), check.detail]
        for check in report.checks
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_suite_fingerprint(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert fingerprint(name) == expected


def test_cases_take_their_branches():
    # The two branches of the suite: exact sides on their own frame, with
    # m = 1 (Cartesian) and m != 1, and float sides on float vertices.
    for name, cartesian in (("generic_exact", True), ("neardegen_exact_irrational_frame", False)):
        sides, embedding = CASES[name]()
        m, _ = _canonical_frame(sides._kernel)
        assert sides.is_exact and embedding is None and (m == 1) == cartesian
        assert check_identity_suite(sides, embedding).exact
    float_sides, float_vertices = CASES["neardegen_float"]()
    assert not float_sides.is_exact and not any(p.is_exact for p in float_vertices)
    assert not check_identity_suite(float_sides, float_vertices).exact


if __name__ == "__main__":
    doc = {name: fingerprint(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
