"""The identity suite check by check: for four cases, every check's
name, verdict, residual (as ``float.hex``) and detail, in order, must equal
tests/golden/suite_fingerprint.json.

The fuzz goldens pin only pass counts and the largest residual; this file
pins each check, so a change to how the suite compares values (or to the
order of its checks) shows here first.  The cases are an exact triangle
on exact vertices, exact near-degenerate sides whose altitude is
irrational (given with float vertices, which the suite tests and then
replaces by the sides' own frame, with metric x^2 + m*t^2 and m != 1),
the same triangle on floats, and the exact triangle with a kernel fault
(the excenter Eb built with the weights of Ec), which pins the residuals
of failed exact checks.  After an intended change, rewrite the golden
with

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

GOLDEN = Path(__file__).parent / "golden" / "suite_fingerprint.json"


def _case(kind: str, seed: int, on_floats: bool):
    sides, vertices = random_triangle(FuzzProfile(kind=kind, seed=seed), 0)
    if on_floats:
        sides = sides.as_float()
        vertices = tuple(p.as_float() for p in vertices)
    return sides, vertices


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
    "neardegen_exact_irrational_frame": lambda: _case("near-degenerate", 3, False),
    "neardegen_float": lambda: _case("near-degenerate", 3, True),
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
    exact_sides, exact_vertices = CASES["generic_exact"]()
    assert exact_sides.is_exact and all(p.is_exact for p in exact_vertices)
    frame_sides, float_vertices = CASES["neardegen_exact_irrational_frame"]()
    assert frame_sides.is_exact and not any(p.is_exact for p in float_vertices)
    m, _ = _canonical_frame(frame_sides._integer_form)
    assert m != 1 and check_identity_suite(frame_sides, float_vertices).exact
    float_sides, _ = CASES["neardegen_float"]()
    assert not float_sides.is_exact


if __name__ == "__main__":
    doc = {name: fingerprint(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
