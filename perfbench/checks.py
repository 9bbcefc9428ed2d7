"""Output checks that do not trust the program's own verdict.

Each check re-reads the request argv and the captured stdout and returns a
list of problems (empty when the answer is right) plus the largest
normalized residual the answer reports.  ``R_sq`` is recomputed here from
the sides with the benchmark's own Fraction formula.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ElementTree
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from workloads import fraction_text, sides_of

# README acceptance bound for float fuzz residuals (conditioning <= 1e6).
FLOAT_RESIDUAL_BOUND = 1e-6

INCIRCLE_KINDS = ("internal_tangent", "coincident")
EXCIRCLE_KIND = "external_tangent"
CIRCLES = ("incircle", "exA", "exB", "exC")


def circumradius_sq(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    """R^2 = (abc)^2 / ((a+b+c)(-a+b+c)(a-b+c)(a+b-c))."""
    return (a * b * c) ** 2 / ((a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c))


def _option(argv: Sequence[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_output(argv: Sequence[str], code: Optional[int], stdout: str) -> Tuple[List[str], float]:
    """Problems found in one answer, and its largest normalized residual."""
    if code != 0:
        return [f"exit code {code}"], 0.0
    command = argv[0]
    try:
        if command == "fuzz":
            return _check_fuzz(argv, json.loads(stdout))
        if command == "svg":
            return _check_svg(stdout), 0.0
        return _check_triangle_json(argv, json.loads(stdout)), 0.0
    except (ValueError, KeyError, TypeError, IndexError, ElementTree.ParseError) as exc:
        return [f"unreadable output: {exc!r}"], 0.0


def _check_fuzz(argv: Sequence[str], doc: dict) -> Tuple[List[str], float]:
    problems: List[str] = []
    count = int(_option(argv, "--count"))
    backend = _option(argv, "--backend")
    expected = {
        "profile": _option(argv, "--profile"),
        "backend": backend,
        "count": count,
        "seed": int(_option(argv, "--seed")),
        "passes": count,
        "failures": 0,
    }
    for key, value in expected.items():
        if doc[key] != value:
            problems.append(f"{key} = {doc[key]!r}, expected {value!r}")
    residual = doc["max_normalized_residual"]
    if not (isinstance(residual, (int, float)) and math.isfinite(residual) and residual >= 0):
        problems.append(f"max_normalized_residual = {residual!r}")
        return problems, 0.0
    if backend == "exact":
        if doc["all_exact"] is not True:
            problems.append("exact job did not run exactly")
        if residual != 0:
            problems.append(f"exact job reports residual {residual!r}")
    elif residual > FLOAT_RESIDUAL_BOUND:
        problems.append(f"float residual {residual!r} above {FLOAT_RESIDUAL_BOUND}")
    return problems, float(residual)


def _check_triangle_json(argv: Sequence[str], doc: dict) -> List[str]:
    problems: List[str] = []
    sides = sides_of(argv)
    if doc["input"]["sides"] != [fraction_text(v) for v in sides]:
        problems.append(f"input sides {doc['input']['sides']!r} do not echo the request")
    want_r_sq = fraction_text(circumradius_sq(*sides))
    if doc["metrics"]["R_sq"] != want_r_sq:
        problems.append(f"R_sq = {doc['metrics']['R_sq']!r}, expected {want_r_sq}")
    if argv[0] == "feuerbach":
        entries = doc["feuerbach"]
        if [entry["circle"] for entry in entries] != list(CIRCLES):
            problems.append(f"circles {[entry['circle'] for entry in entries]!r}")
        for entry in entries:
            allowed = INCIRCLE_KINDS if entry["circle"] == "incircle" else (EXCIRCLE_KIND,)
            if entry["kind"] not in allowed:
                problems.append(f"{entry['circle']} kind {entry['kind']!r}")
            if entry["residual"] != "0/1" or entry["lhs"] != entry["rhs"]:
                problems.append(f"{entry['circle']} residual {entry['residual']!r}")
    return problems


def _check_svg(stdout: str) -> List[str]:
    root = ElementTree.fromstring(stdout)
    if not root.tag.endswith("svg"):
        return [f"root element {root.tag!r} is not svg"]
    return []
