"""Hash what each ``ninepoint`` request prints, to list the output bytes a
change moves.

    python3 tools/output_digest.py [--tree DIR] [--seed N] [--requests N] [ARGV ...]

runs each request in process on the package under ``DIR/src`` (default:
this checkout) and prints one line per request:

    <exit code> <sha256 of stdout>[:16] <sha256 of stderr>[:16] <argv>

    python3 tools/output_digest.py --compare OLD NEW [--seed N] [--requests N] [ARGV ...]

runs the same requests on two source trees, each in its own interpreter
(this one), and prints every request whose exit code, stdout or stderr
differs, with its first differing line.  It exits 1 if any request
differs and 0 otherwise.

Each ARGV is one request, written as a shell command line without the
program name (``"compute --sides 3,4,5"``), and it is one argument, so a
request that holds a space may begin with ``-`` (``"-h bogus"``); a
request of one token that begins with ``-`` (``-x``) goes after ``--``.
The tool's own help is ``--help`` alone.  With no ARGV, the fixed set
runs:

* every golden argv of ``tests/golden_cases.py``, help requests included;
* the first N requests (``--requests``, default 100) of each benchmark
  workload of ``perfbench/workloads.py`` at the seed (``--seed``,
  default 0);
* edge requests: every fuzz profile and backend at ``--bound 10**80``,
  at ``--bound 10**200`` and at ``--rel-eps 1e-300 --abs-eps 1e-300``;
  100 fuzz triangles of every profile on each backend (``--seed 1
  --format json``), so the exact suite runs on many frames with metric
  m != 1 and the float suite on every profile; and
  ``feuerbach``, ``compute`` and ``svg`` on the sides (x, x, 1.5x) for x
  in 1e-320, 1e-160, 1e154 and 1e200, on both backends; float
  ``feuerbach`` as text and JSON on three flat triangles whose report
  fails; and exact answers at the interpreter's int-to-str digit limit,
  as text and JSON, on seeded sides whose numerators and denominators
  have d digits: ``feuerbach`` at d = 230, 239 (the largest that prints)
  and 240, ``compute`` at d = 358 (the largest that prints) and 359, and
  ``feuerbach`` on an equilateral triangle of 150-digit sides, whose
  incircle lhs is 0; and float vertex input that fails as it is read:
  ``feuerbach`` and ``svg`` on vertices near 1e151 and ``svg`` on
  vertices near 1e80, whose center weights overflow, and ``compute`` on
  vertices near 1e-160, whose area underflows.

The set is read from this checkout, so both trees of a comparison run the
same requests.  Requests run with ``COLUMNS`` at the golden cases'
``ERROR_COLUMNS``, at which the argparse error and help goldens are
pinned.

    python3 tools/output_digest.py --check-goldens [--tree DIR]

runs every golden request of ``tests/golden_cases.py`` on ``DIR`` in a
fresh interpreter (this one) and compares its exit code and output with
its file under ``tests/golden/``, as ``tests/test_cli_golden.py`` does.
It names each golden that differs, with its first differing line, and
exits 1 if any differs.

The tool uses the standard library only, so it runs on every supported
Python, including those where pytest cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import fractions
import hashlib
import importlib.util
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

PROFILES = ("generic", "isoceles", "near-degenerate", "near-equilateral", "right-angled")
EDGE_FUZZ_OPTIONS = (
    ["--bound", str(10**80)],
    ["--bound", str(10**200)],
    ["--rel-eps", "1e-300", "--abs-eps", "1e-300"],
)
EDGE_FUZZ_COUNT = "5"
EDGE_COUNT_FUZZ = ["--count", "100", "--seed", "1", "--format", "json"]
EDGE_SCALES = ("1e-320", "1e-160", "1e154", "1e200")
# Flat float triangles (conditioning 4e7 to 1.1e8) whose float report
# calls exC not_tangent, so feuerbach exits 3.
EDGE_FLAT_SIDES = (
    "5.7820177604881975,0.2298304769301318,6.0118479363748625",
    "8.726906972770392,2.1736181867016673,10.900524604130204",
    "9.82596897737666,8.736836877824338,18.56280551415527",
)
# Exact requests at the int-to-str digit limit: each command's seeded
# input digits on either side of where its answer stops printing.
EDGE_LIMIT_DIGITS = {"feuerbach": (230, 239, 240), "compute": (358, 359)}
EDGE_EQUILATERAL_DIGITS = 150
# Float vertex input that fails with exit code 2: vertices near 1e151 and
# 1e80, whose center weights overflow ("non-finite coordinate nan"), and
# vertices near 1e-160, whose area underflows ("float division by zero").
EDGE_HUGE_VERTICES = (
    "1.9936867719928615e+151,-2.6801089776555443e+152,3.1621521979131476e+152,"
    "-1.3309386748560354e+152,1.1698712387067408e+152,-1.9361903145197517e+152"
)
EDGE_VERTEX_REQUESTS = (
    ["feuerbach", "--vertices", EDGE_HUGE_VERTICES],
    ["svg", "--vertices", EDGE_HUGE_VERTICES],
    ["svg", "--vertices", "0,0,1e80,0,3e79,7e79"],
    ["compute", "--vertices", "0,0,1e-160,0,0,1e-160", "--format", "json"],
)
# A changed line is shown this many characters either side of where it
# first differs.
CONTEXT = 60

Outcome = Tuple[List[str], int, str, str]  # argv, exit code, stdout, stderr


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


GOLDEN = ROOT / "tests" / "golden"
golden_cases = _load("_digest_golden_cases", ROOT / "tests" / "golden_cases.py")
COLUMNS = golden_cases.ERROR_COLUMNS


def seeded_sides(digits: int) -> List[fractions.Fraction]:
    """The sides of ``tests/test_cli.py``'s ``seeded_sides``: three ratios
    whose numerators and denominators all have the given number of digits,
    from a fixed seed, that form a triangle."""
    rng = random.Random(0)
    low, high = 10 ** (digits - 1), 10**digits
    while True:
        a, b, c = (
            fractions.Fraction(rng.randrange(low, high), rng.randrange(low, high))
            for _ in range(3)
        )
        if a + b > c and b + c > a and c + a > b:
            return [a, b, c]


def edge_requests() -> List[List[str]]:
    requests = []
    for profile in PROFILES:
        for backend in ("exact", "float"):
            for options in EDGE_FUZZ_OPTIONS:
                requests.append(
                    ["fuzz", "--profile", profile, "--backend", backend,
                     "--count", EDGE_FUZZ_COUNT, *options]
                )
        for backend in ("exact", "float"):
            requests.append(["fuzz", "--profile", profile, "--backend", backend, *EDGE_COUNT_FUZZ])
    for scale in EDGE_SCALES:
        sides = f"{scale},{scale},1.5{scale[1:]}"
        for command in ("feuerbach", "compute", "svg"):
            for backend in ("exact", "float"):
                requests.append([command, "--sides", sides, "--backend", backend])
    for sides in EDGE_FLAT_SIDES:
        for fmt in ("text", "json"):
            requests.append(["feuerbach", "--sides", sides, "--backend", "float", "--format", fmt])
    side = seeded_sides(EDGE_EQUILATERAL_DIGITS)[0]
    limit_sides = [
        (command, seeded_sides(digits))
        for command, all_digits in EDGE_LIMIT_DIGITS.items()
        for digits in all_digits
    ]
    for command, sides in limit_sides + [("feuerbach", [side] * 3)]:
        text = ",".join(f"{v.numerator}/{v.denominator}" for v in sides)
        for fmt in ("text", "json"):
            requests.append([command, "--sides", text, "--format", fmt])
    return requests + [list(argv) for argv in EDGE_VERTEX_REQUESTS]


def request_set(seed: int, per_workload: int) -> List[List[str]]:
    """The golden argvs (successes, errors, help), the first requests of each benchmark workload and
    the edge requests, in that order."""
    workloads = _load("_digest_workloads", ROOT / "perfbench" / "workloads.py")
    requests = [list(argv) for _, argv, *_ in golden_outcomes()]
    for workload in workloads.WORKLOADS.values():
        stream = workload.requests(seed)
        requests += [next(stream).argv for _ in range(per_workload)]
    return requests + edge_requests()


def golden_outcomes() -> List[Tuple[str, List[str], int, str, str]]:
    """Each golden's name, argv, exit code, stdout and stderr, as pinned:
    the successes, the argparse errors (exit code 2) and the help texts."""
    def read(name: str, suffix: str) -> str:
        return (GOLDEN / f"{name}{suffix}").read_text(encoding="utf-8")

    cases = golden_cases
    return (
        [(name, list(argv), 0, read(name, ".out"), "") for name, argv in cases.CASES.items()]
        + [(name, list(argv), 2, "", read(name, ".err")) for name, argv in cases.ERROR_CASES.items()]
        + [(name, list(argv), 0, read(name, ".out"), "") for name, argv in cases.HELP_CASES.items()]
    )


def run(requests: Iterable[Sequence[str]], tree: Path) -> Iterator[Outcome]:
    """Each request through ``ninepoint.cli.main`` in this process, on the
    package under ``tree/src``."""
    sys.path.insert(0, str(Path(tree, "src").resolve()))
    import ninepoint
    import ninepoint.cli as cli

    package = Path(ninepoint.__file__).resolve().parent
    if package != Path(tree, "src", "ninepoint").resolve():
        raise SystemExit(f"imported {package}, not the package under {tree}/src")
    os.environ["COLUMNS"] = COLUMNS
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        yield list(argv), code, out.getvalue(), err.getvalue()


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest_line(outcome: Outcome) -> str:
    argv, code, out, err = outcome
    return f"{code} {_hash(out)} {_hash(err)} {shlex.join(argv)}"


def _first_difference(name: str, old: str, new: str) -> List[str]:
    old_lines, new_lines = old.split("\n"), new.split("\n")
    for number, (before, after) in enumerate(zip(old_lines, new_lines), 1):
        if before != after:
            break
    else:
        number = min(len(old_lines), len(new_lines)) + 1
        before = old_lines[number - 1] if number <= len(old_lines) else "<end>"
        after = new_lines[number - 1] if number <= len(new_lines) else "<end>"
    column = next(
        (k for k, (x, y) in enumerate(zip(before, after)) if x != y),
        min(len(before), len(after)),
    )
    start = max(0, column - CONTEXT)

    def window(line: str) -> str:
        head = "..." if start else ""
        tail = "..." if len(line) > column + CONTEXT else ""
        return head + line[start:column + CONTEXT] + tail

    return [
        f"  {name} line {number}, column {column + 1}:",
        f"    - {window(before)}",
        f"    + {window(after)}",
    ]


def compare(
    old: Sequence[Outcome], new: Sequence[Outcome], names: Optional[Sequence[str]] = None
) -> List[str]:
    """One block per request whose exit code or output differs, headed by
    its name or else its argv."""
    report = []
    for k, ((argv, code, out, err), (_, new_code, new_out, new_err)) in enumerate(zip(old, new)):
        if (code, out, err) == (new_code, new_out, new_err):
            continue
        report.append(f"changed: {names[k] if names else shlex.join(argv)}")
        if code != new_code:
            report.append(f"  exit code {code} -> {new_code}")
        if out != new_out:
            report += _first_difference("stdout", out, new_out)
        if err != new_err:
            report += _first_difference("stderr", err, new_err)
    return report


def _outcomes_of(tree: Path, requests: Sequence[Sequence[str]]) -> List[Outcome]:
    """The outcomes of ``tree``, from a fresh interpreter of this Python."""
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--outcomes", "--tree", str(tree)],
        input=json.dumps([list(argv) for argv in requests]),
        capture_output=True,
        text=True,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    if result.returncode != 0:
        raise SystemExit(f"running the requests on {tree} failed:\n{result.stderr}")
    return [tuple(outcome) for outcome in json.loads(result.stdout)]


def main(argv: Optional[Sequence[str]] = None) -> int:
    # No -h: argparse reads "-h bogus" as -h with an argument, so a request
    # that begins with -h could not be given.
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0], add_help=False)
    parser.add_argument("--help", action="help", help="show this help message and exit")
    parser.add_argument("--tree", type=Path, default=ROOT, help="source tree (default: this checkout)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed of the workload requests")
    parser.add_argument("--requests", type=int, default=100, help="requests taken from each workload")
    parser.add_argument(
        "--check-goldens", action="store_true", help="compare the golden requests with tests/golden/"
    )
    # Child mode of --compare: requests as JSON on stdin, outcomes as JSON on stdout.
    parser.add_argument("--outcomes", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("argv", nargs="*", help="one request, e.g. 'compute --sides 3,4,5'")
    args = parser.parse_args(argv)

    if args.outcomes:
        requests = json.loads(sys.stdin.read())
        json.dump(list(run(requests, args.tree)), sys.stdout)
        return 0
    if args.check_goldens:
        goldens = golden_outcomes()
        pinned = [(argv, code, out, err) for _, argv, code, out, err in goldens]
        got = _outcomes_of(args.tree, [argv for argv, *_ in pinned])
        report = compare(pinned, got, [name for name, *_ in goldens])
        changed = sum(line.startswith("changed: ") for line in report)
        print("\n".join(report + [f"{changed} of {len(goldens)} goldens differ"]))
        return 1 if changed else 0
    if args.argv:
        requests = [shlex.split(text) for text in args.argv]
    else:
        requests = request_set(args.seed, args.requests)
    if args.compare:
        old, new = (_outcomes_of(tree, requests) for tree in args.compare)
        report = compare(old, new)
        changed = sum(line.startswith("changed: ") for line in report)
        print("\n".join(report + [f"{changed} of {len(requests)} requests changed"]))
        return 1 if changed else 0
    for outcome in run(requests, args.tree):
        print(digest_line(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
