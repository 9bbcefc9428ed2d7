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
program name (``"compute --sides 3,4,5"``); with none, the fixed set runs:

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
  in 1e-320, 1e-160, 1e154 and 1e200, on both backends.

The set is read from this checkout, so both trees of a comparison run the
same requests.  Requests run with ``COLUMNS=80``, at which the argparse
error and help goldens are pinned.  The tool uses the standard library only, so it runs
on every supported Python, including those where pytest cannot be
imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
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
COLUMNS = "80"
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
    return requests


def request_set(seed: int, per_workload: int) -> List[List[str]]:
    """The golden argvs (successes, errors, help), the first requests of each benchmark workload and
    the edge requests, in that order."""
    golden = _load("_digest_golden_cases", ROOT / "tests" / "golden_cases.py")
    workloads = _load("_digest_workloads", ROOT / "perfbench" / "workloads.py")
    requests = [list(argv) for argv in golden.CASES.values()]
    requests += [list(argv) for argv in golden.ERROR_CASES.values()]
    requests += [list(argv) for argv in golden.HELP_CASES.values()]
    for workload in workloads.WORKLOADS.values():
        stream = workload.requests(seed)
        requests += [next(stream).argv for _ in range(per_workload)]
    return requests + edge_requests()


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


def compare(old: Sequence[Outcome], new: Sequence[Outcome]) -> List[str]:
    """One block per request whose exit code or output differs."""
    report = []
    for (argv, code, out, err), (_, new_code, new_out, new_err) in zip(old, new):
        if (code, out, err) == (new_code, new_out, new_err):
            continue
        report.append(f"changed: {shlex.join(argv)}")
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
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="source tree (default: this checkout)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed of the workload requests")
    parser.add_argument("--requests", type=int, default=100, help="requests taken from each workload")
    # Child mode of --compare: requests as JSON on stdin, outcomes as JSON on stdout.
    parser.add_argument("--outcomes", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("argv", nargs="*", help="one request, e.g. 'compute --sides 3,4,5'")
    args = parser.parse_args(argv)

    if args.outcomes:
        requests = json.loads(sys.stdin.read())
        json.dump(list(run(requests, args.tree)), sys.stdout)
        return 0
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
