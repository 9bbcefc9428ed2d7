"""Count the Python function calls of three fixed jobs, per triangle.

    python3 tools/call_counts.py [SRC_DIR]

imports ``ninepoint`` from SRC_DIR (default: this checkout's ``src``) and
runs, in process and in this order, one exact and one float fuzz job and
one job of single CLI requests:

    fuzz --profile generic --backend exact --count 20 --seed 1
    fuzz --profile near-degenerate --backend float --count 20 --seed 1
    the first 20 requests of the benchmark workload cli_mixed_rational at
    seed 1 (``compute``, ``feuerbach`` and ``svg`` on exact sides of 1-200
    digits), read from this checkout's ``perfbench/workloads.py`` as
    ``tools/output_digest.py`` reads it

twice, the second time under a ``sys.setprofile`` hook, which sees every
call of a Python function (a generator's resumption included).  For each
job it prints a header line with the job's argv (or the workload, seed
and request count), one line per function called at least once per
triangle on average:

    <calls per triangle>  <module>.<qualified name>

sorted by count, highest first, then by name, and a last line with the
calls of every Python function per triangle.  Each CLI request is one
triangle, so the third job's counts are per request.

    python3 tools/call_counts.py --compare BASE_SRC HEAD_SRC

counts the same jobs on two source directories, each in its own
interpreter (this one), and prints, under each job's header line, every
function whose calls differ, however rare, with both counts:

    <base calls per triangle>  <head calls per triangle>  <name>

largest change first, then the totals of both.  It exits 1 if any
function's calls differ and 0 otherwise.

Counts do not depend on the host's speed, so two commits compare call
for call where timings drift; CI compares a pull request with its base
commit.  Python 3.10 has no qualified names on code objects, so there a
method is named without its class.  The tool uses the standard library
only.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
COUNT = 20
# The two fuzz jobs; jobs() runs the CLI job after them.
JOBS = (
    ["fuzz", "--profile", "generic", "--backend", "exact", "--count", str(COUNT), "--seed", "1"],
    [
        "fuzz", "--profile", "near-degenerate", "--backend", "float",
        "--count", str(COUNT), "--seed", "1",
    ],
)
# The CLI job: the first COUNT requests of this benchmark workload and seed.
CLI_WORKLOAD, CLI_SEED = "cli_mixed_rational", 1
USAGE = "usage: call_counts.py [SRC_DIR] | --compare BASE_SRC HEAD_SRC"


def cli_requests() -> List[List[str]]:
    """The CLI job's argvs, from this checkout's benchmark workloads."""
    spec = importlib.util.spec_from_file_location(
        "_counts_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up by name
    spec.loader.exec_module(workloads)
    stream = workloads.WORKLOADS[CLI_WORKLOAD].requests(CLI_SEED)
    return [next(stream).argv for _ in range(COUNT)]


def jobs() -> List[Tuple[str, List[Sequence[str]]]]:
    """Each job's header text and its requests, in the order they run."""
    cli_title = f"{CLI_WORKLOAD} --seed {CLI_SEED} (first {COUNT} requests)"
    return [(" ".join(argv), [argv]) for argv in JOBS] + [(cli_title, cli_requests())]


def count_calls(main, *argvs: Sequence[str]) -> Dict[str, int]:
    """Calls per function, keyed ``module.qualname``, of ``main(argv)`` for
    each argv in turn.  A first run of them all, not counted, fills the
    caches that the first request of a process fills (compiled patterns,
    lazy imports), so the counts do not depend on what ran before."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)
            counts[f"{frame.f_globals.get('__name__')}.{name}"] += 1

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            main(list(argv))
        sys.setprofile(profile)
        try:
            for argv in argvs:
                main(list(argv))
        finally:
            sys.setprofile(None)
    return dict(counts)


def report(title: str, counts: Dict[str, int], triangles: int) -> List[str]:
    lines = [f"job: {title}"]
    frequent = [(n, name) for name, n in counts.items() if n >= triangles]
    for n, name in sorted(frequent, key=lambda item: (-item[0], item[1])):
        lines.append(f"{n / triangles:10.2f}  {name}")
    lines.append(f"{sum(counts.values()) / triangles:10.2f}  total per triangle")
    return lines


def compare(old: Sequence[Dict[str, int]], new: Sequence[Dict[str, int]]) -> List[str]:
    """Each job's header, the functions whose calls differ and both totals."""
    lines = []
    for (title, _), before, after in zip(jobs(), old, new):
        lines.append(f"job: {title}")
        names = before.keys() | after.keys()
        moved = [name for name in names if before.get(name) != after.get(name)]
        moved.sort(key=lambda name: (-abs(after.get(name, 0) - before.get(name, 0)), name))
        for name in moved:
            lines.append(
                f"{before.get(name, 0) / COUNT:10.2f}  {after.get(name, 0) / COUNT:10.2f}  {name}"
            )
        lines.append(
            f"{sum(before.values()) / COUNT:10.2f}  {sum(after.values()) / COUNT:10.2f}"
            "  total per triangle"
        )
    return lines


def _job_counts(src: Path) -> List[Dict[str, int]]:
    """The counts of each job on the package under ``src``, in this process."""
    sys.path.insert(0, str(src))
    from ninepoint import cli

    package = Path(cli.__file__).resolve().parent
    if package != src / "ninepoint":
        raise ImportError(f"imported {package}, not the package under {src}")
    return [count_calls(cli.main, *requests) for _, requests in jobs()]


def _counts_of(src: Path) -> List[Dict[str, int]]:
    """The counts of each job on the package under ``src``, from a fresh
    interpreter of this Python."""
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--counts", str(src)],
        capture_output=True,
        text=True,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    if result.returncode != 0:
        raise SystemExit(f"counting the calls on {src} failed:\n{result.stderr}")
    return json.loads(result.stdout)


def main(argv: List[str]) -> int:
    if argv[:1] == ["--compare"] and len(argv) == 3:
        old, new = (_counts_of(Path(src).resolve()) for src in argv[1:])
        print("\n".join(compare(old, new)))
        return 1 if old != new else 0
    # Child mode of --compare: the counts of each job as JSON.
    if argv[:1] == ["--counts"] and len(argv) == 2:
        json.dump(_job_counts(Path(argv[1]).resolve()), sys.stdout)
        return 0
    if len(argv) > 1 or argv[:1] in (["--compare"], ["--counts"]):
        print(USAGE, file=sys.stderr)
        return 2
    src = (Path(argv[0]) if argv else ROOT / "src").resolve()
    try:
        counts = _job_counts(src)
    except ImportError as exc:
        print(exc, file=sys.stderr)
        return 2
    for (title, _), job_counts in zip(jobs(), counts):
        print("\n".join(report(title, job_counts, COUNT)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
