"""Count the Python function calls of two fixed fuzz jobs, per triangle.

    python3 tools/call_counts.py [SRC_DIR]

imports ``ninepoint`` from SRC_DIR (default: this checkout's ``src``) and
runs, in process and in this order, one exact and one float fuzz job:

    fuzz --profile generic --backend exact --count 20 --seed 1
    fuzz --profile near-degenerate --backend float --count 20 --seed 1

twice, the second time under a ``sys.setprofile`` hook, which sees every
call of a Python function (a generator's resumption included).  For each
job it prints a header line with the job's argv, one line per function
called at least once per triangle on average:

    <calls per triangle>  <module>.<qualified name>

sorted by count, highest first, then by name, and a last line with the
calls of every Python function per triangle.  Counts do not depend on the
host's speed, so two commits compare call for call where timings drift;
CI prints both on a pull request.  Python 3.10 has no qualified names on
code objects, so there a method is named without its class.  The tool uses
the standard library only.
"""

from __future__ import annotations

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
COUNT = 20
JOBS = (
    ["fuzz", "--profile", "generic", "--backend", "exact", "--count", str(COUNT), "--seed", "1"],
    [
        "fuzz", "--profile", "near-degenerate", "--backend", "float",
        "--count", str(COUNT), "--seed", "1",
    ],
)


def count_calls(main, argv: Sequence[str]) -> Dict[str, int]:
    """Calls per function, keyed ``module.qualname``, of ``main(argv)``.
    A first run, not counted, fills the caches that the first request of a
    process fills (compiled patterns, lazy imports), so the counts do not
    depend on what ran before."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)
            counts[f"{frame.f_globals.get('__name__')}.{name}"] += 1

    with contextlib.redirect_stdout(io.StringIO()):
        main(list(argv))
        sys.setprofile(profile)
        try:
            main(list(argv))
        finally:
            sys.setprofile(None)
    return dict(counts)


def report(argv: Sequence[str], counts: Dict[str, int], triangles: int) -> List[str]:
    lines = [f"job: {' '.join(argv)}"]
    frequent = [(n, name) for name, n in counts.items() if n >= triangles]
    for n, name in sorted(frequent, key=lambda item: (-item[0], item[1])):
        lines.append(f"{n / triangles:10.2f}  {name}")
    lines.append(f"{sum(counts.values()) / triangles:10.2f}  total per triangle")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) > 1:
        print("usage: call_counts.py [SRC_DIR]", file=sys.stderr)
        return 2
    src = (Path(argv[0]) if argv else ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    from ninepoint import cli

    package = Path(cli.__file__).resolve().parent
    if package != src / "ninepoint":
        print(f"imported {package}, not the package under {src}", file=sys.stderr)
        return 2
    for job in JOBS:
        print("\n".join(report(job, count_calls(cli.main, job), COUNT)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
