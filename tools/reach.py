"""List the package lines that the output digest's requests never run.

    python3 tools/reach.py [--tree DIR]

sets a line tracer, then imports the package under ``DIR/src`` (default:
this checkout) as ``tools/output_digest.py`` does, runs each request of
that tool's default set (``request_set(0, 100)``: the golden argvs, the
first 100 requests of each benchmark workload and the edge requests) in
process, then the README's "Library example" block.  It prints, per
module and function, the executable lines (those ``co_lines`` names) that
never ran, and their total.

A line that never runs is an error path, API that only the README or the
tests reach, or code that nothing reaches.  The requests and the example
are read from this checkout, so two trees run the same ones, and their
totals compare on one interpreter (line tables differ between releases).
The tool uses the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import os
import sys
import types
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

Ran = Set[Tuple[str, int]]  # (file name, line number) of each line that ran


@contextlib.contextmanager
def tracing(directory: Path) -> Iterator[Ran]:
    """Record each line that runs in a file under ``directory`` into the
    set it yields, until the block ends.  Only frames that start inside
    the block are traced."""
    ran: Ran = set()
    prefix = str(directory.resolve()) + os.sep

    def line(frame: types.FrameType, event: str, arg: object):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame: types.FrameType, event: str, arg: object):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        yield ran
    finally:
        sys.settrace(None)


def line_owners(code: types.CodeType, owners: Optional[Dict[int, str]] = None) -> Dict[int, str]:
    """Each executable line of ``code`` and of the code nested in it, with
    the qualified name of the outermost code that holds it ("<module>"
    for a module's body)."""
    if owners is None:
        owners = {}
    name = getattr(code, "co_qualname", code.co_name)  # co_qualname is new in 3.11
    for _, _, number in code.co_lines():
        if number:  # None for no line, 0 for a module's first instruction
            owners.setdefault(number, name)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            line_owners(const, owners)
    return owners


def unrun_lines(path: Path, ran: Ran) -> Dict[str, List[int]]:
    """The executable lines of the module at ``path`` that ``ran`` lacks,
    by the code that holds them.  ``path`` is the module's ``__file__``,
    the name its code was compiled under."""
    filename = str(path)
    # dont_inherit: this module's __future__ imports must not change the
    # line tables.
    code = compile(path.read_text(encoding="utf-8"), filename, "exec", dont_inherit=True)
    unrun: Dict[str, List[int]] = {}
    for number, owner in sorted(line_owners(code).items()):
        if (filename, number) not in ran:
            unrun.setdefault(owner, []).append(number)
    return unrun


def spans(numbers: Sequence[int]) -> str:
    """Sorted line numbers as runs: ``[3, 4, 5, 9]`` is "3-5, 9"."""
    runs: List[List[int]] = []
    for number in numbers:
        if runs and number == runs[-1][1] + 1:
            runs[-1][1] = number
        else:
            runs.append([number, number])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def library_example(readme: Path) -> str:
    """The first Python block after the README's "Library example" heading."""
    text = readme.read_text(encoding="utf-8").partition("## Library example")[2]
    return text.partition("```python\n")[2].partition("```")[0]


def _load(name: str, path: Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="source tree (default: this checkout)")
    args = parser.parse_args(argv)

    digest = _load("_reach_output_digest", ROOT / "tools" / "output_digest.py")
    requests = digest.request_set(0, 100)
    example = compile(library_example(ROOT / "README.md"), "README.md", "exec", dont_inherit=True)
    with tracing(Path(args.tree, "src", "ninepoint")) as ran:
        for _ in digest.run(requests, args.tree):
            pass
        exec(example, {})
    package = Path(sys.modules["ninepoint"].__file__).parent
    total = 0
    for path in sorted(package.glob("*.py")):
        unrun = unrun_lines(path, ran)
        count = sum(map(len, unrun.values()))
        total += count
        print(f"{count:6d}  {path.name}")
        for owner, numbers in unrun.items():
            print(f"          {owner}: {spans(numbers)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
