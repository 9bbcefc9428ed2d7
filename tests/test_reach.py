"""``tools/reach.py`` lists the executable lines that never ran, by the
outermost code that holds them: a function never called, the branch a
call did not take, and a comprehension's lines, which belong to the
function around it."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

SOURCE = '''"""Module docstring."""


def used(x):
    if x:
        return [
            y * 2
            for y in range(x)
        ]
    return None


def unused():
    total = 0
    for y in range(3):
        total += y
    return [total * z for z in range(2)]


def partly(x):
    try:
        return 1 / x
    except ZeroDivisionError:
        raise ValueError("x is 0") from None


VALUE = used(2)
'''


def _load(path: Path):
    spec = importlib.util.spec_from_file_location("reach_toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_the_lines_that_never_ran(tmp_path):
    toy = tmp_path / "toy.py"
    toy.write_text(SOURCE, encoding="utf-8")
    with reach.tracing(tmp_path) as ran:
        module = _load(toy)
        assert module.partly(2) == 0.5
    assert reach.unrun_lines(toy, ran) == {
        "used": [10],
        "unused": [14, 15, 16, 17],
        "partly": [23, 24],
    }


def test_traces_only_the_directory_and_the_block(tmp_path):
    inside, outside = tmp_path / "inside", tmp_path / "outside"
    inside.mkdir()
    outside.mkdir()
    (inside / "toy.py").write_text(SOURCE, encoding="utf-8")
    (outside / "toy.py").write_text(SOURCE, encoding="utf-8")
    with reach.tracing(inside) as ran:
        _load(outside / "toy.py")
    assert ran == set()
    module = _load(inside / "toy.py")
    with reach.tracing(inside) as ran:
        pass
    module.unused()
    assert ran == set()


def test_spans_join_runs_of_lines():
    assert reach.spans([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
    assert reach.spans([]) == ""


def test_reads_the_readme_library_example():
    example = reach.library_example(ROOT / "README.md")
    assert example.startswith("from fractions import Fraction\n")
    compile(example, "README.md", "exec")
