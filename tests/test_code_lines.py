"""``tools/code_lines.py`` counts code lines: no blank, comment or
docstring lines, and every line of a statement that spans several."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return (
            os.sep
        )
'''


def test_counts_only_code_lines():
    # import, class, def, the two lines of the string, the three of the return
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(capsys):
    assert code_lines.main([str(ROOT / "src" / "ninepoint")]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith("total") and counts[-1] == sum(counts[:-1])
    assert any(line.endswith("record.py") for line in lines)
