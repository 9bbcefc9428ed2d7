"""The package exports exactly the names the README documents."""

import re
from pathlib import Path

import ninepoint

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_names():
    """Names listed, one per bullet, under the README's "Library API" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)` - ", section, flags=re.MULTILINE)


def test_readme_list_is_all():
    assert documented_names() == ninepoint.__all__


def test_every_exported_name_resolves():
    for name in ninepoint.__all__:
        assert getattr(ninepoint, name) is not None, name

