"""``tools/output_digest.py`` hashes each request's output, and its compare
mode reports a one-byte change in stdout with the line it is on."""

import importlib.util
import re
import shutil
import sys
from pathlib import Path

from golden_cases import CASES, ERROR_CASES, HELP_CASES
from test_cli import seeded_sides

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)

REQUESTS = ["compute --sides 3,4,5", "feuerbach --sides 3,4,5", "compute --sides 1,2,3"]
LINE = re.compile(r"^(\d+) ([0-9a-f]{16}) ([0-9a-f]{16}) (.+)$")


def test_one_line_per_request(capsys, monkeypatch):
    # The run sets COLUMNS and puts src on sys.path; keep both to this test.
    monkeypatch.setenv("COLUMNS", output_digest.COLUMNS)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert output_digest.main(REQUESTS) == 0
    lines = capsys.readouterr().out.splitlines()
    fields = [LINE.match(line).groups() for line in lines]
    assert [argv for *_, argv in fields] == REQUESTS
    assert [code for code, *_ in fields] == ["0", "0", "2"]
    empty = output_digest._hash("")
    assert fields[0][2] == empty and fields[2][1] == empty  # stderr, stdout


def test_a_request_may_begin_with_a_dash(capsys, monkeypatch):
    # Each ARGV is one request even when it begins with "-": "-h bogus" is
    # not the tool's help with an argument, and "-x bogus" not an option.
    monkeypatch.setenv("COLUMNS", output_digest.COLUMNS)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert output_digest.main(["-h bogus", "-x bogus"]) == 0
    fields = [LINE.match(line).groups() for line in capsys.readouterr().out.splitlines()]
    assert [(code, argv) for code, _, _, argv in fields] == [("0", "-h bogus"), ("2", "-x bogus")]


def test_request_set_holds_goldens_workloads_and_edges():
    requests = output_digest.request_set(seed=1, per_workload=2)
    assert ["compute", "--sides", "3,4,5", "--format", "json"] in requests
    assert [] in requests  # the argparse error case without a subcommand
    assert sum(argv[:1] == ["fuzz"] and "--seed" in argv for argv in requests) >= 4
    assert ["svg", "--sides", "1e-160,1e-160,1.5e-160", "--backend", "float"] in requests
    assert len(output_digest.edge_requests()) == (
        5 * 2 * 3 + 5 + 5 + 4 * 3 * 2 + 3 * 2 + (3 + 2 + 1) * 2
    )
    assert ["fuzz", "--profile", "near-degenerate", "--backend", "exact", "--count", "100",
            "--seed", "1", "--format", "json"] in requests
    assert ["feuerbach", "--sides", output_digest.EDGE_FLAT_SIDES[0], "--backend", "float",
            "--format", "text"] in requests
    assert ["fuzz", "--profile", "right-angled", "--backend", "float", "--count", "100",
            "--seed", "1", "--format", "json"] in requests
    # The exact answers at the digit limit, on the sides that
    # tests/test_cli.py::TestOutputDigitLimit reads.
    assert ["feuerbach", "--sides", seeded_sides(239), "--format", "json"] in requests
    assert ["compute", "--sides", seeded_sides(359), "--format", "text"] in requests
    side = seeded_sides(150).split(",")[0]
    assert ["feuerbach", "--sides", f"{side},{side},{side}", "--format", "json"] in requests


def changed_tree(tmp_path) -> Path:
    """A copy of the package whose text compute output capitalizes one letter."""
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src" / "ninepoint", changed / "src" / "ninepoint",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "src" / "ninepoint" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    assert source.count('"centers (cartesian):"') == 1
    cli.write_text(source.replace('"centers (cartesian):"', '"centers (Cartesian):"'), encoding="utf-8")
    return changed


def test_compare_reports_a_one_byte_change(tmp_path, capsys):
    changed = changed_tree(tmp_path)
    assert output_digest.main(["--compare", str(ROOT), str(ROOT), *REQUESTS]) == 0
    assert capsys.readouterr().out == "0 of 3 requests changed\n"

    assert output_digest.main(["--compare", str(ROOT), str(changed), *REQUESTS]) == 1
    report = capsys.readouterr().out.splitlines()
    assert report[0] == "changed: compute --sides 3,4,5"
    assert re.fullmatch(r"  stdout line \d+, column 10:", report[1])
    assert report[2:] == [
        "    - centers (cartesian):",
        "    + centers (Cartesian):",
        "1 of 3 requests changed",
    ]


def test_check_goldens_names_each_golden_that_differs(tmp_path, capsys):
    goldens = output_digest.golden_outcomes()
    assert len(goldens) == len(CASES) + len(ERROR_CASES) + len(HELP_CASES)
    assert output_digest.main(["--check-goldens"]) == 0
    assert capsys.readouterr().out == f"0 of {len(goldens)} goldens differ\n"

    expected = [name for name, _, _, out, _ in goldens if "centers (cartesian):" in out.splitlines()]
    assert "345_exact_compute_text" in expected
    assert output_digest.main(["--check-goldens", "--tree", str(changed_tree(tmp_path))]) == 1
    report = capsys.readouterr().out.splitlines()
    assert [line[len("changed: "):] for line in report if line.startswith("changed: ")] == expected
    assert re.fullmatch(r"  stdout line \d+, column 10:", report[1])
    assert report[2:4] == [
        "    - centers (cartesian):",
        "    + centers (Cartesian):",
    ]
    assert report[-1] == f"{len(expected)} of {len(goldens)} goldens differ"
