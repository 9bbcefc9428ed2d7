"""Command-line interface: schemas, exit codes, determinism, error text."""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

from ninepoint import cli

F = Fraction


def run(capsys, *argv: str):
    """Invoke main() and return (exit_code, stdout, stderr)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_json_3_4_5(self, capsys):
        code, out, err = run(capsys, "compute", "--sides", "3,4,5", "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["input"] == {"backend": "exact", "sides": ["3/1", "4/1", "5/1"]}
        assert doc["metrics"]["s"] == "6/1"
        assert doc["metrics"]["K_sq"] == "36/1"
        assert doc["metrics"]["R_sq"] == "25/4"
        assert doc["metrics"]["r_sq"] == "1/1"
        assert doc["metrics"]["rA_sq"] == "4/1"
        assert doc["metrics"]["Rr"] == "5/2"
        assert doc["centers"]["barycentric"]["I"] == ["1/4", "1/3", "5/12"]
        assert doc["centers"]["barycentric"]["Ea"] == ["-1/2", "2/3", "5/6"]
        assert doc["centers"]["cartesian"]["O"] == ["3/2", "2/1"]
        assert doc["centers"]["cartesian"]["N"] == ["3/4", "1/1"]

    def test_text_default_format(self, capsys):
        code, out, _ = run(capsys, "compute", "--sides", "3,4,5")
        assert code == 0
        assert "backend: exact" in out
        assert "R_sq  = 25/4" in out

    def test_float_backend(self, capsys):
        code, out, _ = run(capsys, "compute", "--sides", "3,4,5",
                           "--backend", "float", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["metrics"]["R_sq"] == 6.25
        assert doc["centers"]["cartesian"]["O"] == [1.5, 2.0]

    def test_fraction_and_decimal_side_spellings(self, capsys):
        code, out, _ = run(capsys, "compute", "--sides", "3/2,2,5/2", "--format", "json")
        assert code == 0
        assert json.loads(out)["metrics"]["s"] == "3/1"
        code, out, _ = run(capsys, "compute", "--sides", "1.5,2,2.5", "--format", "json")
        assert code == 0
        assert json.loads(out)["metrics"]["s"] == "3/1"  # decimals are exact rationals

    def test_vertices_input_float_default(self, capsys):
        code, out, _ = run(capsys, "compute", "--vertices", "0,4,3,0,0,0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["input"]["backend"] == "float"
        assert doc["input"]["vertices"] == [[0.0, 4.0], [3.0, 0.0], [0.0, 0.0]]
        assert doc["metrics"]["R_sq"] == 6.25

    def test_vertices_exact_backend(self, capsys):
        code, out, _ = run(capsys, "compute", "--vertices", "0,4,3,0,0,0",
                           "--backend", "exact", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["metrics"]["R_sq"] == "25/4"
        assert doc["centers"]["cartesian"]["H"] == ["0/1", "0/1"]

    def test_vertices_exact_irrational_rejected(self, capsys):
        code, _, err = run(capsys, "compute", "--vertices", "0,0,1,0,0,1",
                           "--backend", "exact")
        assert code == 2
        assert "irrational" in err
        assert "float backend" in err

    def test_exact_sides_without_exact_embedding(self, capsys):
        # (2,3,4) has an irrational canonical altitude: barycentric centers
        # still come out exact, Cartesian layer is declined.
        code, out, _ = run(capsys, "compute", "--sides", "2,3,4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["centers"]["cartesian"] is None
        assert doc["metrics"]["R_sq"] == "64/15"

    def test_json_roundtrip_byte_identical(self, capsys):
        _, out, _ = run(capsys, "compute", "--sides", "3,4,5", "--format", "json")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


class TestComputeErrors:
    def test_degenerate_exit_2(self, capsys):
        code, out, err = run(capsys, "compute", "--sides", "1,2,3")
        assert code == 2
        assert out == ""
        assert err == "error: degenerate: a + b = c\n"

    def test_not_a_triangle_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--sides", "1,2,10")
        assert code == 2
        assert "not a triangle" in err

    def test_nonpositive_side_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--sides", "0,4,5")
        assert code == 2
        assert "invalid side" in err

    def test_malformed_sides_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--sides", "3,4")
        assert code == 2
        assert "3 comma-separated values" in err

    def test_malformed_vertices_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--vertices", "1,2,3,4")
        assert code == 2
        assert "6 comma-separated values" in err

    def test_unparseable_number_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--sides", "3,4,five")
        assert code == 2

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--sides", "3,4,5", "--nope")
        assert code == 2

    def test_missing_input_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute")
        assert code == 2

    def test_sides_and_vertices_conflict(self, capsys):
        code, _, _ = run(capsys, "compute", "--sides", "3,4,5",
                         "--vertices", "0,4,3,0,0,0")
        assert code == 2


class TestFeuerbach:
    def test_json_3_4_5_exact(self, capsys):
        code, out, _ = run(capsys, "feuerbach", "--sides", "3,4,5",
                           "--backend", "exact", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["equilateral"] is False
        assert doc["metrics"]["r_sq"] == "1/1"
        assert doc["metrics"]["R_sq"] == "25/4"
        entries = {entry["circle"]: entry for entry in doc["feuerbach"]}
        assert entries["incircle"]["kind"] == "internal_tangent"
        assert entries["incircle"]["lhs"] == "1/16"
        assert entries["incircle"]["residual"] == "0/1"
        assert entries["exA"]["kind"] == "external_tangent"
        assert entries["exA"]["lhs"] == "169/16"
        assert entries["exB"]["lhs"] == "289/16"
        assert entries["exC"]["lhs"] == "841/16"

    def test_text_3_4_5(self, capsys):
        code, out, _ = run(capsys, "feuerbach", "--sides", "3,4,5")
        assert code == 0
        assert "incircle internal_tangent" in out
        assert "all tangencies verified" in out

    def test_equilateral_coincident_exit_0(self, capsys):
        code, out, _ = run(capsys, "feuerbach", "--sides", "1,1,1",
                           "--backend", "exact", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["equilateral"] is True
        entries = {entry["circle"]: entry for entry in doc["feuerbach"]}
        assert entries["incircle"]["kind"] == "coincident"
        assert entries["incircle"]["lhs"] == "0/1"
        assert entries["exA"]["kind"] == "external_tangent"
        assert entries["exA"]["lhs"] == "4/3"

    def test_equilateral_text_annotation(self, capsys):
        code, out, _ = run(capsys, "feuerbach", "--sides", "1,1,1")
        assert code == 0
        assert "coincident (equilateral)" in out

    def test_degenerate_exit_2(self, capsys):
        code, _, err = run(capsys, "feuerbach", "--sides", "1,2,3")
        assert code == 2
        assert err == "error: degenerate: a + b = c\n"

    def test_impossible_tolerance_exit_3(self, capsys):
        # (2,3,4) floats leave residuals ~1e-16 > 0; an absurdly tight
        # tolerance must turn that into a residual failure, not a pass.
        code, out, _ = run(capsys, "feuerbach", "--sides", "2,3,4",
                           "--backend", "float",
                           "--rel-eps", "1e-300", "--abs-eps", "1e-300")
        assert code == 3
        assert "TANGENCY CHECK FAILED" in out

    def test_json_roundtrip_byte_identical(self, capsys):
        _, out, _ = run(capsys, "feuerbach", "--sides", "3,4,5", "--format", "json")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


def seeded_sides(digits: int) -> str:
    """A triangle whose side numerators and denominators all have the given
    number of digits, from a fixed seed."""
    rng = random.Random(0)
    low, high = 10 ** (digits - 1), 10**digits
    while True:
        a, b, c = (F(rng.randrange(low, high), rng.randrange(low, high)) for _ in range(3))
        if a + b > c and b + c > a and c + a > b:
            return ",".join(f"{v.numerator}/{v.denominator}" for v in (a, b, c))


class TestOutputDigitLimit:
    # The largest integer in an exact feuerbach answer has about 18 times
    # the digits of the input; the interpreter prints at most 4300.

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_230_digits_prints(self, capsys, fmt):
        code, out, err = run(capsys, "feuerbach", "--sides", seeded_sides(230), "--format", fmt)
        assert code == 0
        assert err == ""
        assert out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_240_digits_too_long_to_print(self, capsys, fmt):
        code, out, err = run(capsys, "feuerbach", "--sides", seeded_sides(240), "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the exact answer is too long to print")
        assert err.endswith("; use --backend float or smaller numbers\n")
        assert "set_int_max_str_digits" not in err

    def test_240_digits_float_backend_prints(self, capsys):
        code, out, _ = run(capsys, "feuerbach", "--sides", seeded_sides(240),
                           "--backend", "float", "--format", "json")
        assert code == 0
        assert json.loads(out)["input"]["backend"] == "float"

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_input_over_digit_limit(self, capsys, backend):
        limit = sys.get_int_max_str_digits()
        big = "7" * (limit + 1)
        code, out, err = run(capsys, "feuerbach", "--sides", f"{big},{big},{big}",
                             "--backend", backend)
        assert code == 2
        assert out == ""
        assert err == (f"error: a number in the input has more than {limit} digits; "
                       "use smaller numbers\n")

    def test_input_digit_limit_counts_each_digit_run(self):
        limit = sys.get_int_max_str_digits()
        assert cli._parse_scalar("7" * limit, "exact") == int("7" * limit)
        assert cli._parse_scalar(f"{'7' * limit}/{'3' * limit}", "exact") > 0
        for text in ("7" * (limit + 1), f"1/{'3' * (limit + 1)}", f"1.{'5' * (limit + 1)}",
                     "7_" * limit + "7"):
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                cli._parse_scalar(text, "exact")


class TestFuzzCommand:
    def test_exact_generic(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--profile", "generic",
                           "--count", "5", "--seed", "1")
        assert code == 0
        assert "5/5 exact-zero" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--profile", "generic",
                           "--count", "5", "--seed", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "profile": "generic",
            "count": 5,
            "seed": 1,
            "bound": 10,
            "backend": "exact",
            "passes": 5,
            "failures": 0,
            "all_exact": True,
            "max_normalized_residual": 0.0,
        }

    def test_float_near_degenerate(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--profile", "near-degenerate",
                           "--count", "20", "--seed", "3", "--backend", "float")
        assert code == 0
        assert "20/20 within tolerance" in out

    def test_unknown_profile_exit_2(self, capsys):
        code, _, _ = run(capsys, "fuzz", "--profile", "acute", "--count", "1")
        assert code == 2

    def test_deterministic_output(self, capsys):
        args = ("fuzz", "--profile", "isoceles", "--count", "10", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestSvgCommand:
    def test_emits_svg(self, capsys):
        code, out, _ = run(capsys, "svg", "--sides", "3,4,5")
        assert code == 0
        assert out.startswith('<?xml version="1.0"')
        assert 'id="ninepoint"' in out

    def test_compute_format_svg_matches(self, capsys):
        _, direct, _ = run(capsys, "svg", "--sides", "3,4,5")
        _, via_compute, _ = run(capsys, "compute", "--sides", "3,4,5", "--format", "svg")
        assert direct == via_compute

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "svg", "--sides", "2,3,4")
        _, second, _ = run(capsys, "svg", "--sides", "2,3,4")
        assert first == second

    def test_degenerate_exit_2(self, capsys):
        code, _, err = run(capsys, "svg", "--sides", "1,2,3")
        assert code == 2
        assert "degenerate" in err


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "triangle.svg"
        code, out, _ = run(capsys, "svg", "--sides", "3,4,5", "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith('<?xml version="1.0"')

    def test_out_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        run(capsys, "feuerbach", "--sides", "3,4,5", "--format", "json",
            "--out", str(target))
        _, stdout_text, _ = run(capsys, "feuerbach", "--sides", "3,4,5",
                                "--format", "json")
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_unwritable_out_exit_4(self, capsys, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
        code, _, err = run(capsys, "compute", "--sides", "3,4,5",
                           "--format", "json", "--out", str(missing_dir))
        assert code == 4
        assert "error: cannot write" in err


class TestEntryPoint:
    def test_console_script_installed(self):
        import shutil

        path = shutil.which("ninepoint")
        assert path is not None

    def test_console_script_runs(self):
        import subprocess

        result = subprocess.run(
            ["ninepoint", "feuerbach", "--sides", "3,4,5", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["metrics"]["R_sq"] == "25/4"

    def test_no_subcommand_exit_2(self, capsys):
        code, _, _ = run(capsys, "")
        assert code == 2

    def test_help_exit_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "compute" in out and "feuerbach" in out and "fuzz" in out and "svg" in out
