"""Command-line interface: schemas, exit codes, determinism, error text."""

import collections
import contextlib
import importlib.util
import io
import json
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from golden_cases import CASES, ERROR_CASES, HELP_CASES
from ninepoint import cli
from ninepoint.centers import center_set
from ninepoint.feuerbach import feuerbach_report
from ninepoint.triangle import (
    CENTER_WEIGHTS,
    Point2,
    SideLengths,
    _SquareRatio,
    canonical_vertices,
    metrics,
)

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
_DIGEST_SPEC = importlib.util.spec_from_file_location(
    "_cli_output_digest", ROOT / "tools" / "output_digest.py"
)
output_digest = importlib.util.module_from_spec(_DIGEST_SPEC)
_DIGEST_SPEC.loader.exec_module(output_digest)


def run(capsys, *argv: str):
    """Invoke main() and return (exit_code, stdout, stderr)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_tokens(monkeypatch) -> collections.Counter:
    """Wrap the token functions of the CLI; the counter counts each value
    converted, an integer ratio or a tangent lhs's square ratio as its
    Fraction."""
    conversions = collections.Counter()
    for name in ("_exact_token", "_float_token", "_square_token"):
        function = getattr(cli, name)

        def counting(value, *args, function=function):
            key = value.value() if type(value) is _SquareRatio else value
            conversions[F(*key) if type(key) is tuple else key] += 1
            return function(value, *args)

        monkeypatch.setattr(cli, name, counting)
    return conversions


def printed_values(doc) -> list:
    """The values a compute or feuerbach JSON answer prints, in document
    order: every "p/q" string and every float, not the names."""
    if isinstance(doc, dict):
        return [value for item in doc.values() for value in printed_values(item)]
    if isinstance(doc, list):
        return [value for item in doc for value in printed_values(item)]
    if isinstance(doc, float) or isinstance(doc, str) and re.fullmatch(r"-?\d+/\d+", doc):
        return [doc]
    return []


class TestCompute:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("argv, text_only", [
        (["--sides", "13/3,4,15/7"], 0),
        (["--vertices", "1/3,-2/7,10/3,-2/7,1/3,26/7", "--backend", "exact"], 3),
        (["--vertices", "0.1,0.2,3.3,0.4,1.5,2.6"], 3),
    ], ids=["exact_sides", "exact_vertices", "float_vertices"])
    def test_each_printed_value_converted_once(self, capsys, monkeypatch, argv, text_only, fmt):
        # The backend's token function converts each value of the answer
        # once, and the text output prints the document's tokens; it
        # converts the sides of vertex input besides, which the document
        # does not hold.
        values = printed_values(json.loads(run(capsys, "compute", *argv, "--format", "json")[1]))
        conversions = count_tokens(monkeypatch)
        code, out, _ = run(capsys, "compute", *argv, "--format", fmt)
        assert code == 0
        assert sum(conversions.values()) == len(values) + (text_only if fmt == "text" else 0)
        assert {F(v) if isinstance(v, str) else v for v in values} <= set(conversions)
        assert {F(text) for text in re.findall(r"-?\d+/\d+", out)} <= set(conversions)

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
        assert err == "error: --sides needs 3 comma-separated values a,b,c, got 2\n"

    def test_malformed_vertices_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--vertices", "0,0,1,0,0")
        assert code == 2
        assert err == (
            "error: --vertices needs 6 comma-separated values ax,ay,bx,by,cx,cy, got 5\n"
        )

    def test_unparseable_number_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--sides", "3,4,five")
        assert code == 2

    @pytest.mark.parametrize("argv, text", [
        (["feuerbach", "--sides", "1/0,1,1"], "1/0"),
        (["feuerbach", "--sides", "1/0,1,1", "--backend", "float"], "1/0"),
        (["compute", "--sides", "3,4, 0/0 "], "0/0"),
        (["feuerbach", "--vertices", "0,0,1,0,0,1/0"], "1/0"),
        (["compute", "--vertices", "0,0,1,0,-3/0,1", "--backend", "exact"], "-3/0"),
    ])
    def test_zero_denominator_exit_2(self, capsys, argv, text):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {text} has a zero denominator\n"

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

    @pytest.mark.parametrize("argv", [
        ["compute", "--sides", "3,4,5", "--rel-eps", "0.5"],
        ["compute", "--sides", "3,4,5", "--abs-eps", "10"],
        ["svg", "--sides", "1,1,1.000001", "--backend", "float", "--rel-eps", "0.5"],
    ])
    def test_tolerance_only_where_it_is_read(self, capsys, argv):
        # Only feuerbach and fuzz compare with a tolerance, so only they take one.
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"error: unrecognized arguments: {argv[-2]} {argv[-1]}\n" in err


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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_each_printed_value_converted_once(self, capsys, monkeypatch, fmt):
        # The exact token function converts each value of the answer once: a
        # tangent circle's rhs is its lhs object and reuses its token, and
        # the text output prints the document's tokens and converts R_sq/4
        # besides.  Two small constants are one object each, printed in
        # several places: the tangent circles' zero residual and the
        # centroid's weight 1/3.
        argv = ["feuerbach", "--sides", "13/3,4,15/7"]
        values = printed_values(json.loads(run(capsys, *argv, "--format", "json")[1]))
        conversions = count_tokens(monkeypatch)
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        printed = {F(text) for text in re.findall(r"-?\d+/\d+", out)}
        assert len(printed) >= 11
        assert printed <= set(conversions)
        assert sum(conversions.values()) == len(values) - 4 + (fmt == "text")
        assert {value for value, count in conversions.items() if count > 1} <= {F(0), F(1, 3)}


# Exact triangles whose lhs reductions share factors of every size: 40-digit
# ratios, and small ones whose four lhs have one denominator.
_SIDE = "7523194860257789431200561947/1398650173946152086427093"
_OTHER = "8802771644028950381179355012/3711057290365544781925549"


@pytest.mark.parametrize("sides", [
    "13/3,4,15/7",
    f"{_SIDE},{_OTHER},4000",
    "7/3,7/3,11/5",
    f"{_SIDE},{_SIDE},{_OTHER}",
    "7/3,7/3,7/3",
    f"{_SIDE},{_SIDE},{_SIDE}",
], ids=["generic", "generic-large", "isoceles", "isoceles-large", "equilateral",
        "equilateral-large"])
def test_each_circle_prints_the_reports_tokens(capsys, sides):
    # The CLI writes a tangent lhs from the kernel's square ratio, which
    # the report holds unread; each circle's lhs, rhs and residual tokens
    # are those of the report's values as the library reads them.
    code, out, _ = run(capsys, "feuerbach", "--sides", sides, "--format", "json")
    assert code == 0
    report = feuerbach_report(SideLengths(*map(F, sides.split(","))))
    rows = json.loads(out)["feuerbach"]
    assert [row["circle"] for row in rows] == [entry.circle for entry in report.entries]
    for row, entry in zip(rows, report.entries):
        tangency = entry.report
        for name in ("lhs", "rhs", "residual"):
            assert row[name] == cli._exact_token(getattr(tangency, name)).strip('"'), name


def json_strings(value):
    """Every str in a document, keys included."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from json_strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from json_strings(item)


PLAIN_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'))
NUMBERS = (
    st.integers()
    | st.integers(min_value=2**64).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e308, float("nan"),
                       float("inf"), float("-inf")])
)
# Exact values as the CLI meets them: Fractions, and the kernel's integer
# ratios (num, den), which any sign of den and any common factor reach.
EXACT = st.fractions() | st.tuples(
    st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70).filter(bool)
)


def tokenized(doc):
    """A document of tokens, as the CLI makes them, and the same document
    of the values json.dumps writes for them: an exact leaf through the
    exact token function, as its "p/q" string; a float through the float
    one; the other leaves (None, bools, ints, strings that need no
    escaping) as json writes them."""
    if isinstance(doc, dict):
        pairs = {key: tokenized(item) for key, item in doc.items()}
        return {key: p[0] for key, p in pairs.items()}, {key: p[1] for key, p in pairs.items()}
    if isinstance(doc, list):
        pairs = [tokenized(item) for item in doc]
        return [p[0] for p in pairs], [p[1] for p in pairs]
    if isinstance(doc, (Fraction, tuple)):
        value = F(*doc) if isinstance(doc, tuple) else doc
        return cli._exact_token(doc), f"{value.numerator}/{value.denominator}"
    if isinstance(doc, float):
        return cli._float_token(doc), doc
    return json.dumps(doc), doc


def containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(PLAIN_TEXT, children, max_size=4)


# Documents as the layout takes them: a dict or a list at the top.
DOCUMENTS = containers(
    st.recursive(st.none() | st.booleans() | NUMBERS | EXACT | PLAIN_TEXT, containers, max_leaves=30)
)


def golden_json_answers():
    """The document of every golden that prints JSON."""
    for name in CASES:
        text = (Path(__file__).parent / "golden" / f"{name}.out").read_text(encoding="utf-8")
        if text.startswith("{"):
            yield json.loads(text)


class TestJsonWriter:
    @given(DOCUMENTS)
    @example({})
    @example([])
    @example({"a": {}, "b": [], "c": [{}, []]})
    @example({"lhs": F(-12, 7), "k": [1.5, -0.0, float("nan"), float("inf"), float("-inf")]})
    @example({"n": [-3, 2**64 + 1, -(2**70)], "t": [True, False, None], "r": [(6, -4), (0, -5)]})
    def test_writes_json_dumps_layout(self, doc):
        # The layout over the tokens is json.dumps's layout of the values.
        tokens, values = tokenized(doc)
        assert cli._layout(tokens) == json.dumps(values, indent=2)

    @pytest.mark.parametrize("char", ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\xe9", "\ud800"])
    def test_each_escaped_character_alone(self, char):
        # The layout quotes each key and string as it is, with no escaping,
        # so no CLI answer may hold a character that json escapes: the names
        # and choices it prints are plain ASCII.
        assert json.dumps(f"a{char}b") != f'"a{char}b"'
        answers = list(golden_json_answers())
        assert len(answers) >= 30
        assert not any(char in text for doc in answers for text in json_strings(doc))


def rational(max_digits: int = 60):
    """Positive rationals whose numerator and denominator have 1 to
    ``max_digits`` digits."""
    return st.integers(1, max_digits).flatmap(
        lambda d: st.builds(F, st.integers(10 ** (d - 1), 10**d - 1), st.integers(10 ** (d - 1), 10**d - 1))
    )


def ravi(x, y, z):
    """The sides y + z, z + x, x + y, a triangle for any positive x, y, z."""
    return y + z, z + x, x + y


def right_triangle(m: int, n: int, k: Fraction):
    """The sides k(m^2 - n^2), 2kmn, k(m^2 + n^2) of a right triangle, whose
    exact embedding exists."""
    return k * (m * m - n * n), 2 * k * m * n, k * (m * m + n * n)


EXACT_SIDES = st.one_of(
    st.builds(ravi, rational(), rational(), rational()),
    rational().map(lambda x: (x, x, x)),
    st.integers(2, 40).flatmap(
        lambda m: st.builds(right_triangle, st.just(m), st.integers(1, m - 1), rational(20))
    ),
)
FLOAT_SIDES = st.builds(ravi, *[st.floats(1e-3, 1e3)] * 3)
# A plain request's value does not start with "-", so ax is not negative.
FLOAT_VERTICES = st.tuples(st.floats(0, 100), *[st.floats(-100, 100)] * 5)


def text_of(values) -> str:
    return ",".join(f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else repr(v)
                    for v in values)


def same(printed, value) -> bool:
    """A printed JSON value against the library's: an exact value as its
    reduced "p/q", a float by its repr, so that NaN and the sign of a zero
    count."""
    if isinstance(value, Fraction):
        return printed == f"{value.numerator}/{value.denominator}"
    return isinstance(printed, float) and repr(printed) == repr(value)


def library_vertices(triangle, sides):
    """The vertices that the library is given for a request's triangle,
    read from the request: the --vertices as Point2s, on the backend the
    request names (each number is read as a Fraction first, so "-0.0" is
    0.0 on either), and for --sides the canonical embedding, or None for
    exact sides whose altitude is irrational."""
    flag, text, *options = triangle
    if flag == "--vertices":
        exact = options == ["--backend", "exact"]
        values = [Fraction(v) if exact else float(Fraction(v)) for v in text.split(",")]
        return Point2(*values[0:2]), Point2(*values[2:4]), Point2(*values[4:6])
    vertices = canonical_vertices(sides)
    return None if sides.is_exact and not vertices[0].is_exact else vertices


class TestAgainstLibrary:
    # Every value of a compute and a feuerbach JSON answer is the library's:
    # the metrics of metrics(sides), the centers of center_set(sides,
    # vertices) and the report of feuerbach_report(sides, tol), on the
    # triangle the CLI reads from the request, and on the vertices that
    # library_vertices reads from it.

    def check(self, triangle):
        config = cli._resolve_input(cli._plain_request(["feuerbach", *triangle]))
        # A library error, such as a float area that underflows, is an
        # error of each command that reads the value.
        try:
            met = metrics(config.sides)
            vertices = library_vertices(triangle, config.sides)
            centers = center_set(config.sides, vertices)
        except (ValueError, ZeroDivisionError):
            centers = None
        try:
            report = feuerbach_report(config.sides, config.tol)
        except (ValueError, ZeroDivisionError):
            report = None
        for command in ("compute", "feuerbach"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, *triangle, "--format", "json"])
            if centers is None or command == "feuerbach" and report is None:
                assert (code, out.getvalue()) == (2, "")
                continue
            assert (code, err.getvalue()) == (0 if command == "compute" or report.ok else 3, "")
            doc = json.loads(out.getvalue())
            if triangle[0] == "--vertices":
                printed = [v for point in doc["input"]["vertices"] for v in point]
                given = [v for point in vertices for v in (point.x, point.y)]
            else:
                printed, given = doc["input"]["sides"], config.sides.as_tuple()
            assert all(map(same, printed, given))
            assert all(same(doc["metrics"][name], getattr(met, name)) for name in met._fields)
            rows = doc["centers"]["barycentric"]
            assert list(rows) == list(centers.barycentric)
            for name, bary in centers.barycentric.items():
                assert all(map(same, rows[name], bary.components)), name
            if vertices is None:
                assert doc["centers"]["cartesian"] is None
            else:
                rows = doc["centers"]["cartesian"]
                assert list(rows) == list(centers.points)
                for name, point in centers.points.items():
                    assert all(map(same, rows[name], (point.x, point.y))), name
            if command == "feuerbach":
                assert doc["equilateral"] is report.equilateral
                for row, entry in zip(doc["feuerbach"], report.entries, strict=True):
                    tangency = entry.report
                    assert (row["circle"], row["kind"]) == (entry.circle, tangency.kind.value)
                    assert same(row["lhs"], tangency.lhs)
                    assert same(row["rhs"], tangency.rhs)
                    assert same(row["residual"], tangency.residual)

    @settings(max_examples=60, deadline=None)
    @given(EXACT_SIDES)
    @example((F(1), F(1), F(1)))
    @example((F(3), F(4), F(5)))
    @example(ravi(F(10**59 + 1, 3 * 10**58 + 7), F(7 * 10**59 - 3, 10**59 + 9), F(2 * 10**59 + 1, 10**59 - 1)))
    def test_exact_sides(self, sides):
        self.check(["--sides", text_of(sides)])

    @settings(max_examples=60, deadline=None)
    @given(FLOAT_SIDES)
    def test_float_sides(self, sides):
        self.check(["--sides", text_of(sides), "--backend", "float"])

    @settings(max_examples=60, deadline=None)
    @given(FLOAT_VERTICES)
    def test_float_vertices(self, coordinates):
        argv = ["--vertices", text_of(coordinates)]
        try:
            cli._resolve_input(cli._plain_request(["compute", *argv]))
        except ValueError:
            assume(False)
        self.check(argv)

    @pytest.mark.parametrize("vertices", ["1/3,-2/7,10/3,-2/7,1/3,26/7", "1/2,0,7/2,0,1/2,4"])
    def test_exact_vertices(self, vertices):
        self.check(["--vertices", vertices, "--backend", "exact"])


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


def outcome(convert, n: int):
    """``convert(n)``, or ``ValueError`` when it raises one."""
    try:
        return convert(n)
    except ValueError:
        return ValueError


class TestDigitWriter:
    """``cli._digits`` writes an integer of more than ``cli._HALVING_BITS``
    bits by halving it at powers of ten; it must write what ``str`` writes
    and raise where ``str`` raises."""

    @pytest.mark.parametrize("limit", [None, 640, 0], ids=["default", "640", "unlimited"])
    def test_is_str_on_every_digit_count(self, limit):
        # Every digit count up to one past the limit (the default one when
        # there is none), both signs, 10^k and 10^k - 1 included; and a few
        # integers far beyond it.
        saved = sys.get_int_max_str_digits()
        try:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
            top = (sys.get_int_max_str_digits() or saved) + 1
            rng = random.Random(top)
            power = 1  # 10^(d - 1)
            for d in range(1, top + 1):
                for n in (power, 10 * power - 1):
                    for signed in (n, -n):
                        assert outcome(cli._digits, signed) == outcome(str, signed), (d, signed)
                power *= 10
            for d in (5000, 9000):
                n = rng.randrange(10 ** (d - 1), 10**d)
                assert outcome(cli._digits, n) == outcome(str, n), d
        finally:
            sys.set_int_max_str_digits(saved)
        assert sys.get_int_max_str_digits() == saved

    def test_halving_starts_past_the_threshold(self, monkeypatch):
        # At the threshold str writes the digits; one bit past it the split
        # does, at a power of ten 10^k, k a multiple of 256, that it keeps
        # beside 10^limit.
        monkeypatch.setattr(cli, "_TEN_TO", {})
        bits = cli._HALVING_BITS
        assert cli._digits(2**bits - 1) == str(2**bits - 1) and not cli._TEN_TO
        for n in (2**bits, 2**bits + 1):
            assert cli._digits(n) == str(n)
        limit = sys.get_int_max_str_digits()
        assert cli._TEN_TO.pop(limit) == 10**limit
        assert list(cli._TEN_TO) == [512]

    def test_power_cache_after_the_digest_requests(self, monkeypatch):
        # The digest's default requests print integers up to the default
        # limit; the powers of ten they split at stay at most 9.
        monkeypatch.setattr(cli, "_TEN_TO", {})
        monkeypatch.setenv("COLUMNS", output_digest.COLUMNS)
        monkeypatch.setattr(sys, "path", list(sys.path))
        for _ in output_digest.run(output_digest.request_set(0, 100), ROOT):
            pass
        assert 0 < len(cli._TEN_TO) <= 9


class TestBeyondFloatRange:
    # Exact sides beyond the largest double have an exact answer; only the
    # float backend and the float drawing cannot hold them.
    HUGE = "2e400,3e400,4e400"

    def test_exact_feuerbach_answers(self, capsys):
        code, out, err = run(capsys, "feuerbach", "--sides", self.HUGE, "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["input"]["sides"][0] == f"2{'0' * 400}/1"
        assert doc["centers"]["cartesian"] is None  # 16K^2 is not a square
        assert [entry["kind"] for entry in doc["feuerbach"]] == (
            ["internal_tangent"] + ["external_tangent"] * 3
        )
        assert all(entry["residual"] == "0/1" for entry in doc["feuerbach"])
        # Scaling by 10^400 multiplies squared lengths by 10^800.
        assert F(doc["metrics"]["R_sq"]) == F(64, 15) * 10**800

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_exact_compute_answers(self, capsys, fmt):
        code, out, err = run(capsys, "compute", "--sides", self.HUGE, "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            doc = json.loads(out)
            assert doc["centers"]["barycentric"]["I"] == ["2/9", "1/3", "4/9"]
            assert doc["centers"]["cartesian"] is None
        else:
            assert "centers (cartesian): not exactly embeddable" in out

    @pytest.mark.parametrize("argv", [
        ["svg", "--sides", HUGE],
        ["svg", "--sides", "3e400,4e400,5e400"],
        ["svg", "--vertices", "0,0,3e400,0,0,4e400", "--backend", "exact"],
    ])
    def test_svg_cannot_draw(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: the triangle is beyond the float range that svg draws in\n"

    @pytest.mark.parametrize("argv", [
        ["feuerbach", "--sides", "1e400,1e400,1e400", "--backend", "float"],
        ["compute", "--vertices", "0,0,1e400,0,0,1"],
    ])
    def test_float_input_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: 1e400 is beyond the float range; use --backend exact\n"

    @pytest.mark.parametrize("argv", [
        ["feuerbach", "--sides", "1e-400,1e-400,1.5e-400", "--backend", "float"],
        ["compute", "--vertices", "0,0,1e-400,0,0,1"],
    ])
    def test_float_underflow_rejected(self, capsys, argv):
        # A nonzero number that rounds to 0.0 is not reported as a zero side.
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: 1e-400 is below the float range; use --backend exact\n"

    def test_underflow_answers_exactly(self, capsys):
        code, out, err = run(capsys, "feuerbach", "--sides", "1e-400,1e-400,1.5e-400")
        assert code == 0 and err == ""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_float_underflow_in_valid_triangle_answers(self, capsys, fmt):
        # A coordinate that rounds to 0.0 but leaves a valid triangle is
        # answered as the rounded triangle.
        answers = [
            run(capsys, "compute", "--vertices", vertices, "--format", fmt)
            for vertices in ("1e-400,0,1,0,0,1", "0,0,1,0,0,1")
        ]
        assert answers[0][0] == 0 and answers[0][2] == ""
        assert answers[0] == answers[1]

    def test_float_zero_and_subnormal_accepted(self, capsys):
        code, _, err = run(capsys, "compute", "--vertices", "0,0,1,5e-324,-0,1")
        assert code == 0 and err == ""

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_svg_of_an_underflowed_altitude_is_refused(self, capsys, backend):
        # The float embedding's altitude underflows to 0, so the vertices
        # are collinear; the centers' weights read only the valid sides.
        argv = ["svg", "--sides", "1e-160,1e-160,1.5e-160", "--backend", backend]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: collinear vertices have no circumcenter\n"


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

    @pytest.mark.parametrize("bound, count", [(10**15, 3), (10**40, 2)])
    def test_exact_large_bound(self, capsys, bound, count):
        # The exact suite takes no float of a value that passes, so numbers
        # beyond a double (R^2 is about 10^400 at bound 10^40) are fine.
        code, out, err = run(capsys, "fuzz", "--bound", str(bound), "--count", str(count))
        assert (code, err) == (0, "")
        assert f"{count}/{count} exact-zero" in out

    @pytest.mark.parametrize("profile", ["near-degenerate", "near-equilateral"])
    @pytest.mark.parametrize("bound", [10**80, 10**200], ids=["1e80", "1e200"])
    def test_exact_irrational_embeddings_beyond_float_range(self, capsys, profile, bound):
        # These profiles' altitudes are irrational.  The exact suite runs
        # them on the sides' own integer frame and builds no float
        # embedding, which would overflow here.
        code, out, err = run(capsys, "fuzz", "--profile", profile, "--backend", "exact",
                             "--bound", str(bound), "--count", "2")
        assert (code, err) == (0, "")
        assert "2/2 exact-zero" in out

    @pytest.mark.parametrize("profile", ["generic", "near-degenerate"])
    @pytest.mark.parametrize("bound", [10**80, 10**200], ids=["1e80", "1e200"])
    def test_exact_fault_beyond_float_range_names_its_check(
        self, capsys, monkeypatch, profile, bound
    ):
        # O built with the weights of H.  A failed exact check is normalized
        # before its residual becomes a float, so the fault is reported
        # (exit 3, naming the check), not taken for a float overflow.
        monkeypatch.setitem(CENTER_WEIGHTS, "O", CENTER_WEIGHTS["H"])
        code, out, err = run(capsys, "fuzz", "--profile", profile, "--backend", "exact",
                             "--bound", str(bound), "--count", "2")
        assert (code, err) == (3, "")
        lines = out.splitlines()
        assert lines[1] == "0/2 within tolerance"
        assert [re.sub(r"_[xy] residual .*", "", line) for line in lines[3:]] == [
            "index 0: center_agreement_O",
            "index 1: center_agreement_O",
        ]

    def test_float_large_bound_exit_2(self, capsys):
        code, out, err = run(capsys, "fuzz", "--backend", "float", "--bound", str(10**15))
        assert (code, out) == (2, "")
        assert err == (
            f"error: --bound {10**15} gives triangles beyond the float range; "
            "use a smaller --bound\n"
        )


class TestSvgCommand:
    def test_emits_svg(self, capsys):
        code, out, _ = run(capsys, "svg", "--sides", "3,4,5")
        assert code == 0
        assert out.startswith('<?xml version="1.0"')
        assert 'id="ninepoint"' in out

    @pytest.mark.parametrize("command", ["compute", "feuerbach"])
    def test_svg_is_not_a_format(self, capsys, command):
        # The svg command is the one way to draw.
        code, out, err = run(capsys, command, "--sides", "2,3,4", "--format", "svg")
        assert (code, out) == (2, "")
        assert "argument --format: invalid choice: 'svg'" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "svg", "--sides", "2,3,4")
        _, second, _ = run(capsys, "svg", "--sides", "2,3,4")
        assert first == second

    def test_degenerate_exit_2(self, capsys):
        code, _, err = run(capsys, "svg", "--sides", "1,2,3")
        assert code == 2
        assert "degenerate" in err

    @pytest.mark.parametrize(
        "argv, frames, drawn",
        [
            (["svg", "--sides", "3,4,6"], 1, 0),  # drawn on the float embedding
            (["svg", "--sides", "3,4,5"], 1, 0),  # drawn on the exact one
            (["svg", "--sides", "3,4,6", "--backend", "float"], 0, 0),
            (["compute", "--sides", "3,4,6"], 1, 0),
            (["feuerbach", "--sides", "3,4,6"], 1, 0),
        ],
    )
    def test_svg_builds_only_what_it_draws(self, capsys, monkeypatch, argv, frames, drawn):
        # An exact svg request seeks the exact embedding once, when the input
        # is read, and draws the float one without seeking it again.  No
        # command builds a TriangleMetrics or a Barycentric: compute and
        # feuerbach print the kernel's metrics and components.  Counted by
        # wrapping, as Python 3.10 names every __init__ of a module alike in
        # a profile hook.
        from ninepoint import triangle

        calls = collections.Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            triangle, "_canonical_frame", counted("frame", triangle._canonical_frame)
        )
        for cls in (triangle.TriangleMetrics, triangle.Barycentric):
            monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert calls["frame"] == frames
        assert calls["TriangleMetrics"] == drawn
        assert calls["Barycentric"] == 0


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


# Runs each argv of a JSON list through main() in one interpreter and prints
# the JSON list of their [exit code, stdout, stderr].
RUN_ARGVS = """
import contextlib, io, json, sys
from ninepoint import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

# Counts build_parser calls from right after the import: through three plain
# requests, then through a request for help and a request that argparse rejects.
COUNT_BUILDS = """
import contextlib, io, json
import ninepoint.cli as cli
builds = 0
build_parser = cli.build_parser
def counting_build_parser():
    global builds
    builds += 1
    return build_parser()
cli.build_parser = counting_build_parser
before = builds
plain = [["compute", "--sides", "3,4,5"], ["feuerbach", "--sides", "2,3,4", "--format", "json"],
         ["fuzz", "--count", "2"]]
others = [["--help"], ["feuerbach", "--sides", "2,3,4", "--format", "xml"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in plain]
    after_plain = builds
    codes += [cli.main(argv) for argv in others]
print(json.dumps([before, after_plain, builds, codes]))
"""


def fresh_python(script: str, *args: str) -> str:
    """stdout of ``script`` in a new interpreter that imports this ninepoint."""
    import subprocess

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    result = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def run_fresh(*argvs):
    """[exit code, stdout, stderr] of each argv, run in turn in one new interpreter."""
    return json.loads(fresh_python(RUN_ARGVS, json.dumps(argvs)))


# Imports a module in a fresh interpreter, then (for ninepoint.cli) answers
# each request, one space-separated argv per argument, with stdout thrown
# away; it prints the modules added since start-up.  It reads its arguments
# without json, so that any json module it reports came from the package.
COLD_START = """
import io, sys
bare = set(sys.modules)
sys.path.insert(0, sys.argv[1])
module = __import__(sys.argv[2], fromlist=["__name__"])
sys.stdout = io.StringIO()
codes = [module.main(request.split()) for request in sys.argv[3:]]
sys.stdout = sys.__stdout__
assert codes == [0] * len(codes), codes
print(" ".join(sorted(set(sys.modules) - bare)))
"""

# Introspection modules that dataclasses pulls in and no CLI request needs.
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
# The CLI writes its JSON layout itself.
JSON_MODULES = {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}
# A plain request is read without argparse, which imports gettext and locale.
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


def modules_added_by(module: str, *requests: str) -> set:
    """The modules that importing ``module`` and answering ``requests`` adds
    in a fresh ``python -I``, beyond those the bare interpreter (with its
    ``site`` and ``.pth`` imports) already holds."""
    import subprocess

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    result = subprocess.run(
        [sys.executable, "-I", "-c", COLD_START, src, module, *requests],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


class TestColdStart:
    def test_cli_imports_no_introspection_modules(self):
        added = modules_added_by("ninepoint.cli")
        assert "ninepoint.cli" in added
        assert added & INTROSPECTION == set()

    def test_cli_answers_json_without_json(self):
        added = modules_added_by(
            "ninepoint.cli",
            "feuerbach --sides 3,4,5 --format json",
            "compute --sides 3,4,5 --format json",
            "fuzz --count 1 --format json",
        )
        assert added & JSON_MODULES == set()

    def test_plain_requests_import_no_argparse(self):
        added = modules_added_by(
            "ninepoint.cli",
            "feuerbach --sides 3,4,5 --format json",
            "compute --sides 3,4,5",
            "fuzz --count 1 --format json",
        )
        assert added & ARGPARSE_MODULES == set()
        assert "argparse" in modules_added_by("ninepoint.cli", "--help")

    def test_probe_sees_an_added_module(self):
        assert "dataclasses" in modules_added_by("dataclasses")
        assert "json" in modules_added_by("json")


class TestSharedParser:
    def test_one_parser_per_process_none_at_import(self):
        before, after_plain, builds, codes = json.loads(fresh_python(COUNT_BUILDS))
        assert codes == [0, 0, 0, 0, 2]
        assert before == 0
        assert after_plain == 0
        assert builds == 1

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, (_, options) in cli.COMMANDS.items()
         for flag, spec in options.items() if spec[2] is not None],
    )
    def test_invalid_choice_quotes_each_choice(self, capsys, command, flag):
        # The text of every Python release that quotes choices, whichever
        # release runs.
        triangle = ["--sides", "3,4,5"] if "--sides" in cli.COMMANDS[command][1] else []
        code, out, err = run(capsys, command, *triangle, flag, "Bogus")
        choices = ", ".join(repr(choice) for choice in cli.COMMANDS[command][1][flag][2])
        assert (code, out) == (2, "")
        assert err.endswith(
            f"error: argument {flag}: invalid choice: 'Bogus' (choose from {choices})\n"
        )

    def test_unknown_command_quotes_each_command(self, capsys):
        code, out, err = run(capsys, "Bogus", "--help")
        assert (code, out) == (2, "")
        assert err.endswith(
            "error: argument command: invalid choice: 'Bogus' "
            "(choose from 'compute', 'feuerbach', 'fuzz', 'svg')\n"
        )

    @pytest.mark.parametrize(
        "name, choices",
        [("command", tuple(cli.COMMANDS))]
        + [(flag, spec[2]) for flag, spec in cli.COMMANDS["fuzz"][1].items() if spec[2] is not None],
    )
    def test_error_quotes_an_unquoted_choice_list(self, capsys, name, choices):
        # Python 3.12.8 and 3.13.1 on list the choices unquoted; the
        # subparsers share the parser's class, and so its error.
        message = f"argument {name}: invalid choice: 'bogus' (choose from {', '.join(choices)})"
        with pytest.raises(SystemExit) as raised:
            cli.build_parser().error(message)
        quoted = ", ".join(map(repr, choices))
        assert raised.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {name}: invalid choice: 'bogus' (choose from {quoted})\n"
        )

    @pytest.mark.parametrize(
        "message",
        [
            "argument command: invalid choice: 'bogus' (choose from 'compute', 'feuerbach', 'fuzz', 'svg')",
            "argument --format: invalid choice: 'x (choose from y' (choose from 'json', 'text')",
            "unrecognized arguments: (choose from json, text)",
            "argument --count: invalid int value: 'invalid choice: x (choose from y)'",
        ],
    )
    def test_error_leaves_other_messages_alone(self, capsys, message):
        with pytest.raises(SystemExit):
            cli.build_parser().error(message)
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_build_parser_returns_a_fresh_parser(self):
        first = cli.build_parser()
        second = cli.build_parser()
        assert first is not second

    def test_no_state_carried_between_calls(self):
        first = ["feuerbach", "--sides", "13,14,15", "--backend", "float"]
        sequence = [
            first,
            ["feuerbach", "--sides", "13,14,15"],
            ["compute", "--vertices", "0,0,4,0,0,3"],
            ["feuerbach", "--sides", "13,14,15", "--format", "xml"],
            ["--help"],
            ["fuzz"],
            first,
        ]
        shared = run_fresh(*sequence)
        assert shared[1][1].startswith("backend: exact\n")
        assert shared[2][1].startswith("backend: float\n")
        assert shared[3][0] == 2 and "invalid choice: 'xml'" in shared[3][2]
        assert shared[4][0] == 0 and shared[4][1].startswith("usage: ninepoint")
        assert shared[5][1].startswith("profile=generic count=100 seed=0 bound=10 backend=exact\n")
        for argv, triple in zip(sequence, shared):
            assert triple == run_fresh(argv)[0], argv


def _load_workloads():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_cli_test_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def argparse_namespace(argv):
    """vars() of argparse's namespace for ``argv``, or None when argparse
    exits (an error or help)."""
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


def reprs(namespace: dict) -> dict:
    """Each value by its repr, so that a NaN equals a NaN."""
    return {name: repr(value) for name, value in namespace.items()}


ALL_FLAGS = sorted({flag for _, options in cli.COMMANDS.values() for flag in options})
ODD_TOKENS = ["-h", "--help", "--form", "--sides=3,4,5", "--", "stray", "--bogus", ""]
# Values that each option type reads, and values that some or all reject.
TYPE_VALUES = {
    str: ["3,4,5", "0,0,4,0,0,3", "1,1", "x", ""],
    int: ["7", "0", "4 "],
    float: ["1e-3", "nan", "2"],
}
VALUES = [
    "3,4,5", "7", "4 ", "1e-3", "nan", "-5", "-1e-9", "-", "", "x",
    "json", "xml", "exact", "Exact", "generic", "compute",
]
# The golden successes that are not plain: "=", an abbreviation, a repeated
# flag and a negative number.
NOT_PLAIN_CASES = {
    "345_exact_feuerbach_json_spelled",
    "345_exact_compute_json_repeated",
    "fuzz_generic_exact_json_negative_seed",
}


@st.composite
def argvs(draw):
    """A command and some of its flags, mostly each with a value it reads;
    now and then a stray token, a missing or rejected value, or a repeat."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", "-h", ""]))
    options = cli.COMMANDS[command][1] if command in cli.COMMANDS else cli.COMMANDS["fuzz"][1]
    flags = draw(st.permutations(list(options)))
    argv = [command]
    for flag in flags[: draw(st.integers(0, len(flags)))]:
        _, kind, choices, _, _ = options[flag]
        shape = draw(st.integers(0, 19))
        argv.append(draw(st.sampled_from(ALL_FLAGS + ODD_TOKENS)) if shape == 0 else flag)
        if shape == 1:
            continue
        good = list(choices) if choices else TYPE_VALUES[kind]
        if shape == 2:
            argv += [draw(st.sampled_from(good)), flag]
        argv.append(draw(st.sampled_from(VALUES if shape in (3, 4) else good)))
    return argv


class TestPlainRequest:
    """``main`` reads a plain request from ``cli.COMMANDS``; any other argv
    goes to argparse."""

    @settings(max_examples=400, deadline=None)
    @given(argvs())
    @example(["feuerbach", "--sides", "3,4,5", "--rel-eps", "nan", "--abs-eps", "4 "])
    @example(["fuzz", "--count", "4 ", "--seed", "0", "--profile", "near-degenerate"])
    @example(["compute", "--vertices", "", "--format", "json", "--out", "x"])
    @example(["svg", "--sides", "compute", "--backend", "float"])
    @example(["fuzz"])
    def test_declines_or_matches_argparse(self, argv):
        plain = cli._plain_request(argv)
        if plain is not None:
            expected = argparse_namespace(argv)
            assert expected is not None, argv
            assert reprs(vars(plain)) == reprs(expected), argv

    def test_reads_every_workload_request(self):
        workloads = _load_workloads()
        for workload in workloads.WORKLOADS.values():
            stream = workload.requests(0)
            for _ in range(200):
                argv = next(stream).argv
                assert reprs(vars(cli._plain_request(argv))) == reprs(argparse_namespace(argv)), argv

    def test_reads_the_plain_goldens_and_declines_the_rest(self):
        declined = {name for name, argv in CASES.items() if cli._plain_request(argv) is None}
        assert declined == NOT_PLAIN_CASES
        for argv in [*ERROR_CASES.values(), *HELP_CASES.values()]:
            assert cli._plain_request(argv) is None, argv
