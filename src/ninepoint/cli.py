"""Command line interface.

Subcommands:

* ``compute``   metrics plus barycentric and (when embeddable) Cartesian centers
* ``feuerbach`` tangency report for the incircle and the three excircles
* ``fuzz``      run the identity suite over a randomized profile
* ``svg``       schematic drawing of the triangle and its circles

Each command's options are declared once, in ``COMMANDS``.  ``main`` reads
a plain request (the command, then each option once as ``--flag value``)
straight from that table.  Any other argv, help and every usage error
included, goes to the argparse parser that ``build_parser`` builds from the
same table, so argparse writes all help and error text, and a plain
request does not import ``argparse``.

Exit codes: 0 success, 2 invalid input, 3 residual failure (float-backend
numeric breakdown), 4 I/O failure.  JSON output keeps a stable key order
and serializes rationals as "p/q" strings.  The CLI writes the layout of
``json.dumps(doc, indent=2)`` itself, byte for byte, without importing
``json``, so byte-identical round trips are
``json.dumps(json.loads(text), indent=2) + "\\n" == text``.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from .numeric import DEFAULT_TOLERANCE, Scalar, ToleranceProfile, is_exact
from .record import Record
from .triangle import (
    Barycentric,
    InvalidTriangleError,
    Point2,
    SideLengths,
    TriangleMetrics,
    _float_vertices,
    canonical_vertices,
    exact_vertices,
    metrics,
    sides_from_vertices,
)
from .centers import center_set
from .feuerbach import FeuerbachReport, feuerbach_report
from .harness import PROFILE_KINDS, FuzzProfile, _float_sides, _integer_sides, check_identity_suite
from .svg import render_svg

if TYPE_CHECKING:
    import argparse

__all__ = ["RunConfig", "main", "cmd_compute", "cmd_feuerbach", "cmd_fuzz", "cmd_svg"]

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_RESIDUAL_FAILURE = 3
EXIT_IO_FAILURE = 4


class RunConfig(Record):
    """Resolved invocation: triangle, backend, tolerances, output target."""

    __slots__ = _fields = (
        "backend", "fmt", "tol", "out_path", "sides", "vertices", "vertices_given"
    )
    backend: str  # "exact" | "float"
    fmt: str  # "json" | "text"
    tol: ToleranceProfile
    out_path: Optional[str]
    sides: SideLengths
    vertices: Optional[Tuple[Point2, Point2, Point2]]  # None: no embedding on the backend
    vertices_given: bool


def _parse_scalar(text: str, backend: str) -> Scalar:
    """One input number.  A zero denominator, or a run of digits longer than
    the interpreter's int-to-str limit, is reported in input terms."""
    try:
        value = Fraction(text.strip())  # accepts "3", "3/1", "1.5"
    except ZeroDivisionError:
        raise ValueError(f"{text.strip()} has a zero denominator") from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and any(len(run) > limit for run in re.findall(r"\d+", text.replace("_", ""))):
            raise ValueError(
                f"a number in the input has more than {limit} digits; use smaller numbers"
            ) from None
        raise
    if backend == "exact":
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{text.strip()} is beyond the float range; use --backend exact") from None


def _name_underflow(raw: Sequence[str], values: Sequence[Scalar]) -> None:
    """Called when the float triangle built from ``values`` is invalid: a
    nonzero input number that rounded to 0.0 is named as the cause instead
    of the side or point it emptied."""
    for text, value in zip(raw, values):
        if value == 0 and not is_exact(value) and Fraction(text.strip()) != 0:
            raise ValueError(f"{text.strip()} is below the float range; use --backend exact")


def _resolve_input(args: SimpleNamespace) -> RunConfig:
    backend = args.backend
    if args.vertices is not None:
        if backend is None:
            backend = "float"
        raw = [part for part in args.vertices.split(",")]
        if len(raw) != 6:
            raise ValueError(
                f"--vertices needs 6 comma-separated values ax,ay,bx,by,cx,cy, got {len(raw)}"
            )
        coords = [_parse_scalar(part, backend) for part in raw]
        try:
            vertices = (
                Point2(coords[0], coords[1]),
                Point2(coords[2], coords[3]),
                Point2(coords[4], coords[5]),
            )
            sides = sides_from_vertices(*vertices)
        except InvalidTriangleError:
            _name_underflow(raw, coords)
            raise
        vertices_given = True
    else:
        if backend is None:
            backend = "exact"
        raw = args.sides.split(",")
        if len(raw) != 3:
            raise ValueError(f"--sides needs 3 comma-separated values a,b,c, got {len(raw)}")
        values = [_parse_scalar(part, backend) for part in raw]
        try:
            sides = SideLengths(*values)
        except InvalidTriangleError:
            _name_underflow(raw, values)
            raise
        vertices = canonical_vertices(sides) if backend == "float" else exact_vertices(sides)
        vertices_given = False
    # Of the triangle commands, only feuerbach takes a tolerance.
    if args.command == "feuerbach":
        tol = ToleranceProfile(rel_eps=args.rel_eps, abs_eps=args.abs_eps)
    else:
        tol = DEFAULT_TOLERANCE
    return RunConfig(
        backend=backend,
        fmt=getattr(args, "format", "text"),
        tol=tol,
        out_path=args.out,
        sides=sides,
        vertices=vertices,
        vertices_given=vertices_given,
    )


# --- serialization ---------------------------------------------------------


def _rational_text(value: Scalar) -> str:
    """"p/q" for an exact value.  The interpreter refuses to print integers
    longer than its int-to-str digit limit (it guards against quadratic
    conversion time); that refusal is reported as invalid input."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise ValueError(
            "the exact answer is too long to print (an integer in it has more than "
            f"{sys.get_int_max_str_digits()} digits); use --backend float or smaller numbers"
        ) from None


def _scalar_json(value: Scalar) -> Union[str, float]:
    """"p/q" for an exact value, the float otherwise.  Text output formats
    the same value: ``str`` of a float is its ``repr``."""
    if is_exact(value):
        return _rational_text(value)
    return float(value)


def _bary_json(bary: Barycentric) -> List[Union[str, float]]:
    return [_scalar_json(v) for v in bary.components]


def _point_json(point: Point2) -> List[Union[str, float]]:
    return [_scalar_json(point.x), _scalar_json(point.y)]


def _metrics_dict(met: TriangleMetrics) -> dict:
    return {name: _scalar_json(getattr(met, name)) for name in TriangleMetrics._fields}


def _centers_dict(config: RunConfig) -> dict:
    centers = center_set(config.sides, config.vertices)
    barycentric = {name: _bary_json(bary) for name, bary in centers.barycentric.items()}
    cartesian = {name: _point_json(point) for name, point in centers.points.items()}
    return {"barycentric": barycentric, "cartesian": cartesian if config.vertices else None}


def _input_dict(config: RunConfig) -> dict:
    doc: dict = {"backend": config.backend}
    if config.vertices_given:
        doc["vertices"] = [_point_json(p) for p in config.vertices]
    else:
        doc["sides"] = [_scalar_json(v) for v in config.sides.as_tuple()]
    return doc


def _sides_line(config: RunConfig, doc: dict) -> str:
    """The text output's sides, in the document's text when it holds them."""
    a, b, c = doc["input"].get("sides") or [_scalar_json(v) for v in config.sides.as_tuple()]
    return f"sides: a={a} b={b} c={c}"


def _feuerbach_list(report: FeuerbachReport) -> list:
    """One dict per circle; the text output reads its values too.  A tangent
    circle's rhs is its lhs object, and its text is made once."""
    entries = []
    for entry in report.entries:
        tangency = entry.report
        lhs = _scalar_json(tangency.lhs)
        entries.append(
            {
                "circle": entry.circle,
                "kind": tangency.kind.value,
                "lhs": lhs,
                "rhs": lhs if tangency.rhs is tangency.lhs else _scalar_json(tangency.rhs),
                "residual": _scalar_json(tangency.residual),
            }
        )
    return entries


def _emit(text: str, out_path: Optional[str]) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE
    return EXIT_OK


_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The ASCII characters that json escapes: quote, backslash, DEL and the controls.
_JSON_UNSAFE = ('"', "\\", "\x7f", *map(chr, range(32)))


def _json_text(value: object, newline: str, strings: List[str]) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` lays it out, nested after
    ``newline``: dicts with str keys, lists, str, float, int, bool and None.
    Each str is quoted as it is and appended to ``strings`` for the caller
    to check."""
    if isinstance(value, str):
        strings.append(value)
        return f'"{value}"'
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        strings.extend(value)
        items = [f'"{key}": {_json_text(item, inner, strings)}' for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_json_text(item, inner, strings) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_FLOATS.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dump_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte.  The layout is
    written here, because with an indent the standard library runs its
    pure-Python encoder.  A document whose strings are not all printable
    ASCII without ``"`` or ``\\`` (the CLI makes none) is left to ``json``,
    so escaping can never differ."""
    strings: List[str] = []
    text = _json_text(doc, "\n", strings)
    joined = "".join(strings)
    if joined.isascii() and not any(char in joined for char in _JSON_UNSAFE):
        return text + "\n"
    import json

    return json.dumps(doc, indent=2) + "\n"


# --- subcommands -----------------------------------------------------------


def cmd_compute(config: RunConfig) -> int:
    doc = {
        "input": _input_dict(config),
        "metrics": _metrics_dict(metrics(config.sides)),
        "centers": _centers_dict(config),
    }
    if config.fmt == "json":
        return _emit(_dump_json(doc), config.out_path)
    lines = [f"backend: {config.backend}"]
    if config.vertices_given:
        pts = ", ".join(f"{n}=({x}, {y})" for n, (x, y) in zip("ABC", doc["input"]["vertices"]))
        lines.append(f"vertices: {pts}")
    lines.append(_sides_line(config, doc))
    lines.append("metrics:")
    for name, value in doc["metrics"].items():
        lines.append(f"  {name:5s} = {value}")
    lines.append("centers (barycentric):")
    for name, triple in doc["centers"]["barycentric"].items():
        lines.append(f"  {name:2s} = ({triple[0]}, {triple[1]}, {triple[2]})")
    if doc["centers"]["cartesian"] is None:
        lines.append("centers (cartesian): not exactly embeddable; use --backend float")
    else:
        lines.append("centers (cartesian):")
        for name, pair in doc["centers"]["cartesian"].items():
            lines.append(f"  {name:2s} = ({pair[0]}, {pair[1]})")
    return _emit("\n".join(lines) + "\n", config.out_path)


def cmd_feuerbach(config: RunConfig) -> int:
    report = feuerbach_report(config.sides, config.tol)
    doc = {
        "input": _input_dict(config),
        "metrics": _metrics_dict(report.metrics),
        "centers": _centers_dict(config),
        "equilateral": report.equilateral,
        "feuerbach": _feuerbach_list(report),
    }
    if config.fmt == "json":
        code = _emit(_dump_json(doc), config.out_path)
    else:
        lines = [f"backend: {config.backend}", _sides_line(config, doc)]
        met = doc["metrics"]
        lines.append(f"R_sq = {met['R_sq']}  r_sq = {met['r_sq']}")
        lines.append(f"nine-point radius squared (R_sq/4): {_scalar_json(report.metrics.R_sq / 4)}")
        if report.equilateral:
            lines.append("equilateral: incircle and nine-point circle coincide")
        for entry in doc["feuerbach"]:
            circle, kind = entry["circle"], entry["kind"]
            if circle == "incircle" and report.equilateral:
                kind = f"{kind} (equilateral)"
            lines.append(
                f"{circle:8s} {kind:18s} d_sq = {entry['lhs']}  "
                f"rhs = {entry['rhs']}  residual = {entry['residual']}"
            )
        verdict = "all tangencies verified" if report.ok else "TANGENCY CHECK FAILED"
        if config.backend == "float" and report.ok:
            verdict += f" (max normalized residual {report.max_normalized_residual:.3e})"
        lines.append(verdict)
        code = _emit("\n".join(lines) + "\n", config.out_path)
    if code != EXIT_OK:
        return code
    return EXIT_OK if report.ok else EXIT_RESIDUAL_FAILURE


def cmd_fuzz(args: SimpleNamespace) -> int:
    backend = args.backend or "exact"
    tol = ToleranceProfile(rel_eps=args.rel_eps, abs_eps=args.abs_eps)
    profile = FuzzProfile(
        kind=args.profile,
        count=args.count,
        seed=args.seed,
        magnitude_bound=args.bound,
    )
    passes = 0
    failures: List[str] = []
    max_residual = 0.0
    all_exact = True
    for index in range(profile.count):
        t = _integer_sides(profile, index)
        if backend == "float":
            try:
                # The float suite takes the generated sides and their
                # embedding as floats.
                suite = check_identity_suite(*_float_sides(t), tol)
            except OverflowError:
                raise ValueError(
                    f"--bound {profile.magnitude_bound} gives triangles beyond the float range; "
                    "use a smaller --bound"
                ) from None
        else:
            # The exact suite takes the generator's integer form as it is.
            suite = check_identity_suite(t, None, tol)
        all_exact = all_exact and suite.exact
        max_residual = max(max_residual, suite.max_residual)
        if suite.passed:
            passes += 1
        elif len(failures) < 10:
            worst = max(suite.failures(), key=lambda check: check.residual)
            failures.append(f"index {index}: {worst.name} residual {worst.residual:.3e}")
    doc = {
        "profile": profile.kind,
        "count": profile.count,
        "seed": profile.seed,
        "bound": profile.magnitude_bound,
        "backend": backend,
        "passes": passes,
        "failures": profile.count - passes,
        "all_exact": all_exact,
        "max_normalized_residual": max_residual,
    }
    if getattr(args, "format", "text") == "json":
        code = _emit(_dump_json(doc), args.out)
    else:
        lines = [
            f"profile={profile.kind} count={profile.count} seed={profile.seed} "
            f"bound={profile.magnitude_bound} backend={backend}"
        ]
        if all_exact and passes == profile.count:
            lines.append(f"{passes}/{profile.count} exact-zero")
        else:
            lines.append(f"{passes}/{profile.count} within tolerance")
        lines.append(f"max normalized residual: {max_residual!r}")
        lines.extend(failures)
        code = _emit("\n".join(lines) + "\n", args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if passes == profile.count else EXIT_RESIDUAL_FAILURE


def cmd_svg(config: RunConfig) -> int:
    try:
        # Exact sides without an exact embedding are drawn on the float one;
        # the exact one was sought, once, when the input was read.
        vertices = config.vertices or _float_vertices(config.sides)
        text = render_svg(config.sides, vertices)
    except OverflowError:
        raise ValueError("the triangle is beyond the float range that svg draws in") from None
    return _emit(text, config.out_path)


# --- argument parsing ------------------------------------------------------

_BACKENDS = ("exact", "float")
_TRIANGLE = {
    "--sides": ("sides", str, None, None, "comma-separated side lengths a,b,c (each like 3, 3/1 or 1.5)"),
    "--vertices": ("vertices", str, None, None, "comma-separated coordinates ax,ay,bx,by,cx,cy"),
    "--backend": (
        "backend", str, _BACKENDS, None, "scalar backend (default: exact for --sides, float for --vertices)"
    ),
}
_FORMAT = {"--format": ("format", str, ("json", "text"), "text", None)}
_OUT = {"--out": ("out", str, None, None, "write output to this path instead of stdout")}
# The float comparison tolerance, for the commands that read it.
_TOLERANCE = {
    "--rel-eps": ("rel_eps", float, None, DEFAULT_TOLERANCE.rel_eps, None),
    "--abs-eps": ("abs_eps", float, None, DEFAULT_TOLERANCE.abs_eps, None),
}

# Each command's help line and its options in usage-line order:
# flag -> (dest, type, choices, default, help).  A command with --sides
# takes exactly one of --sides and --vertices.
COMMANDS = {
    "compute": ("metrics and centers of one triangle", {**_TRIANGLE, **_FORMAT, **_OUT}),
    "feuerbach": ("nine-point tangency report", {**_TRIANGLE, **_FORMAT, **_OUT, **_TOLERANCE}),
    "fuzz": (
        "identity suite over a randomized profile",
        {
            "--profile": ("profile", str, PROFILE_KINDS, "generic", None),
            "--count": ("count", int, None, 100, None),
            "--seed": ("seed", int, None, 0, None),
            "--bound": ("bound", int, None, 10, "magnitude bound for generated values"),
            "--backend": ("backend", str, _BACKENDS, "exact", None),
            **_FORMAT,
            **_OUT,
            **_TOLERANCE,
        },
    ),
    "svg": ("schematic SVG drawing", {**_TRIANGLE, **_OUT}),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``COMMANDS``, which answers every request that
    ``_plain_request`` declines: help, errors and the other spellings."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ninepoint",
        description="Triangle geometry kernel with an exact nine-point tangency verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMANDS.items():
        subparser = sub.add_parser(command, help=summary)
        group = subparser.add_mutually_exclusive_group(required=True) if "--sides" in options else None
        for flag, (dest, kind, choices, default, text) in options.items():
            target = group if flag in ("--sides", "--vertices") else subparser
            target.add_argument(flag, dest=dest, type=kind, choices=choices, default=default, help=text)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that ``main`` hands each argv it does not read itself,
    built on the first call and then shared: ``parse_args`` does not change
    it and returns a fresh namespace."""
    return build_parser()


def _plain_request(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace that argparse gives ``argv``, read from ``COMMANDS``, when
    ``argv`` is plain: a command, then each option once as ``--flag value``,
    with a value that does not start with "-", converts with the flag's type
    and is among its choices, and, for a triangle command, exactly one of
    --sides and --vertices.  None for any other argv."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    options = COMMANDS[argv[0]][1]
    flags = argv[1::2]
    if len(set(flags)) < len(flags):
        return None
    args = SimpleNamespace(command=argv[0], **{spec[0]: spec[3] for spec in options.values()})
    for flag, text in zip(flags, argv[2::2]):
        spec = options.get(flag)
        if spec is None or text.startswith("-"):
            return None
        dest, kind, choices = spec[:3]
        try:
            value = kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        setattr(args, dest, value)
    if "--sides" in options and (args.sides is None) == (args.vertices is None):
        return None
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_request(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(_parser().parse_args(argv)))
        except SystemExit as exc:
            return EXIT_INVALID_INPUT if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "fuzz":
            return cmd_fuzz(args)
        config = _resolve_input(args)
        if args.command == "compute":
            return cmd_compute(config)
        if args.command == "feuerbach":
            return cmd_feuerbach(config)
        if args.command == "svg":
            return cmd_svg(config)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (InvalidTriangleError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
