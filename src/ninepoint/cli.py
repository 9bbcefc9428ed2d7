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
and serializes rationals as "p/q" strings.

An answer is written in one pass over its values, in document order.  The
backend's token function turns each value into its JSON token once:
``_exact_token`` gives "p/q" from a ``Fraction`` or from an integer ratio
of the kernel, reduced by one gcd, ``_square_token`` an exact tangent
lhs from its square ratio, reduced by gcds on the root's digits, with
each distinct denominator's digits written once per answer, and
``_float_token`` a float's repr.  The exact tokens write an integer of
more than 4,000 bits by halving it at a power of ten (``_digits``),
which beats CPython's quadratic ``str`` from there, and shorter ones with
``str``; both refuse the same integers.  ``_layout`` then writes the layout of
``json.dumps(doc, indent=2)`` around the tokens, byte for byte, without importing ``json``, so byte-identical
round trips are ``json.dumps(json.loads(text), indent=2) + "\\n" == text``.
The text format prints the same tokens.  The values come from the library:
the metrics from the kernel's (``SideLengths._metric_terms``), the
barycentric rows from ``centers._components`` (which ``center_set`` wraps
in ``Barycentric``), the Cartesian rows from the points of
``centers._cartesian_frame`` and the tangency rows from
``feuerbach_report``; no ``TriangleMetrics``, ``Barycentric``,
``CenterSet`` or ``Point2`` is built only to be printed, and an answer on
exact sides builds and reads no ``Fraction`` once the input is read.

Each request's triangle is lifted once, as it is read, onto the frame
that every command reads (``RunConfig.frame``): given vertices onto their
plane (``centers._lift``), exact sides onto the integer triples of their
canonical frame when it is Cartesian and to None when it is not, and float
sides onto their float embedding.  ``svg`` draws exact sides without a
Cartesian frame on the float embedding.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple, Union

from .numeric import DEFAULT_TOLERANCE, Scalar, ToleranceProfile, is_exact
from .record import Record
from . import homogeneous
from .triangle import (
    CIRCLE_CENTERS,
    FloatPlane,
    InvalidTriangleError,
    Point2,
    Ratio,
    SideLengths,
    Tangency,
    TriangleMetrics,
    _float_embedding,
    _SquareRatio,
    sides_from_vertices,
)
from .centers import _cartesian_frame, _components, _lift
from .feuerbach import feuerbach_report
from .harness import PROFILE_KINDS, FuzzProfile, _float_sides, _integer_sides, check_identity_suite
from .svg import _drawing

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
        "backend", "fmt", "tol", "out_path", "sides", "frame", "vertices_given"
    )
    backend: str  # "exact" | "float"
    fmt: str  # "json" | "text"
    tol: ToleranceProfile
    out_path: Optional[str]
    sides: SideLengths
    # The triangle lifted once: its plane and the three vertices on it, or
    # None for exact sides without a Cartesian frame (irrational altitude).
    frame: Optional[Tuple[Any, Tuple[Any, Any, Any]]]
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
    vertices_given = args.vertices is not None
    if vertices_given:
        flag, count, form, default = "--vertices", 6, "ax,ay,bx,by,cx,cy", "float"
    else:
        flag, count, form, default = "--sides", 3, "a,b,c", "exact"
    backend = default if args.backend is None else args.backend
    raw = (args.vertices if vertices_given else args.sides).split(",")
    if len(raw) != count:
        raise ValueError(f"{flag} needs {count} comma-separated values {form}, got {len(raw)}")
    values = [_parse_scalar(part, backend) for part in raw]
    try:
        if vertices_given:
            vertices = (Point2(*values[0:2]), Point2(*values[2:4]), Point2(*values[4:6]))
            sides = sides_from_vertices(*vertices)
        else:
            sides = SideLengths(*values)
    except InvalidTriangleError:
        _name_underflow(raw, values)
        raise
    if vertices_given:
        frame = _lift(sides, vertices)
    elif sides.is_exact:
        m, triples = sides._canonical
        frame = (homogeneous.Plane(1), triples) if m == 1 else None
    else:
        frame = _float_frame(sides)
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
        frame=frame,
        vertices_given=vertices_given,
    )


def _float_frame(sides: SideLengths) -> Tuple[Any, Tuple[Any, Any, Any]]:
    """The canonical embedding of the sides as float pairs, on
    ``FloatPlane``."""
    return FloatPlane, _float_embedding(*map(float, sides.as_tuple()))


# --- serialization ---------------------------------------------------------


def _exact_token(value: Union[Fraction, Ratio]) -> str:
    """The token ``"p/q"`` of an exact value: a ``Fraction``, or an integer
    ratio (num, den) of the kernel, which one gcd reduces as ``Fraction``
    would.  The interpreter refuses to print integers longer than its
    int-to-str digit limit (it guards against quadratic conversion time);
    that refusal is reported as invalid input."""
    try:
        if type(value) is tuple:
            num, den = value
            g = math.gcd(num, den)
            if den < 0:
                g = -g
            num, den = num // g, den // g
        else:
            num, den = value.as_integer_ratio()
        if num.bit_length() > _HALVING_BITS or den.bit_length() > _HALVING_BITS:
            return f'"{_digits(num)}/{_digits(den)}"'
        return f'"{num}/{den}"'
    except ValueError:
        raise _too_long() from None


def _square_token(value: _SquareRatio, digits: Dict[int, str]) -> str:
    """The token of an exact tangent lhs, root^2 / den, reduced by
    ``_SquareRatio.reduced``.  ``digits`` maps each denominator written so
    far in the answer to its digits: the four lhs of a report often share
    one, and its digits are written once."""
    try:
        num, den = value.reduced()
        text = digits.get(den)
        if text is None:
            text = digits[den] = str(den) if den.bit_length() <= _HALVING_BITS else _digits(den)
        if num.bit_length() <= _HALVING_BITS:
            return f'"{num}/{text}"'
        return f'"{_digits(num)}/{text}"'
    except ValueError:
        raise _too_long() from None


# CPython's int-to-str takes time quadratic in the digits.  An integer of
# more than this many bits (about 1,200 digits) is split at a power of ten
# near half its digits, and each half converted the same way: from there
# the split is faster than ``str`` (Brent and Zimmermann, Modern Computer
# Arithmetic, 1.7).  The powers are kept: 10^k for k a multiple of 256,
# and 10^limit, the least integer over the int-to-str limit.
_HALVING_BITS = 4000
_TEN_TO: Dict[int, int] = {}
_LOG10_2 = math.log10(2)


def _digits(n: int) -> str:
    """``str(n)``, raising the ``ValueError`` that ``str`` raises, on the
    same integers: those with more digits than the interpreter's int-to-str
    limit, checked before any split."""
    if n.bit_length() <= _HALVING_BITS:
        return str(n)
    limit = sys.get_int_max_str_digits()
    if limit and abs(n) >= (_TEN_TO.get(limit) or _TEN_TO.setdefault(limit, 10**limit)):
        raise ValueError(f"Exceeds the limit ({limit} digits) for integer string conversion")
    return "-" + _halves(-n) if n < 0 else _halves(n)


def _halves(n: int) -> str:
    """The digits of n >= 0, splitting it at 10^k while it is long."""
    if n.bit_length() <= _HALVING_BITS:
        return str(n)
    k = 256 * round(n.bit_length() * _LOG10_2 / 512)
    high, low = divmod(n, _TEN_TO.get(k) or _TEN_TO.setdefault(k, 10**k))
    return _halves(high) + _halves(low).zfill(k)


def _too_long() -> ValueError:
    return ValueError(
        "the exact answer is too long to print (an integer in it has more than "
        f"{sys.get_int_max_str_digits()} digits); use --backend float or smaller numbers"
    )


_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_TEXT_FLOATS = {token: text for text, token in _JSON_FLOATS.items()}


def _float_token(value: float) -> str:
    """The token of a float: its ``repr``, with NaN and the infinities
    spelled as ``json`` spells them."""
    text = float.__repr__(value)
    return _JSON_FLOATS.get(text, text)


def _text(token: str) -> str:
    """A token as the text format prints it: a string unquoted, a float as
    ``str`` writes it."""
    return _TEXT_FLOATS.get(token) or token.strip('"')


def _layout(doc: Union[dict, list], newline: str = "\n") -> str:
    """``json.dumps(doc, indent=2)``'s layout of a document of dicts, with
    keys that need no escaping, and lists, whose other values are their
    JSON tokens, nested after ``newline``."""
    inner = newline + "  "
    sep = "," + inner
    if type(doc) is dict:
        if not doc:
            return "{}"
        items = [
            f'"{key}": {item if type(item) is str else _layout(item, inner)}'
            for key, item in doc.items()
        ]
        return "{" + inner + sep.join(items) + newline + "}"
    if not doc:
        return "[]"
    items = [item if type(item) is str else _layout(item, inner) for item in doc]
    return "[" + inner + sep.join(items) + newline + "]"


def _token_function(config: RunConfig) -> Callable[[Any], str]:
    return _exact_token if config.backend == "exact" else _float_token


def _answer(config: RunConfig) -> dict:
    """The input, metrics and centers of a ``compute`` or ``feuerbach``
    answer, converted in document order.  Exact sides and metrics are
    printed from the kernel's ratios, and no ``Fraction`` is read.  The
    barycentric rows are the kernel's components after their sum check.
    The given vertices and the Cartesian rows are the coordinates of the
    request's frame and of ``centers._cartesian_frame``'s points on it,
    whose float pairs passed the finiteness check of ``Point2``."""
    token = _token_function(config)
    sides = config.sides
    t = sides._kernel
    given: Dict[str, Any] = {"backend": f'"{config.backend}"'}
    if config.vertices_given:
        plane, vertices = config.frame
        given["vertices"] = [[token(v) for v in plane.coords(p)] for p in vertices]
    else:
        values = ((t.a, t.L), (t.b, t.L), (t.c, t.L)) if sides.is_exact else sides.as_tuple()
        given["sides"] = [token(v) for v in values]
    metric_tokens = map(token, sides._metric_terms)
    doc = {"input": given, "metrics": dict(zip(TriangleMetrics._fields, metric_tokens))}
    # The centroid's weights are the exact 1/3 on either backend.
    bary = {"G": [_exact_token((1, 3)) for _ in range(3)]}
    for label in CIRCLE_CENTERS:
        bary[label] = [token(v) for v in _components(sides, label)]
    cartesian: Any = "null"
    if config.frame is not None:
        plane = config.frame[0]
        centers = _cartesian_frame(sides, config.frame)
        cartesian = {label: [token(v) for v in plane.coords(p)] for label, p in centers.items()}
    doc["centers"] = {"barycentric": bary, "cartesian": cartesian}
    return doc


def _sides_line(config: RunConfig, doc: dict) -> str:
    """The text output's sides, in the document's tokens when it holds them."""
    sides = doc["input"].get("sides") or map(_token_function(config), config.sides.as_tuple())
    a, b, c = map(_text, sides)
    return f"sides: a={a} b={b} c={c}"


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


# --- subcommands -----------------------------------------------------------


def cmd_compute(config: RunConfig) -> int:
    doc = _answer(config)
    if config.fmt == "json":
        return _emit(_layout(doc) + "\n", config.out_path)
    lines = [f"backend: {config.backend}"]
    if config.vertices_given:
        pts = ", ".join(
            f"{n}=({_text(x)}, {_text(y)})" for n, (x, y) in zip("ABC", doc["input"]["vertices"])
        )
        lines.append(f"vertices: {pts}")
    lines.append(_sides_line(config, doc))
    lines.append("metrics:")
    for name, value in doc["metrics"].items():
        lines.append(f"  {name:5s} = {_text(value)}")
    lines.append("centers (barycentric):")
    for name, triple in doc["centers"]["barycentric"].items():
        lines.append(f"  {name:2s} = ({', '.join(map(_text, triple))})")
    if config.frame is None:
        lines.append("centers (cartesian): not exactly embeddable; use --backend float")
    else:
        lines.append("centers (cartesian):")
        for name, pair in doc["centers"]["cartesian"].items():
            lines.append(f"  {name:2s} = ({_text(pair[0])}, {_text(pair[1])})")
    return _emit("\n".join(lines) + "\n", config.out_path)


def cmd_feuerbach(config: RunConfig) -> int:
    report = feuerbach_report(config.sides, config.tol)
    token = _token_function(config)
    exact = config.backend == "exact"
    doc = _answer(config)
    doc["equilateral"] = "true" if report.equilateral else "false"
    doc["feuerbach"] = entries = []
    digits: Dict[int, str] = {}
    for entry in report.entries:
        tangency = entry.report
        if exact and tangency.kind is not Tangency.NOT_TANGENT:
            # An exact tangency is an equality: rhs is lhs and the residual
            # 0.  The lhs is the kernel's square ratio, unread.
            lhs = rhs = _square_token(tangency._lhs, digits)
            residual = _exact_token((0, 1))
        else:
            lhs, rhs = token(tangency.lhs), token(tangency.rhs)
            residual = token(tangency.residual)
        entries.append(
            {
                "circle": f'"{entry.circle}"',
                "kind": f'"{tangency.kind.value}"',
                "lhs": lhs,
                "rhs": rhs,
                "residual": residual,
            }
        )
    if config.fmt == "json":
        code = _emit(_layout(doc) + "\n", config.out_path)
    else:
        lines = [f"backend: {config.backend}", _sides_line(config, doc)]
        met = doc["metrics"]
        lines.append(f"R_sq = {_text(met['R_sq'])}  r_sq = {_text(met['r_sq'])}")
        R_sq = config.sides._metric_terms[2]
        radius_sq = _text(token((R_sq[0], 4 * R_sq[1]) if exact else R_sq / 4))
        lines.append(f"nine-point radius squared (R_sq/4): {radius_sq}")
        if report.equilateral:
            lines.append("equilateral: incircle and nine-point circle coincide")
        for entry, row in zip(report.entries, entries):
            circle, kind = entry.circle, entry.report.kind.value
            if circle == "incircle" and report.equilateral:
                kind = f"{kind} (equilateral)"
            lines.append(
                f"{circle:8s} {kind:18s} d_sq = {_text(row['lhs'])}  "
                f"rhs = {_text(row['rhs'])}  residual = {_text(row['residual'])}"
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
        max_residual = max(max_residual, suite.max_residual)
        if suite.passed:
            passes += 1
        elif len(failures) < 10:
            worst = max(suite.failures(), key=lambda check: check.residual)
            failures.append(f"index {index}: {worst.name} residual {worst.residual:.3e}")
    if getattr(args, "format", "text") == "json":
        doc = {
            "profile": f'"{profile.kind}"',
            "count": str(profile.count),
            "seed": str(profile.seed),
            "bound": str(profile.magnitude_bound),
            "backend": f'"{backend}"',
            "passes": str(passes),
            "failures": str(profile.count - passes),
            "all_exact": "true" if backend == "exact" else "false",
            "max_normalized_residual": _float_token(max_residual),
        }
        code = _emit(_layout(doc) + "\n", args.out)
    else:
        lines = [
            f"profile={profile.kind} count={profile.count} seed={profile.seed} "
            f"bound={profile.magnitude_bound} backend={backend}"
        ]
        if backend == "exact" and passes == profile.count:
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
        # Exact sides without a Cartesian frame are drawn on the float
        # embedding; the frame was sought, once, when the input was read.
        text = _drawing(config.sides, config.frame or _float_frame(config.sides))
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
    ``_plain_request`` declines: help, errors and the other spellings.  Its
    ``error``, which its subparsers share, quotes each choice of an
    "invalid choice" list, so that every Python release prints the same
    text."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            # From Python 3.12.8 and 3.13.1 on, argparse lists the choices
            # of an "invalid choice" error unquoted.
            pattern = r"(?s)(argument [^:]*: invalid choice: .*\(choose from )([^']*)\)"
            unquoted = re.fullmatch(pattern, message)
            if unquoted:
                head, listed = unquoted.groups()
                message = f"{head}{', '.join(map(repr, listed.split(', ')))})"
            super().error(message)

    parser = Parser(
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
