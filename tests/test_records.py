"""The package's value classes behave as frozen records.

Each class is built positionally and by keyword, and the tests pin what
callers rely on: the ``repr`` text, field-wise ``==`` and ``hash``, and
``AttributeError`` on any assignment or deletion.  Classes with a
``dict`` field compare field-wise but cannot be hashed.  A call that an
ordinary function would refuse raises ``TypeError``, whether the class
writes its own constructor or uses the one ``Record`` supplies, and an
``ast`` guard keeps classes from writing a constructor that only repeats
``Record``'s.
"""

import ast
import copy
import pickle
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import pytest

from ninepoint.centers import CenterSet
from ninepoint.cli import RunConfig
from ninepoint.feuerbach import (
    FeuerbachEntry,
    FeuerbachReport,
    Tangency,
    TangencyReport,
    feuerbach_report,
)
from ninepoint.harness import FuzzProfile, IdentityCheck, OracleResult, SuiteReport
from ninepoint.numeric import ToleranceProfile
from ninepoint.record import Record
from ninepoint.svg import ViewTransform
from ninepoint.triangle import (
    Barycentric,
    Point2,
    SideLengths,
    TriangleMetrics,
    _SquareRatio,
    metrics,
)

F = Fraction
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ninepoint"


def _report(lhs: float = 1.0) -> TangencyReport:
    return TangencyReport(Tangency.INTERNAL_TANGENT, lhs, lhs, 4.0, 0.0, -3.0)


_REPORT_REPR = (
    "TangencyReport(kind=<Tangency.INTERNAL_TANGENT: 'internal_tangent'>, lhs=1.0, "
    "rhs_internal=1.0, rhs_external=4.0, residual_internal=0.0, residual_external=-3.0)"
)

_METRIC_FIELDS = ("s", "K_sq", "R_sq", "r_sq", "rA_sq", "rB_sq", "rC_sq", "Rr", "RrA", "RrB", "RrC")


def _metrics(first: int = 1) -> TriangleMetrics:
    return TriangleMetrics(first, *range(2, 12))


_METRICS_REPR = "TriangleMetrics({})".format(
    ", ".join(f"{name}={value}" for name, value in zip(_METRIC_FIELDS, range(1, 12)))
)


class Case(NamedTuple):
    """One class: its fields, how to build it positionally and by
    keyword, the ``repr`` of that value, and a value that differs in one
    field."""

    fields: Tuple[str, ...]
    args: Callable[[], Tuple[Any, ...]]
    kwargs: Callable[[], Dict[str, Any]]
    text: str
    other: Callable[[], Any]
    hashable: bool = True


CASES = {
    ToleranceProfile: Case(
        ("rel_eps", "abs_eps"),
        lambda: (1e-9, 1e-12),
        lambda: {},
        "ToleranceProfile(rel_eps=1e-09, abs_eps=1e-12)",
        lambda: ToleranceProfile(1e-9, 1e-11),
    ),
    Point2: Case(
        ("x", "y"),
        lambda: (1, F(1, 2)),
        lambda: {"y": F(1, 2), "x": 1},
        "Point2(x=Fraction(1, 1), y=Fraction(1, 2))",
        lambda: Point2(1, F(1, 3)),
    ),
    SideLengths: Case(
        ("a", "b", "c"),
        lambda: (3, 4, 5),
        lambda: {"c": 5, "b": 4, "a": 3},
        "SideLengths(a=Fraction(3, 1), b=Fraction(4, 1), c=Fraction(5, 1))",
        lambda: SideLengths(3, 4, 6),
    ),
    TriangleMetrics: Case(
        _METRIC_FIELDS,
        lambda: tuple(range(1, 12)),
        lambda: dict(zip(_METRIC_FIELDS, range(1, 12))),
        _METRICS_REPR,
        lambda: _metrics(0),
    ),
    Barycentric: Case(
        ("alpha", "beta", "gamma"),
        lambda: (F(1, 4), F(1, 4), F(1, 2)),
        lambda: {"gamma": F(1, 2), "alpha": F(1, 4), "beta": F(1, 4)},
        "Barycentric(alpha=Fraction(1, 4), beta=Fraction(1, 4), gamma=Fraction(1, 2))",
        lambda: Barycentric(F(1, 2), F(1, 4), F(1, 4)),
    ),
    CenterSet: Case(
        ("barycentric", "frame", "plane"),
        lambda: ({"G": Barycentric(F(1, 3), F(1, 3), F(1, 3))}, None, None),
        lambda: {
            "plane": None,
            "frame": None,
            "barycentric": {"G": Barycentric(F(1, 3), F(1, 3), F(1, 3))},
        },
        "CenterSet(barycentric={'G': Barycentric(alpha=Fraction(1, 3), "
        "beta=Fraction(1, 3), gamma=Fraction(1, 3))}, frame=None, plane=None)",
        lambda: CenterSet({"G": Barycentric(1, 0, 0)}, None, None),
        hashable=False,
    ),
    TangencyReport: Case(
        ("kind", "lhs", "rhs_internal", "rhs_external", "residual_internal", "residual_external"),
        lambda: (Tangency.INTERNAL_TANGENT, 1.0, 1.0, 4.0, 0.0, -3.0),
        lambda: {
            "kind": Tangency.INTERNAL_TANGENT,
            "lhs": 1.0,
            "rhs_internal": 1.0,
            "rhs_external": 4.0,
            "residual_internal": 0.0,
            "residual_external": -3.0,
        },
        _REPORT_REPR,
        lambda: _report(2.0),
    ),
    FeuerbachEntry: Case(
        ("circle", "report"),
        lambda: ("incircle", _report()),
        lambda: {"report": _report(), "circle": "incircle"},
        f"FeuerbachEntry(circle='incircle', report={_REPORT_REPR})",
        lambda: FeuerbachEntry("exA", _report()),
    ),
    FeuerbachReport: Case(
        ("sides", "metrics", "equilateral", "entries"),
        lambda: (SideLengths(3, 4, 5), _metrics(), False, (FeuerbachEntry("incircle", _report()),)),
        lambda: {
            "sides": SideLengths(3, 4, 5),
            "metrics": _metrics(),
            "equilateral": False,
            "entries": (FeuerbachEntry("incircle", _report()),),
        },
        "FeuerbachReport(sides=SideLengths(a=Fraction(3, 1), b=Fraction(4, 1), "
        f"c=Fraction(5, 1)), metrics={_METRICS_REPR}, equilateral=False, "
        f"entries=(FeuerbachEntry(circle='incircle', report={_REPORT_REPR}),))",
        lambda: FeuerbachReport(SideLengths(3, 4, 5), _metrics(), True, ()),
    ),
    FuzzProfile: Case(
        ("kind", "count", "seed", "magnitude_bound"),
        lambda: ("generic", 1, 0, 10),
        lambda: {"kind": "generic"},
        "FuzzProfile(kind='generic', count=1, seed=0, magnitude_bound=10)",
        lambda: FuzzProfile("generic", seed=1),
    ),
    OracleResult: Case(
        ("frame", "frame_radius_sq"),
        lambda: ({"A": (0.0, 1.0)}, 0.25),
        lambda: {"frame_radius_sq": 0.25, "frame": {"A": (0.0, 1.0)}},
        "OracleResult(frame={'A': (0.0, 1.0)}, frame_radius_sq=0.25)",
        lambda: OracleResult({"A": (0.0, 1.0)}, 0.5),
        hashable=False,
    ),
    SuiteReport: Case(
        ("checks", "exact"),
        lambda: ((IdentityCheck("x", True, 0.0),), True),
        lambda: {"exact": True, "checks": (IdentityCheck("x", True, 0.0),)},
        "SuiteReport(checks=(IdentityCheck(name='x', passed=True, residual=0.0, detail=''),), "
        "exact=True)",
        lambda: SuiteReport((IdentityCheck("x", True, 0.0),), False),
    ),
    ViewTransform: Case(
        ("scale", "offset_x", "offset_y"),
        lambda: (2.0, 10.0, 500.0),
        lambda: {"offset_y": 500.0, "scale": 2.0, "offset_x": 10.0},
        "ViewTransform(scale=2.0, offset_x=10.0, offset_y=500.0)",
        lambda: ViewTransform(2.0, 10.0, 501.0),
    ),
    RunConfig: Case(
        ("backend", "fmt", "tol", "out_path", "sides", "vertices", "vertices_given"),
        lambda: ("exact", "json", ToleranceProfile(), None, SideLengths(3, 4, 5), None, False),
        lambda: {
            "backend": "exact",
            "fmt": "json",
            "tol": ToleranceProfile(),
            "out_path": None,
            "sides": SideLengths(3, 4, 5),
            "vertices": None,
            "vertices_given": False,
        },
        "RunConfig(backend='exact', fmt='json', tol=ToleranceProfile(rel_eps=1e-09, "
        "abs_eps=1e-12), out_path=None, sides=SideLengths(a=Fraction(3, 1), b=Fraction(4, 1), "
        "c=Fraction(5, 1)), vertices=None, vertices_given=False)",
        lambda: RunConfig("float", "json", ToleranceProfile(), None, SideLengths(3, 4, 5), None, False),
    ),
}


# The identity suite builds its report from plain (name, passed, residual,
# detail) rows; the report reads as the one built from IdentityChecks.
SUITE_REPORT_FROM_ROWS = Case(
    CASES[SuiteReport].fields,
    lambda: ((("x", True, 0.0, ""),), True),
    lambda: {"exact": True, "checks": (("x", True, 0.0, ""),)},
    CASES[SuiteReport].text,
    lambda: SuiteReport((("x", True, 0.0, ""),), False),
)

PARAMS = [pytest.param(cls, case, id=cls.__name__) for cls, case in CASES.items()]
PARAMS.append(pytest.param(SuiteReport, SUITE_REPORT_FROM_ROWS, id="SuiteReport-rows"))


def test_every_record_class_is_covered():
    assert len(CASES) == 14


@pytest.mark.parametrize("cls, case", PARAMS)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls, case):
        positional = cls(*case.args())
        keyword = cls(**case.kwargs())
        assert positional == keyword
        assert repr(positional) == repr(keyword) == case.text

    def test_fields_read_back(self, cls, case):
        record = cls(*case.args())
        assert len(case.fields) == len(case.args())
        assert tuple(getattr(record, name) for name in case.fields) == tuple(
            getattr(cls(**case.kwargs()), name) for name in case.fields
        )

    def test_equality(self, cls, case):
        record, equal, other = cls(*case.args()), cls(*case.args()), case.other()
        assert record == equal and not record != equal
        assert record != other and not record == other
        assert record != tuple(getattr(record, n) for n in case.fields)

    def test_hash(self, cls, case):
        record, equal = cls(*case.args()), cls(*case.args())
        if not case.hashable:
            with pytest.raises(TypeError):
                hash(record)
            return
        assert hash(record) == hash(equal)
        assert len({record, equal, case.other()}) == 2

    def test_assignment_and_deletion_raise(self, cls, case):
        record = cls(*case.args())
        for name in case.fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert repr(record) == case.text


def test_derived_values_leave_the_fields_alone():
    # SideLengths and CenterSet cache derived values on first read; the
    # cache is not part of equality, hashing or the repr.
    sides, fresh = SideLengths(3, 4, 5), SideLengths(3, 4, 5)
    assert sides._metrics is sides._metrics and sides.is_exact
    assert sides == fresh and hash(sides) == hash(fresh) and repr(sides) == repr(fresh)
    centers = CenterSet({"G": Barycentric(1, 0, 0)}, {"O": (0.0, 0.0)}, None)
    assert centers == CenterSet({"G": Barycentric(1, 0, 0)}, {"O": (0.0, 0.0)}, None)


class Doubled(Record):
    """A record with one cached derived value, which counts its computations."""

    _fields = ("x",)
    computed: List[int] = []

    @cached_property
    def double(self) -> int:
        self.computed.append(self.x)
        return 2 * self.x


def test_cached_value_is_computed_once_per_instance(monkeypatch):
    monkeypatch.setattr(Doubled, "computed", [])
    one, other = Doubled(1), Doubled(1)
    assert one.double == 2 and one.double == 2 and Doubled.computed == [1]
    assert one == other and hash(one) == hash(other)
    assert repr(one) == repr(other) == "Doubled(x=1)"
    assert other.double == 2 and Doubled.computed == [1, 1]
    with pytest.raises(AttributeError):
        one.double = 3
    assert one.double == 2 and Doubled.computed == [1, 1]


def test_cached_function_is_read_from_the_class():
    assert Doubled.double.func(Doubled(4)) == 8
    sides = SideLengths(3, 4, 5)
    assert SideLengths._metrics.func(sides) == sides._metrics


def test_suite_report_from_rows_is_the_report_from_checks():
    rows = (("x", True, 0.0, ""), ("y", False, 0.5, "why"))
    checks = tuple(IdentityCheck(*row) for row in rows)
    full = SuiteReport(checks, False)

    def fresh() -> SuiteReport:
        return SuiteReport(rows, False)

    assert fresh() == full and full == fresh() and not fresh() != full
    assert hash(fresh()) == hash(full) and repr(fresh()) == repr(full)
    for rebuild in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        assert rebuild(fresh()) == full
    report = fresh()
    assert report.checks == checks and report.checks is report.checks
    assert all(type(check) is IdentityCheck for check in report.checks)


def test_suite_report_verdicts_agree_on_a_failing_check():
    rows = (("x", True, 0.25, ""), ("y", False, 2.0, "why"), ("z", True, 0.0, ""))
    checks = tuple(IdentityCheck(*row) for row in rows)
    for report in (SuiteReport(rows, False), SuiteReport(checks, False)):
        assert not report.passed
        assert report.max_residual == 2.0
        assert report.failures() == (IdentityCheck("y", False, 2.0, "why"),)
    empty = SuiteReport((), True)
    assert empty.passed and empty.max_residual == 0.0 and empty.failures() == ()


@pytest.mark.parametrize(
    "index, unread, full",
    [
        (0, "_rhs_external", TangencyReport(
            Tangency.INTERNAL_TANGENT, F(1, 16), F(1, 16), F(81, 16), F(0), F(-5))),
        (1, "_rhs_internal", TangencyReport(
            Tangency.EXTERNAL_TANGENT, F(169, 16), F(9, 16), F(169, 16), F(10), F(0))),
    ],
    ids=["incircle", "exA"],
)
def test_exact_report_with_rhs_built_on_read(index, unread, full):
    # An exact tangent report of the 3-4-5 triangle holds its lhs as the
    # kernel's square ratio and its unchosen residual as the kernel's ratio,
    # and stores both rhs only when they are read; every record operation
    # sees the value the report built with all six fields holds.
    residual = "_residual_internal" if unread == "_rhs_internal" else "_residual_external"

    def fresh() -> TangencyReport:
        report = feuerbach_report(SideLengths(3, 4, 5)).entries[index].report
        assert not hasattr(report, "_rhs_internal") and not hasattr(report, "_rhs_external")
        assert type(report._lhs) is _SquareRatio and type(getattr(report, residual)) is tuple
        return report

    assert fresh() == full and full == fresh() and not fresh() != full
    assert hash(fresh()) == hash(full)
    assert repr(fresh()) == repr(full)
    for rebuild in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        assert rebuild(fresh()) == full
    report = fresh()
    fields = CASES[TangencyReport].fields
    assert tuple(getattr(report, name) for name in fields) == tuple(
        getattr(full, name) for name in fields
    )
    assert getattr(report, unread[1:]) is getattr(report, unread[1:])
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(report, name, F(0))
        with pytest.raises(AttributeError):
            delattr(report, name)
    assert report == full


def test_exact_feuerbach_report_with_fields_built_on_read():
    # A report whose metrics, lhs, residuals and right-hand sides were never
    # read is, to every record operation, the report built with all of them.
    sides = SideLengths(F(13, 3), 4, F(15, 7))
    built = feuerbach_report(sides)
    full = FeuerbachReport(
        sides,
        metrics(sides),
        False,
        tuple(
            FeuerbachEntry(entry.circle, TangencyReport(
                *(getattr(entry.report, name) for name in CASES[TangencyReport].fields)
            ))
            for entry in built.entries
        ),
    )

    def fresh() -> FeuerbachReport:
        report = feuerbach_report(sides)
        assert report._metrics is None
        assert all(type(entry.report._lhs) is _SquareRatio for entry in report.entries)
        return report

    assert fresh() == full and full == fresh() and not fresh() != full
    assert hash(fresh()) == hash(full)
    assert repr(fresh()) == repr(full)
    for rebuild in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        assert rebuild(fresh()) == full
    report = fresh()
    assert report.metrics is metrics(sides)
    assert [entry.report.lhs for entry in report.entries] == [
        entry.report.lhs for entry in full.entries
    ]


def _wrong_calls():
    """Four calls per class that an ordinary function would refuse: a
    required field left out (ToleranceProfile has none), an unexpected
    keyword, one positional argument too many, and a field given both
    positionally and by keyword."""
    for cls, case in CASES.items():
        if case.kwargs():
            yield cls, "missing", lambda cls=cls, case=case: cls(
                **dict(list(case.kwargs().items())[1:])
            )
        yield cls, "unexpected", lambda cls=cls, case=case: cls(*case.args(), not_a_field=1)
        yield cls, "surplus", lambda cls=cls, case=case: cls(*case.args(), None)
        yield cls, "repeated", lambda cls=cls, case=case: cls(
            *case.args(), **{case.fields[0]: case.args()[0]}
        )


@pytest.mark.parametrize(
    "call", [pytest.param(call, id=f"{cls.__name__}-{kind}") for cls, kind, call in _wrong_calls()]
)
def test_wrong_call_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


def field_storing_inits(source: str) -> List[str]:
    """The ``Record`` subclasses whose ``__init__`` does nothing but store
    each parameter under its own name with ``set_field``, which
    ``Record.__init__`` already does."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == "Record" for base in node.bases)
        ):
            continue
        for init in node.body:
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            params = {arg.arg for arg in init.args.args[1:]}
            body = init.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if all(
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id == "set_field"
                and len(stmt.value.args) == 3
                and isinstance(stmt.value.args[0], ast.Name)
                and isinstance(stmt.value.args[1], ast.Constant)
                and isinstance(stmt.value.args[2], ast.Name)
                and stmt.value.args[1].value == stmt.value.args[2].id in params
                for stmt in body
            ):
                found.append(node.name)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_record_writes_the_constructor_record_supplies(path: Path):
    assert field_storing_inits(path.read_text()) == []


def test_detects_a_constructor_that_only_stores_its_parameters():
    source = (
        "class Plain(Record):\n"
        "    def __init__(self, x, y):\n"
        "        set_field(self, 'x', x)\n"
        "        set_field(self, 'y', y)\n"
        "class Coerced(Record):\n"
        "    def __init__(self, x):\n"
        "        set_field(self, 'x', float(x))\n"
        "class Renamed(Record):\n"
        "    def __init__(self, x):\n"
        "        set_field(self, '_x', x)\n"
        "class NotARecord:\n"
        "    def __init__(self, x):\n"
        "        set_field(self, 'x', x)\n"
    )
    assert field_storing_inits(source) == ["Plain"]
