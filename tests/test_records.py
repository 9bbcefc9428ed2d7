"""The package's value classes behave as frozen records.

Each class is built positionally and by keyword (leaving out the fields
that have defaults), and the tests pin what callers rely on: the ``repr``
text, field-wise ``==`` and ``hash``, and ``AttributeError`` on any
assignment or deletion.  Classes with a ``dict`` field compare field-wise
but cannot be hashed.
"""

from fractions import Fraction
from typing import Any, Callable, Dict, NamedTuple, Tuple

import pytest

from ninepoint.centers import CenterSet
from ninepoint.cli import RunConfig
from ninepoint.feuerbach import FeuerbachEntry, FeuerbachReport, Tangency, TangencyReport
from ninepoint.harness import FuzzProfile, IdentityCheck, OracleResult, SuiteReport
from ninepoint.numeric import ToleranceProfile
from ninepoint.svg import ViewTransform
from ninepoint.triangle import Barycentric, Point2, SideLengths, TriangleMetrics

F = Fraction


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
        lambda: {"barycentric": {"G": Barycentric(F(1, 3), F(1, 3), F(1, 3))}},
        "CenterSet(barycentric={'G': Barycentric(alpha=Fraction(1, 3), "
        "beta=Fraction(1, 3), gamma=Fraction(1, 3))}, frame=None, plane=None)",
        lambda: CenterSet({"G": Barycentric(1, 0, 0)}),
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


PARAMS = [pytest.param(cls, case, id=cls.__name__) for cls, case in CASES.items()]


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
    assert centers == CenterSet({"G": Barycentric(1, 0, 0)}, {"O": (0.0, 0.0)})
