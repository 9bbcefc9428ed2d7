"""Nine-point tangency engine.

Feuerbach's theorem says the nine-point circle (radius R/2, center N) is
internally tangent to the incircle and externally tangent to the three
excircles.  In fully squared form the tangency conditions become rational
identities in the side lengths:

    |IN|^2   = R^2/4 + r^2   - R*r       (= (R/2 - r)^2)
    |E_aN|^2 = R^2/4 + r_a^2 + R*r_a     (= (R/2 + r_a)^2)

Every term on the right comes straight out of :class:`TriangleMetrics`;
the left side is evaluated through the barycentric distance identity with
the vertex-to-N distances.  Over the rational backend the residuals are
exact zeros for every valid triangle, which is what the fuzz harness and
the acceptance suite pin down.  Equilateral triangles are the one excluded
case: there the incircle and the nine-point circle coincide (r = R/2 and
I = N), so the report flags them and classifies the pair as coincident
rather than tangent.

The tangency formulas of the triangle's circles are methods of the
kernel of its sides (``triangle._IntegerTriangle`` and
``triangle._FloatTriangle``), under the same names: each circle's
``residual``; its ``verdict``, the kind and the residual from one
computation, which the identity suite reads; and its ``tangency``, the
fields of its :class:`TangencyReport`, from which
:func:`feuerbach_report` builds the report of either backend from the
kernel's ``circle_terms``, what the four circles share, computed once per
report; it asks which backend only to read the metrics on float sides.
The residual functions here forward to the kernel the same way.  A report
holds only what it cannot derive: its residuals are lhs - rhs, and its
metrics and equilateral flag are read from the sides.

On exact sides the sides are scaled to integers, and each circle's two
residuals are e +- 2*abc*d over 4*d^2*L^2
(``_IntegerTriangle.tangency_numerators``), so tangency is decided by
testing e +- 2*abc*d for zero.  Each circle's e is a signed sum of six
products that the four circles share (``_IntegerTriangle.circle_terms``:
a*S_A, b*S_B, c*S_C, abc*a, abc*b and abc*c), with signs read from its
center's weights.  A tangent circle's report then holds
both right-hand sides unreduced, as the squares (abc -+ P/d)^2 over
4*P*L^2 (``triangle._SquareRatio``), and the chosen one, which equals
the lhs, as its lhs too; each becomes its ``Fraction`` on first read.  On
float sides each circle's |XN|^2 is its distance identity
(``_FloatTriangle.center_dist_sq``) with the vertex-to-N distances, the
float kernel's circle terms, and its kind and right-hand sides
come from the float decision that :func:`classify_tangency_sq` makes on
floats.

Tangency classification works on squared quantities only.  The cross term
2*r1*r2 in (r1 +- r2)^2 is recovered with an exact square root of
r1^2 * r2^2; when that product is not a perfect square the circles cannot
be tangent at all (a rational center distance squared cannot equal an
irrational right-hand side), so the kind is NotTangent with informative
float residuals.
"""

from __future__ import annotations

import math
from typing import Any, Tuple

from .numeric import (
    DEFAULT_TOLERANCE,
    Scalar,
    ToleranceProfile,
    coerce_backend,
    sqrt_exact,
)
from .record import Record, set_field
from .triangle import (
    CIRCLES,
    SideLengths,
    Tangency,
    TriangleMetrics,
    _SquareRatio,
    _checked_lhs,
    _exact_kind,
    _float_decision,
    metrics,
)
from .centers import Vertex, _shift

__all__ = [
    "Tangency",
    "CIRCLES",
    "TangencyReport",
    "FeuerbachEntry",
    "FeuerbachReport",
    "classify_tangency_sq",
    "incircle_ninepoint_residual",
    "excircle_ninepoint_residual",
    "feuerbach_report",
]


def _value(field: Any) -> Scalar:
    """A report field's value: a square ratio's ``Fraction``, else itself."""
    return field.value() if type(field) is _SquareRatio else field


class TangencyReport(Record):
    """Squared-distance comparison of two circles.

    ``lhs`` is the squared center distance; ``rhs_internal``/``rhs_external``
    are (r1 - r2)^2 and (r1 + r2)^2.  Both residuals, lhs - rhs, are read
    from them, so a NotTangent outcome shows which comparison failed and
    by how much.

    A field is a value or the exact kernel's ``triangle._SquareRatio``,
    which is read as its ``Fraction``; the two residuals of square ratios
    over one denominator are read as one ``Fraction`` each.  The value,
    and so ``==``, ``hash``, ``repr``, copy and pickle, are those of the
    report built with the values.  An exact tangent report from
    :func:`feuerbach_report` holds its three fields so.
    """

    __slots__ = ("kind", "_lhs", "_rhs_internal", "_rhs_external")
    _fields = ("kind", "lhs", "rhs_internal", "rhs_external")
    kind: Tangency

    def __init__(self, kind: Tangency, lhs: Any, rhs_internal: Any, rhs_external: Any) -> None:
        set_field(self, "kind", kind)
        set_field(self, "_lhs", lhs)
        set_field(self, "_rhs_internal", rhs_internal)
        set_field(self, "_rhs_external", rhs_external)

    def _residual(self, rhs: Any) -> Scalar:
        """lhs - rhs: of two square ratios, one ``Fraction`` over their den."""
        lhs = self._lhs
        if type(lhs) is _SquareRatio and type(rhs) is _SquareRatio:
            return lhs.minus(rhs)
        return self.lhs - _value(rhs)

    lhs = property(lambda self: _value(self._lhs))
    rhs_internal = property(lambda self: _value(self._rhs_internal))
    rhs_external = property(lambda self: _value(self._rhs_external))
    residual_internal = property(lambda self: self._residual(self._rhs_internal))
    residual_external = property(lambda self: self._residual(self._rhs_external))

    @property
    def _internal_chosen(self) -> bool:
        """Which comparison ``rhs`` and ``residual`` report: the one named
        by the kind, or for NotTangent the one with the smaller residual."""
        if self.kind is Tangency.NOT_TANGENT:
            return abs(self.residual_internal) <= abs(self.residual_external)
        return self.kind is Tangency.INTERNAL_TANGENT

    @property
    def rhs(self) -> Scalar:
        if self.kind is Tangency.COINCIDENT:
            return self.lhs - self.lhs  # backend-matched zero
        return self.rhs_internal if self._internal_chosen else self.rhs_external

    @property
    def residual(self) -> Scalar:
        """``lhs - rhs``."""
        if self.kind is Tangency.COINCIDENT:
            return self.lhs
        return self.residual_internal if self._internal_chosen else self.residual_external


def classify_tangency_sq(
    center_dist_sq: Scalar,
    radius1_sq: Scalar,
    radius2_sq: Scalar,
    tol: ToleranceProfile = DEFAULT_TOLERANCE,
) -> TangencyReport:
    """Classify from squared center distance and squared radii.

    The three values are exact (ints promoted) or floats; a mix raises
    ``TypeError``.  Exact inputs are compared exactly; floats within the
    tolerance of the candidate right-hand side count as tangent, and when
    both candidates fit inside the band the one with the smaller residual
    wins (near-degenerate triangles can squeeze (r1 - r2)^2 and
    (r1 + r2)^2 closer together than the conditioning-widened tolerance).
    Coincident means the same circle: zero center distance and equal
    radii; it outranks the degenerate internal comparison at distance
    zero.
    """
    d_sq, r1_sq, r2_sq = center_dist_sq, radius1_sq, radius2_sq
    (d_sq, r1_sq, r2_sq), exact = coerce_backend(d_sq, r1_sq, r2_sq)
    if not exact:
        kind, d_sq, rhs_internal, rhs_external = _float_decision(d_sq, r1_sq, r2_sq, tol)
    else:
        _checked_lhs(d_sq, r1_sq, r2_sq, tol, True)
        cross = sqrt_exact(r1_sq * r2_sq)  # r1 * r2 when rational
        if cross is None:
            # d^2 - r1^2 - r2^2 is rational but +-2*r1*r2 is not: the
            # tangency equations have no rational solution.  The residuals
            # below come out as floats (Fraction - float).
            prod = 2.0 * math.sqrt(float(r1_sq) * float(r2_sq))
            base = float(r1_sq) + float(r2_sq)
            rhs_internal = base - prod
            rhs_external = base + prod
            kind = Tangency.NOT_TANGENT
        else:
            rhs_internal = r1_sq + r2_sq - 2 * cross
            rhs_external = r1_sq + r2_sq + 2 * cross
            # A zero rhs_internal means equal radii.
            kind = _exact_kind(d_sq, rhs_internal, rhs_external, rhs_internal == 0)
    return TangencyReport(kind, d_sq, rhs_internal, rhs_external)


def _kind_ok(circle: str, kind: Tangency) -> bool:
    """Whether the kind is the theorem's: the incircle internally tangent
    (or coincident), an excircle externally tangent."""
    if circle == "incircle":
        return kind is Tangency.INTERNAL_TANGENT or kind is Tangency.COINCIDENT
    return kind is Tangency.EXTERNAL_TANGENT


def _ninepoint_residual(sides: SideLengths, circle: str) -> Scalar:
    """|XN|^2 - (R/2 - r_X)^2 for the incircle, |XN|^2 - (R/2 + r_X)^2 for an
    excircle: the comparison Feuerbach's theorem makes exact."""
    t = sides._kernel
    return t.value(t.residual(circle))


def incircle_ninepoint_residual(sides: SideLengths) -> Scalar:
    """|IN|^2 - (R^2/4 + r^2 - R*r); exactly zero on the rational backend."""
    return _ninepoint_residual(sides, "incircle")


def excircle_ninepoint_residual(sides: SideLengths, vertex: Vertex) -> Scalar:
    """|E_xN|^2 - (R^2/4 + r_x^2 + R*r_x) for the excircle opposite a vertex."""
    return _ninepoint_residual(sides, CIRCLES[1 + _shift(vertex)])


class FeuerbachEntry(Record):
    """One circle-vs-nine-point-circle comparison."""

    __slots__ = _fields = ("circle", "report")
    circle: str  # one of CIRCLES
    report: TangencyReport

    @property
    def ok(self) -> bool:
        return _kind_ok(self.circle, self.report.kind)


class FeuerbachReport(Record):
    """Tangency verdict for the incircle and all three excircles; the
    metrics and the equilateral flag are read from the sides."""

    __slots__ = _fields = ("sides", "entries")
    sides: SideLengths
    entries: Tuple[FeuerbachEntry, ...]

    @property
    def metrics(self) -> TriangleMetrics:
        return metrics(self.sides)

    @property
    def equilateral(self) -> bool:
        return self.sides.is_equilateral

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def max_normalized_residual(self) -> float:
        """Largest |expected-tangency residual| over the natural scale R^2/4.

        The incircle is measured against (R/2 - r)^2 and each excircle
        against (R/2 + r_x)^2, regardless of how the pair was classified.
        """
        scale = float(self.metrics.R_sq) / 4.0
        worst = 0.0
        for entry in self.entries:
            if entry.circle == "incircle":
                residual = entry.report.residual_internal
            else:
                residual = entry.report.residual_external
            worst = max(worst, abs(float(residual)) / scale)
        return worst


def feuerbach_report(
    sides: SideLengths, tol: ToleranceProfile = DEFAULT_TOLERANCE
) -> FeuerbachReport:
    """Classify nine-point circle against incircle and the three excircles,
    from the kernel's circle terms and, on float sides, its metrics."""
    t = sides._kernel
    # Only the float reports read the metrics; the exact closed forms read
    # none, and building them on exact sides costs products and a gcd on
    # the sides' digits.
    met = None if sides.is_exact else sides._metric_terms
    terms = t.circle_terms()
    return FeuerbachReport(
        sides,
        tuple(
            FeuerbachEntry(circle, TangencyReport(*t.tangency(circle, met, terms, tol)))
            for circle in CIRCLES
        ),
    )
