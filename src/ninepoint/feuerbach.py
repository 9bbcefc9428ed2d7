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
:func:`feuerbach_report` builds the report of either backend; it asks
which only to hand the float kernel the vertex-to-N distances once.  The
residual functions here forward to the kernel the same way.  On exact sides the sides are scaled to integers, and each
circle's two residuals are e +- 2*abc*d over 4*d^2*L^2
(``_IntegerTriangle.tangency_numerators``), so tangency is decided by
testing e +- 2*abc*d for zero.  A tangent circle's report then holds
its lhs, which is also its chosen right-hand side, unreduced, as the
square (abc -+ P/d)^2 over 4*P*L^2 (``triangle._SquareRatio``), and its
other residual, -+2*R*r_X, as the kernel's ratio; each becomes its
``Fraction`` on first read, and the other right-hand side is built from
them then.  The report's ``metrics`` is read from the sides only when
read.  On float sides each circle's |XN|^2 is its distance
identity (``_FloatTriangle.center_dist_sq``), and its kind and
right-hand sides come from the float decision that
:func:`classify_tangency_sq` makes on floats.

Tangency classification works on squared quantities only.  The cross term
2*r1*r2 in (r1 +- r2)^2 is recovered with an exact square root of
r1^2 * r2^2; when that product is not a perfect square the circles cannot
be tangent at all (a rational center distance squared cannot equal an
irrational right-hand side), so the kind is NotTangent with informative
float residuals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Optional, Tuple

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
from .centers import VERTICES, Vertex

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


class TangencyReport(Record):
    """Squared-distance comparison of two circles.

    ``lhs`` is the squared center distance; ``rhs_internal``/``rhs_external``
    are (r1 - r2)^2 and (r1 + r2)^2.  Both residuals are carried so a
    NotTangent outcome shows which comparison failed and by how much.

    A field may be given in a form that the report builds on first read
    and then stores: a lhs as the exact kernel's ``triangle._SquareRatio``,
    built as its ``Fraction``; a residual as an integer ratio (num, den),
    built as its ``Fraction``; and a right-hand side as None, built as
    ``lhs`` minus its residual (``lhs`` itself when the residual is zero).
    The value, and so ``==``, ``hash``, ``repr``, copy and pickle, are
    those of the report built with all six fields.  An exact tangent
    report from :func:`feuerbach_report` leaves all five so but its zero
    residual.
    """

    __slots__ = (
        "kind", "_lhs", "_rhs_internal", "_rhs_external", "_residual_internal", "_residual_external"
    )
    _fields = (
        "kind", "lhs", "rhs_internal", "rhs_external", "residual_internal", "residual_external"
    )
    kind: Tangency

    def __init__(
        self,
        kind: Tangency,
        lhs: Any,
        rhs_internal: Optional[Scalar],
        rhs_external: Optional[Scalar],
        residual_internal: Any,
        residual_external: Any,
    ) -> None:
        set_field(self, "kind", kind)
        set_field(self, "_lhs", lhs)
        if rhs_internal is not None:
            set_field(self, "_rhs_internal", rhs_internal)
        if rhs_external is not None:
            set_field(self, "_rhs_external", rhs_external)
        set_field(self, "_residual_internal", residual_internal)
        set_field(self, "_residual_external", residual_external)

    def _read(self, slot: str) -> Scalar:
        """The field stored in ``slot``, built and stored on first read if it
        was given in a form to build."""
        try:
            value = getattr(self, slot)
        except AttributeError:  # a right-hand side given as None
            residual = self._read("_residual" + slot[len("_rhs"):])
            value = self.lhs - residual if residual else self.lhs
        else:
            if type(value) is _SquareRatio:
                value = value.value()
            elif type(value) is tuple:
                value = Fraction(*value)
            else:
                return value
        set_field(self, slot, value)
        return value

    lhs = property(lambda self: self._read("_lhs"))
    rhs_internal = property(lambda self: self._read("_rhs_internal"))
    rhs_external = property(lambda self: self._read("_rhs_external"))
    residual_internal = property(lambda self: self._read("_residual_internal"))
    residual_external = property(lambda self: self._read("_residual_external"))

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
        """``lhs - rhs``, read from the stored residuals."""
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
    return TangencyReport(
        kind=kind,
        lhs=d_sq,
        rhs_internal=rhs_internal,
        rhs_external=rhs_external,
        residual_internal=d_sq - rhs_internal,
        residual_external=d_sq - rhs_external,
    )


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
    if vertex not in VERTICES:
        raise ValueError(f"vertex must be one of ('A', 'B', 'C'), got {vertex!r}")
    return _ninepoint_residual(sides, f"ex{vertex}")


class FeuerbachEntry(Record):
    """One circle-vs-nine-point-circle comparison."""

    __slots__ = _fields = ("circle", "report")
    circle: str  # one of CIRCLES
    report: TangencyReport

    @property
    def ok(self) -> bool:
        return _kind_ok(self.circle, self.report.kind)


class FeuerbachReport(Record):
    """Tangency verdict for the incircle and all three excircles.

    ``metrics`` given as None is read, when it is read, as the shared
    ``metrics(sides)``; :func:`feuerbach_report` leaves it so."""

    __slots__ = ("sides", "_metrics", "equilateral", "entries")
    _fields = ("sides", "metrics", "equilateral", "entries")
    sides: SideLengths
    equilateral: bool
    entries: Tuple[FeuerbachEntry, ...]

    def __init__(
        self,
        sides: SideLengths,
        metrics: Optional[TriangleMetrics],
        equilateral: bool,
        entries: Tuple[FeuerbachEntry, ...],
    ) -> None:
        set_field(self, "sides", sides)
        set_field(self, "_metrics", metrics)
        set_field(self, "equilateral", equilateral)
        set_field(self, "entries", entries)

    @property
    def metrics(self) -> TriangleMetrics:
        return self._metrics or metrics(self.sides)

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
    """Classify nine-point circle against incircle and the three excircles.
    The reports are built from the kernel's metrics, and the report's
    ``metrics`` record is read from the sides only if it is read."""
    t, terms = sides._kernel, sides._metric_terms
    # The float reports read the vertex-to-N distances, computed once here.
    # The exact closed forms do not, and on 200-digit sides those integer
    # products would cost about 6% of the report.
    vertex_n = None if sides.is_exact else t.vertex_ninepoint_dist_sq()
    return FeuerbachReport(
        sides,
        None,
        sides.is_equilateral,
        tuple(
            FeuerbachEntry(circle, TangencyReport(*t.tangency(circle, terms, vertex_n, tol)))
            for circle in CIRCLES
        ),
    )
