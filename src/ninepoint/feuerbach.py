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
``residual``, and its ``verdict``, the kind and the residual from one
computation, which the identity suite reads.  The residual functions
here forward to the kernel without asking which it is.  On exact sides
the sides are scaled to integers, and each circle's two residuals are
e +- 2*abc*d over 4*d^2*L^2 (``_IntegerTriangle.tangency_numerators``),
so tangency is decided by testing e +- 2*abc*d for zero.  A tangent
circle's report then reduces one large number, its chosen right-hand
side in a closed form that is also the left-hand side; the zero residual
and the other residual, -+2*R*r_X, need no large gcd, and the other
right-hand side is built only when read (see :func:`_exact_tangency`).
On float sides each circle's |XN|^2 is its distance identity
(``_FloatTriangle.center_dist_sq``), its residual comes from that value,
and its kind from the float branch of :func:`classify_tangency_sq`.

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
from typing import Tuple

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
    _IntegerTriangle,
    _ZERO,
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


def _radius_terms(met: TriangleMetrics, circle: str) -> Tuple[Scalar, Scalar]:
    """r_X^2 and R*r_X of one circle."""
    k = CIRCLES.index(circle)
    return (met.r_sq, met.rA_sq, met.rB_sq, met.rC_sq)[k], (met.Rr, met.RrA, met.RrB, met.RrC)[k]


class TangencyReport(Record):
    """Squared-distance comparison of two circles.

    ``lhs`` is the squared center distance; ``rhs_internal``/``rhs_external``
    are (r1 - r2)^2 and (r1 + r2)^2.  Both residuals are carried so a
    NotTangent outcome shows which comparison failed and by how much.

    An exact tangent report from :func:`feuerbach_report` stores its
    unchosen rhs only once it is read, as ``lhs`` minus its residual; the
    value, and so ``==``, ``hash``, ``repr``, copy and pickle, are those of
    the report built with all six fields.
    """

    __slots__ = (
        "kind", "lhs", "_rhs_internal", "_rhs_external", "residual_internal", "residual_external"
    )
    _fields = (
        "kind", "lhs", "rhs_internal", "rhs_external", "residual_internal", "residual_external"
    )
    kind: Tangency
    lhs: Scalar
    residual_internal: Scalar
    residual_external: Scalar

    def __init__(
        self,
        kind: Tangency,
        lhs: Scalar,
        rhs_internal: Scalar,
        rhs_external: Scalar,
        residual_internal: Scalar,
        residual_external: Scalar,
    ) -> None:
        set_field(self, "kind", kind)
        set_field(self, "lhs", lhs)
        set_field(self, "_rhs_internal", rhs_internal)
        set_field(self, "_rhs_external", rhs_external)
        set_field(self, "residual_internal", residual_internal)
        set_field(self, "residual_external", residual_external)

    @classmethod
    def _exact_tangent(
        cls,
        kind: Tangency,
        value: Fraction,
        residual_internal: Fraction,
        residual_external: Fraction,
    ) -> "TangencyReport":
        """A tangent or coincident exact report whose ``lhs`` and chosen rhs
        are ``value``; the other rhs is left to be built on first read."""
        report = cls.__new__(cls)
        set_field(report, "kind", kind)
        set_field(report, "lhs", value)
        set_field(
            report, "_rhs_external" if kind is Tangency.EXTERNAL_TANGENT else "_rhs_internal", value
        )
        set_field(report, "residual_internal", residual_internal)
        set_field(report, "residual_external", residual_external)
        return report

    @property
    def rhs_internal(self) -> Scalar:
        try:
            return self._rhs_internal
        except AttributeError:
            return self._build_rhs("_rhs_internal", self.residual_internal)

    @property
    def rhs_external(self) -> Scalar:
        try:
            return self._rhs_external
        except AttributeError:
            return self._build_rhs("_rhs_external", self.residual_external)

    def _build_rhs(self, slot: str, residual: Scalar) -> Scalar:
        value = self.lhs - residual
        set_field(self, slot, value)
        return value

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
    carrier = type(d_sq)
    if carrier is type(r1_sq) is type(r2_sq) and (carrier is float or carrier is Fraction):
        exact = carrier is Fraction
    else:
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


def _exact_tangency(t: _IntegerTriangle, met: TriangleMetrics, circle: str) -> TangencyReport:
    """The exact branch of :func:`classify_tangency_sq`, decided on integers
    (``_IntegerTriangle.decision``).

    A tangent kind gives every field from closed forms.  The circle's
    weight sum d (one of p, u, v, w) divides P = p*u*v*w, so the chosen
    rhs (abc*d -+ P)^2 / (4*P*d^2*L^2) is (abc -+ P/d)^2 / (4*P*L^2), and
    it equals lhs; its residual is zero.
    The two residuals differ by 4*abc*d / (4*d^2*L^2) = 2*R*r_X, so the
    other one is -+2*R*r_X, read from ``met``.  So one large number is
    reduced per circle, and the other rhs, lhs minus its residual, is built
    only if it is read.  NotTangent has no identity to lean on and reduces
    all five fields."""
    kind, (e, two_abc_d, d) = t.decision(circle)
    if kind is Tangency.NOT_TANGENT:
        den = 4 * (d * t.L) ** 2
        abc_d = t.abc * d
        rhs_internal = (abc_d - t.P) ** 2
        return TangencyReport(
            kind=kind,
            lhs=Fraction(rhs_internal + t.P * (e + two_abc_d), t.P * den),
            rhs_internal=Fraction(rhs_internal, t.P * den),
            rhs_external=Fraction((abc_d + t.P) ** 2, t.P * den),
            residual_internal=Fraction(e + two_abc_d, den),
            residual_external=Fraction(e - two_abc_d, den),
        )
    mixed = _radius_terms(met, circle)[1]
    den = 4 * t.P * t.L * t.L
    if kind is Tangency.EXTERNAL_TANGENT:
        value = Fraction((t.abc + t.P // d) ** 2, den)
        return TangencyReport._exact_tangent(kind, value, 2 * mixed, _ZERO)
    value = Fraction((t.abc - t.P // d) ** 2, den)
    return TangencyReport._exact_tangent(kind, value, _ZERO, -2 * mixed)


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
    """Tangency verdict for the incircle and all three excircles."""

    __slots__ = _fields = ("sides", "metrics", "equilateral", "entries")
    sides: SideLengths
    metrics: TriangleMetrics
    equilateral: bool
    entries: Tuple[FeuerbachEntry, ...]

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
    """Classify nine-point circle against incircle and the three excircles."""
    met = metrics(sides)
    t = sides._kernel
    if sides.is_exact:
        reports = tuple(_exact_tangency(t, met, circle) for circle in CIRCLES)
    else:
        # Each center's |XN|^2 comes from the same three vertex-to-N distances.
        vertex_n = sides._vertex_ninepoint_dist_sq
        ninepoint_r_sq = met.R_sq / 4
        reports = []
        for circle in CIRCLES:
            d_sq, r_sq = t.center_dist_sq(circle, vertex_n), _radius_terms(met, circle)[0]
            reports.append(classify_tangency_sq(d_sq, ninepoint_r_sq, r_sq, tol))
    return FeuerbachReport(
        sides,
        met,
        sides.is_equilateral,
        tuple(FeuerbachEntry(circle, report) for circle, report in zip(CIRCLES, reports)),
    )
