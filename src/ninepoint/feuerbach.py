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

On exact sides the report and the residuals come from integer polynomials
instead (see :func:`_tangency_numerators`): the sides are scaled to
integers, every term is put over one denominator per circle, and tangency
is decided by comparing integers.  A tangent circle's report then reduces
one large number, its chosen right-hand side in a closed form that is
also the left-hand side; the zero residual, the other residual and the
other right-hand side follow without a large gcd (see
:func:`_exact_tangency`).

Tangency classification works on squared quantities only.  The cross term
2*r1*r2 in (r1 +- r2)^2 is recovered with an exact square root of
r1^2 * r2^2; when that product is not a perfect square the circles cannot
be tangent at all (a rational center distance squared cannot equal an
irrational right-hand side), so the kind is NotTangent with informative
float residuals.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Tuple

from .numeric import (
    DEFAULT_TOLERANCE,
    Scalar,
    ToleranceProfile,
    coerce_scalar,
    is_exact,
    sqrt_exact,
)
from .record import Record, set_field
from .triangle import (
    CENTER_WEIGHTS,
    SideLengths,
    TriangleMetrics,
    _IntegerTriangle,
    barycentric_distance_sq,
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


class Tangency(enum.Enum):
    INTERNAL_TANGENT = "internal_tangent"
    EXTERNAL_TANGENT = "external_tangent"
    COINCIDENT = "coincident"
    NOT_TANGENT = "not_tangent"


# The circles compared with the nine-point circle, in report order: the
# incircle, then the excircles opposite A, B and C.
CIRCLES = ("incircle", "exA", "exB", "exC")

# Each circle's center, a label of triangle.CENTER_WEIGHTS (I, Ea, Eb, Ec).
_CENTER_OF = dict(zip(CIRCLES, CENTER_WEIGHTS))

# The residual of an exact tangency; Fractions are immutable, so it is shared.
_ZERO = Fraction(0)


def _radius_terms(met: TriangleMetrics, circle: str) -> Tuple[Scalar, Scalar]:
    """r_X^2 and R*r_X of one circle."""
    k = CIRCLES.index(circle)
    return (met.r_sq, met.rA_sq, met.rB_sq, met.rC_sq)[k], (met.Rr, met.RrA, met.RrB, met.RrC)[k]


class TangencyReport(Record):
    """Squared-distance comparison of two circles.

    ``lhs`` is the squared center distance; ``rhs_internal``/``rhs_external``
    are (r1 - r2)^2 and (r1 + r2)^2.  Both residuals are carried so a
    NotTangent outcome shows which comparison failed and by how much.
    """

    __slots__ = _fields = (
        "kind", "lhs", "rhs_internal", "rhs_external", "residual_internal", "residual_external"
    )
    kind: Tangency
    lhs: Scalar
    rhs_internal: Scalar
    rhs_external: Scalar
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
        set_field(self, "rhs_internal", rhs_internal)
        set_field(self, "rhs_external", rhs_external)
        set_field(self, "residual_internal", residual_internal)
        set_field(self, "residual_external", residual_external)

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

    Exact inputs are compared exactly; floats within the tolerance of the
    candidate right-hand side count as tangent, and when both candidates fit
    inside the band the one with the smaller residual wins (near-degenerate
    triangles can squeeze (r1 - r2)^2 and (r1 + r2)^2 closer together than
    the conditioning-widened tolerance).  Coincident means the same circle:
    zero center distance and equal radii; it outranks the degenerate
    internal comparison at distance zero.
    """
    d_sq = coerce_scalar(center_dist_sq)
    r1_sq = coerce_scalar(radius1_sq)
    r2_sq = coerce_scalar(radius2_sq)
    if r1_sq <= 0 or r2_sq <= 0:
        raise ValueError("squared radii must be positive")

    exact = all(is_exact(v) for v in (d_sq, r1_sq, r2_sq))
    if d_sq < 0:
        # A float distance can land a hair below zero through cancellation
        # in the upstream squared-distance evaluation; clamp that, reject
        # anything genuinely negative (and any exact negative).
        if exact or -float(d_sq) > tol.bound(max(float(r1_sq), float(r2_sq))):
            raise ValueError(
                f"squared center distance must be nonnegative, got {d_sq}"
            )
        d_sq = 0.0

    cross = sqrt_exact(r1_sq * r2_sq) if exact else None  # r1 * r2 when rational
    if exact and cross is None:
        # d^2 - r1^2 - r2^2 is rational but +-2*r1*r2 is not: the
        # tangency equations have no rational solution.  The residuals
        # below come out as floats (Fraction - float).
        prod = 2.0 * math.sqrt(float(r1_sq) * float(r2_sq))
        base = float(r1_sq) + float(r2_sq)
        rhs_internal = base - prod
        rhs_external = base + prod
        kind = Tangency.NOT_TANGENT
    elif exact:
        rhs_internal = r1_sq + r2_sq - 2 * cross
        rhs_external = r1_sq + r2_sq + 2 * cross
        kind = _exact_kind(d_sq, rhs_internal, rhs_external)
    else:
        d_sq = float(d_sq)
        r1_sq_f = float(r1_sq)
        r2_sq_f = float(r2_sq)
        cross_f = 2.0 * math.sqrt(r1_sq_f * r2_sq_f)
        rhs_internal = r1_sq_f + r2_sq_f - cross_f
        rhs_external = r1_sq_f + r2_sq_f + cross_f
        scale = max(d_sq, r1_sq_f, r2_sq_f)
        gap_internal = abs(d_sq - rhs_internal)
        gap_external = abs(d_sq - rhs_external)
        internal_fits = gap_internal <= tol.bound(max(d_sq, abs(rhs_internal), scale))
        external_fits = gap_external <= tol.bound(max(d_sq, rhs_external))
        if d_sq <= tol.bound(scale) and abs(r1_sq_f - r2_sq_f) <= tol.bound(scale):
            kind = Tangency.COINCIDENT
        elif internal_fits and (not external_fits or gap_internal <= gap_external):
            kind = Tangency.INTERNAL_TANGENT
        elif external_fits:
            kind = Tangency.EXTERNAL_TANGENT
        else:
            kind = Tangency.NOT_TANGENT
    return TangencyReport(
        kind=kind,
        lhs=d_sq,
        rhs_internal=rhs_internal,
        rhs_external=rhs_external,
        residual_internal=d_sq - rhs_internal,
        residual_external=d_sq - rhs_external,
    )


def _tangency_numerators(t: _IntegerTriangle, circle: str) -> Tuple[int, int, int, int]:
    """Integer numerators (lhs, rhs_internal, rhs_external) of |XN|^2,
    (R/2 - r_X)^2 and (R/2 + r_X)^2 for the circle with center X and radius
    r_X, and their shared denominator 4*P*d^2*L^2.

    With |AN|^2 = (R^2 - a^2 + b^2 + c^2)/4 and cyclic, R^2 = (abc)^2/P and
    weights x/d summing to 1, the barycentric distance identity gives
    |XN|^2 = R^2/4 + Q1/(4d) - Q2/d^2; the radii satisfy R/2 -+ r_X =
    (abc*d -+ P) / (2d*sqrt(P)), with the minus sign for the incircle.
    Uses only ring operations, so it accepts symbolic sides as well.
    """
    (x_a, x_b, x_c), d = CENTER_WEIGHTS[_CENTER_OF[circle]](t.a, t.b, t.c)
    a_sq, b_sq, c_sq = t.a * t.a, t.b * t.b, t.c * t.c
    q1 = x_a * (-a_sq + b_sq + c_sq) + x_b * (a_sq - b_sq + c_sq) + x_c * (a_sq + b_sq - c_sq)
    q2 = x_b * x_c * a_sq + x_c * x_a * b_sq + x_a * x_b * c_sq
    abc_d = t.abc * d
    lhs = abc_d * abc_d + t.P * (d * q1 - 4 * q2)
    return lhs, (abc_d - t.P) ** 2, (abc_d + t.P) ** 2, 4 * t.P * (d * t.L) ** 2


def _exact_kind(lhs: Scalar, rhs_internal: Scalar, rhs_external: Scalar) -> Tangency:
    """The exact tangency decision.  With positive radii a zero
    ``rhs_internal`` means equal radii, so coincident is a zero center
    distance and a zero ``rhs_internal``."""
    if lhs == 0 and rhs_internal == 0:
        return Tangency.COINCIDENT
    if lhs == rhs_internal:
        return Tangency.INTERNAL_TANGENT
    if lhs == rhs_external:
        return Tangency.EXTERNAL_TANGENT
    return Tangency.NOT_TANGENT


def _exact_tangency(t: _IntegerTriangle, circle: str) -> TangencyReport:
    """The exact branch of :func:`classify_tangency_sq`, decided on integers.

    A tangent kind gives every field from closed forms.  The circle's
    weight sum d (one of p, u, v, w) divides P = p*u*v*w, so the chosen
    rhs (abc*d -+ P)^2 / (4*P*d^2*L^2) is (abc -+ P/d)^2 / (4*P*L^2), and
    it equals lhs; its residual is zero.  The two rhs differ by
    4*abc*d*P over the shared denominator, that is abc/(d*L^2) = 2*R*r_X,
    which is the other residual up to sign.  So one large number is
    reduced per circle.  NotTangent has no identity to lean on and reduces
    all five numerators."""
    lhs, rhs_internal, rhs_external, den = _tangency_numerators(t, circle)
    kind = _exact_kind(lhs, rhs_internal, rhs_external)
    if kind is Tangency.NOT_TANGENT:
        return TangencyReport(
            kind=kind,
            lhs=Fraction(lhs, den),
            rhs_internal=Fraction(rhs_internal, den),
            rhs_external=Fraction(rhs_external, den),
            residual_internal=Fraction(lhs - rhs_internal, den),
            residual_external=Fraction(lhs - rhs_external, den),
        )
    d = (t.p, t.u, t.v, t.w)[CIRCLES.index(circle)]
    P_over_d = t.P // d
    L_sq = t.L * t.L
    if kind is Tangency.EXTERNAL_TANGENT:
        value = Fraction((t.abc + P_over_d) ** 2, 4 * t.P * L_sq)
        residual_internal = Fraction(t.abc, d * L_sq)
        return TangencyReport(kind, value, value - residual_internal, value, residual_internal, _ZERO)
    value = Fraction((t.abc - P_over_d) ** 2, 4 * t.P * L_sq)
    residual_external = Fraction(-t.abc, d * L_sq)
    return TangencyReport(kind, value, value, value - residual_external, _ZERO, residual_external)


def _ninepoint_residual(sides: SideLengths, circle: str) -> Scalar:
    """|XN|^2 - (R/2 - r_X)^2 for the incircle, |XN|^2 - (R/2 + r_X)^2 for an
    excircle: the comparison Feuerbach's theorem makes exact."""
    internal = circle == "incircle"
    if sides.is_exact:
        lhs, rhs_internal, rhs_external, den = _tangency_numerators(sides._integer_form, circle)
        return Fraction(lhs - (rhs_internal if internal else rhs_external), den)
    met = metrics(sides)
    r_sq, mixed = _radius_terms(met, circle)
    d_sq = barycentric_distance_sq(
        sides._center_barycentrics[_CENTER_OF[circle]], *sides._vertex_ninepoint_dist_sq, sides
    )
    # R^2/4 + r_X^2 -+ R*r_X; negating a float is exact, so adding -R*r_X
    # rounds as subtracting it does.
    return d_sq - (met.R_sq / 4 + r_sq + (-mixed if internal else mixed))


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

    def __init__(self, circle: str, report: TangencyReport) -> None:
        set_field(self, "circle", circle)
        set_field(self, "report", report)

    @property
    def ok(self) -> bool:
        if self.circle == "incircle":
            return self.report.kind in (Tangency.INTERNAL_TANGENT, Tangency.COINCIDENT)
        return self.report.kind is Tangency.EXTERNAL_TANGENT


class FeuerbachReport(Record):
    """Tangency verdict for the incircle and all three excircles."""

    __slots__ = _fields = ("sides", "metrics", "equilateral", "entries")
    sides: SideLengths
    metrics: TriangleMetrics
    equilateral: bool
    entries: Tuple[FeuerbachEntry, ...]

    def __init__(
        self,
        sides: SideLengths,
        metrics: TriangleMetrics,
        equilateral: bool,
        entries: Tuple[FeuerbachEntry, ...],
    ) -> None:
        set_field(self, "sides", sides)
        set_field(self, "metrics", metrics)
        set_field(self, "equilateral", equilateral)
        set_field(self, "entries", entries)

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
    if sides.is_exact:
        reports = tuple(_exact_tangency(sides._integer_form, circle) for circle in CIRCLES)
    else:
        # Each center's |XN|^2 comes from the same three vertex-to-N distances.
        vertex_dist_sq = sides._vertex_ninepoint_dist_sq
        ninepoint_r_sq = met.R_sq / 4
        reports = tuple(
            classify_tangency_sq(
                barycentric_distance_sq(
                    sides._center_barycentrics[_CENTER_OF[circle]], *vertex_dist_sq, sides
                ),
                ninepoint_r_sq,
                _radius_terms(met, circle)[0],
                tol,
            )
            for circle in CIRCLES
        )
    return FeuerbachReport(
        sides=sides,
        metrics=met,
        equilateral=sides.is_equilateral,
        entries=tuple(
            FeuerbachEntry(circle=circle, report=report)
            for circle, report in zip(CIRCLES, reports)
        ),
    )
