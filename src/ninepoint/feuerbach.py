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
integers, every term is put over one denominator per circle, tangency is
decided by comparing integers, and a ``Fraction`` is built only for each
output field.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .numeric import (
    DEFAULT_TOLERANCE,
    Scalar,
    ToleranceProfile,
    coerce_scalar,
    is_exact,
    sqrt_exact,
)
from .triangle import (
    Barycentric,
    SideLengths,
    TriangleMetrics,
    _IntegerTriangle,
    _scaled_to_integers,
    barycentric_distance_sq,
    metrics,
)
from .centers import (
    VERTICES,
    Vertex,
    excenter_barycentric,
    incenter_barycentric,
    vertex_to_ninepoint_dist_sq,
)

__all__ = [
    "Tangency",
    "CIRCLES",
    "TangencyReport",
    "FeuerbachEntry",
    "FeuerbachReport",
    "classify_tangency_sq",
    "center_to_ninepoint_dist_sq",
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


@dataclass(frozen=True)
class TangencyReport:
    """Squared-distance comparison of two circles.

    ``lhs`` is the squared center distance; ``rhs_internal``/``rhs_external``
    are (r1 - r2)^2 and (r1 + r2)^2.  Both residuals are carried so a
    NotTangent outcome shows which comparison failed and by how much.
    """

    kind: Tangency
    lhs: Scalar
    rhs_internal: Scalar
    rhs_external: Scalar
    residual_internal: Scalar
    residual_external: Scalar

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
        if d_sq == 0 and r1_sq == r2_sq:
            kind = Tangency.COINCIDENT
        elif d_sq == rhs_internal:
            kind = Tangency.INTERNAL_TANGENT
        elif d_sq == rhs_external:
            kind = Tangency.EXTERNAL_TANGENT
        else:
            kind = Tangency.NOT_TANGENT
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


def center_to_ninepoint_dist_sq(
    sides: SideLengths,
    coords: Barycentric,
    met: Optional[TriangleMetrics] = None,
) -> Scalar:
    """Squared distance from a barycentric point to the nine-point center,
    via the vertex-to-N distances and the barycentric distance identity."""
    if met is None:
        met = metrics(sides)
    return barycentric_distance_sq(
        coords,
        vertex_to_ninepoint_dist_sq(sides, "A", met),
        vertex_to_ninepoint_dist_sq(sides, "B", met),
        vertex_to_ninepoint_dist_sq(sides, "C", met),
        sides,
    )


# Barycentric weights (x_a, x_b, x_c) / d of each circle's center, as a
# function of the integer triangle: the incenter (a, b, c) / p and the
# excenters, e.g. (-a, b, c) / u opposite A.
_CIRCLE_WEIGHTS = {
    "incircle": lambda t: ((t.a, t.b, t.c), t.p),
    "exA": lambda t: ((-t.a, t.b, t.c), t.u),
    "exB": lambda t: ((t.a, -t.b, t.c), t.v),
    "exC": lambda t: ((t.a, t.b, -t.c), t.w),
}


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
    (x_a, x_b, x_c), d = _CIRCLE_WEIGHTS[circle](t)
    a_sq, b_sq, c_sq = t.a * t.a, t.b * t.b, t.c * t.c
    q1 = x_a * (-a_sq + b_sq + c_sq) + x_b * (a_sq - b_sq + c_sq) + x_c * (a_sq + b_sq - c_sq)
    q2 = x_b * x_c * a_sq + x_c * x_a * b_sq + x_a * x_b * c_sq
    abc_d = t.abc * d
    lhs = abc_d * abc_d + t.P * (d * q1 - 4 * q2)
    return lhs, (abc_d - t.P) ** 2, (abc_d + t.P) ** 2, 4 * t.P * (d * t.L) ** 2


def _exact_tangency(t: _IntegerTriangle, circle: str) -> TangencyReport:
    """The exact branch of :func:`classify_tangency_sq`, decided on integers."""
    lhs, rhs_internal, rhs_external, den = _tangency_numerators(t, circle)
    # Coincident: zero center distance and R^2/4 = r_X^2, which is
    # abc*d = P, i.e. a zero rhs_internal.
    if lhs == 0 and rhs_internal == 0:
        kind = Tangency.COINCIDENT
    elif lhs == rhs_internal:
        kind = Tangency.INTERNAL_TANGENT
    elif lhs == rhs_external:
        kind = Tangency.EXTERNAL_TANGENT
    else:
        kind = Tangency.NOT_TANGENT
    return TangencyReport(
        kind=kind,
        lhs=Fraction(lhs, den),
        rhs_internal=Fraction(rhs_internal, den),
        rhs_external=Fraction(rhs_external, den),
        residual_internal=Fraction(lhs - rhs_internal, den),
        residual_external=Fraction(lhs - rhs_external, den),
    )


def incircle_ninepoint_residual(
    sides: SideLengths, met: Optional[TriangleMetrics] = None
) -> Scalar:
    """|IN|^2 - (R^2/4 + r^2 - R*r); exactly zero on the rational backend.

    ``met`` saves recomputing the metrics on the float backend; exact sides
    use the integer kernel and do not need it."""
    if sides.is_exact:
        lhs, rhs_internal, _, den = _tangency_numerators(_scaled_to_integers(sides), "incircle")
        return Fraction(lhs - rhs_internal, den)
    if met is None:
        met = metrics(sides)
    d_sq = center_to_ninepoint_dist_sq(sides, incenter_barycentric(sides), met)
    return d_sq - (met.R_sq / 4 + met.r_sq - met.Rr)


_EX_FIELDS = {"A": ("rA_sq", "RrA"), "B": ("rB_sq", "RrB"), "C": ("rC_sq", "RrC")}


def excircle_ninepoint_residual(
    sides: SideLengths, vertex: Vertex, met: Optional[TriangleMetrics] = None
) -> Scalar:
    """|E_xN|^2 - (R^2/4 + r_x^2 + R*r_x) for the excircle opposite a vertex."""
    if vertex not in _EX_FIELDS:
        raise ValueError(f"vertex must be one of ('A', 'B', 'C'), got {vertex!r}")
    if sides.is_exact:
        lhs, _, rhs_external, den = _tangency_numerators(_scaled_to_integers(sides), f"ex{vertex}")
        return Fraction(lhs - rhs_external, den)
    if met is None:
        met = metrics(sides)
    d_sq = center_to_ninepoint_dist_sq(sides, excenter_barycentric(sides, vertex), met)
    r_sq_name, mixed_name = _EX_FIELDS[vertex]
    return d_sq - (met.R_sq / 4 + getattr(met, r_sq_name) + getattr(met, mixed_name))


@dataclass(frozen=True)
class FeuerbachEntry:
    """One circle-vs-nine-point-circle comparison."""

    circle: str  # one of CIRCLES
    report: TangencyReport

    @property
    def ok(self) -> bool:
        if self.circle == "incircle":
            return self.report.kind in (Tangency.INTERNAL_TANGENT, Tangency.COINCIDENT)
        return self.report.kind is Tangency.EXTERNAL_TANGENT


@dataclass(frozen=True)
class FeuerbachReport:
    """Tangency verdict for the incircle and all three excircles."""

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
    if sides.is_exact:
        t = _scaled_to_integers(sides)
        reports = tuple(_exact_tangency(t, circle) for circle in CIRCLES)
    else:
        # Each center's |XN|^2 comes from the same three vertex-to-N distances.
        vertex_dist_sq = [vertex_to_ninepoint_dist_sq(sides, v, met) for v in VERTICES]
        centers = (incenter_barycentric(sides),) + tuple(
            excenter_barycentric(sides, v) for v in VERTICES
        )
        radii_sq = (met.r_sq, met.rA_sq, met.rB_sq, met.rC_sq)
        ninepoint_r_sq = met.R_sq / 4
        reports = tuple(
            classify_tangency_sq(
                barycentric_distance_sq(center, *vertex_dist_sq, sides),
                ninepoint_r_sq,
                r_sq,
                tol,
            )
            for center, r_sq in zip(centers, radii_sq)
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
