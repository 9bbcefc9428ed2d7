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
integers, and each circle's two residuals are e +- 2*abc*d over
4*d^2*L^2, so tangency is decided by testing e +- 2*abc*d for zero.  A
tangent circle's report then reduces one large number, its chosen
right-hand side in a closed form that is also the left-hand side; the
zero residual and the other residual, -+2*R*r_X, need no large gcd, and
the other right-hand side is built only when read (see
:func:`_exact_tangency`).  The identity suite decides a circle's kind
(:func:`_exact_decision`) and takes its residual (:func:`_residual_ratio`)
from one set of numerators.

On float sides the formulas are those of the float kernel
(``triangle._FloatTriangle``): each circle's |XN|^2 is its distance
identity (:func:`_center_dist_sq`), its residual comes from that value
(:func:`_float_residual`), and its kind from the float branch of
:func:`classify_tangency_sq` (:func:`_float_decision`).  The public
functions forward to them, and the identity suite reads them directly,
with each |XN|^2 computed once for both the kind and the residual.

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
    coerce_backend,
    sqrt_exact,
)
from .record import Record, set_field
from .triangle import (
    CENTER_WEIGHTS,
    CIRCLE_CENTERS,
    SideLengths,
    TriangleMetrics,
    _FloatTriangle,
    _IntegerTriangle,
    _ZERO,
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

# Each circle's center, a label of triangle.CENTER_WEIGHTS.
_CENTER_OF = dict(zip(CIRCLES, CIRCLE_CENTERS))


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


def _checked_lhs(
    d_sq: Scalar, r1_sq: Scalar, r2_sq: Scalar, tol: ToleranceProfile, exact: bool
) -> Scalar:
    """The squared center distance, checked with the squared radii."""
    if r1_sq <= 0 or r2_sq <= 0:
        raise ValueError("squared radii must be positive")
    if d_sq < 0:
        # A float distance can land a hair below zero through cancellation
        # in the upstream squared-distance evaluation; clamp that, reject
        # anything genuinely negative (and any exact negative).
        if exact or -d_sq > tol.bound(max(r1_sq, r2_sq)):
            raise ValueError(f"squared center distance must be nonnegative, got {d_sq}")
        d_sq = 0.0
    return d_sq


def _float_decision(
    d_sq: float, r1_sq: float, r2_sq: float, tol: ToleranceProfile
) -> Tuple[Tangency, float, float, float]:
    """The float branch of :func:`classify_tangency_sq`: the kind, then the
    checked lhs and the two right-hand sides, which only the report reads."""
    d_sq = _checked_lhs(d_sq, r1_sq, r2_sq, tol, False)
    cross = 2.0 * math.sqrt(r1_sq * r2_sq)
    rhs_internal = r1_sq + r2_sq - cross
    rhs_external = r1_sq + r2_sq + cross
    scale = max(d_sq, r1_sq, r2_sq)
    gap_internal = abs(d_sq - rhs_internal)
    gap_external = abs(d_sq - rhs_external)
    internal_fits = gap_internal <= tol.bound(max(d_sq, abs(rhs_internal), scale))
    external_fits = gap_external <= tol.bound(max(d_sq, rhs_external))
    if d_sq <= tol.bound(scale) and abs(r1_sq - r2_sq) <= tol.bound(scale):
        kind = Tangency.COINCIDENT
    elif internal_fits and (not external_fits or gap_internal <= gap_external):
        kind = Tangency.INTERNAL_TANGENT
    elif external_fits:
        kind = Tangency.EXTERNAL_TANGENT
    else:
        kind = Tangency.NOT_TANGENT
    return kind, d_sq, rhs_internal, rhs_external


def _tangency_numerators(t: _IntegerTriangle, circle: str) -> Tuple[int, int, int]:
    """e, 2*abc*d and d of the circle with center X and radius r_X, where
    d is its weight sum: over 4*d^2*L^2, e + 2*abc*d is the residual
    |XN|^2 - (R/2 - r_X)^2 and e - 2*abc*d is |XN|^2 - (R/2 + r_X)^2.

    With |AN|^2 = (R^2 - a^2 + b^2 + c^2)/4 and cyclic, R^2 = (abc)^2/P and
    weights x/d summing to 1, the barycentric distance identity gives
    |XN|^2 = R^2/4 + q1/(4d) - q2/d^2; the radii satisfy R/2 -+ r_X =
    (abc*d -+ P) / (2d*sqrt(P)), with the minus sign for the incircle.  So
    over 4*P*d^2*L^2 the numerators of |XN|^2 and (R/2 -+ r_X)^2 are
    (abc*d)^2 + P*(d*q1 - 4*q2) and (abc*d -+ P)^2; their difference is
    P*(e +- 2*abc*d) with e = d*q1 - 4*q2 - P, and P cancels.  Uses only
    ring operations, so it accepts symbolic sides as well.
    """
    (x_a, x_b, x_c), d = CENTER_WEIGHTS[_CENTER_OF[circle]](t.a, t.b, t.c)
    a_sq, b_sq, c_sq = t.a * t.a, t.b * t.b, t.c * t.c
    q1 = x_a * (-a_sq + b_sq + c_sq) + x_b * (a_sq - b_sq + c_sq) + x_c * (a_sq + b_sq - c_sq)
    q2 = x_b * x_c * a_sq + x_c * x_a * b_sq + x_a * x_b * c_sq
    return d * q1 - 4 * q2 - t.P, 2 * t.abc * d, d


def _exact_kind(
    lhs: Scalar, rhs_internal: Scalar, rhs_external: Scalar, equal_radii: bool
) -> Tangency:
    """The exact tangency decision: ``lhs`` against each rhs, on the
    values or on any one affine image of all three.  Coincident is an
    internal tangency of equal radii, that is a zero center distance."""
    if lhs == rhs_internal:
        return Tangency.COINCIDENT if equal_radii else Tangency.INTERNAL_TANGENT
    if lhs == rhs_external:
        return Tangency.EXTERNAL_TANGENT
    return Tangency.NOT_TANGENT


def _exact_decision(t: _IntegerTriangle, circle: str) -> Tuple[Tangency, Tuple[int, int, int]]:
    """The circle's exact kind, decided on its numerators (see
    :func:`_exact_tangency`), and the numerators."""
    numerators = e, two_abc_d, _ = _tangency_numerators(t, circle)
    return _exact_kind(e, -two_abc_d, two_abc_d, two_abc_d == 2 * t.P), numerators


def _residual_ratio(circle: str, numerators: Tuple[int, int, int], L: int) -> Tuple[int, int]:
    """The residual of :func:`_ninepoint_residual` as a ratio, from the
    circle's :func:`_tangency_numerators` on sides over L:
    (e + 2*abc*d) / (4*d^2*L^2) for the incircle, e - 2*abc*d over the same
    for an excircle."""
    e, two_abc_d, d = numerators
    return e + two_abc_d if circle == "incircle" else e - two_abc_d, 4 * (d * L) ** 2


def _center_dist_sq(t: _FloatTriangle, circle: str, vertex_n: Tuple[float, ...]) -> float:
    """|XN|^2 for the circle's center X on the float kernel, by the
    barycentric distance identity with the vertex-to-N distances; the
    weights are read from CENTER_WEIGHTS when called."""
    return t.distance_sq(*CENTER_WEIGHTS[_CENTER_OF[circle]](t.a, t.b, t.c), vertex_n, 1)


def _float_residual(circle: str, d_sq: float, R_sq: float, r_sq: float, mixed: float) -> float:
    """The residual of :func:`_ninepoint_residual` on float sides, from the
    circle's |XN|^2, R^2, r_X^2 and R*r_X."""
    # R^2/4 + r_X^2 -+ R*r_X; negating a float is exact, so adding -R*r_X
    # rounds as subtracting it does.
    return d_sq - (R_sq / 4 + r_sq + (-mixed if circle == "incircle" else mixed))


def _kind_ok(circle: str, kind: Tangency) -> bool:
    """Whether the kind is the theorem's: the incircle internally tangent
    (or coincident), an excircle externally tangent."""
    if circle == "incircle":
        return kind is Tangency.INTERNAL_TANGENT or kind is Tangency.COINCIDENT
    return kind is Tangency.EXTERNAL_TANGENT


def _exact_tangency(t: _IntegerTriangle, met: TriangleMetrics, circle: str) -> TangencyReport:
    """The exact branch of :func:`classify_tangency_sq`, decided on integers.

    |XN|^2 equals (R/2 - r_X)^2 exactly when e = -2*abc*d, and (R/2 + r_X)^2
    when e = 2*abc*d; the radii are equal when abc*d = P, where
    (R/2 - r_X)^2 vanishes.  A tangent kind gives every field from closed
    forms.  The circle's weight sum d (one of p, u, v, w) divides
    P = p*u*v*w, so the chosen rhs (abc*d -+ P)^2 / (4*P*d^2*L^2) is
    (abc -+ P/d)^2 / (4*P*L^2), and it equals lhs; its residual is zero.
    The two residuals differ by 4*abc*d / (4*d^2*L^2) = 2*R*r_X, so the
    other one is -+2*R*r_X, read from ``met``.  So one large number is
    reduced per circle, and the other rhs, lhs minus its residual, is built
    only if it is read.  NotTangent has no identity to lean on and reduces
    all five fields."""
    kind, (e, two_abc_d, d) = _exact_decision(t, circle)
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
    if sides.is_exact:
        t = sides._integer_form
        return Fraction(*_residual_ratio(circle, _tangency_numerators(t, circle), t.L))
    met = metrics(sides)
    d_sq = _center_dist_sq(sides._float_form, circle, sides._vertex_ninepoint_dist_sq)
    return _float_residual(circle, d_sq, met.R_sq, *_radius_terms(met, circle))


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
    if sides.is_exact:
        reports = tuple(_exact_tangency(sides._integer_form, met, circle) for circle in CIRCLES)
    else:
        # Each center's |XN|^2 comes from the same three vertex-to-N distances.
        t, vertex_n = sides._float_form, sides._vertex_ninepoint_dist_sq
        ninepoint_r_sq = met.R_sq / 4
        reports = []
        for circle in CIRCLES:
            d_sq, r_sq = _center_dist_sq(t, circle, vertex_n), _radius_terms(met, circle)[0]
            reports.append(classify_tangency_sq(d_sq, ninepoint_r_sq, r_sq, tol))
    return FeuerbachReport(
        sides,
        met,
        sides.is_equilateral,
        tuple(FeuerbachEntry(circle, report) for circle, report in zip(CIRCLES, reports)),
    )
