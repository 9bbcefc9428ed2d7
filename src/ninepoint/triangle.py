"""Triangles, barycentric coordinates, and the squared metric quantities.

Side lengths (a, b, c) are the canonical description: every quantity the
tangency engine needs (K^2, R^2, r^2, the excircle radii squared, and the
mixed products R*r, R*r_a, ...) is a rational function of the sides, so the
exact backend stays exact end to end.  Coordinates enter only through the
barycentric machinery:

* a point X on side BC with |BX| + |CX| = a has coordinates
  (0, |CX|/a, |BX|/a);
* for X = alpha*A + beta*B + gamma*C with alpha + beta + gamma = 1 and any
  point Y,

      |XY|^2 = alpha*|AY|^2 + beta*|BY|^2 + gamma*|CY|^2
               - (beta*gamma*a^2 + gamma*alpha*b^2 + alpha*beta*c^2)

  which is how squared distances are evaluated without ever leaving the
  rational field.  On exact input it is one integer polynomial: the
  weights over the lcm of their denominators, the distances over theirs
  and the sides over the lcm L of the side denominators, with a single
  division at the end.

The sum check of exact barycentric coordinates cross-multiplies their
numerators and denominators as integers.

All functions are polymorphic over the scalar backend.  The float area uses
the sorted-operand stable product form, so near-degenerate triangles lose
precision only where the input data already has.

:class:`FloatPlane` holds the plane constructions on ``Point2``s under the
names of :mod:`ninepoint.homogeneous`, so the Cartesian centers and the
oracle are written once and run on either carrier.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .numeric import (
    DEFAULT_TOLERANCE,
    Scalar,
    ToleranceProfile,
    coerce_scalar,
    is_exact,
    sqrt_exact,
)

__all__ = [
    "InvalidTriangleError",
    "Point2",
    "FloatPlane",
    "SideLengths",
    "TriangleMetrics",
    "Barycentric",
    "semiperimeter",
    "metrics",
    "point_on_side",
    "barycentric_distance_sq",
    "barycentric_to_cartesian",
    "cartesian_to_barycentric",
    "orientation",
    "exact_vertices",
    "canonical_vertices",
    "sides_from_vertices",
]


class InvalidTriangleError(ValueError):
    """Side lengths that cannot form a nondegenerate triangle."""


@dataclass(frozen=True)
class Point2:
    """Plane point over either scalar backend."""

    x: Scalar
    y: Scalar

    def __post_init__(self) -> None:
        # Two Fractions, or two finite floats, are already valid coordinates.
        x, y = self.x, self.y
        kind = type(x)
        if kind is type(y) and (
            kind is Fraction or (kind is float and math.isfinite(x) and math.isfinite(y))
        ):
            return
        object.__setattr__(self, "x", _finite(coerce_scalar(self.x)))
        object.__setattr__(self, "y", _finite(coerce_scalar(self.y)))

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def scaled(self, k: Scalar) -> "Point2":
        k = coerce_scalar(k)
        return Point2(k * self.x, k * self.y)

    def dot(self, other: "Point2") -> Scalar:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2") -> Scalar:
        return self.x * other.y - self.y * other.x

    def dist_sq(self, other: "Point2") -> Scalar:
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    @property
    def is_exact(self) -> bool:
        return is_exact(self.x) and is_exact(self.y)

    def as_float(self) -> "Point2":
        return Point2(float(self.x), float(self.y))


def _finite(value: Scalar) -> Scalar:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite coordinate {value!r}")
    return value


class FloatPlane:
    """Plane constructions on ``Point2``s; scalars are plain numbers.

    The namespace mirrors :mod:`ninepoint.homogeneous` name for name, so a
    construction written against a "plane" runs on either carrier.  It is
    the carrier of float vertices (:meth:`lift` turns exact coordinates
    into floats); its ``Point2`` arithmetic keeps float results
    bit-identical."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    scaled = staticmethod(Point2.scaled)
    times = staticmethod(operator.mul)
    dot = staticmethod(Point2.dot)
    dist_sq = staticmethod(Point2.dist_sq)

    @staticmethod
    def lift(points: Sequence[Point2]) -> Tuple[Point2, ...]:
        """The points with float coordinates only; float points pass through."""
        return tuple(p.as_float() if is_exact(p.x) or is_exact(p.y) else p for p in points)

    @staticmethod
    def as_point2(p: Point2) -> Point2:
        return p

    @staticmethod
    def value(v: Scalar) -> Scalar:
        return v

    @staticmethod
    def coords(p: Point2) -> Tuple[Scalar, Scalar]:
        return p.x, p.y

    @staticmethod
    def midpoint(p: Point2, q: Point2) -> Point2:
        return Point2((p.x + q.x) / 2, (p.y + q.y) / 2)

    @staticmethod
    def perp(d: Point2) -> Point2:
        return Point2(-d.y, d.x)

    @staticmethod
    def unit_direction(src: Point2, dst: Point2) -> Point2:
        delta = dst - src
        return delta.scaled(1.0 / math.sqrt(float(delta.dot(delta))))

    @staticmethod
    def intersect(p1: Point2, d1: Point2, p2: Point2, d2: Point2) -> Point2:
        """Intersection of p1 + t*d1 and p2 + u*d2."""
        det = d1.cross(d2)
        if det == 0:
            raise ValueError("parallel construction lines")
        t = (p2 - p1).cross(d2) / det
        return p1 + d1.scaled(t)

    @staticmethod
    def equidistant_point(p1: Point2, p2: Point2, p3: Point2) -> Point2:
        """The point with |X - p1| = |X - p2| = |X - p3|."""
        ex = 2 * (p2.x - p1.x)
        ey = 2 * (p2.y - p1.y)
        fx = 2 * (p3.x - p1.x)
        fy = 2 * (p3.y - p1.y)
        rhs_e = p2.dot(p2) - p1.dot(p1)
        rhs_f = p3.dot(p3) - p1.dot(p1)
        det = ex * fy - ey * fx
        if det == 0:
            raise ValueError("collinear points have no equidistant center")
        return Point2((rhs_e * fy - rhs_f * ey) / det, (ex * rhs_f - fx * rhs_e) / det)

    @staticmethod
    def circumcenter(vertex_a: Point2, vertex_b: Point2, vertex_c: Point2) -> Point2:
        """Intersection of the perpendicular bisectors of AB and AC.

        Solves (B - A).O = (|B|^2 - |A|^2)/2 and the AC analogue by Cramer's
        rule, staying rational for rational vertices.
        """
        ab = vertex_b - vertex_a
        ac = vertex_c - vertex_a
        det = ab.cross(ac)
        if det == 0:
            raise ValueError("collinear vertices have no circumcenter")
        rhs_ab = (vertex_b.dot(vertex_b) - vertex_a.dot(vertex_a)) / 2
        rhs_ac = (vertex_c.dot(vertex_c) - vertex_a.dot(vertex_a)) / 2
        x = (rhs_ab * ac.y - rhs_ac * ab.y) / det
        y = (ab.x * rhs_ac - ac.x * rhs_ab) / det
        return Point2(x, y)

    @staticmethod
    def barycentric_point(
        weights: Tuple[Scalar, Scalar, Scalar], d: Scalar, a: Point2, b: Point2, c: Point2
    ) -> Point2:
        """The point (k_a*a + k_b*b + k_c*c) / d, as a.scaled(k_a/d) + ..."""
        k_a, k_b, k_c = weights
        return a.scaled(k_a / d) + b.scaled(k_b / d) + c.scaled(k_c / d)

    @staticmethod
    def line_dist_sq(point: Point2, on_line: Point2, toward: Point2) -> Scalar:
        """Squared distance from a point to the infinite line through two points."""
        d = toward - on_line
        num = d.cross(point - on_line)
        return (num * num) / d.dot(d)

    @staticmethod
    def project(point: Point2, on_line: Point2, toward: Point2) -> Point2:
        d = toward - on_line
        t = (point - on_line).dot(d) / d.dot(d)
        return on_line + d.scaled(t)

    @staticmethod
    def barycentric(point: Point2, a: Point2, b: Point2, c: Point2) -> Tuple[Scalar, ...]:
        return cartesian_to_barycentric(point, a, b, c).components


@dataclass(frozen=True)
class SideLengths:
    """Validated side lengths a = |BC|, b = |CA|, c = |AB|.

    Construction enforces positivity and the strict triangle inequality;
    the diagnostic names the violated inequality.  Equilateral triples are
    accepted but flagged, because the incircle and the nine-point circle
    then coincide instead of being tangent.
    """

    a: Scalar
    b: Scalar
    c: Scalar

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", coerce_scalar(self.a))
        object.__setattr__(self, "b", coerce_scalar(self.b))
        object.__setattr__(self, "c", coerce_scalar(self.c))
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidTriangleError(f"non-finite side: {name} = {value!r}")
            if value <= 0:
                raise InvalidTriangleError(f"invalid side: {name} <= 0")
        if self.is_exact:
            # a + b - c = w/L and its rotations, with L > 0: the signs of w, u, v decide.
            t = self._integer_form
            inequalities = ((t.w, 0), (t.u, 0), (t.v, 0))
        else:
            a, b, c = self.as_tuple()
            inequalities = ((a + b, c), (b + c, a), (c + a, b))
        for (total, rhs), text, opposite in zip(inequalities, ("a + b", "b + c", "c + a"), "cab"):
            if total == rhs:
                raise InvalidTriangleError(f"degenerate: {text} = {opposite}")
            if total < rhs:
                raise InvalidTriangleError(f"not a triangle: {text} < {opposite}")

    @property
    def is_exact(self) -> bool:
        return is_exact(self.a) and is_exact(self.b) and is_exact(self.c)

    @property
    def is_equilateral(self) -> bool:
        return self.a == self.b == self.c

    def as_tuple(self) -> Tuple[Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c)

    def as_float(self) -> "SideLengths":
        return SideLengths(float(self.a), float(self.b), float(self.c))

    def conditioning(self) -> float:
        """max side over min(s - a, s - b, s - c); large means near-degenerate."""
        a, b, c = (float(self.a), float(self.b), float(self.c))
        gaps = ((-a + b + c) / 2.0, (a - b + c) / 2.0, (a + b - c) / 2.0)
        return max(a, b, c) / min(gaps)

    # Derived once per triangle.  The fields are frozen, so these cannot go
    # stale; equality and hashing still read only a, b and c.

    @cached_property
    def _integer_form(self) -> "_IntegerTriangle":
        """Integer form of exact sides; the exact kernel divides only when it
        builds an output field."""
        a, b, c = self.as_tuple()
        L = math.lcm(a.denominator, b.denominator, c.denominator)
        return _integer_triangle(
            a.numerator * (L // a.denominator),
            b.numerator * (L // b.denominator),
            c.numerator * (L // c.denominator),
            L,
        )

    @cached_property
    def _metrics(self) -> "TriangleMetrics":
        """K^2 = s(s-a)(s-b)(s-c), R^2 = (abc)^2 / 16K^2, r^2 = K^2/s^2,
        r_a^2 = K^2/(s-a)^2, R*r = abc/4s, R*r_a = abc/4(s-a).

        Exact sides go through the integer kernel: one division per field."""
        if self.is_exact:
            # With sides a/L, b/L, c/L: s = p/2L, K^2 = P/16L^4, R^2 = (abc)^2/(P L^2),
            # r^2 = P/(4 p^2 L^2) = u v w/(4 p L^2), R*r = abc/(2 p L^2), and u, v, w
            # stand in for p in the excircle terms.  Cancelling the known factor
            # of P first leaves a smaller gcd.
            t = self._integer_form
            L_sq = t.L * t.L
            vw = t.v * t.w
            pu = t.p * t.u
            return TriangleMetrics(
                s=Fraction(t.p, 2 * t.L),
                K_sq=Fraction(t.P, 16 * L_sq * L_sq),
                R_sq=Fraction(t.abc * t.abc, t.P * L_sq),
                r_sq=Fraction(t.u * vw, 4 * t.p * L_sq),
                rA_sq=Fraction(t.p * vw, 4 * t.u * L_sq),
                rB_sq=Fraction(pu * t.w, 4 * t.v * L_sq),
                rC_sq=Fraction(pu * t.v, 4 * t.w * L_sq),
                Rr=Fraction(t.abc, 2 * t.p * L_sq),
                RrA=Fraction(t.abc, 2 * t.u * L_sq),
                RrB=Fraction(t.abc, 2 * t.v * L_sq),
                RrC=Fraction(t.abc, 2 * t.w * L_sq),
            )
        a, b, c = self.as_tuple()
        s = semiperimeter(self)
        # Computed as half-sums directly: one rounding instead of two for floats.
        s_a = (-a + b + c) / 2
        s_b = (a - b + c) / 2
        s_c = (a + b - c) / 2
        K_sq = _area_sq_16(a, b, c) / 16
        abc = a * b * c
        return TriangleMetrics(
            s=s,
            K_sq=K_sq,
            R_sq=(abc * abc) / (16 * K_sq),
            r_sq=K_sq / (s * s),
            rA_sq=K_sq / (s_a * s_a),
            rB_sq=K_sq / (s_b * s_b),
            rC_sq=K_sq / (s_c * s_c),
            Rr=abc / (4 * s),
            RrA=abc / (4 * s_a),
            RrB=abc / (4 * s_b),
            RrC=abc / (4 * s_c),
        )

    @cached_property
    def _vertex_ninepoint_dist_sq(self) -> Tuple[Scalar, Scalar, Scalar]:
        """|AN|^2, |BN|^2, |CN|^2: (R^2 - a^2 + b^2 + c^2)/4 and its rotations.

        Exact sides go through the integer form, where R^2 = (abc)^2/(P L^2):
        one division per value."""
        if self.is_exact:
            t = self._integer_form
            a_sq, b_sq, c_sq = t.a * t.a, t.b * t.b, t.c * t.c
            abc_sq = t.abc * t.abc
            den = 4 * t.P * t.L * t.L
            return (
                Fraction(abc_sq + t.P * (-a_sq + b_sq + c_sq), den),
                Fraction(abc_sq + t.P * (-b_sq + c_sq + a_sq), den),
                Fraction(abc_sq + t.P * (-c_sq + a_sq + b_sq), den),
            )
        R_sq = self._metrics.R_sq
        a, b, c = self.as_tuple()
        return (
            (R_sq - a * a + b * b + c * c) / 4,
            (R_sq - b * b + c * c + a * a) / 4,
            (R_sq - c * c + a * a + b * b) / 4,
        )


def semiperimeter(sides: SideLengths) -> Scalar:
    return (sides.a + sides.b + sides.c) / 2


@dataclass(frozen=True)
class TriangleMetrics:
    """Squared metric quantities plus the mixed radius products.

    Storing R^2 rather than R (and R*r rather than either factor alone)
    keeps every field rational in the side lengths; the circumradius itself
    is usually irrational.
    """

    s: Scalar
    K_sq: Scalar
    R_sq: Scalar
    r_sq: Scalar
    rA_sq: Scalar
    rB_sq: Scalar
    rC_sq: Scalar
    Rr: Scalar
    RrA: Scalar
    RrB: Scalar
    RrC: Scalar


def _area_sq_16(a: Scalar, b: Scalar, c: Scalar) -> Scalar:
    # Stable product form with x >= y >= z; parenthesization matters for
    # floats and is exactly Heron's 16*K^2 for rationals.
    x, y, z = sorted((a, b, c), reverse=True)
    return (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))


class _IntegerTriangle(NamedTuple):
    """Exact sides scaled by the lcm L of their denominators, plus the
    integer polynomials every exact quantity is built from: p = a + b + c,
    (u, v, w) = p - 2(a, b, c) and P = p*u*v*w = 16K^2 of the scaled
    triangle.  Squared lengths of the original triangle are those of the
    scaled one divided by L^2."""

    L: int
    a: int
    b: int
    c: int
    p: int
    u: int
    v: int
    w: int
    P: int
    abc: int


def _integer_triangle(a, b, c, L=1) -> _IntegerTriangle:
    """Derived terms of integer sides.  Uses only ring operations, so it
    accepts symbolic sides as well."""
    p = a + b + c
    u = p - 2 * a
    v = p - 2 * b
    w = p - 2 * c
    return _IntegerTriangle(L, a, b, c, p, u, v, w, p * u * v * w, a * b * c)


def metrics(sides: SideLengths) -> TriangleMetrics:
    """All squared quantities of the triangle (see :class:`TriangleMetrics`),
    derived once per :class:`SideLengths` and shared by every caller."""
    return sides._metrics


@dataclass(frozen=True)
class Barycentric:
    """Normalized barycentric coordinates (components sum to 1).

    Components may be negative (excenters live outside the triangle).  The
    sum constraint is checked exactly, on integers, on the rational backend
    and against a magnitude-aware tolerance on floats.
    """

    alpha: Scalar
    beta: Scalar
    gamma: Scalar

    def __post_init__(self) -> None:
        alpha = coerce_scalar(self.alpha)
        beta = coerce_scalar(self.beta)
        gamma = coerce_scalar(self.gamma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        if isinstance(alpha, float) or isinstance(beta, float) or isinstance(gamma, float):
            total = alpha + beta + gamma
            scale = max(1.0, abs(float(alpha)), abs(float(beta)), abs(float(gamma)))
            if abs(float(total) - 1.0) > DEFAULT_TOLERANCE.bound(scale):
                raise ValueError(f"barycentric coordinates sum to {total!r}, not 1")
            return
        # Three Fractions n/d sum to 1 exactly when, cross-multiplied,
        # n_a d_b d_c + n_b d_a d_c + n_c d_a d_b = d_a d_b d_c.
        d_a, d_b, d_c = alpha.denominator, beta.denominator, gamma.denominator
        lhs = (alpha.numerator * d_b + beta.numerator * d_a) * d_c + gamma.numerator * d_a * d_b
        if lhs != d_a * d_b * d_c:
            raise ValueError(f"barycentric coordinates sum to {alpha + beta + gamma}, not 1")

    @property
    def components(self) -> Tuple[Scalar, Scalar, Scalar]:
        return (self.alpha, self.beta, self.gamma)


def point_on_side(
    dist_bx: Scalar,
    dist_cx: Scalar,
    sides: SideLengths,
    tol: ToleranceProfile = DEFAULT_TOLERANCE,
) -> Barycentric:
    """Coordinates (0, |CX|/a, |BX|/a) of a point X on segment BC.

    Endpoints are allowed: |BX| = 0 gives vertex B itself.  The two
    distances must be nonnegative and sum to a.
    """
    dist_bx = coerce_scalar(dist_bx)
    dist_cx = coerce_scalar(dist_cx)
    if dist_bx < 0 or dist_cx < 0:
        raise ValueError(f"negative distance along BC: |BX| = {dist_bx}, |CX| = {dist_cx}")
    a = sides.a
    total = dist_bx + dist_cx
    if is_exact(total) and is_exact(a):
        if total != a:
            raise ValueError(f"|BX| + |CX| = {total} does not equal a = {a}")
    elif abs(float(total) - float(a)) > tol.bound(float(a)):
        raise ValueError(f"|BX| + |CX| = {total!r} does not equal a = {a!r}")
    zero = a - a  # backend-matched zero
    return Barycentric(zero, dist_cx / a, dist_bx / a)


def barycentric_distance_sq(
    x: Barycentric,
    dist_ay_sq: Scalar,
    dist_by_sq: Scalar,
    dist_cy_sq: Scalar,
    sides: SideLengths,
) -> Scalar:
    """Squared distance |XY|^2 from X (barycentric) to Y (via its squared
    distances to the vertices); see the module docstring for the identity."""
    alpha, beta, gamma = x.components
    dist_ay_sq = coerce_scalar(dist_ay_sq)
    dist_by_sq = coerce_scalar(dist_by_sq)
    dist_cy_sq = coerce_scalar(dist_cy_sq)
    # Float first, then the first distance: the centroid's Fraction weights
    # meet float distances, and both keep the expression below.
    if not (
        isinstance(alpha, float)
        or isinstance(dist_ay_sq, float)
        or isinstance(beta, float)
        or isinstance(gamma, float)
        or isinstance(dist_by_sq, float)
        or isinstance(dist_cy_sq, float)
    ) and sides.is_exact:
        # Weights n/D1, distances m/D2 and sides (A, B, C)/L over common
        # denominators: |XY|^2 = (W D1 L^2 - Q D2) / (D1^2 D2 L^2), with
        # W = sum n m and Q = n_b n_c A^2 + n_c n_a B^2 + n_a n_b C^2.
        d1 = math.lcm(alpha.denominator, beta.denominator, gamma.denominator)
        n_a = alpha.numerator * (d1 // alpha.denominator)
        n_b = beta.numerator * (d1 // beta.denominator)
        n_c = gamma.numerator * (d1 // gamma.denominator)
        d2 = math.lcm(dist_ay_sq.denominator, dist_by_sq.denominator, dist_cy_sq.denominator)
        weighted = (
            n_a * dist_ay_sq.numerator * (d2 // dist_ay_sq.denominator)
            + n_b * dist_by_sq.numerator * (d2 // dist_by_sq.denominator)
            + n_c * dist_cy_sq.numerator * (d2 // dist_cy_sq.denominator)
        )
        t = sides._integer_form
        pairwise = n_b * n_c * t.a * t.a + n_c * n_a * t.b * t.b + n_a * n_b * t.c * t.c
        L_sq = t.L * t.L
        return Fraction(weighted * d1 * L_sq - pairwise * d2, d1 * d1 * d2 * L_sq)
    a, b, c = sides.as_tuple()
    weighted = alpha * dist_ay_sq + beta * dist_by_sq + gamma * dist_cy_sq
    pairwise = beta * gamma * (a * a) + gamma * alpha * (b * b) + alpha * beta * (c * c)
    return weighted - pairwise


def orientation(vertex_a: Point2, vertex_b: Point2, vertex_c: Point2) -> Scalar:
    """Twice the signed area of ABC; zero means collinear."""
    return (vertex_b - vertex_a).cross(vertex_c - vertex_a)


def barycentric_to_cartesian(
    x: Barycentric, vertex_a: Point2, vertex_b: Point2, vertex_c: Point2
) -> Point2:
    """Affine combination alpha*A + beta*B + gamma*C."""
    if orientation(vertex_a, vertex_b, vertex_c) == 0:
        raise ValueError("collinear vertices")
    return FloatPlane.barycentric_point(x.components, 1, vertex_a, vertex_b, vertex_c)


def cartesian_to_barycentric(
    point: Point2, vertex_a: Point2, vertex_b: Point2, vertex_c: Point2
) -> Barycentric:
    """Inverse of :func:`barycentric_to_cartesian` (2x2 linear solve)."""
    ac = vertex_a - vertex_c
    bc = vertex_b - vertex_c
    det = ac.cross(bc)
    if det == 0:
        raise ValueError("collinear vertices")
    xc = point - vertex_c
    alpha = xc.cross(bc) / det
    beta = ac.cross(xc) / det
    gamma = 1 - alpha - beta
    return Barycentric(alpha, beta, gamma)


def exact_vertices(sides: SideLengths) -> Optional[Tuple[Point2, Point2, Point2]]:
    """The canonical embedding over the rationals, or None for float sides.

    On the integer form, A = (x, y) with x = (a^2 + b^2 - c^2)/2aL and
    y^2 = P/(2aL)^2, so y is rational exactly when P is a perfect square.
    """
    if not sides.is_exact:
        return None
    t = sides._integer_form
    root = math.isqrt(t.P)
    if root * root != t.P:
        return None
    den = 2 * t.a * t.L
    zero = Fraction(0)
    x = Fraction(t.a * t.a + t.b * t.b - t.c * t.c, den)
    return (Point2(x, Fraction(root, den)), Point2(sides.a, zero), Point2(zero, zero))


def canonical_vertices(sides: SideLengths) -> Tuple[Point2, Point2, Point2]:
    """Embedding with C at the origin, B on the positive x-axis, A above:
    :func:`exact_vertices` where it exists, floats otherwise."""
    exact = exact_vertices(sides)
    if exact is not None:
        return exact
    a, b, c = (float(v) for v in sides.as_tuple())
    x = (a * a + b * b - c * c) / (2.0 * a)
    # Altitude via the stable area, not b^2 - x^2 (catastrophic when flat).
    k_sq = _area_sq_16(a, b, c) / 16.0
    y = 2.0 * math.sqrt(k_sq) / a
    return (Point2(x, y), Point2(a, 0.0), Point2(0.0, 0.0))


def sides_from_vertices(
    vertex_a: Point2,
    vertex_b: Point2,
    vertex_c: Point2,
    exact: Optional[bool] = None,
) -> SideLengths:
    """Side lengths a = |BC|, b = |CA|, c = |AB| of an embedded triangle.

    With ``exact=True`` all three squared lengths must be perfect squares;
    otherwise the lengths are irrational and only the float backend can
    carry them (InvalidTriangleError points that out).  ``exact=None``
    picks exact when possible and floats otherwise.
    """
    sq = (
        vertex_b.dist_sq(vertex_c),
        vertex_c.dist_sq(vertex_a),
        vertex_a.dist_sq(vertex_b),
    )
    coords_exact = all(p.is_exact for p in (vertex_a, vertex_b, vertex_c))
    if exact is None:
        exact = coords_exact and all(sqrt_exact(v) is not None for v in sq)
    if exact:
        if not coords_exact:
            raise InvalidTriangleError("exact side lengths need exact coordinates")
        roots = [sqrt_exact(v) for v in sq]
        if any(r is None for r in roots):
            raise InvalidTriangleError(
                "side lengths are irrational for these coordinates; use the float backend"
            )
        return SideLengths(*roots)  # type: ignore[arg-type]
    return SideLengths(*(math.sqrt(float(v)) for v in sq))
