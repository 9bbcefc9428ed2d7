"""Exact plane geometry on integer homogeneous coordinates.

A point is an integer triple (X, T, W) with W != 0.  It stands for the
point (X/W, T/W), and W may have either sign.  A vector uses the same
form.  A line is an integer triple (l, k, n): the points with
l*X + k*T + n*W = 0.  The line through two points is their cross product
(the join), and so is the point where two lines cross (the meet); a
direction (dx, dt) is the point at infinity (dx, dt, 0).  See J.
Richter-Gebert, *Perspectives on Projective Geometry* (Springer 2011),
ch. 1-2.

A :class:`Plane` measures lengths with the diagonal metric x^2 + m*t^2
for a positive integer m: its second coordinate is t = y/sqrt(m).  With
m = 1 it is the Cartesian plane.  Every exact triangle has a rational
frame on some such plane (N. J. Wildberger, *Divine Proportions*, 2005:
quadrance over any field), so the identity suite runs exactly on every
exact triangle, not only on those whose altitude is rational.  Only the
constructions that read lengths take m (``dot``, ``dist_sq``, ``perp``,
``unit_direction``, ``equidistant_point``, ``line_dist_sq``,
``project``); the affine ones (``midpoint``, ``intersect``, ``line``,
``barycentric_point``, ``orientation``, ``barycentric``) do not.  A frame
with m != 1 has no Cartesian exit: :meth:`Plane.as_point2` raises.

Every construction here is a ring expression in the coordinates, so no
gcd is ever taken.  A scalar comes out as an integer pair (num, den) that
stands for num/den: two of them are equal when num1*den2 == num2*den1, and
a ``Fraction`` is built only where a point leaves this layer
(:meth:`Plane.as_point2`); one that leaves it as floats, to be drawn,
takes none (:meth:`Plane.as_floats`).  The exact kernel's values are integer pairs
of the same form (the methods of ``triangle._IntegerTriangle``), and
ratios multiply, subtract and divide without reduction, so the identity
suite checks the kernel's products on integers and builds no
``Fraction`` on a passing triangle.

:meth:`Plane.lift` puts exact ``Point2``s over one shared weight, the lcm
of their denominators.  ``equidistant_point`` and ``barycentric_point``
need points of one weight; sums, differences and midpoints of points of
one weight share a weight again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

from .record import Record
from .triangle import Point2, Ratio

__all__ = ["Triple", "Ratio", "Plane", "cross"]

Triple = Tuple[int, int, int]


def cross(p: Triple, q: Triple) -> Triple:
    """The join of two points, or the meet of two lines."""
    (x1, y1, w1), (x2, y2, w2) = p, q
    return (y1 * w2 - w1 * y2, w1 * x2 - x1 * w2, x1 * y2 - y1 * x2)


def _dot3(p: Triple, q: Triple) -> int:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


class _TCoordinate(tuple):
    """A t coordinate of a frame with m != 1, as (t, w, m): the ratio t/w,
    which compares within its frame, but is not a Cartesian value."""

    __slots__ = ()


def _shared_weight(a: Triple, b: Triple, c: Triple) -> int:
    w = a[2]
    if b[2] != w or c[2] != w:
        raise ValueError("the points must share one weight")
    return w


class Plane(Record):
    """The constructions on integer triples under the metric x^2 + m*t^2;
    ``Plane(1)`` is the Cartesian plane.  A plane is its m, and compares
    by it.

    Scalars are integer ratios; the scalar operations (``product``,
    ``square``, ``difference``, ``quotient``, ``times``) do not read m, so
    the identity suite's own arithmetic on kernel values runs on the same
    namespace as its constructions."""

    __slots__ = _fields = ("m",)
    m: int

    def lift(self, points: Sequence[Point2]) -> Tuple[Triple, ...]:
        """Exact points over one shared weight, the lcm of their denominators."""
        w = math.lcm(*(v.denominator for p in points for v in (p.x, p.y)))
        return tuple(
            (p.x.numerator * (w // p.x.denominator), p.y.numerator * (w // p.y.denominator), w)
            for p in points
        )

    def as_point2(self, p: Triple) -> Point2:
        if self.m != 1:
            raise ValueError("t = y/sqrt(m) is not a Cartesian coordinate")
        x, y, w = p
        return Point2(Fraction(x, w), Fraction(y, w))

    def as_floats(self, p: Triple) -> Tuple[float, float]:
        """The Cartesian coordinates of a point of a frame with m = 1 as
        floats, one true division each: ``float()`` of those of
        :meth:`as_point2`, bit for bit, with no gcd."""
        x, y, w = p
        return x / w, y / w

    def coords(self, p: Triple) -> Tuple[Ratio, Ratio]:
        """The x and t coordinates, for comparison within this frame.  With
        m != 1 the t ratio is typed as a coordinate that carries m."""
        x, t, w = p
        return (x, w), ((t, w) if self.m == 1 else _TCoordinate((t, w, self.m)))

    def over_one(self, ratios: Sequence[Ratio]) -> Tuple[list, int]:
        """Ratios that share one denominator, as their numerators and it."""
        return [n for n, _ in ratios], ratios[0][1]

    def add(self, p: Triple, q: Triple) -> Triple:
        (x1, y1, w1), (x2, y2, w2) = p, q
        if w1 == w2:
            return (x1 + x2, y1 + y2, w1)
        return (x1 * w2 + x2 * w1, y1 * w2 + y2 * w1, w1 * w2)

    def sub(self, p: Triple, q: Triple) -> Triple:
        (x1, y1, w1), (x2, y2, w2) = p, q
        if w1 == w2:
            return (x1 - x2, y1 - y2, w1)
        return (x1 * w2 - x2 * w1, y1 * w2 - y2 * w1, w1 * w2)

    def scaled(self, p: Triple, k: int) -> Triple:
        x, y, w = p
        return (k * x, k * y, w)

    def times(self, k: int, r: Ratio) -> Ratio:
        return (k * r[0], r[1])

    def product(self, r: Ratio, s: Ratio) -> Ratio:
        return (r[0] * s[0], r[1] * s[1])

    def square(self, r: Ratio) -> Ratio:
        return (r[0] * r[0], r[1] * r[1])

    def difference(self, r: Ratio, s: Ratio) -> Ratio:
        return (r[0] * s[1] - s[0] * r[1], r[1] * s[1])

    def quotient(self, r: Ratio, s: Ratio) -> Ratio:
        """r / s, for s != 0; the denominator may come out negative."""
        return (r[0] * s[1], r[1] * s[0])

    def midpoint(self, p: Triple, q: Triple) -> Triple:
        x, y, w = self.add(p, q)
        return (x, y, 2 * w)

    def perp(self, v: Triple) -> Triple:
        """A normal of the vector: its quarter turn counterclockwise,
        scaled by sqrt(m)."""
        x, t, w = v
        return (-self.m * t, x, w)

    def dot(self, u: Triple, v: Triple) -> Ratio:
        (x1, t1, w1), (x2, t2, w2) = u, v
        return (x1 * x2 + self.m * t1 * t2, w1 * w2)

    def dist_sq(self, p: Triple, q: Triple) -> Ratio:
        x, t, w = self.sub(p, q)
        return (x * x + self.m * t * t, w * w)

    def orientation(self, a: Triple, b: Triple, c: Triple) -> int:
        """det[a; b; c]: zero exactly when the three points are collinear."""
        return _dot3(a, cross(b, c))

    def unit_direction(self, src: Triple, dst: Triple) -> Triple:
        """(dst - src) / |dst - src|; the length must be rational."""
        x, t, w = self.sub(dst, src)
        n = x * x + self.m * t * t
        root = math.isqrt(n)
        if root * root != n:
            raise ValueError("irrational edge length; the oracle needs a frame of exact sides")
        # The length is root/|w|, and (x/w) / (root/|w|) = x * sign(w) / root.
        return (x, t, root if w > 0 else -root)

    def intersect(self, p1: Triple, d1: Triple, p2: Triple, d2: Triple) -> Triple:
        """The meet of the line through p1 along d1 and the line through p2
        along d2: each line joins its point with the direction at infinity."""
        p = cross(cross(p1, (d1[0], d1[1], 0)), cross(p2, (d2[0], d2[1], 0)))
        if p[2] == 0:
            raise ValueError("parallel construction lines")
        return p

    def equidistant_point(self, p1: Triple, p2: Triple, p3: Triple) -> Triple:
        """The point X with |X - p1| = |X - p2| = |X - p3|, from the normal
        equations 2(p2 - p1).X = |p2|^2 - |p1|^2 (and p3) by Cramer's rule."""
        w = _shared_weight(p1, p2, p3)
        m = self.m
        (x1, t1, _), (x2, t2, _), (x3, t3, _) = p1, p2, p3
        ex, et = 2 * (x2 - x1), 2 * m * (t2 - t1)
        fx, ft = 2 * (x3 - x1), 2 * m * (t3 - t1)
        n1 = x1 * x1 + m * t1 * t1
        rhs_e = x2 * x2 + m * t2 * t2 - n1
        rhs_f = x3 * x3 + m * t3 * t3 - n1
        det = ex * ft - et * fx
        if det == 0:
            raise ValueError("collinear points have no equidistant center")
        # Over weight w the right-hand sides carry 1/w^2 and det 1/w^2.
        return (rhs_e * ft - rhs_f * et, ex * rhs_f - fx * rhs_e, det * w)

    def barycentric_point(
        self, weights: Tuple[int, int, int], d: int, a: Triple, b: Triple, c: Triple
    ) -> Triple:
        """The point (k_a*a + k_b*b + k_c*c) / d, for points of one weight."""
        w = _shared_weight(a, b, c)
        k_a, k_b, k_c = weights
        return (
            k_a * a[0] + k_b * b[0] + k_c * c[0],
            k_a * a[1] + k_b * b[1] + k_c * c[1],
            d * w,
        )

    def line(self, on_line: Triple, toward: Triple) -> Triple:
        """The line through two points: their join."""
        return cross(on_line, toward)

    def line_dist_sq(self, p: Triple, line: Triple) -> Ratio:
        """Squared distance from p to the line l*x + k*t + n = 0:
        s^2 / (l^2 + k^2/m), with s the line's value at p."""
        l, k, n = line
        x, t, w = p
        s = l * x + k * t + n * w
        return (self.m * s * s, w * w * (self.m * l * l + k * k))

    def project(self, p: Triple, on_line: Triple, toward: Triple) -> Triple:
        """Foot of the perpendicular from p to the line through on_line and
        toward: the meet of that line with the join of p and the line's
        normal direction (m*l, k)."""
        line = cross(on_line, toward)
        return cross(line, cross(p, (self.m * line[0], line[1], 0)))

    def barycentric(
        self, p: Triple, a: Triple, b: Triple, c: Triple
    ) -> Tuple[Ratio, Ratio, Ratio]:
        """Normalized barycentric coordinates of p: each is a ratio of
        determinants, e.g. alpha = det[p; b; c] * w_a / (det[a; b; c] * w_p)."""
        bc, ca, ab = cross(b, c), cross(c, a), cross(a, b)
        det = _dot3(a, bc)
        if det == 0:
            raise ValueError("collinear vertices")
        den = det * p[2]
        return ((_dot3(p, bc) * a[2], den), (_dot3(p, ca) * b[2], den), (_dot3(p, ab) * c[2], den))
