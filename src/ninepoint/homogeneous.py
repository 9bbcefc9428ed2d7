"""Exact plane geometry on integer homogeneous coordinates.

A point is an integer triple (X, Y, W) with W != 0.  It stands for the
Cartesian point (X/W, Y/W), and W may have either sign.  A vector uses the
same form.  A line is an integer triple (l, m, n): the points with
l*X + m*Y + n*W = 0.  The line through two points is their cross product
(the join), and so is the point where two lines cross (the meet); a
direction (dx, dy) is the point at infinity (dx, dy, 0).  See J.
Richter-Gebert, *Perspectives on Projective Geometry* (Springer 2011),
ch. 1-2.

Every construction here is a ring expression in the coordinates, so no
gcd is ever taken.  A scalar comes out as an integer pair (num, den) that
stands for num/den: two of them are equal when num1*den2 == num2*den1, and
a ``Fraction`` is built only where a value leaves this layer
(:func:`value`, :func:`as_point2`).  A kernel ``Fraction`` enters as its
numerator and denominator (:func:`scalar`), and ratios multiply, subtract
and divide without reduction (:func:`product`, :func:`difference`,
:func:`quotient`), so the identity suite checks the kernel's products on
integers.

:func:`lift` puts exact ``Point2``s over one shared weight, the lcm of
their denominators.  :func:`equidistant_point` and
:func:`barycentric_point` need points of one weight; sums, differences and
midpoints of points of one weight share a weight again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .triangle import Point2

__all__ = [
    "Triple",
    "Ratio",
    "lift",
    "as_point2",
    "value",
    "coords",
    "cross",
    "add",
    "sub",
    "scaled",
    "times",
    "scalar",
    "product",
    "square",
    "difference",
    "quotient",
    "midpoint",
    "perp",
    "dot",
    "dist_sq",
    "orientation",
    "length",
    "unit_direction",
    "intersect",
    "equidistant_point",
    "perpendicular_bisector",
    "circumcenter",
    "barycentric_point",
    "line_dist_sq",
    "project",
    "barycentric",
]

Triple = Tuple[int, int, int]
Ratio = Tuple[int, int]


def lift(points: Sequence[Point2]) -> Tuple[Triple, ...]:
    """Exact points over one shared weight, the lcm of their denominators."""
    w = math.lcm(*(v.denominator for p in points for v in (p.x, p.y)))
    return tuple(
        (p.x.numerator * (w // p.x.denominator), p.y.numerator * (w // p.y.denominator), w)
        for p in points
    )


def as_point2(p: Triple) -> Point2:
    x, y, w = p
    return Point2(Fraction(x, w), Fraction(y, w))


def value(r: Ratio) -> Fraction:
    return Fraction(r[0], r[1])


def coords(p: Triple) -> Tuple[Ratio, Ratio]:
    x, y, w = p
    return (x, w), (y, w)


def cross(p: Triple, q: Triple) -> Triple:
    """The join of two points, or the meet of two lines."""
    (x1, y1, w1), (x2, y2, w2) = p, q
    return (y1 * w2 - w1 * y2, w1 * x2 - x1 * w2, x1 * y2 - y1 * x2)


def _dot3(p: Triple, q: Triple) -> int:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def add(p: Triple, q: Triple) -> Triple:
    (x1, y1, w1), (x2, y2, w2) = p, q
    if w1 == w2:
        return (x1 + x2, y1 + y2, w1)
    return (x1 * w2 + x2 * w1, y1 * w2 + y2 * w1, w1 * w2)


def sub(p: Triple, q: Triple) -> Triple:
    (x1, y1, w1), (x2, y2, w2) = p, q
    if w1 == w2:
        return (x1 - x2, y1 - y2, w1)
    return (x1 * w2 - x2 * w1, y1 * w2 - y2 * w1, w1 * w2)


def scaled(p: Triple, k: int) -> Triple:
    x, y, w = p
    return (k * x, k * y, w)


def times(k: int, r: Ratio) -> Ratio:
    return (k * r[0], r[1])


def scalar(v: Fraction) -> Ratio:
    """A kernel scalar (a ``Fraction`` or an ``int``) as a ratio."""
    return (v.numerator, v.denominator)


def product(r: Ratio, s: Ratio) -> Ratio:
    return (r[0] * s[0], r[1] * s[1])


def square(r: Ratio) -> Ratio:
    return (r[0] * r[0], r[1] * r[1])


def difference(r: Ratio, s: Ratio) -> Ratio:
    return (r[0] * s[1] - s[0] * r[1], r[1] * s[1])


def quotient(r: Ratio, s: Ratio) -> Ratio:
    """r / s, for s != 0; the denominator may come out negative."""
    return (r[0] * s[1], r[1] * s[0])


def midpoint(p: Triple, q: Triple) -> Triple:
    x, y, w = add(p, q)
    return (x, y, 2 * w)


def perp(v: Triple) -> Triple:
    """The vector turned a quarter turn counterclockwise."""
    x, y, w = v
    return (-y, x, w)


def dot(u: Triple, v: Triple) -> Ratio:
    (x1, y1, w1), (x2, y2, w2) = u, v
    return (x1 * x2 + y1 * y2, w1 * w2)


def dist_sq(p: Triple, q: Triple) -> Ratio:
    x, y, w = sub(p, q)
    return (x * x + y * y, w * w)


def orientation(a: Triple, b: Triple, c: Triple) -> int:
    """det[a; b; c]: zero exactly when the three points are collinear."""
    return _dot3(a, cross(b, c))


def length(p: Triple, q: Triple) -> Optional[Ratio]:
    """|pq| as a ratio when it is rational, else None."""
    x, y, w = sub(p, q)
    n = x * x + y * y
    m = math.isqrt(n)
    if m * m != n:
        return None
    return (m, abs(w))


def unit_direction(src: Triple, dst: Triple) -> Triple:
    """(dst - src) / |dst - src|; the length must be rational."""
    x, y, w = sub(dst, src)
    m = length(src, dst)
    if m is None:
        raise ValueError("irrational edge length; run the oracle on floats")
    # (x/w) / (m/|w|) = x * sign(w) / m
    return (x, y, m[0] if w > 0 else -m[0])


def _meet(l1: Triple, l2: Triple, parallel: str) -> Triple:
    p = cross(l1, l2)
    if p[2] == 0:
        raise ValueError(parallel)
    return p


def intersect(p1: Triple, d1: Triple, p2: Triple, d2: Triple) -> Triple:
    """The meet of the line through p1 along d1 and the line through p2
    along d2: each line joins its point with the direction at infinity."""
    return _meet(
        cross(p1, (d1[0], d1[1], 0)),
        cross(p2, (d2[0], d2[1], 0)),
        "parallel construction lines",
    )


def _shared_weight(*points: Triple) -> int:
    w = points[0][2]
    if any(p[2] != w for p in points):
        raise ValueError("the points must share one weight")
    return w


def equidistant_point(p1: Triple, p2: Triple, p3: Triple) -> Triple:
    """The point X with |X - p1| = |X - p2| = |X - p3|, from the normal
    equations 2(p2 - p1).X = |p2|^2 - |p1|^2 (and p3) by Cramer's rule."""
    w = _shared_weight(p1, p2, p3)
    (x1, y1, _), (x2, y2, _), (x3, y3, _) = p1, p2, p3
    ex, ey = 2 * (x2 - x1), 2 * (y2 - y1)
    fx, fy = 2 * (x3 - x1), 2 * (y3 - y1)
    n1 = x1 * x1 + y1 * y1
    rhs_e = x2 * x2 + y2 * y2 - n1
    rhs_f = x3 * x3 + y3 * y3 - n1
    det = ex * fy - ey * fx
    if det == 0:
        raise ValueError("collinear points have no equidistant center")
    # Over weight w the right-hand sides carry 1/w^2 and det 1/w^2.
    return (rhs_e * fy - rhs_f * ey, ex * rhs_f - fx * rhs_e, det * w)


def perpendicular_bisector(p: Triple, q: Triple) -> Triple:
    """The line through the midpoint of pq, perpendicular to pq."""
    x, y, _ = sub(q, p)
    return cross(midpoint(p, q), (-y, x, 0))


def circumcenter(a: Triple, b: Triple, c: Triple) -> Triple:
    """The meet of the perpendicular bisectors of ab and ac."""
    return _meet(
        perpendicular_bisector(a, b),
        perpendicular_bisector(a, c),
        "collinear vertices have no circumcenter",
    )


def barycentric_point(
    weights: Tuple[int, int, int], d: int, a: Triple, b: Triple, c: Triple
) -> Triple:
    """The point (k_a*a + k_b*b + k_c*c) / d, for points of one weight."""
    w = _shared_weight(a, b, c)
    k_a, k_b, k_c = weights
    return (
        k_a * a[0] + k_b * b[0] + k_c * c[0],
        k_a * a[1] + k_b * b[1] + k_c * c[1],
        d * w,
    )


def line_dist_sq(p: Triple, on_line: Triple, toward: Triple) -> Ratio:
    """Squared distance from p to the line through on_line and toward."""
    l, m, n = cross(on_line, toward)
    x, y, w = p
    s = l * x + m * y + n * w
    return (s * s, w * w * (l * l + m * m))


def project(p: Triple, on_line: Triple, toward: Triple) -> Triple:
    """Foot of the perpendicular from p to the line through on_line and
    toward: the meet of that line with the join of p and the line's normal
    direction."""
    line = cross(on_line, toward)
    return cross(line, cross(p, (line[0], line[1], 0)))


def barycentric(p: Triple, a: Triple, b: Triple, c: Triple) -> Tuple[Ratio, Ratio, Ratio]:
    """Normalized barycentric coordinates of p: each is a ratio of
    determinants, e.g. alpha = det[p; b; c] * w_a / (det[a; b; c] * w_p)."""
    bc, ca, ab = cross(b, c), cross(c, a), cross(a, b)
    det = _dot3(a, bc)
    if det == 0:
        raise ValueError("collinear vertices")
    den = det * p[2]
    return ((_dot3(p, bc) * a[2], den), (_dot3(p, ca) * b[2], den), (_dot3(p, ab) * c[2], den))
