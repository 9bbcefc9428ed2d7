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

A triangle's backend is its sides': ``SideLengths`` and ``Barycentric``
hold three exact values or three floats, and the functions here take
their other values on the sides' backend.  ``SideLengths`` caches one
kernel, its backend: :class:`_IntegerTriangle`, whose values are
unreduced integer ratios, or :class:`_FloatTriangle`, whose values are
bare floats.  Both hold one formula per quantity, the tangency verdicts,
report fields and residuals of Feuerbach's circles included, under the
same method names, and both answer the same small vocabulary: the public
value of a result (``value``, ``values``), its float (``as_float``), a
weight over its sum (``ratio``), the zero of a component (``zero``) and
the kernel of other sides (``with_sides``).  So the public functions forward to the
kernel of the sides without asking which one it is; only validation and
the records that differ per backend (``point_on_side``,
``barycentric_distance_sq``, ``canonical_vertices``) still branch.  The
float area uses the sorted-operand stable product form, so
near-degenerate triangles lose precision only where the input data
already has.

:class:`FloatPlane` holds the plane constructions on bare ``(x, y)`` float
pairs under the names of :class:`ninepoint.homogeneous.Plane`, so the
Cartesian centers and the oracle are written once and run on either
carrier; a ``Point2`` is built only where a value leaves it.  The exact
embedding is written once, as integer triples in the frame of
:func:`_canonical_frame`, whose metric makes every exact triangle
rational; :func:`canonical_vertices` reads its Cartesian case as
``Point2``s, and the float embedding of the sides where there is none.
:data:`CENTER_WEIGHTS` gives all eight kernel centers as barycentric
weights, which both kernels read when they are called.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction
from functools import cached_property
from itertools import starmap
from typing import Any, NamedTuple, Sequence, Tuple, Union

from .numeric import (
    DEFAULT_TOLERANCE,
    Scalar,
    ToleranceProfile,
    coerce_backend,
    sqrt_exact,
)
from .record import Record, set_field

__all__ = [
    "InvalidTriangleError",
    "Point2",
    "FloatPlane",
    "CENTER_WEIGHTS",
    "CIRCLE_CENTERS",
    "SideLengths",
    "TriangleMetrics",
    "Barycentric",
    "metrics",
    "point_on_side",
    "barycentric_distance_sq",
    "canonical_vertices",
    "sides_from_vertices",
]


# The exact zero of a barycentric component or a residual; Fractions are
# immutable, so one is shared.
_ZERO = Fraction(0)


class InvalidTriangleError(ValueError):
    """Side lengths that cannot form a nondegenerate triangle."""


class Point2(Record):
    """Plane point over either scalar backend: two exact coordinates (ints
    are promoted to ``Fraction``) or two finite floats; a pair that mixes
    them raises ``TypeError``, as ``SideLengths`` does."""

    __slots__ = _fields = ("x", "y")
    x: Scalar
    y: Scalar

    def __init__(self, x: Scalar, y: Scalar) -> None:
        (x, y), exact = coerce_backend(x, y)
        if not exact:
            x, y = _pair(x, y)
        set_field(self, "x", x)
        set_field(self, "y", y)

    def dist_sq(self, other: "Point2") -> Scalar:
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.x, float)


Pair = Tuple[float, float]


def _pair(x: float, y: float) -> Pair:
    """The float point (x, y), with the finiteness check of ``Point2``."""
    if math.isfinite(x) and math.isfinite(y):
        return x, y
    raise ValueError(f"non-finite coordinate {(y if math.isfinite(x) else x)!r}")


class FloatPlane:
    """Plane constructions on float pairs ``(x, y)``; scalars are floats.

    The namespace mirrors :class:`ninepoint.homogeneous.Plane` name for
    name, so a construction written against a "plane" runs on either
    carrier.  It is the carrier of float vertices: :meth:`lift` turns
    ``Point2``s into pairs, and :meth:`as_point2` turns a pair back where
    it leaves the layer.  Each construction makes the float operations of
    the same construction in ``Point2`` arithmetic, in the same order, and
    checks each point it makes as ``Point2`` does, so results and errors
    match that form bit for bit (``tests/point2_reference.py`` keeps it as
    the reference, with the ``Point2`` arithmetic it needs).  The
    scalar operations (``times``, ``product``, ``square``, ``difference``,
    ``quotient``) are the float operators, so the identity suite's own
    arithmetic on float sides makes the operations it always made."""

    times = staticmethod(operator.mul)
    product = staticmethod(operator.mul)
    difference = staticmethod(operator.sub)
    quotient = staticmethod(operator.truediv)

    @staticmethod
    def square(v: float) -> float:
        """``v ** 2``: the float power, which raises ``OverflowError`` where
        ``v * v`` would give an infinity."""
        return v ** 2

    @staticmethod
    def lift(points: Sequence[Point2]) -> Tuple[Pair, ...]:
        """The points as float pairs.  ``float`` of a ``Fraction`` is finite
        or raises ``OverflowError``, so the pairs need no further check."""
        return tuple((float(p.x), float(p.y)) for p in points)

    @staticmethod
    def as_point2(p: Pair) -> Point2:
        return Point2(p[0], p[1])

    @staticmethod
    def coords(p: Pair) -> Pair:
        return p

    as_floats = coords

    @staticmethod
    def over_one(values: Sequence[float]) -> Tuple[Sequence[float], int]:
        """The values over the denominator 1: the form in which the exact
        plane gives ratios that share one denominator."""
        return values, 1

    @staticmethod
    def add(p: Pair, q: Pair) -> Pair:
        return _pair(p[0] + q[0], p[1] + q[1])

    @staticmethod
    def sub(p: Pair, q: Pair) -> Pair:
        return _pair(p[0] - q[0], p[1] - q[1])

    @staticmethod
    def scaled(p: Pair, k: Scalar) -> Pair:
        return _pair(k * p[0], k * p[1])

    @staticmethod
    def dot(p: Pair, q: Pair) -> float:
        return p[0] * q[0] + p[1] * q[1]

    @staticmethod
    def dist_sq(p: Pair, q: Pair) -> float:
        dx = p[0] - q[0]
        dy = p[1] - q[1]
        return dx * dx + dy * dy

    @staticmethod
    def midpoint(p: Pair, q: Pair) -> Pair:
        return _pair((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)

    @staticmethod
    def perp(d: Pair) -> Pair:
        return -d[1], d[0]

    @staticmethod
    def orientation(vertex_a: Pair, vertex_b: Pair, vertex_c: Pair) -> float:
        """Twice the signed area of the triangle; zero means collinear."""
        abx, aby = _pair(vertex_b[0] - vertex_a[0], vertex_b[1] - vertex_a[1])
        acx, acy = _pair(vertex_c[0] - vertex_a[0], vertex_c[1] - vertex_a[1])
        return abx * acy - aby * acx

    @staticmethod
    def unit_direction(src: Pair, dst: Pair) -> Pair:
        dx, dy = _pair(dst[0] - src[0], dst[1] - src[1])
        k = 1.0 / math.sqrt(dx * dx + dy * dy)
        return _pair(k * dx, k * dy)

    @staticmethod
    def intersect(p1: Pair, d1: Pair, p2: Pair, d2: Pair) -> Pair:
        """Intersection of p1 + t*d1 and p2 + u*d2."""
        d1x, d1y = d1
        d2x, d2y = d2
        det = d1x * d2y - d1y * d2x
        if det == 0:
            raise ValueError("parallel construction lines")
        ex, ey = _pair(p2[0] - p1[0], p2[1] - p1[1])
        t = (ex * d2y - ey * d2x) / det
        sx, sy = _pair(t * d1x, t * d1y)
        return _pair(p1[0] + sx, p1[1] + sy)

    @staticmethod
    def equidistant_point(p1: Pair, p2: Pair, p3: Pair) -> Pair:
        """The point with |X - p1| = |X - p2| = |X - p3|."""
        (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
        ex = 2 * (x2 - x1)
        ey = 2 * (y2 - y1)
        fx = 2 * (x3 - x1)
        fy = 2 * (y3 - y1)
        n1 = x1 * x1 + y1 * y1
        rhs_e = (x2 * x2 + y2 * y2) - n1
        rhs_f = (x3 * x3 + y3 * y3) - n1
        det = ex * fy - ey * fx
        if det == 0:
            raise ValueError("collinear points have no equidistant center")
        return _pair((rhs_e * fy - rhs_f * ey) / det, (ex * rhs_f - fx * rhs_e) / det)

    @staticmethod
    def barycentric_point(
        weights: Tuple[Scalar, Scalar, Scalar], d: Scalar, a: Pair, b: Pair, c: Pair
    ) -> Pair:
        """The point (k_a*a + k_b*b + k_c*c) / d, as (k_a/d)*a + (k_b/d)*b,
        then + (k_c/d)*c."""
        k_a, k_b, k_c = weights
        k = k_a / d
        ax, ay = _pair(k * a[0], k * a[1])
        k = k_b / d
        bx, by = _pair(k * b[0], k * b[1])
        sx, sy = _pair(ax + bx, ay + by)
        k = k_c / d
        cx, cy = _pair(k * c[0], k * c[1])
        return _pair(sx + cx, sy + cy)

    @staticmethod
    def line(on_line: Pair, toward: Pair) -> Tuple[float, float, float, float]:
        """The infinite line through two points, as one of them and the
        direction to the other: (x0, y0, dx, dy)."""
        x0, y0 = on_line
        return (x0, y0, *_pair(toward[0] - x0, toward[1] - y0))

    @staticmethod
    def line_dist_sq(point: Pair, line: Tuple[float, float, float, float]) -> float:
        """Squared distance from a point to a line of :meth:`line`."""
        x0, y0, dx, dy = line
        ex, ey = _pair(point[0] - x0, point[1] - y0)
        num = dx * ey - dy * ex
        return (num * num) / (dx * dx + dy * dy)

    @staticmethod
    def project(point: Pair, on_line: Pair, toward: Pair) -> Pair:
        x0, y0 = on_line
        dx, dy = _pair(toward[0] - x0, toward[1] - y0)
        ex, ey = _pair(point[0] - x0, point[1] - y0)
        t = (ex * dx + ey * dy) / (dx * dx + dy * dy)
        sx, sy = _pair(t * dx, t * dy)
        return _pair(x0 + sx, y0 + sy)

    @staticmethod
    def barycentric(point: Pair, a: Pair, b: Pair, c: Pair) -> Tuple[float, float, float]:
        """Normalized barycentric coordinates of the point, by Cramer's
        rule on the vectors from C."""
        xc, yc = c
        acx, acy = _pair(a[0] - xc, a[1] - yc)
        bcx, bcy = _pair(b[0] - xc, b[1] - yc)
        det = acx * bcy - acy * bcx
        if det == 0:
            raise ValueError("collinear vertices")
        px, py = _pair(point[0] - xc, point[1] - yc)
        alpha = (px * bcy - py * bcx) / det
        beta = (acx * py - acy * px) / det
        gamma = 1 - alpha - beta
        _check_float_sum(alpha, beta, gamma)
        return alpha, beta, gamma


# Barycentric weights (x_a, x_b, x_c) and their sum d of every kernel
# center, as ring expressions of the sides a, b, c: the center is
# (x_a, x_b, x_c) / d.  They serve every backend, integers included; the
# sums of I and the excenters keep their float addition order.  With
# Conway's S_A = b^2 + c^2 - a^2 (and cyclic), O = (a^2 S_A : b^2 S_B :
# c^2 S_C) and H = (S_B S_C : S_C S_A : S_A S_B).  Both weight sums are
# 16K^2, so their sum weighs N, the midpoint of OH (Kimberling,
# Encyclopedia of Triangle Centers, X(3), X(4), X(5); Yiu, Introduction to
# the Geometry of the Triangle).
def _euler_weights(a, b, c):
    """The weights of O and of H."""
    a_sq, b_sq, c_sq = a * a, b * b, c * c
    s_a, s_b, s_c = b_sq + c_sq - a_sq, c_sq + a_sq - b_sq, a_sq + b_sq - c_sq
    return (a_sq * s_a, b_sq * s_b, c_sq * s_c), (s_b * s_c, s_c * s_a, s_a * s_b)


def _summed(x):
    return x, x[0] + x[1] + x[2]


CENTER_WEIGHTS = {
    "O": lambda a, b, c: _summed(_euler_weights(a, b, c)[0]),
    "G": lambda a, b, c: ((1, 1, 1), 3),
    "H": lambda a, b, c: _summed(_euler_weights(a, b, c)[1]),
    "N": lambda a, b, c: _summed(tuple(map(operator.add, *_euler_weights(a, b, c)))),
    "I": lambda a, b, c: ((a, b, c), a + b + c),
    "Ea": lambda a, b, c: ((-a, b, c), -a + b + c),
    "Eb": lambda a, b, c: ((a, -b, c), -b + c + a),
    "Ec": lambda a, b, c: ((a, b, -c), -c + a + b),
}
# The centers of the incircle and the excircles, whose barycentric forms
# each SideLengths builds and the tangency kernel reads.
CIRCLE_CENTERS = ("I", "Ea", "Eb", "Ec")
# The circles compared with the nine-point circle, in report order: the
# incircle, then the excircles opposite A, B and C; and each one's center.
CIRCLES = ("incircle", "exA", "exB", "exC")
_CENTER_OF = dict(zip(CIRCLES, CIRCLE_CENTERS))


class SideLengths(Record):
    """Validated side lengths a = |BC|, b = |CA|, c = |AB|.

    The three sides are exact (ints are promoted to ``Fraction``) or
    floats; a triple that mixes them raises ``TypeError``.  Construction
    enforces positivity and the strict triangle inequality; the diagnostic
    names the violated inequality.  Equilateral triples are accepted but
    flagged, because the incircle and the nine-point circle then coincide
    instead of being tangent.  No ``__slots__``: the derived values below
    are cached in the instance ``__dict__``.
    """

    _fields = ("a", "b", "c")
    a: Scalar
    b: Scalar
    c: Scalar
    # Read by nearly every kernel function; decided once, from the sides'
    # types, like the derived values below.
    is_exact: bool

    def __init__(self, a: Scalar, b: Scalar, c: Scalar) -> None:
        kind = type(a)
        if kind is type(b) is type(c) and (kind is float or kind is Fraction):
            exact = kind is Fraction
        else:
            (a, b, c), exact = coerce_backend(a, b, c)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)
        set_field(self, "is_exact", exact)
        for name, value in (("a", a), ("b", b), ("c", c)):
            if not exact and not math.isfinite(value):
                raise InvalidTriangleError(f"non-finite side: {name} = {value!r}")
            if (value.numerator if exact else value) <= 0:
                raise InvalidTriangleError(f"invalid side: {name} <= 0")
        if exact:
            _checked_integer_form(self._kernel)
        else:
            _check_inequalities(((a + b, c), (b + c, a), (c + a, b)))

    @property
    def is_equilateral(self) -> bool:
        t = self._kernel
        return t.a == t.b == t.c

    def as_tuple(self) -> Tuple[Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c)

    def conditioning(self) -> float:
        """max side over min(s - a, s - b, s - c); large means near-degenerate."""
        return _conditioning(_float_triangle(float(self.a), float(self.b), float(self.c)))

    # Derived once per triangle.  The fields are frozen, so these cannot go
    # stale; equality and hashing still read only a, b and c.

    @cached_property
    def _kernel(self) -> Union["_IntegerTriangle", "_FloatTriangle"]:
        """The kernel that every quantity of the sides is read from: the
        integer form of exact sides, which divides only when it builds an
        output field, or the float kernel of float sides."""
        if not self.is_exact:
            return _float_triangle(self.a, self.b, self.c)
        a, b, c = self.as_tuple()
        L = math.lcm(a.denominator, b.denominator, c.denominator)
        return _integer_triangle(
            a.numerator * (L // a.denominator),
            b.numerator * (L // b.denominator),
            c.numerator * (L // c.denominator),
            L,
        )

    @cached_property
    def _metric_terms(self) -> Tuple[Any, ...]:
        """The kernel's metrics: unreduced integer ratios on exact sides,
        floats on float sides."""
        return self._kernel.metrics()

    @cached_property
    def _metrics(self) -> "TriangleMetrics":
        """K^2 = s(s-a)(s-b)(s-c), R^2 = (abc)^2 / 16K^2, r^2 = K^2/s^2,
        r_a^2 = K^2/(s-a)^2, R*r = abc/4s, R*r_a = abc/4(s-a): the public
        values of the kernel's, one division per exact field."""
        t = self._kernel
        return TriangleMetrics(*t.values(self._metric_terms))

    @cached_property
    def _canonical(self) -> Tuple[int, Tuple[Tuple[int, int, int], ...]]:
        """The canonical frame of exact sides (:func:`_canonical_frame`),
        sought once per triangle."""
        return _canonical_frame(self._kernel)


class TriangleMetrics(Record):
    """Squared metric quantities plus the mixed radius products.

    Storing R^2 rather than R (and R*r rather than either factor alone)
    keeps every field rational in the side lengths; the circumradius itself
    is usually irrational.  The exact kernel's
    :meth:`_IntegerTriangle.metrics` holds the same fields as integer
    ratios ``(num, den)``, and the float kernel's
    :meth:`_FloatTriangle.metrics` as bare floats.
    """

    __slots__ = _fields = (
        "s", "K_sq", "R_sq", "r_sq", "rA_sq", "rB_sq", "rC_sq", "Rr", "RrA", "RrB", "RrC"
    )
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


Ratio = Tuple[int, int]


class _SquareRatio:
    """The exact value root^2 / den, unreduced, with den > 0: the form in
    which :meth:`_IntegerTriangle.tangency` hands over both right-hand
    sides of a tangent circle, over one den, the chosen one also as its
    lhs.  Its ``Fraction`` is built once, on the first :meth:`value`.  A
    plain class: a ``NamedTuple`` would cost every import about 0.1 ms."""

    __slots__ = ("root", "den", "_value")

    def __init__(self, root: int, den: int) -> None:
        self.root = root
        self.den = den
        self._value = None

    def value(self) -> Fraction:
        """The public value: the ``Fraction`` of root^2 / den, one gcd on
        the square's digits, built on the first call."""
        if self._value is None:
            self._value = Fraction(self.root * self.root, self.den)
        return self._value

    def minus(self, other: "_SquareRatio") -> Fraction:
        """root^2 / den minus ``other`` over the same den: one ``Fraction``."""
        return Fraction(self.root * self.root - other.root * other.root, self.den)

    def reduced(self) -> Ratio:
        """Lowest terms, from gcds on the root's digits: with
        g = gcd(root, den), root/g and den/g are coprime, so
        gcd(root^2, den) = g * gcd(g, den/g).  A zero root gives (0, 1)."""
        g = math.gcd(self.root, self.den)
        g *= math.gcd(g, self.den // g)
        return self.root * self.root // g, self.den // g


class _IntegerTriangle(NamedTuple):
    """Exact sides scaled by the lcm L of their denominators, plus the
    integer polynomials every exact quantity is built from: p = a + b + c,
    (u, v, w) = p - 2(a, b, c) and P = p*u*v*w = 16K^2 of the scaled
    triangle.  Squared lengths of the original triangle are those of the
    scaled one divided by L^2.

    The methods are the exact kernel: each quantity has one formula, an
    unreduced ratio (num, den) of integers.  The public functions reduce
    it to one ``Fraction`` (:meth:`value`); the identity suite compares
    the ratios by cross-multiplication.  The methods use only ring
    operations, so they accept symbolic sides as well."""

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

    # The public value of a result: one reduced Fraction.  A weight over
    # its sum is one Fraction too, and a zero component the shared zero.
    @staticmethod
    def value(r: Ratio) -> Fraction:
        return Fraction(*r)

    @staticmethod
    def values(rs: Sequence[Ratio]) -> Tuple[Fraction, ...]:
        return tuple(starmap(Fraction, rs))

    ratio = staticmethod(Fraction)
    zero = _ZERO

    @staticmethod
    def as_float(r: Ratio) -> float:
        """A result as a float: one true division, which rounds correctly
        as ``float()`` of its reduced ``Fraction`` does, with no gcd."""
        return r[0] / r[1]

    def with_sides(self, a: int, b: int, c: int) -> "_IntegerTriangle":
        """The integer form of the sides a, b, c over the same L."""
        return _integer_triangle(a, b, c, self.L)

    def metrics(self) -> Tuple[Ratio, ...]:
        """The fields of :class:`TriangleMetrics`, in order, as ratios.  With
        sides a/L, b/L, c/L: s = p/2L, K^2 = P/16L^4, R^2 = (abc)^2/(P L^2),
        r^2 = P/(4 p^2 L^2) = u v w/(4 p L^2), R*r = abc/(2 p L^2), and u, v,
        w stand in for p in the excircle terms.  Cancelling the known factor
        of P first leaves a smaller gcd.  So does cancelling h = gcd(abc,
        L^2) once: the sides' denominators enter abc and L^2 alike, so R^2 is
        ((abc/h)^2 h) / (P L^2/h) and R*r is (abc/h) / (2p L^2/h), each
        exact, and every reduction of them runs on smaller integers."""
        L, _, _, _, p, u, v, w, P, abc = self
        L_sq, vw, pu = L * L, v * w, p * u
        h = math.gcd(abc, L_sq)
        abc_h, L_sq_h = abc // h, L_sq // h
        return (
            (p, 2 * L),  # s
            (P, 16 * L_sq * L_sq),  # K_sq
            (abc_h * abc_h * h, P * L_sq_h),  # R_sq
            (u * vw, 4 * p * L_sq),  # r_sq
            (p * vw, 4 * u * L_sq),  # rA_sq
            (pu * w, 4 * v * L_sq),  # rB_sq
            (pu * v, 4 * w * L_sq),  # rC_sq
            (abc_h, 2 * p * L_sq_h),  # Rr
            (abc_h, 2 * u * L_sq_h),  # RrA
            (abc_h, 2 * v * L_sq_h),  # RrB
            (abc_h, 2 * w * L_sq_h),  # RrC
        )

    def vertex_ninepoint_dist_sq(self) -> Tuple[Ratio, Ratio, Ratio]:
        """|AN|^2, |BN|^2, |CN|^2: (R^2 - a^2 + b^2 + c^2)/4 and its rotations."""
        a_sq, b_sq, c_sq = self.a * self.a, self.b * self.b, self.c * self.c
        abc_sq, P = self.abc * self.abc, self.P
        den = 4 * P * self.L * self.L
        return (
            (abc_sq + P * (-a_sq + b_sq + c_sq), den),
            (abc_sq + P * (-b_sq + c_sq + a_sq), den),
            (abc_sq + P * (-c_sq + a_sq + b_sq), den),
        )

    def circumdot(self, k: int) -> Ratio:
        """(P - O).(Q - O) for the two vertices other than vertex k:
        R^2 - o^2/2 for the side o/L opposite k, (2(abc)^2 - P o^2) / (2 P L^2)."""
        o = (self.a, self.b, self.c)[k]
        return 2 * self.abc * self.abc - self.P * o * o, 2 * self.P * self.L * self.L

    def side_point(self, bx: Ratio, cx: Ratio) -> Tuple[Ratio, Ratio]:
        """|CX|/a and |BX|/a, the B and C coordinates of the point X on BC
        with |BX| = bx and |CX| = cx."""
        return (cx[0] * self.L, cx[1] * self.a), (bx[0] * self.L, bx[1] * self.a)

    def circle_terms(self) -> Tuple[int, ...]:
        """What the four circles' numerators share, computed once per
        triangle: with Conway's S_A = b^2 + c^2 - a^2 (and cyclic), the six
        products a*S_A, b*S_B, c*S_C, abc*a, abc*b and abc*c, then the
        right-hand sides' denominator 4*P*L^2.  Every circle center's
        weights are (+-a, +-b, +-c), so its q1 and q2
        (:meth:`tangency_numerators`) are signed sums of the six.  Here abc
        is the product of the sides, as the distance identity reads it."""
        a, b, c = self.a, self.b, self.c
        a_sq, b_sq, c_sq = a * a, b * b, c * c
        abc = a * b * c
        return (
            a * (b_sq + c_sq - a_sq), b * (c_sq + a_sq - b_sq), c * (a_sq + b_sq - c_sq),
            abc * a, abc * b, abc * c,
            4 * self.P * self.L * self.L,
        )

    def tangency_numerators(self, circle: str, terms: Any) -> Tuple[int, int, int]:
        """e, 2*abc*d and d of the circle with center X and radius r_X, where
        d is its weight sum: over 4*d^2*L^2, e + 2*abc*d is the residual
        |XN|^2 - (R/2 - r_X)^2 and e - 2*abc*d is |XN|^2 - (R/2 + r_X)^2.
        ``terms`` is :meth:`circle_terms`.

        With |AN|^2 = (R^2 - a^2 + b^2 + c^2)/4 and cyclic, R^2 = (abc)^2/P and
        weights x/d summing to 1, the barycentric distance identity gives
        |XN|^2 = R^2/4 + q1/(4d) - q2/d^2, with q1 = x_a*S_A + x_b*S_B +
        x_c*S_C and q2 = x_b*x_c*a^2 + x_c*x_a*b^2 + x_a*x_b*c^2; the radii
        satisfy R/2 -+ r_X = (abc*d -+ P) / (2d*sqrt(P)), with the minus sign
        for the incircle.  So over 4*P*d^2*L^2 the numerators of |XN|^2 and
        (R/2 -+ r_X)^2 are (abc*d)^2 + P*(d*q1 - 4*q2) and (abc*d -+ P)^2;
        their difference is P*(e +- 2*abc*d) with e = d*q1 - 4*q2 - P, and
        P cancels.  The weights are (s_a*a, s_b*b, s_c*c) with signs read
        from the center's CENTER_WEIGHTS entry when called, so x_a*S_A is
        s_a*(a*S_A) and x_b*x_c*a^2 is s_b*s_c*(abc*a).
        """
        (s_a, s_b, s_c), _ = CENTER_WEIGHTS[_CENTER_OF[circle]](1, 1, 1)
        a_s_a, b_s_b, c_s_c, abc_a, abc_b, abc_c, _ = terms
        d = s_a * self.a + s_b * self.b + s_c * self.c
        q1 = s_a * a_s_a + s_b * b_s_b + s_c * c_s_c
        q2 = s_b * s_c * abc_a + s_c * s_a * abc_b + s_a * s_b * abc_c
        return d * q1 - 4 * q2 - self.P, 2 * self.abc * d, d

    def decision(self, circle: str, terms: Any) -> Tuple["Tangency", Tuple[int, int, int]]:
        """The circle's exact kind, decided on its numerators: |XN|^2 equals
        (R/2 - r_X)^2 exactly when e = -2*abc*d, (R/2 + r_X)^2 when
        e = 2*abc*d, and the radii are equal when abc*d = P; and the
        numerators."""
        numerators = e, two_abc_d, _ = self.tangency_numerators(circle, terms)
        return _exact_kind(e, -two_abc_d, two_abc_d, two_abc_d == 2 * self.P), numerators

    def verdict(self, circle: str, met: Any, terms: Any, tol: Any) -> Tuple["Tangency", Ratio]:
        """The circle's kind and its :meth:`residual`, from one numerator
        triple and the triangle's :meth:`circle_terms`; exact sides need
        neither the metrics nor a tolerance."""
        kind, numerators = self.decision(circle, terms)
        return kind, self._residual_ratio(circle, numerators)

    def tangency(self, circle: str, met: Any, terms: Any, tol: Any) -> Tuple[Any, ...]:
        """The fields of the circle's ``feuerbach.TangencyReport``: the kind,
        lhs and the two right-hand sides, from :meth:`decision` on the
        triangle's :meth:`circle_terms`.  Like :meth:`verdict`, it needs
        neither the metrics nor a tolerance.

        The circle's weight sum d (one of p, u, v, w) divides P = p*u*v*w,
        so the right-hand sides (abc*d -+ P)^2 / (4*P*d^2*L^2) are
        (abc -+ P/d)^2 / (4*P*L^2), whose denominator the terms carry.  A
        tangent kind hands them over as those squares, unreduced
        (:class:`_SquareRatio`), and the chosen one is also the lhs, which
        it equals; nothing large is reduced until a value is read.
        NotTangent has no identity to lean on and reduces its three
        fields."""
        kind, (e, two_abc_d, d) = self.decision(circle, terms)
        if kind is Tangency.NOT_TANGENT:
            den = terms[6] * d * d
            abc_d = self.abc * d
            rhs_internal = (abc_d - self.P) ** 2
            return (
                kind,
                Fraction(rhs_internal + self.P * (e + two_abc_d), den),
                Fraction(rhs_internal, den),
                Fraction((abc_d + self.P) ** 2, den),
            )
        square_den, P_d = terms[6], self.P // d
        internal = _SquareRatio(self.abc - P_d, square_den)
        external = _SquareRatio(self.abc + P_d, square_den)
        return kind, external if kind is Tangency.EXTERNAL_TANGENT else internal, internal, external

    def residual(self, circle: str) -> Ratio:
        """|XN|^2 - (R/2 - r_X)^2 for the incircle, |XN|^2 - (R/2 + r_X)^2
        for an excircle: the comparison Feuerbach's theorem makes exact."""
        return self._residual_ratio(circle, self.tangency_numerators(circle, self.circle_terms()))

    def _residual_ratio(self, circle: str, numerators: Tuple[int, int, int]) -> Ratio:
        """(e + 2*abc*d) / (4*d^2*L^2) for the incircle, e - 2*abc*d over
        the same for an excircle."""
        e, two_abc_d, d = numerators
        return e + two_abc_d if circle == "incircle" else e - two_abc_d, 4 * (d * self.L) ** 2

    def distance_sq(
        self, x: Tuple[int, int, int], d1: int, dist: Tuple[int, int, int], d2: int
    ) -> Ratio:
        """|XY|^2 by the barycentric distance identity, for X = x/d1 and Y
        at squared distances dist/d2 from A, B and C: (W d1 L^2 - Q d2) /
        (d1^2 d2 L^2), with W = sum x dist and
        Q = x_b x_c a^2 + x_c x_a b^2 + x_a x_b c^2."""
        (n_a, n_b, n_c), (m_a, m_b, m_c) = x, dist
        weighted = n_a * m_a + n_b * m_b + n_c * m_c
        pairwise = n_b * n_c * self.a * self.a + n_c * n_a * self.b * self.b
        pairwise += n_a * n_b * self.c * self.c
        L_sq = self.L * self.L
        return weighted * d1 * L_sq - pairwise * d2, d1 * d1 * d2 * L_sq


def _integer_triangle(a, b, c, L=1) -> _IntegerTriangle:
    """Derived terms of integer sides.  Uses only ring operations, so it
    accepts symbolic sides as well."""
    p = a + b + c
    u = p - 2 * a
    v = p - 2 * b
    w = p - 2 * c
    return _IntegerTriangle(L, a, b, c, p, u, v, w, p * u * v * w, a * b * c)


def _check_inequalities(inequalities: Tuple[Tuple[Any, Any], ...]) -> None:
    """The strict triangle inequalities a + b > c, b + c > a and
    c + a > b, each given as a pair (total, rhs); the diagnostic names the
    violated one."""
    for (total, rhs), text, opposite in zip(inequalities, ("a + b", "b + c", "c + a"), "cab"):
        if total == rhs:
            raise InvalidTriangleError(f"degenerate: {text} = {opposite}")
        if total < rhs:
            raise InvalidTriangleError(f"not a triangle: {text} < {opposite}")


def _checked_integer_form(t: _IntegerTriangle) -> _IntegerTriangle:
    """The integer form, checked against the triangle inequalities as
    ``SideLengths`` checks exact sides: a + b - c = w/L and its rotations,
    with L > 0, so the signs of w, u, v decide (and, all positive, make the
    sides positive too)."""
    _check_inequalities(((t.w, 0), (t.u, 0), (t.v, 0)))
    return t


class _FloatTriangle(NamedTuple):
    """Float sides and the terms every float quantity is built from: s and
    s - a, s - b, s - c as half-sums (one rounding each), K^2 by the
    sorted-operand product and abc.  None of them divides by a value of
    the sides, so building one raises nothing.

    The methods are the float kernel, under the names and argument order
    of :class:`_IntegerTriangle`'s: each float quantity has one formula,
    which returns bare floats, and the public functions on float sides
    forward to it.  Each makes the float operations that those functions
    have always made, in the same order, so no bit moves.  A ``met``
    argument is the tuple of :meth:`metrics`."""

    a: float
    b: float
    c: float
    s: float
    s_a: float
    s_b: float
    s_c: float
    K_sq: float
    abc: float

    # The public value of a result, and its float, is the bare float
    # (``float`` and ``tuple`` return a float and a tuple as they are); a
    # weight over its sum is one true division.
    value = as_float = staticmethod(float)
    values = staticmethod(tuple)
    ratio = staticmethod(operator.truediv)
    zero = 0.0

    def with_sides(self, a: float, b: float, c: float) -> "_FloatTriangle":
        """The float kernel of the sides a, b, c."""
        return _float_triangle(a, b, c)

    def _R_sq(self) -> float:
        return (self.abc * self.abc) / (16 * self.K_sq)

    def metrics(self) -> Tuple[float, ...]:
        """The fields of :class:`TriangleMetrics`, in order: R^2 =
        (abc)^2/16K^2, r^2 = K^2/s^2, r_a^2 = K^2/(s-a)^2, R*r = abc/4s,
        R*r_a = abc/4(s-a) and their rotations."""
        _, _, _, s, s_a, s_b, s_c, K_sq, abc = self
        return (
            s, K_sq, self._R_sq(),
            K_sq / (s * s), K_sq / (s_a * s_a), K_sq / (s_b * s_b), K_sq / (s_c * s_c),
            abc / (4 * s), abc / (4 * s_a), abc / (4 * s_b), abc / (4 * s_c),
        )

    def vertex_ninepoint_dist_sq(self) -> Tuple[float, float, float]:
        """|AN|^2, |BN|^2, |CN|^2: (R^2 - a^2 + b^2 + c^2)/4 and its rotations."""
        R_sq, a, b, c = self._R_sq(), self.a, self.b, self.c
        return (
            (R_sq - a * a + b * b + c * c) / 4,
            (R_sq - b * b + c * c + a * a) / 4,
            (R_sq - c * c + a * a + b * b) / 4,
        )

    def circumdot(self, k: int) -> float:
        """(P - O).(Q - O) for the two vertices other than vertex k:
        R^2 - o^2/2 for the side o opposite k."""
        o = self[k]
        return self._R_sq() - (o * o) / 2

    def side_point(self, bx: float, cx: float) -> Tuple[float, float]:
        """|CX|/a and |BX|/a, the B and C coordinates of the point X on BC
        with |BX| = bx and |CX| = cx."""
        return cx / self.a, bx / self.a

    def distance_sq(
        self, x: Tuple[Any, Any, Any], d1: Any, dist: Tuple[float, float, float], d2: Any
    ) -> float:
        """|XY|^2 by the barycentric distance identity, for X = x/d1 and Y
        at squared distances dist from A, B and C.  Integer weights (exact
        weights over their lcm) round each weight and each weight product
        once, by integer true division, as ``float()`` of the ``Fraction``
        does; float weights multiply their rounded quotients.  Float
        distances take no denominator: d2 is 1 from every caller, and the
        parameter stays so that the identity suite makes one call for both
        kernels."""
        x_a, x_b, x_c = x
        alpha, beta, gamma = x_a / d1, x_b / d1, x_c / d1
        if type(d1) is int:
            d1_sq = d1 * d1
            bc, ca, ab = x_b * x_c / d1_sq, x_c * x_a / d1_sq, x_a * x_b / d1_sq
        else:
            bc, ca, ab = beta * gamma, gamma * alpha, alpha * beta
        m_a, m_b, m_c = dist
        a, b, c = self.a, self.b, self.c
        weighted = alpha * m_a + beta * m_b + gamma * m_c
        return weighted - (bc * (a * a) + ca * (b * b) + ab * (c * c))

    def circle_terms(self) -> Tuple[float, float, float]:
        """What the four circles' |XN|^2 share: the vertex-to-N distances."""
        return self.vertex_ninepoint_dist_sq()

    def center_dist_sq(self, circle: str, vertex_n: Tuple[float, float, float]) -> float:
        """|XN|^2 for the circle's center X, by the barycentric distance
        identity with the vertex-to-N distances; the weights are read from
        CENTER_WEIGHTS when called."""
        weights = CENTER_WEIGHTS[_CENTER_OF[circle]](self.a, self.b, self.c)
        return self.distance_sq(*weights, vertex_n, 1)

    def verdict(
        self, circle: str, met: Tuple[float, ...], terms: Tuple[float, float, float], tol: Any
    ) -> Tuple["Tangency", float]:
        """The circle's kind, as :meth:`tangency` decides it within ``tol``,
        and its :meth:`residual`, from one |XN|^2."""
        k = CIRCLES.index(circle)
        d_sq = self.center_dist_sq(circle, terms)
        kind = _float_decision(d_sq, met[2] / 4, met[3 + k], tol)[0]
        return kind, self._residual_from(k, d_sq, met)

    def tangency(
        self, circle: str, met: Tuple[float, ...], terms: Tuple[float, float, float], tol: Any
    ) -> Tuple[Any, ...]:
        """The fields of the circle's ``feuerbach.TangencyReport``: |XN|^2,
        from the vertex-to-N distances ``terms`` (:meth:`circle_terms`),
        against the nine-point radius squared R^2/4 and r_X^2, decided by
        :func:`_float_decision` within ``tol``.  These are the operations
        of ``feuerbach.classify_tangency_sq`` on the same three floats."""
        d_sq = self.center_dist_sq(circle, terms)
        return _float_decision(d_sq, met[2] / 4, met[3 + CIRCLES.index(circle)], tol)

    def residual(self, circle: str) -> float:
        """The residual of :meth:`_IntegerTriangle.residual` on float sides."""
        d_sq = self.center_dist_sq(circle, self.vertex_ninepoint_dist_sq())
        return self._residual_from(CIRCLES.index(circle), d_sq, self.metrics())

    @staticmethod
    def _residual_from(k: int, d_sq: float, met: Tuple[float, ...]) -> float:
        """The residual of circle number k of CIRCLES from its |XN|^2, R^2,
        r_X^2 and R*r_X: R^2/4 + r_X^2 -+ R*r_X; negating a float is exact,
        so adding -R*r_X rounds as subtracting it does."""
        mixed = met[7 + k]
        return d_sq - (met[2] / 4 + met[3 + k] + (-mixed if k == 0 else mixed))


def _float_triangle(a: float, b: float, c: float) -> _FloatTriangle:
    """Derived terms of float sides."""
    s, s_a, s_b, s_c = (a + b + c) / 2, (-a + b + c) / 2, (a - b + c) / 2, (a + b - c) / 2
    return _FloatTriangle(a, b, c, s, s_a, s_b, s_c, _area_sq_16(a, b, c) / 16, a * b * c)


def _conditioning(t: _FloatTriangle) -> float:
    """The conditioning of :meth:`SideLengths.conditioning` on the float
    kernel's half-sums."""
    return max(t.a, t.b, t.c) / min(t.s_a, t.s_b, t.s_c)


class Tangency(enum.Enum):
    INTERNAL_TANGENT = "internal_tangent"
    EXTERNAL_TANGENT = "external_tangent"
    COINCIDENT = "coincident"
    NOT_TANGENT = "not_tangent"


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
    """The float tangency decision of ``feuerbach.classify_tangency_sq``
    and of the float kernel's ``tangency`` and ``verdict``: the kind, then
    the checked lhs and the two right-hand sides, which only the reports
    read.  Each bound is ``tol.bound(x)``'s expression, written out."""
    d_sq = _checked_lhs(d_sq, r1_sq, r2_sq, tol, False)
    abs_eps, rel_eps = tol.abs_eps, tol.rel_eps
    cross = 2.0 * math.sqrt(r1_sq * r2_sq)
    rhs_internal = r1_sq + r2_sq - cross
    rhs_external = r1_sq + r2_sq + cross
    scale = max(d_sq, r1_sq, r2_sq)
    gap_internal = abs(d_sq - rhs_internal)
    gap_external = abs(d_sq - rhs_external)
    internal_fits = gap_internal <= abs_eps + rel_eps * abs(max(d_sq, abs(rhs_internal), scale))
    external_fits = gap_external <= abs_eps + rel_eps * abs(max(d_sq, rhs_external))
    scale_bound = abs_eps + rel_eps * abs(scale)
    if d_sq <= scale_bound and abs(r1_sq - r2_sq) <= scale_bound:
        kind = Tangency.COINCIDENT
    elif internal_fits and (not external_fits or gap_internal <= gap_external):
        kind = Tangency.INTERNAL_TANGENT
    elif external_fits:
        kind = Tangency.EXTERNAL_TANGENT
    else:
        kind = Tangency.NOT_TANGENT
    return kind, d_sq, rhs_internal, rhs_external


def metrics(sides: SideLengths) -> TriangleMetrics:
    """All squared quantities of the triangle (see :class:`TriangleMetrics`),
    derived once per :class:`SideLengths` and shared by every caller."""
    return sides._metrics


class Barycentric(Record):
    """Normalized barycentric coordinates (components sum to 1).

    Components may be negative (excenters live outside the triangle).  They
    are three exact values (ints promoted) or three floats; a mix raises
    ``TypeError``.  The sum constraint is checked exactly, on integers, on
    the rational backend and against a magnitude-aware tolerance on floats.
    """

    __slots__ = _fields = ("alpha", "beta", "gamma")
    alpha: Scalar
    beta: Scalar
    gamma: Scalar

    def __init__(self, alpha: Scalar, beta: Scalar, gamma: Scalar) -> None:
        (alpha, beta, gamma), exact = coerce_backend(alpha, beta, gamma)
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        set_field(self, "gamma", gamma)
        if not exact:
            _check_float_sum(alpha, beta, gamma)
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


def _check_float_sum(alpha: float, beta: float, gamma: float) -> None:
    """The sum check of float barycentric coordinates: within the default
    tolerance of 1, on the scale of the largest component."""
    total = alpha + beta + gamma
    scale = max(1.0, abs(alpha), abs(beta), abs(gamma))
    if abs(total - 1.0) > DEFAULT_TOLERANCE.bound(scale):
        raise ValueError(f"barycentric coordinates sum to {total!r}, not 1")


def point_on_side(dist_bx: Scalar, dist_cx: Scalar, sides: SideLengths) -> Barycentric:
    """Coordinates (0, |CX|/a, |BX|/a) of a point X on segment BC.

    Endpoints are allowed: |BX| = 0 gives vertex B itself.  The two
    distances are on the sides' backend, nonnegative, and sum to a.  On
    exact sides the sum is tested by cross-multiplying numerators and
    denominators, and each component is one ``Fraction``.
    """
    exact = sides.is_exact
    (dist_bx, dist_cx), _ = coerce_backend(dist_bx, dist_cx, exact=exact)
    a = sides.a
    if exact:
        bx, cx = dist_bx.as_integer_ratio(), dist_cx.as_integer_ratio()
        if bx[0] < 0 or cx[0] < 0:
            raise ValueError(f"negative distance along BC: |BX| = {dist_bx}, |CX| = {dist_cx}")
        t = sides._kernel  # a = t.a / t.L
        if (bx[0] * cx[1] + cx[0] * bx[1]) * t.L != t.a * bx[1] * cx[1]:
            raise ValueError(f"|BX| + |CX| = {dist_bx + dist_cx} does not equal a = {a}")
        beta, gamma = t.side_point(bx, cx)
        return Barycentric(_ZERO, Fraction(*beta), Fraction(*gamma))
    if dist_bx < 0 or dist_cx < 0:
        raise ValueError(f"negative distance along BC: |BX| = {dist_bx}, |CX| = {dist_cx}")
    total = dist_bx + dist_cx
    if abs(total - a) > DEFAULT_TOLERANCE.bound(a):
        raise ValueError(f"|BX| + |CX| = {total!r} does not equal a = {a!r}")
    return Barycentric(0.0, *sides._kernel.side_point(dist_bx, dist_cx))


def barycentric_distance_sq(
    x: Barycentric,
    dist_ay_sq: Scalar,
    dist_by_sq: Scalar,
    dist_cy_sq: Scalar,
    sides: SideLengths,
) -> Scalar:
    """Squared distance |XY|^2 from X (barycentric) to Y (via its squared
    distances to the vertices); see the module docstring for the identity.

    The distances are on the sides' backend.  On float sides, exact
    weights (the centroid's) meet only floats, as ``float()`` of each
    weight and weight product: the float kernel takes them over their lcm
    and makes one integer true division each, which rounds as ``float()``
    of a ``Fraction`` does.  Float weights on exact sides raise
    ``TypeError``."""
    alpha, beta, gamma = x.components
    exact = sides.is_exact
    (dist_ay_sq, dist_by_sq, dist_cy_sq), _ = coerce_backend(
        dist_ay_sq, dist_by_sq, dist_cy_sq, exact=exact
    )
    if type(alpha) is float:
        if exact:
            raise TypeError("exact and float scalars do not mix")
        weights, d1 = x.components, 1.0
    else:
        # The weights over the lcm D1 of their denominators, for either
        # kernel's identity; the exact one takes the distances over theirs, D2.
        d1 = math.lcm(alpha.denominator, beta.denominator, gamma.denominator)
        weights = [w.numerator * (d1 // w.denominator) for w in x.components]
    if not exact:
        return sides._kernel.distance_sq(weights, d1, (dist_ay_sq, dist_by_sq, dist_cy_sq), 1)
    d2 = math.lcm(dist_ay_sq.denominator, dist_by_sq.denominator, dist_cy_sq.denominator)
    dist = (
        dist_ay_sq.numerator * (d2 // dist_ay_sq.denominator),
        dist_by_sq.numerator * (d2 // dist_by_sq.denominator),
        dist_cy_sq.numerator * (d2 // dist_cy_sq.denominator),
    )
    return Fraction(*sides._kernel.distance_sq(weights, d1, dist, d2))


def _canonical_frame(t: _IntegerTriangle) -> Tuple[int, Tuple[Tuple[int, int, int], ...]]:
    """The canonical embedding of an integer form as integer triples
    (x, t, w) of one weight, in the frame whose metric is x^2 + m*t^2:
    (m, (A, B, C)).

    C = (0, 0), B = (a, 0) and A = (x, k/2aL), with x = (a^2 + b^2 - c^2)/2aL
    and m*k^2 = P, so that t = y/sqrt(m) for the altitude y of A, whose
    square is P/(2aL)^2.  When P is a perfect square, m = 1 and k = isqrt(P):
    the Cartesian embedding.  Otherwise k = 1 and m = P.  The shared weight
    is reduced to the smallest, which on m = 1 is the lcm of the
    coordinates' denominators."""
    k = math.isqrt(t.P)
    k, m = (k, 1) if k * k == t.P else (1, t.P)
    x, b_x, w = t.a * t.a + t.b * t.b - t.c * t.c, 2 * t.a * t.a, 2 * t.a * t.L
    g = math.gcd(x, k, b_x, w)
    w //= g
    return m, ((x // g, k // g, w), (b_x // g, 0, w), (0, 0, w))


def _float_embedding(a: float, b: float, c: float) -> Tuple[Pair, Pair, Pair]:
    """The canonical embedding of float sides as float pairs (A, B, C).  A
    is checked by :func:`_pair` as ``Point2`` checks it; B = (a, 0) and
    C = (0, 0) are finite, as a float side is."""
    x = (a * a + b * b - c * c) / (2.0 * a)
    # Altitude via the stable area, not b^2 - x^2 (catastrophic when flat).
    k_sq = _area_sq_16(a, b, c) / 16.0
    y = 2.0 * math.sqrt(k_sq) / a
    return (_pair(x, y), (a, 0.0), (0.0, 0.0))


def canonical_vertices(sides: SideLengths) -> Tuple[Point2, Point2, Point2]:
    """Embedding with C at the origin, B on the positive x-axis, A above:
    over the rationals when the sides are exact and the altitude rational
    (the m = 1 case of :func:`_canonical_frame`), as floats otherwise
    (:func:`_float_embedding`)."""
    if sides.is_exact:
        m, frame = sides._canonical
        if m == 1:
            return tuple(Point2(Fraction(x, w), Fraction(y, w)) for x, y, w in frame)
    return tuple([Point2(x, y) for x, y in _float_embedding(*map(float, sides.as_tuple()))])


def sides_from_vertices(vertex_a: Point2, vertex_b: Point2, vertex_c: Point2) -> SideLengths:
    """Side lengths a = |BC|, b = |CA|, c = |AB| of an embedded triangle.

    Exact coordinates give exact sides, so all three squared lengths must
    be perfect squares (InvalidTriangleError otherwise, since only the
    float backend can carry irrational lengths); float coordinates give
    float square roots.
    """
    sq = (
        vertex_b.dist_sq(vertex_c),
        vertex_c.dist_sq(vertex_a),
        vertex_a.dist_sq(vertex_b),
    )
    if all(p.is_exact for p in (vertex_a, vertex_b, vertex_c)):
        roots = [sqrt_exact(v) for v in sq]
        if any(r is None for r in roots):
            raise InvalidTriangleError(
                "side lengths are irrational for these coordinates; use the float backend"
            )
        return SideLengths(*roots)  # type: ignore[arg-type]
    return SideLengths(*(math.sqrt(float(v)) for v in sq))
