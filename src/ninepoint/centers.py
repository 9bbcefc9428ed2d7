"""Classical triangle centers in barycentric and Cartesian form.

Every center has a barycentric closed form, a ring expression of the
sides: the centroid G = (1/3, 1/3, 1/3), the incenter I = (a, b, c) / 2s,
the excenters, e.g. opposite A

    E_a = (-a, b, c) / (2(s - a)),

and, with S_A = b^2 + c^2 - a^2 and cyclic, the circumcenter
O = (a^2 S_A : b^2 S_B : c^2 S_C), the orthocenter
H = (S_B S_C : S_C S_A : S_A S_B) and the nine-point center N, the midpoint
of O and H.  The circumcenter property of O, the altitude property of H and
the equal-distance property of N are checked against independent
constructions in the test harness rather than assumed here.

A triangle's backend is its sides': the barycentric weights are
evaluated on the kernel of the sides, so on exact sides on their integer
form (weights do not change when the sides are scaled).
:func:`_components` gives a center's components as kernel values after
their sum check, the integer ratios of a weight over its sum on exact
sides and one true division each on floats; ``center_set`` wraps them in
``Barycentric``, and the CLI prints them as they are.  The Cartesian
centers are one construction, written against a plane: integer
homogeneous triples (:class:`ninepoint.homogeneous.Plane`) when the
sides and the vertices are all exact, where no gcd is taken until a
``Point2`` is asked for, and :class:`~ninepoint.triangle.FloatPlane`
otherwise, which takes the vertices as float pairs (:func:`_lift`).  So
exact sides with float vertices, as ``svg`` draws a triangle whose
altitude is irrational, get eight float centers.  The identity suite
weighs its own plane and frame with :func:`_center_frame` alone, on
either backend: exact sides on their integer frame under the metric
x^2 + m*t^2, with no ``Fraction``, and float sides on float pairs;
``barycentric_point`` and ``orientation`` are affine, so the same code
serves both.  Callers read the centers as ``Point2``s through
``CenterSet.points``, which only a Cartesian frame has; ``svg`` and the
CLI take the centers alone from :func:`_cartesian_frame`, the Cartesian
half of ``center_set``, on a frame that is already lifted: the plane and
the vertices on it.  The CLI lifts each request's triangle once (exact
sides given as sides onto their canonical frame's integer triples);
``svg`` reads the centers as floats, and the CLI prints each point's
``plane.coords``.  ``vertex_to_ninepoint_dist_sq`` and the bisector feet
read the kernel of the sides (``triangle._IntegerTriangle`` or
``_FloatTriangle``) without asking which it is.

All eight come from one weight table,
:data:`~ninepoint.triangle.CENTER_WEIGHTS`, which both kernels read
too; ``center_set`` builds the barycentric forms of the incenter and the
excenters on each call, and the Cartesian centers are one
``barycentric_point`` per entry.  The bisector feet have a weight form of
the same kind.  The other vertex-specific formulas index the sides from
the vertex's position, so the three cases are one expression.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Any, Dict, Literal, Optional, Tuple

from . import homogeneous
from .numeric import Scalar
from .record import Record
from .triangle import (
    CENTER_WEIGHTS,
    CIRCLE_CENTERS,
    Barycentric,
    FloatPlane,
    Point2,
    SideLengths,
    _check_float_sum,
    metrics,
)

__all__ = [
    "Vertex",
    "VERTICES",
    "CENTER_WEIGHTS",
    "CenterSet",
    "centroid_barycentric",
    "bisector_foot_barycentric",
    "vertex_to_ninepoint_dist_sq",
    "center_set",
    # Re-exported beside the centers: the benchmark's tracer test checks
    # that tracing triangle.metrics rebinds this module's name too.
    "metrics",
]

Vertex = Literal["A", "B", "C"]

VERTICES: Tuple[Vertex, Vertex, Vertex] = ("A", "B", "C")
_SHIFT = {"A": 0, "B": 1, "C": 2}


def _shift(vertex: Vertex) -> int:
    try:
        return _SHIFT[vertex]
    except KeyError:
        raise ValueError(f"vertex must be one of {VERTICES}, got {vertex!r}") from None


# The centroid is the same for every triangle, and a Barycentric is frozen.
_CENTROID = Barycentric(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def centroid_barycentric() -> Barycentric:
    """G = (1/3, 1/3, 1/3), independent of the side lengths: one shared
    record."""
    return _CENTROID


def _bisector_foot_weights(s: Tuple[Any, Any, Any], k: int) -> Tuple[Tuple[Any, ...], Any]:
    """The weights of the bisector foot from vertex k of the sides s and
    their sum d: the sides at the other two vertices and 0 at k, so the
    A-form is (0, b, c) / (b + c).  A ring expression, like CENTER_WEIGHTS."""
    return s[:k] + (0,) + s[k + 1:], s[(k + 1) % 3] + s[(k + 2) % 3]


def bisector_foot_barycentric(sides: SideLengths, vertex: Vertex) -> Barycentric:
    """Foot of the internal angle bisector from the vertex on the opposite side.

    A-form: (0, b/(b+c), c/(b+c)), i.e. the bisector from A meets BC at the
    point dividing it in the ratio of the adjacent sides.  The sides'
    kernel weighs it: one division per nonzero component, and the zero is
    the kernel's (on exact sides the shared exact zero).
    """
    k = _shift(vertex)
    t = sides._kernel
    x, d = _bisector_foot_weights((t.a, t.b, t.c), k)
    return Barycentric(*(t.zero if j == k else t.ratio(x[j], d) for j in range(3)))


def vertex_to_ninepoint_dist_sq(sides: SideLengths, vertex: Vertex) -> Scalar:
    """|vertex N|^2 from sides alone; A-form (R^2 - a^2 + b^2 + c^2) / 4,
    the public value of the kernel's (one division on exact sides)."""
    k = _shift(vertex)
    t = sides._kernel
    return t.value(t.vertex_ninepoint_dist_sq()[k])


class CenterSet(Record):
    """Centers of one triangle; Cartesian positions only in coordinate mode.

    ``barycentric`` holds G, I and the excenters, which need no embedding.
    The Cartesian centers appear only when vertices are supplied: ``frame``
    holds them as they were computed, and ``plane`` is the namespace that
    computed them: a :class:`~ninepoint.homogeneous.Plane` of integer
    triples for exact sides and vertices, float pairs ``(x, y)`` otherwise.
    ``points`` reads them as ``Point2``s, built on first use and cached in
    the instance ``__dict__``.
    """

    _fields = ("barycentric", "frame", "plane")
    barycentric: Dict[str, Barycentric]
    frame: Optional[Dict[str, Any]]
    plane: Any

    @cached_property
    def points(self) -> Dict[str, Point2]:
        """The Cartesian centers in the order O, G, H, N, I, Ea, Eb, Ec;
        empty without vertices.  A frame whose metric is not Cartesian
        (m != 1) has none, and raises."""
        return {label: self.plane.as_point2(p) for label, p in (self.frame or {}).items()}


def center_set(sides: SideLengths, vertices: Optional[Tuple[Any, Any, Any]] = None) -> CenterSet:
    """Assemble every center; vertices add the Cartesian layer, which
    :func:`_cartesian_frame` builds on their :func:`_lift`."""
    values = sides._kernel.values
    bary = {"G": centroid_barycentric()}
    for label in CIRCLE_CENTERS:
        bary[label] = Barycentric(*values(_components(sides, label)))
    if vertices is None:
        return CenterSet(bary, None, None)
    frame = _lift(sides, vertices)
    return CenterSet(bary, _cartesian_frame(sides, frame), frame[0])


def _components(sides: SideLengths, label: str) -> Tuple[Any, Any, Any]:
    """The barycentric components of the center ``label`` of CENTER_WEIGHTS
    as kernel values, after the sum check of ``Barycentric``, with its
    error: on exact sides the integer ratios (x, d) of the integer form,
    whose weights x must sum to d, and on float sides the quotients x/d,
    each rounded once, which :func:`_check_float_sum` checks."""
    t = sides._kernel
    (x_a, x_b, x_c), d = CENTER_WEIGHTS[label](t.a, t.b, t.c)
    if not sides.is_exact:
        components = (x_a / d, x_b / d, x_c / d)
        _check_float_sum(*components)
        return components
    if x_a + x_b + x_c != d:
        raise ValueError(f"barycentric coordinates sum to {Fraction(x_a + x_b + x_c, d)}, not 1")
    return (x_a, d), (x_b, d), (x_c, d)


def _lift(sides: SideLengths, vertices: Tuple[Point2, Point2, Point2]) -> Tuple[Any, Tuple]:
    """A frame of ``Point2`` vertices: the plane that holds them and the
    vertices on it, integer triples of one weight on the Cartesian
    :class:`~ninepoint.homogeneous.Plane` when the sides and every vertex
    are exact, float pairs on :class:`~ninepoint.triangle.FloatPlane`
    otherwise."""
    exact = sides.is_exact and all(p.is_exact for p in vertices)
    plane = homogeneous.Plane(1) if exact else FloatPlane
    return plane, plane.lift(vertices)


def _cartesian_frame(sides: SideLengths, frame: Tuple[Any, Tuple]) -> Dict:
    """Every Cartesian center of the sides on a frame, the plane and the
    vertices on it, with no barycentric form: ``svg`` draws these alone."""
    plane, (va, vb, vc) = frame
    # The weights read only the sides, so they cannot see collinear
    # vertices, such as a float embedding whose altitude underflowed.
    if plane.orientation(va, vb, vc) == 0:
        raise ValueError("collinear vertices have no circumcenter")
    t = sides._kernel
    return _center_frame(plane, t.a, t.b, t.c, va, vb, vc)


def _center_frame(plane: Any, a: Any, b: Any, c: Any, va: Any, vb: Any, vc: Any) -> Dict:
    """Every center on the plane, weighted by the sides a, b, c as
    CENTER_WEIGHTS gives its weights when called."""
    return {
        label: plane.barycentric_point(*weights(a, b, c), va, vb, vc)
        for label, weights in CENTER_WEIGHTS.items()
    }
