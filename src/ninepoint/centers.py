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

A triangle's backend is its sides': on exact sides the barycentric
weights are evaluated on the triangle's integer form (weights do not
change when the sides are scaled).  The Cartesian centers are one
construction, written against a plane: integer homogeneous triples
(:class:`ninepoint.homogeneous.Plane`) when the sides and the vertices
are all exact, where no gcd is taken until a ``Point2`` is asked for, and
:class:`~ninepoint.triangle.FloatPlane` otherwise, which takes the
vertices as float pairs.  So exact sides with float vertices, as ``svg``
draws a triangle whose altitude is irrational, get eight float centers.
The identity suite passes its own plane and frame instead: float sides
call ``center_set``, and exact sides, on their integer frame under the
metric x^2 + m*t^2, weigh the frame with :func:`_center_frame` alone,
which builds no ``Fraction``; ``barycentric_point`` and ``orientation``
are affine, so the same code serves both.  Callers read the centers as
``Point2``s through ``CenterSet.points``, which only a Cartesian frame
has.

All eight come from one weight table,
:data:`~ninepoint.triangle.CENTER_WEIGHTS`, which the integer kernel reads
too; the barycentric forms of the incenter and the excenters are built
once per ``SideLengths``, and the Cartesian centers are one
``barycentric_point`` per entry.  The bisector feet have a weight form of
the same kind.  The other vertex-specific formulas index the sides from
the vertex's position, so the three cases are one expression.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Literal, Optional, Tuple

from . import homogeneous
from .numeric import Scalar
from .record import Record, cached
from .triangle import (
    CENTER_WEIGHTS,
    CIRCLE_CENTERS,
    Barycentric,
    FloatPlane,
    Point2,
    SideLengths,
    _ZERO,
    metrics,
)

__all__ = [
    "Vertex",
    "VertexPair",
    "VERTICES",
    "CENTER_WEIGHTS",
    "CenterSet",
    "centroid_barycentric",
    "bisector_foot_barycentric",
    "vertex_to_ninepoint_dist_sq",
    "circumdot",
    "center_set",
]

Vertex = Literal["A", "B", "C"]
VertexPair = Literal["AB", "BC", "CA"]

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
    point dividing it in the ratio of the adjacent sides.  Exact sides are
    weighted by their integer form: one division per nonzero component, and
    the zero is the shared exact zero.
    """
    k = _shift(vertex)
    if sides.is_exact:
        t = sides._integer_form
        s, ratio, zero = (t.a, t.b, t.c), Fraction, _ZERO
    else:
        s, ratio, zero = sides.as_tuple(), FloatPlane.quotient, 0.0  # true division
    x, d = _bisector_foot_weights(s, k)
    return Barycentric(*(zero if j == k else ratio(x[j], d) for j in range(3)))


def vertex_to_ninepoint_dist_sq(sides: SideLengths, vertex: Vertex) -> Scalar:
    """|vertex N|^2 from sides alone; A-form (R^2 - a^2 + b^2 + c^2) / 4.
    The three values are derived once per :class:`SideLengths`."""
    return sides._vertex_ninepoint_dist_sq[_shift(vertex)]


# The vertex opposite each pair; its side is the one the pair spans.
_OPPOSITE_OF_PAIR = {"AB": "C", "BC": "A", "CA": "B"}


def circumdot(sides: SideLengths, pair: VertexPair) -> Scalar:
    """Dot product (P - O).(Q - O) for a vertex pair: R^2 - opposite^2 / 2.

    Exact sides reduce the integer kernel's ratio, one division."""
    if pair not in _OPPOSITE_OF_PAIR:
        raise ValueError(f"pair must be one of {tuple(_OPPOSITE_OF_PAIR)}, got {pair!r}")
    k = _shift(_OPPOSITE_OF_PAIR[pair])
    if sides.is_exact:
        return Fraction(*sides._integer_form.circumdot(k))
    opposite = sides.as_tuple()[k]
    return metrics(sides).R_sq - (opposite * opposite) / 2


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
    _defaults = {"frame": None, "plane": None}
    barycentric: Dict[str, Barycentric]
    frame: Optional[Dict[str, Any]]
    plane: Any

    @cached
    def points(self) -> Dict[str, Point2]:
        """The Cartesian centers in the order O, G, H, N, I, Ea, Eb, Ec;
        empty without vertices.  A frame whose metric is not Cartesian
        (m != 1) has none, and raises."""
        return {label: self.plane.as_point2(p) for label, p in (self.frame or {}).items()}


def center_set(
    sides: SideLengths,
    vertices: Optional[Tuple[Any, Any, Any]] = None,
    plane: Any = None,
) -> CenterSet:
    """Assemble every center; vertices add the Cartesian layer.

    The vertices are ``Point2``s, lifted here onto integer triples when the
    sides and every vertex are exact and onto float pairs otherwise.  With
    ``plane`` they are already points of that plane, as the identity suite
    holds them."""
    bary = {"G": centroid_barycentric()}
    bary.update((label, sides._circle_center(label)) for label in CIRCLE_CENTERS)
    if vertices is None:
        return CenterSet(bary, None, None)
    if plane is None:
        exact = sides.is_exact and all(p.is_exact for p in vertices)
        plane = homogeneous.Plane() if exact else FloatPlane
        vertices = plane.lift(vertices)
    va, vb, vc = vertices
    # The weights read only the sides, so they cannot see collinear
    # vertices, such as a float embedding whose altitude underflowed.
    if plane.orientation(va, vb, vc) == 0:
        raise ValueError("collinear vertices have no circumcenter")
    # Exact sides weigh by their integer form, as _circle_center does:
    # the integer plane needs it, and on floats each k/d rounds as before.
    if sides.is_exact:
        t = sides._integer_form
        a, b, c = t.a, t.b, t.c
    else:
        a, b, c = sides.as_tuple()
    return CenterSet(bary, _center_frame(plane, a, b, c, va, vb, vc), plane)


def _center_frame(plane: Any, a: Any, b: Any, c: Any, va: Any, vb: Any, vc: Any) -> Dict:
    """Every center on the plane, weighted by the sides a, b, c as
    CENTER_WEIGHTS gives its weights when called."""
    return {
        label: plane.barycentric_point(*weights(a, b, c), va, vb, vc)
        for label, weights in CENTER_WEIGHTS.items()
    }
