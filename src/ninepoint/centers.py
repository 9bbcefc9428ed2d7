"""Classical triangle centers in barycentric and Cartesian form.

Barycentric closed forms exist for the centroid G = (1/3, 1/3, 1/3), the
incenter I = (a, b, c) / 2s, and the excenters, e.g. opposite A:

    E_a = (-a, b, c) / (2(s - a)).

The circumcenter, orthocenter, and nine-point center are handled in
Cartesian form instead: O is the meet of two perpendicular bisectors, H is
derived from the Euler relation H - O = 3(G - O), and N is the midpoint of
O and H.  The altitude property of H and the equal-distance property of N
are checked against independent constructions in the test harness rather
than assumed here.

On exact sides the barycentric weights are evaluated on the triangle's
integer form (weights do not change when the sides are scaled).  The
Cartesian centers are one construction, written against a plane: integer
homogeneous triples (:mod:`ninepoint.homogeneous`) when the sides and the
vertices are all exact, where no gcd is taken until a ``Point2`` is asked
for, and :class:`~ninepoint.triangle.FloatPlane` otherwise, which takes
the vertices as float pairs.  Input that mixes exact and float values gets
eight float centers.  That rule is stated once, in ``_lift``; the identity
suite calls it too and hands the lifted vertices to ``center_set`` and to
the harness's oracle, so both frames are built on one plane.  Callers read
the centers as ``Point2``s through ``CenterSet.points``.

The incenter and the excenters come from one weight table,
:data:`~ninepoint.triangle.CENTER_WEIGHTS`, which the integer kernel reads
too; their barycentric forms are built once per ``SideLengths``.  The
other vertex-specific formulas index the sides from the vertex's position,
so the three cases are one expression.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Any, Dict, Literal, Optional, Tuple

from . import homogeneous
from .numeric import Scalar
from .record import Record, set_field
from .triangle import (
    CENTER_WEIGHTS,
    Barycentric,
    FloatPlane,
    Point2,
    SideLengths,
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


def centroid_barycentric() -> Barycentric:
    """G = (1/3, 1/3, 1/3), independent of the side lengths."""
    third = Fraction(1, 3)
    return Barycentric(third, third, third)


def bisector_foot_barycentric(sides: SideLengths, vertex: Vertex) -> Barycentric:
    """Foot of the internal angle bisector from the vertex on the opposite side.

    A-form: (0, b/(b+c), c/(b+c)), i.e. the bisector from A meets BC at the
    point dividing it in the ratio of the adjacent sides.  Exact sides are
    weighted by their integer form: one division per component.
    """
    k = _shift(vertex)
    if sides.is_exact:
        t = sides._integer_form
        s = (t.a, t.b, t.c)
        ratio = Fraction
    else:
        s = sides.as_tuple()
        ratio = FloatPlane.quotient  # true division
    d = s[(k + 1) % 3] + s[(k + 2) % 3]
    return Barycentric(*(s[k] - s[k] if j == k else ratio(s[j], d) for j in range(3)))


def vertex_to_ninepoint_dist_sq(sides: SideLengths, vertex: Vertex) -> Scalar:
    """|vertex N|^2 from sides alone; A-form (R^2 - a^2 + b^2 + c^2) / 4.
    The three values are derived once per :class:`SideLengths`."""
    return sides._vertex_ninepoint_dist_sq[_shift(vertex)]


# The vertex opposite each pair; its side is the one the pair spans.
_OPPOSITE_OF_PAIR = {"AB": "C", "BC": "A", "CA": "B"}


def circumdot(sides: SideLengths, pair: VertexPair) -> Scalar:
    """Dot product (P - O).(Q - O) for a vertex pair: R^2 - opposite^2 / 2.

    Exact sides go through the integer form, where R^2 = (abc)^2/(P L^2)
    and the opposite side is o/L: (2(abc)^2 - P o^2) / (2 P L^2), one
    division."""
    if pair not in _OPPOSITE_OF_PAIR:
        raise ValueError(f"pair must be one of {tuple(_OPPOSITE_OF_PAIR)}, got {pair!r}")
    k = _shift(_OPPOSITE_OF_PAIR[pair])
    if sides.is_exact:
        t = sides._integer_form
        o = (t.a, t.b, t.c)[k]
        return Fraction(2 * t.abc * t.abc - t.P * o * o, 2 * t.P * t.L * t.L)
    opposite = sides.as_tuple()[k]
    return metrics(sides).R_sq - (opposite * opposite) / 2


def _lift(sides: SideLengths, vertices: Tuple[Point2, ...]) -> Tuple[Any, Tuple[Any, ...]]:
    """The plane for these sides and vertices, and the vertices lifted onto
    it: integer homogeneous triples when the sides and every vertex are
    exact, float pairs otherwise."""
    exact = sides.is_exact and all(p.is_exact for p in vertices)
    plane = homogeneous if exact else FloatPlane
    return plane, plane.lift(vertices)


class CenterSet(Record):
    """Centers of one triangle; Cartesian positions only in coordinate mode.

    Barycentric forms exist for G, I and the excenters regardless of any
    embedding.  O, H and N have no closed barycentric form here and appear
    only when vertices are supplied.  ``frame`` holds the Cartesian centers
    as they were computed, and ``plane`` is the namespace that computed
    them: integer homogeneous triples for exact sides and vertices, float
    pairs ``(x, y)`` otherwise.  ``points`` reads them as ``Point2``s, built
    on first use and cached in the instance ``__dict__``.
    """

    _fields = ("barycentric", "frame", "plane")
    barycentric: Dict[str, Barycentric]
    frame: Optional[Dict[str, Any]]
    plane: Any

    def __init__(
        self,
        barycentric: Dict[str, Barycentric],
        frame: Optional[Dict[str, Any]] = None,
        plane: Any = None,
    ) -> None:
        set_field(self, "barycentric", barycentric)
        set_field(self, "frame", frame)
        set_field(self, "plane", plane)

    @cached_property
    def points(self) -> Dict[str, Point2]:
        """The Cartesian centers in the order O, G, H, N, I, Ea, Eb, Ec;
        empty without vertices."""
        return {label: self.plane.as_point2(p) for label, p in (self.frame or {}).items()}


def center_set(
    sides: SideLengths,
    vertices: Optional[Tuple[Any, Any, Any]] = None,
    plane: Any = None,
) -> CenterSet:
    """Assemble every center; vertices add the Cartesian layer.

    The vertices are ``Point2``s, or with ``plane`` already lifted onto the
    plane ``_lift`` chooses for them, as the identity suite holds them."""
    bary = {"G": centroid_barycentric()}
    bary.update(sides._center_barycentrics)
    if vertices is None:
        return CenterSet(barycentric=bary)
    if plane is None:
        plane, vertices = _lift(sides, vertices)
    va, vb, vc = vertices
    circum = plane.circumcenter(va, vb, vc)
    centroid = plane.barycentric_point((1, 1, 1), 3, va, vb, vc)
    ortho = plane.add(circum, plane.scaled(plane.sub(centroid, circum), 3))  # H = O + 3(G - O)
    frame = {"O": circum, "G": centroid, "H": ortho, "N": plane.midpoint(circum, ortho)}
    # Exact sides weigh by their integer form, as _center_barycentrics does:
    # the integer plane needs it, and on floats each k/d rounds as before.
    if sides.is_exact:
        t = sides._integer_form
        a, b, c = t.a, t.b, t.c
    else:
        a, b, c = sides.as_tuple()
    for label, weights in CENTER_WEIGHTS.items():
        frame[label] = plane.barycentric_point(*weights(a, b, c), va, vb, vc)
    return CenterSet(barycentric=bary, frame=frame, plane=plane)
