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
eight float centers.

The incenter and the excenters come from one weight table,
:data:`~ninepoint.triangle.CENTER_WEIGHTS`, which the integer kernel reads
too; their barycentric forms are built once per ``SideLengths``.  The
other vertex-specific formulas are rotated from their A-form, so the three
cases cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Dict, Literal, Optional, Tuple

from . import homogeneous
from .numeric import Scalar
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
    "center_barycentric",
    "bisector_foot_barycentric",
    "vertex_to_ninepoint_dist_sq",
    "circumdot",
    "center_set",
]

Vertex = Literal["A", "B", "C"]
VertexPair = Literal["AB", "BC", "CA"]

VERTICES: Tuple[Vertex, Vertex, Vertex] = ("A", "B", "C")
_SHIFT = {"A": 0, "B": 1, "C": 2}


def _rotated_sides(sides: SideLengths, vertex: Vertex) -> Tuple:
    """Sides relabeled so the requested vertex plays the role of A."""
    triple = sides.as_tuple()
    k = _shift(vertex)
    return triple[k:] + triple[:k]


def _shift(vertex: Vertex) -> int:
    try:
        return _SHIFT[vertex]
    except KeyError:
        raise ValueError(f"vertex must be one of {VERTICES}, got {vertex!r}") from None


def _unrotate(weights: Tuple, vertex: Vertex) -> Tuple:
    """Map A-form output weights back to the original (A, B, C) order."""
    k = _shift(vertex)
    return tuple(weights[(j - k) % 3] for j in range(3))


def centroid_barycentric() -> Barycentric:
    """G = (1/3, 1/3, 1/3), independent of the side lengths."""
    third = Fraction(1, 3)
    return Barycentric(third, third, third)


def center_barycentric(sides: SideLengths, label: str) -> Barycentric:
    """The center named by a :data:`CENTER_WEIGHTS` label, normalized.

    The four are built once per :class:`SideLengths`; exact sides are
    weighted by their integer form, with one division per component."""
    if label not in CENTER_WEIGHTS:
        raise ValueError(f"label must be one of {tuple(CENTER_WEIGHTS)}, got {label!r}")
    return sides._center_barycentrics[label]


def bisector_foot_barycentric(sides: SideLengths, vertex: Vertex) -> Barycentric:
    """Foot of the internal angle bisector from the vertex on the opposite side.

    A-form: (0, b/(b+c), c/(b+c)), i.e. the bisector from A meets BC at the
    point dividing it in the ratio of the adjacent sides.
    """
    a, b, c = _rotated_sides(sides, vertex)
    zero = a - a
    weights = (zero, b / (b + c), c / (b + c))
    return Barycentric(*_unrotate(weights, vertex))


def vertex_to_ninepoint_dist_sq(sides: SideLengths, vertex: Vertex) -> Scalar:
    """|vertex N|^2 from sides alone; A-form (R^2 - a^2 + b^2 + c^2) / 4.
    The three values are derived once per :class:`SideLengths`."""
    return sides._vertex_ninepoint_dist_sq[_shift(vertex)]


# The vertex opposite each pair; its side is the one the pair spans.
_OPPOSITE_OF_PAIR = {"AB": "C", "BC": "A", "CA": "B"}


def circumdot(sides: SideLengths, pair: VertexPair) -> Scalar:
    """Dot product (P - O).(Q - O) for a vertex pair: R^2 - opposite^2 / 2."""
    if pair not in _OPPOSITE_OF_PAIR:
        raise ValueError(f"pair must be one of {tuple(_OPPOSITE_OF_PAIR)}, got {pair!r}")
    opposite = sides.as_tuple()[_shift(_OPPOSITE_OF_PAIR[pair])]
    return metrics(sides).R_sq - (opposite * opposite) / 2


def _frame_point(label: str) -> property:
    return property(
        lambda self: self.points.get(label),
        doc=f"{label} as a Point2, or None without vertices.",
    )


@dataclass(frozen=True)
class CenterSet:
    """Centers of one triangle; Cartesian positions only in coordinate mode.

    Barycentric forms exist for G, I and the excenters regardless of any
    embedding.  O, H and N have no closed barycentric form here and appear
    only when vertices are supplied.  ``frame`` holds the Cartesian centers
    as they were computed, and ``plane`` is the namespace that computed
    them: integer homogeneous triples for exact sides and vertices, float
    pairs ``(x, y)`` otherwise.  ``points`` and ``O`` ... ``Ec`` read them as
    ``Point2``s, built on first use.
    """

    barycentric: Dict[str, Barycentric]
    frame: Optional[Dict[str, Any]] = None
    plane: Any = None

    @cached_property
    def points(self) -> Dict[str, Point2]:
        """The Cartesian centers in the order O, G, H, N, I, Ea, Eb, Ec."""
        return {label: self.plane.as_point2(p) for label, p in (self.frame or {}).items()}

    O = _frame_point("O")
    G = _frame_point("G")
    H = _frame_point("H")
    N = _frame_point("N")
    I = _frame_point("I")
    Ea = _frame_point("Ea")
    Eb = _frame_point("Eb")
    Ec = _frame_point("Ec")

    def cartesian_items(self) -> Tuple[Tuple[str, Point2], ...]:
        return tuple(self.points.items())


def center_set(
    sides: SideLengths,
    vertices: Optional[Tuple[Any, Any, Any]] = None,
    plane: Any = None,
) -> CenterSet:
    """Assemble every center; vertices add the Cartesian layer.

    The vertices are ``Point2``s, or with ``plane`` already lifted onto the
    plane this function would choose for them, as the identity suite
    holds them."""
    bary = {"G": centroid_barycentric()}
    bary.update(sides._center_barycentrics)
    if vertices is None:
        return CenterSet(barycentric=bary)
    exact = sides.is_exact
    if plane is None:
        plane = homogeneous if exact and all(p.is_exact for p in vertices) else FloatPlane
        vertices = plane.lift(vertices)
    va, vb, vc = vertices
    circum = plane.circumcenter(va, vb, vc)
    centroid = plane.barycentric_point((1, 1, 1), 3, va, vb, vc)
    ortho = plane.add(circum, plane.scaled(plane.sub(centroid, circum), 3))  # H = O + 3(G - O)
    frame = {"O": circum, "G": centroid, "H": ortho, "N": plane.midpoint(circum, ortho)}
    # Exact sides weigh by their integer form, as center_barycentric does:
    # the integer plane needs it, and on floats each k/d rounds as before.
    if exact:
        t = sides._integer_form
        a, b, c = t.a, t.b, t.c
    else:
        a, b, c = sides.as_tuple()
    for label, weights in CENTER_WEIGHTS.items():
        frame[label] = plane.barycentric_point(*weights(a, b, c), va, vb, vc)
    return CenterSet(barycentric=bary, frame=frame, plane=plane)
