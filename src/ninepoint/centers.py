"""Classical triangle centers in barycentric and Cartesian form.

Barycentric closed forms exist for the centroid G = (1/3, 1/3, 1/3), the
incenter I = (a, b, c) / 2s, and the excenters, e.g. opposite A:

    E_a = (-a, b, c) / (2(s - a)).

The circumcenter, orthocenter, and nine-point center are handled in
Cartesian form instead: O solves the perpendicular-bisector system, H is
derived from the Euler relation H - O = 3(G - O), and N is the midpoint of
O and H.  The altitude property of H and the equal-distance property of N
are checked against independent constructions in the test harness rather
than assumed here.

Every vertex-specific formula is produced from its A-form by cyclic
rotation of both the sides and the output coordinates, so the three cases
cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Literal, Optional, Tuple

from .numeric import Scalar
from .triangle import (
    Barycentric,
    Point2,
    SideLengths,
    TriangleMetrics,
    barycentric_to_cartesian,
    metrics,
)

__all__ = [
    "Vertex",
    "VertexPair",
    "VERTICES",
    "CenterSet",
    "centroid_barycentric",
    "incenter_barycentric",
    "bisector_foot_barycentric",
    "excenter_barycentric",
    "circumcenter_cartesian",
    "orthocenter_from_euler",
    "nine_point_center",
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


def incenter_barycentric(sides: SideLengths) -> Barycentric:
    """I = (a, b, c) / (a + b + c); all components positive with unit sum."""
    a, b, c = sides.as_tuple()
    perimeter = a + b + c
    return Barycentric(a / perimeter, b / perimeter, c / perimeter)


def bisector_foot_barycentric(sides: SideLengths, vertex: Vertex) -> Barycentric:
    """Foot of the internal angle bisector from the vertex on the opposite side.

    A-form: (0, b/(b+c), c/(b+c)), i.e. the bisector from A meets BC at the
    point dividing it in the ratio of the adjacent sides.
    """
    a, b, c = _rotated_sides(sides, vertex)
    zero = a - a
    weights = (zero, b / (b + c), c / (b + c))
    return Barycentric(*_unrotate(weights, vertex))


def excenter_barycentric(sides: SideLengths, vertex: Vertex) -> Barycentric:
    """Excenter opposite the vertex; A-form (-a, b, c) / (2(s - a))."""
    a, b, c = _rotated_sides(sides, vertex)
    denom = -a + b + c
    weights = (-a / denom, b / denom, c / denom)
    return Barycentric(*_unrotate(weights, vertex))


def circumcenter_cartesian(
    vertex_a: Point2, vertex_b: Point2, vertex_c: Point2
) -> Point2:
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


def orthocenter_from_euler(circumcenter: Point2, centroid: Point2) -> Point2:
    """H = O + 3(G - O); the altitude property is verified externally."""
    return circumcenter + (centroid - circumcenter).scaled(3)


def nine_point_center(circumcenter: Point2, orthocenter: Point2) -> Point2:
    """N = midpoint of O and H."""
    return Point2(
        (circumcenter.x + orthocenter.x) / 2,
        (circumcenter.y + orthocenter.y) / 2,
    )


def vertex_to_ninepoint_dist_sq(
    sides: SideLengths, vertex: Vertex, met: Optional[TriangleMetrics] = None
) -> Scalar:
    """|vertex N|^2 from sides alone; A-form (R^2 - a^2 + b^2 + c^2) / 4."""
    if met is None:
        met = metrics(sides)
    a, b, c = _rotated_sides(sides, vertex)
    return (met.R_sq - a * a + b * b + c * c) / 4


_OPPOSITE_OF_PAIR = {"AB": "c", "BC": "a", "CA": "b"}


def circumdot(
    sides: SideLengths, pair: VertexPair, met: Optional[TriangleMetrics] = None
) -> Scalar:
    """Dot product (P - O).(Q - O) for a vertex pair: R^2 - opposite^2 / 2."""
    if pair not in _OPPOSITE_OF_PAIR:
        raise ValueError(f"pair must be one of {tuple(_OPPOSITE_OF_PAIR)}, got {pair!r}")
    if met is None:
        met = metrics(sides)
    opposite = dict(zip("abc", sides.as_tuple()))[_OPPOSITE_OF_PAIR[pair]]
    return met.R_sq - (opposite * opposite) / 2


@dataclass(frozen=True)
class CenterSet:
    """Centers of one triangle; Cartesian positions only in coordinate mode.

    Barycentric forms exist for G, I and the excenters regardless of any
    embedding.  O, H and N have no closed barycentric form here and appear
    only when vertices are supplied.
    """

    barycentric: Dict[str, Barycentric]
    O: Optional[Point2] = None
    G: Optional[Point2] = None
    H: Optional[Point2] = None
    N: Optional[Point2] = None
    I: Optional[Point2] = None
    Ea: Optional[Point2] = None
    Eb: Optional[Point2] = None
    Ec: Optional[Point2] = None

    def cartesian_items(self) -> Tuple[Tuple[str, Point2], ...]:
        labeled = (
            ("O", self.O), ("G", self.G), ("H", self.H), ("N", self.N),
            ("I", self.I), ("Ea", self.Ea), ("Eb", self.Eb), ("Ec", self.Ec),
        )
        return tuple((name, p) for name, p in labeled if p is not None)


def center_set(
    sides: SideLengths,
    vertices: Optional[Tuple[Point2, Point2, Point2]] = None,
) -> CenterSet:
    """Assemble every center; vertices add the Cartesian layer."""
    bary = {
        "G": centroid_barycentric(),
        "I": incenter_barycentric(sides),
        "Ea": excenter_barycentric(sides, "A"),
        "Eb": excenter_barycentric(sides, "B"),
        "Ec": excenter_barycentric(sides, "C"),
    }
    if vertices is None:
        return CenterSet(barycentric=bary)
    va, vb, vc = vertices
    circum = circumcenter_cartesian(va, vb, vc)
    centroid = barycentric_to_cartesian(bary["G"], va, vb, vc)
    ortho = orthocenter_from_euler(circum, centroid)
    nine = nine_point_center(circum, ortho)
    embed = lambda key: barycentric_to_cartesian(bary[key], va, vb, vc)
    return CenterSet(
        barycentric=bary,
        O=circum,
        G=centroid,
        H=ortho,
        N=nine,
        I=embed("I"),
        Ea=embed("Ea"),
        Eb=embed("Eb"),
        Ec=embed("Ec"),
    )
