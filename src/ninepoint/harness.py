"""Randomized triangles, an independent Cartesian oracle, and the identity
suite that cross-checks every formula in this package against it.

The oracle re-derives each center from its defining construction, never
from the barycentric closed forms under test
(:data:`~ninepoint.triangle.CENTER_WEIGHTS`):

* circumcenter: equidistance from the vertices (normal equations);
* centroid: intersection of two medians;
* orthocenter: intersection of two altitudes;
* incenter/excenters: intersections of internal/external angle bisectors
  built from unit edge directions;
* nine-point center and radius: circumcircle of the three side midpoints.

Exactness: every exact triangle runs exactly.  Profiles generate rational
side lengths, each generator as their integer form (a, b, c) over L (the
form ``SideLengths`` builds, checked as it checks exact sides), which
exact ``fuzz`` hands to the suite as its kernel, with no ``Fraction``
built; ``random_sides`` wraps it in a ``SideLengths``.  Float ``fuzz``
takes the same form to floats (``_float_sides``): each side and each
coordinate of a Cartesian frame is one integer true division, so its
float triangle is ``random_triangle``'s, bit for bit, and it hands the
suite its vertices as float pairs, with no ``Point2`` built.  The exact
carrier is integer homogeneous coordinates
(:class:`ninepoint.homogeneous.Plane`): lines are joins, intersections are
meets, a unit direction takes one ``isqrt``, and a comparison is a
cross-multiplication.  An exact suite always runs on the sides' own frame,
with second coordinate t = y/sqrt(m) for the altitude y and metric
x^2 + m*t^2 (:func:`~ninepoint.triangle._canonical_frame`), where the
vertices, the unit edge directions and every construction are rational:
the constructions only take inner products.  The generic, isoceles and
right-angled profiles glue Pythagorean right triangles, so their
altitude is rational and their frame is Cartesian (m = 1); the
near-equilateral and near-degenerate profiles mostly have an irrational
altitude.  Float sides run the same constructions on the vertices they
are given, over :class:`~ninepoint.triangle.FloatPlane`, which carries
points as bare ``(x, y)`` float pairs, with magnitude-aware tolerances.
The oracle does not choose a plane: it takes vertices already lifted onto
one.  The suite chooses it from the kernel alone and hands the lifted
vertices to both the oracle and the kernel's centers (the weights
of :data:`~ninepoint.triangle.CENTER_WEIGHTS`, by
``centers._center_frame``), so it compares the two frames point for
point on one plane.

The suite reads the kernel of the sides under the same method names on
both backends (``metrics``, ``vertex_ninepoint_dist_sq``, ``circumdot``,
``side_point``, ``distance_sq``, each circle's ``verdict`` and
``residual``, and ``with_sides`` for the scaled and rotated triangles),
so only its plane, its vertices, its tolerance, its scalar constants and
the rule that checks a comparison are chosen per backend.  It unpacks
the metrics tuple rather than building a ``TriangleMetrics``, and it
computes each value once: each circle's kind and residual, the
vertex-to-O and vertex-to-N distances, and the three side lines serve
every row that reads them.  On exact
sides it reads the integer kernel (``triangle._IntegerTriangle``, whose
verdict takes a circle's kind and residual from one
``tangency_numerators`` triple), whose every value is an unreduced
integer ratio (num, den); the scaled and rotated triangles are integer
forms over the same L.  Its own arithmetic on those values (the
metric products such as 16 R^2 K^2 against (abc)^2, the squared sides,
R^2/4) takes no gcd either, and a comparison is a cross-multiplication.
So a passing exact triangle builds no ``Fraction`` and no float; a
failed check builds them only for its normalized residual, which is at
most 2, so the suite runs on numbers beyond the range of a double.  A
failed check is normalized alike on both backends, by max(1, |scale|,
|lhs|, |rhs|), so one kernel fault reads the same size on either.  On
float sides it reads the float kernel (``triangle._FloatTriangle``),
whose values are bare floats made by the operations of the public float
functions, in the same order; the scaled and rotated triangles are float
kernels, and each circle's |XN|^2 is computed once for its kind and its
residual.  A passing float triangle
builds none of the public records, no ``Barycentric`` either: the
incenter round trip's ``FloatPlane.barycentric`` runs the sum check of
``Barycentric`` on its bare floats.

The suite's comparisons are data: plain ``(name, lhs, rhs, scale)``
tuples, written in the order of the report, which one loop per backend
checks, with no call per row (an exact comparison is a
cross-multiplication, and only a failed one builds ``Fraction``s for
its residual; a float one is held to the tolerance's bound on the
largest of 1, |scale|, |lhs| and |rhs|, and an infinite or NaN gap
fails).  The eight flags (the bisector feet, the tangency kinds and the
equilateral flag) are appended in their places.  Each check becomes a
plain ``(name, passed, residual, detail)`` row; :class:`SuiteReport`
answers ``passed`` and ``max_residual`` from those rows, and makes them
:class:`IdentityCheck` named tuples only when ``checks`` is read.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import homogeneous
from .numeric import DEFAULT_TOLERANCE, ToleranceProfile
from .record import Record, set_field
from .triangle import (
    CIRCLES,
    FloatPlane,
    InvalidTriangleError,
    Pair,
    Point2,
    SideLengths,
    Tangency,
    _canonical_frame,
    _checked_integer_form,
    _conditioning,
    _float_embedding,
    _FloatTriangle,
    _integer_triangle,
    _IntegerTriangle,
    canonical_vertices,
)
from .centers import VERTICES, CENTER_WEIGHTS, _bisector_foot_weights, _center_frame
from .feuerbach import _kind_ok

__all__ = [
    "PROFILE_KINDS",
    "FuzzProfile",
    "OracleResult",
    "IdentityCheck",
    "SuiteReport",
    "random_sides",
    "random_triangle",
    "cartesian_oracle",
    "check_identity_suite",
]

PROFILE_KINDS = (
    "generic",
    "isoceles",
    "near-degenerate",
    "near-equilateral",
    "right-angled",
)

_MACHINE_EPS = sys.float_info.epsilon


class FuzzProfile(Record):
    """Deterministic generation recipe: same (profile, index) -> same triangle."""

    __slots__ = _fields = ("kind", "count", "seed", "magnitude_bound")
    kind: str
    count: int
    seed: int
    magnitude_bound: int

    def __init__(self, kind: str, count: int = 1, seed: int = 0, magnitude_bound: int = 10) -> None:
        if kind not in PROFILE_KINDS:
            raise ValueError(f"kind must be one of {PROFILE_KINDS}, got {kind!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if magnitude_bound < 2:
            raise ValueError(f"magnitude_bound must be >= 2, got {magnitude_bound}")
        set_field(self, "kind", kind)
        set_field(self, "count", count)
        set_field(self, "seed", seed)
        set_field(self, "magnitude_bound", magnitude_bound)


def _rng_for(profile: FuzzProfile, index: int) -> random.Random:
    kind_index = PROFILE_KINDS.index(profile.kind)
    return random.Random((profile.seed * 6 + kind_index) * 1_000_003 + index)


def _pythagorean_legs(rng: random.Random, bound: int) -> Tuple[int, int, int]:
    """Legs and hypotenuse of a (not necessarily primitive) Pythagorean triple."""
    m = rng.randrange(2, bound + 1)
    n = rng.randrange(1, m)
    return (m * m - n * n, 2 * m * n, m * m + n * n)


def _rational_scale(rng: random.Random, bound: int) -> Tuple[int, int]:
    """A scale p/q as the integers (p, q)."""
    return rng.randrange(1, bound + 1), rng.randrange(1, bound + 1)


def _over(a: int, b: int, c: int, den: int) -> _IntegerTriangle:
    """The sides a/den, b/den, c/den as their integer form, checked as
    ``SideLengths`` checks exact sides.  Its L, den / gcd(a, b, c, den), is
    the lcm of the reduced denominators, so the form is the one
    ``SideLengths`` builds from the three reduced ``Fraction``s."""
    g = math.gcd(a, b, c, den)
    return _checked_integer_form(_integer_triangle(a // g, b // g, c // g, den // g))


def _generic_sides(rng: random.Random, bound: int) -> _IntegerTriangle:
    # Two right triangles cross-scaled to a common leg and glued along it
    # (or overlapped, for obtuse shapes): all three sides and the altitude
    # are rational, so the canonical embedding is exact.  The apex sits at
    # height q1 q2 > 0 over a nonzero base, so the triangle is never flat.
    while True:
        p1, q1, h1 = _pythagorean_legs(rng, bound)
        p2, q2, h2 = _pythagorean_legs(rng, bound)
        if rng.random() < 0.5:
            p1, q1 = q1, p1
        if rng.random() < 0.5:
            p2, q2 = q2, p2
        u = p1 * q2
        v = p2 * q1
        hyp1 = h1 * q2
        hyp2 = h2 * q1
        base = u + v if rng.random() < 0.5 else abs(u - v)
        if base == 0:
            continue
        num, den = _rational_scale(rng, bound)
        triple = [base * num, hyp2 * num, hyp1 * num]
        shift = rng.randrange(3)
        triple = triple[shift:] + triple[:shift]
        return _over(*triple, den)


def _isoceles_sides(rng: random.Random, bound: int) -> _IntegerTriangle:
    # A right triangle mirrored across its height: base 2p, equal legs h.
    # The legs are hypotenuses h > p, so the triangle is never flat.
    p, q, h = _pythagorean_legs(rng, bound)
    if rng.random() < 0.5:
        p, q = q, p
    num, den = _rational_scale(rng, bound)
    triple = [2 * p * num, h * num, h * num]
    shift = rng.randrange(3)
    triple = triple[shift:] + triple[:shift]
    return _over(*triple, den)


def _right_angled_sides(rng: random.Random, bound: int) -> _IntegerTriangle:
    p, q, h = _pythagorean_legs(rng, bound)
    num, den = _rational_scale(rng, bound)
    return _over(p * num, q * num, h * num, den)


def _near_equilateral_sides(rng: random.Random, bound: int) -> _IntegerTriangle:
    # Max/min side ratio stays below 1 + 1/4000 <= 1 + 1e-3.
    base = 4000 * bound
    num, den = _rational_scale(rng, bound)
    return _over(
        (base + rng.randrange(0, bound + 1)) * num,
        (base + rng.randrange(0, bound + 1)) * num,
        (base + rng.randrange(0, bound + 1)) * num,
        den,
    )


def _near_degenerate_sides(rng: random.Random, bound: int) -> _IntegerTriangle:
    # Flat scalene: c just under a + b.  Conditioning is about k, drawn
    # log-uniform up to 1e6, but the triple is never exactly degenerate.
    while True:
        n = rng.randrange(1, bound + 1)
        m = rng.randrange(1, bound + 1)
        k = min(int(10.0 ** (1.0 + 5.0 * rng.random())), 1_000_000)
        num, den = _rational_scale(rng, bound)
        # a = n*num/den, b = m*num/den and c = (n + m - 2(n + m)/k) * num/den,
        # over k*den.
        try:
            return _over(n * num * k, m * num * k, (n + m) * (k - 2) * num, k * den)
        except InvalidTriangleError:
            continue


_GENERATORS: Dict[str, Callable[[random.Random, int], _IntegerTriangle]] = {
    "generic": _generic_sides,
    "isoceles": _isoceles_sides,
    "right-angled": _right_angled_sides,
    "near-equilateral": _near_equilateral_sides,
    "near-degenerate": _near_degenerate_sides,
}


def _integer_sides(profile: FuzzProfile, index: int) -> _IntegerTriangle:
    """The integer form of triangle number ``index`` of the profile: the
    kernel that exact ``fuzz`` hands to the identity suite."""
    return _GENERATORS[profile.kind](_rng_for(profile, index), profile.magnitude_bound)


def random_sides(profile: FuzzProfile, index: int) -> SideLengths:
    """The side lengths of triangle number ``index`` of the profile."""
    t = _integer_sides(profile, index)
    return SideLengths(Fraction(t.a, t.L), Fraction(t.b, t.L), Fraction(t.c, t.L))


def _float_sides(t: _IntegerTriangle) -> Tuple[SideLengths, Tuple[Pair, Pair, Pair]]:
    """The float sides of an integer form and their canonical embedding as
    float pairs (x, y): those of ``random_triangle`` taken to floats, bit
    for bit, which float ``fuzz`` hands to the suite with no ``Point2``
    built.  Integer true division rounds as ``float()`` of a ``Fraction``
    does, and raises ``OverflowError`` where it does.  A Cartesian frame
    (m = 1) divides each coordinate by its weight; otherwise the float
    sides are embedded (:func:`~ninepoint.triangle._float_embedding`, the
    float half of ``canonical_vertices``), whose apex is checked as
    ``Point2`` checks it, with the same error; a quotient of integers is
    finite or raises."""
    sides = SideLengths(t.a / t.L, t.b / t.L, t.c / t.L)
    m, frame = _canonical_frame(t)
    if m != 1:
        return sides, _float_embedding(sides.a, sides.b, sides.c)
    return sides, tuple([(x / w, y / w) for x, y, w in frame])


def random_triangle(
    profile: FuzzProfile, index: int
) -> Tuple[SideLengths, Tuple[Point2, Point2, Point2]]:
    """Deterministic triangle number ``index`` of the profile: side lengths
    plus the canonical embedding (exact when the profile allows it)."""
    sides = random_sides(profile, index)
    return sides, canonical_vertices(sides)


# --- independent Cartesian constructions ----------------------------------
#
# The oracle and the suite's Cartesian checks are written once, against a
# plane: a namespace of the same constructions over one carrier.  Exact
# sides use a ninepoint.homogeneous.Plane (integer triples under the
# metric x^2 + m*t^2; scalars are integer ratios).  Float sides use
# triangle.FloatPlane (float pairs).


class OracleResult(Record):
    """Constructed centers and the constructed nine-point radius squared.

    ``frame`` keeps the labeled points (the vertices and the eight centers)
    in the carrier of the plane they were built on: integer triples of a
    :class:`ninepoint.homogeneous.Plane` or float pairs ``(x, y)``.
    ``frame_radius_sq`` is the radius in that carrier's scalar."""

    __slots__ = _fields = ("frame", "frame_radius_sq")
    frame: Dict[str, Any]
    frame_radius_sq: Any


def cartesian_oracle(plane: Any, a_pt: Any, b_pt: Any, c_pt: Any) -> OracleResult:
    """Every center from scratch on ``plane``; see the module docstring for
    the recipes.

    The vertices arrive already lifted onto ``plane``, which the caller
    chooses.  The exact plane's bisectors need rational edge lengths; the
    identity suite builds the oracle only after it has matched each squared
    edge to a rational side squared.
    """
    if plane.orientation(a_pt, b_pt, c_pt) == 0:
        raise ValueError("collinear vertices")
    mid_bc = plane.midpoint(b_pt, c_pt)
    mid_ca = plane.midpoint(c_pt, a_pt)
    mid_ab = plane.midpoint(a_pt, b_pt)
    sub, perp, intersect = plane.sub, plane.perp, plane.intersect

    circum = plane.equidistant_point(a_pt, b_pt, c_pt)
    centroid = intersect(a_pt, sub(mid_bc, a_pt), b_pt, sub(mid_ca, b_pt))
    ortho = intersect(a_pt, perp(sub(c_pt, b_pt)), b_pt, perp(sub(a_pt, c_pt)))
    nine = plane.equidistant_point(mid_bc, mid_ca, mid_ab)

    # One unit direction per edge; the reverse one is its exact negation.
    unit, scaled = plane.unit_direction, plane.scaled
    to_b_from_a = unit(a_pt, b_pt)
    to_c_from_a = unit(a_pt, c_pt)
    to_c_from_b = unit(b_pt, c_pt)
    to_a_from_b = scaled(to_b_from_a, -1)
    to_a_from_c = scaled(to_c_from_a, -1)
    to_b_from_c = scaled(to_c_from_b, -1)

    bis_a = plane.add(to_b_from_a, to_c_from_a)
    bis_b = plane.add(to_a_from_b, to_c_from_b)
    bis_c = plane.add(to_a_from_c, to_b_from_c)
    ext_a = sub(to_b_from_a, to_c_from_a)
    ext_b = sub(to_a_from_b, to_c_from_b)
    ext_c = sub(to_a_from_c, to_b_from_c)

    incenter = intersect(a_pt, bis_a, b_pt, bis_b)
    ex_a = intersect(a_pt, bis_a, b_pt, ext_b)
    ex_b = intersect(b_pt, bis_b, c_pt, ext_c)
    ex_c = intersect(c_pt, bis_c, a_pt, ext_a)

    return OracleResult(
        {
            "A": a_pt, "B": b_pt, "C": c_pt,
            "O": circum, "G": centroid, "H": ortho, "N": nine,
            "I": incenter, "Ea": ex_a, "Eb": ex_b, "Ec": ex_c,
        },
        plane.dist_sq(nine, mid_bc),
    )


# --- identity suite --------------------------------------------------------


class IdentityCheck(NamedTuple):
    name: str
    passed: bool
    residual: float  # normalized; 0.0 for exact matches
    detail: str = ""


Row = Tuple[str, bool, float, str]


class SuiteReport(Record):
    """The checks of one suite run.  ``checks`` may be given as plain
    ``(name, passed, residual, detail)`` rows, as the suite gives them:
    ``passed`` and ``max_residual`` read the rows, and ``checks`` makes
    them :class:`IdentityCheck` tuples on first read.  The value, and so
    ``==``, ``hash``, ``repr``, copy and pickle, is that of the report
    built from ``IdentityCheck`` tuples."""

    _fields = ("checks", "exact")
    exact: bool

    def __init__(self, checks: Tuple[Row, ...], exact: bool) -> None:
        set_field(self, "_rows", checks)
        set_field(self, "exact", exact)

    @cached_property
    def checks(self) -> Tuple[IdentityCheck, ...]:
        return tuple([tuple.__new__(IdentityCheck, row) for row in self._rows])

    @property
    def passed(self) -> bool:
        return all(map(itemgetter(1), self._rows))

    @property
    def max_residual(self) -> float:
        return max(map(itemgetter(2), self._rows), default=0.0)

    def failures(self) -> Tuple[IdentityCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)


class _Root(NamedTuple):
    """The square root of a scale, taken only when a residual needs it."""

    square: Any


def _exact_residual(lhs: Tuple[int, int], rhs: Tuple[int, int], m: int, scale: Any) -> float:
    """|lhs - rhs| / max(1, |scale|, |lhs|, |rhs|) of a failed exact check
    on the ratios (num, den), the normalization of a float check.  A t
    coordinate (m != 1) is read in y = t*sqrt(m).  The scale is a ratio of
    the exact plane, a ``Fraction``, an ``int`` or a float, or the square
    root of a ratio, so the squared quotient is taken exactly; it is at
    most 4, and only it becomes a float."""
    x1, x2 = Fraction(*lhs), Fraction(*rhs)
    if type(scale) is _Root:
        scale_sq = Fraction(*scale.square)
    else:
        scale_sq = (Fraction(*scale) if type(scale) is tuple else Fraction(scale)) ** 2
    bound_sq = max(1, scale_sq, x1 * x1 * m, x2 * x2 * m)
    return math.sqrt((x1 - x2) ** 2 * m / bound_sq)


def _conditioned(t: _FloatTriangle, tol: ToleranceProfile) -> ToleranceProfile:
    """The float suite's tolerance: first-order error analysis puts
    rounding growth at O(eps * conditioning^2)."""
    cond = _conditioning(t)
    return ToleranceProfile(
        rel_eps=tol.rel_eps + 64.0 * _MACHINE_EPS * cond * cond, abs_eps=tol.abs_eps
    )


def _ratio(n: int, d: int) -> Tuple[int, int]:
    """n/d as a scalar of the exact plane."""
    return n, d


def check_identity_suite(
    sides: Union[SideLengths, _IntegerTriangle, _FloatTriangle],
    embedding: Optional[Tuple[Union[Point2, Pair], ...]],
    tol: ToleranceProfile = DEFAULT_TOLERANCE,
) -> SuiteReport:
    """Run every cross-check of kernel formulas against the oracle.

    The suite is keyed on the kernel of the sides: it takes a
    ``SideLengths`` or the kernel itself, the integer form of exact sides
    (as exact ``fuzz`` generates it, with no ``Fraction``) or the float
    kernel of float sides.  Exact sides take no embedding (``embedding``
    is None; anything else raises ``ValueError``): they run on their own
    frame (:func:`~ninepoint.triangle._canonical_frame`) of integer
    homogeneous coordinates under the metric x^2 + m*t^2, which is
    Cartesian (m = 1) when the altitude is rational, and read the kernel's
    integer ratios, not its ``Fraction``s.  Every comparison there is an
    exact equality, made by cross-multiplication, and so are the suite's
    own products of kernel values, and a ``Fraction`` and a float are
    taken only for the residual of a failed check.  Float sides need an
    embedding, which must reproduce the sides: three ``Point2`` vertices,
    whose coordinates they take as floats (``FloatPlane.lift``), or three
    finite float pairs ``(x, y)``, taken as they are, as float ``fuzz``
    hands them (:func:`_float_sides`).  They read the float kernel's bare
    floats, and compare with a
    conditioning-aware tolerance: first-order error analysis puts rounding
    growth at O(eps * conditioning^2), so the relative bound is
    ``tol.rel_eps + 64 * eps * conditioning^2``.  The kinds are decided
    before the first check, so a value the float kind decision refuses
    raises before the embedding is compared.  The comparisons are
    ``(name, lhs, rhs, scale)`` tuples that one loop per backend checks,
    the three embedding rows first, since the oracle needs a matching
    embedding; see the module docstring.
    """
    checks: List[Row] = []
    append = checks.append

    def compare(
        rows: List[Tuple[str, Any, Any, Any]], flags: Sequence[Tuple[str, bool, str]] = ()
    ) -> None:
        """Append each comparison (name, lhs, rhs, scale) as a row, by the
        backend's rule, with a residual normalized by max(1, |scale|, |lhs|,
        |rhs|), then each flag (name, ok, detail), whose residual is 0 or
        infinite."""
        if exact:
            for name, lhs, rhs, scale in rows:
                # A t coordinate of a frame with m != 1 compares as its ratio t/w.
                n1, d1, n2, d2 = lhs[0], lhs[1], rhs[0], rhs[1]
                if n1 * d2 == n2 * d1:
                    append((name, True, 0.0, ""))
                else:
                    m = lhs[2] if type(lhs) is homogeneous._TCoordinate else 1
                    append((name, False, _exact_residual((n1, d1), (n2, d2), m, scale), ""))
        else:
            for name, lhs, rhs, scale in rows:
                gap = abs(lhs - rhs)
                # The floor, compared in max's order without its call, so a
                # NaN never replaces it either.
                x = abs(scale)
                floor = x if x > 1.0 else 1.0
                x = abs(lhs)
                floor = x if x > floor else floor
                x = abs(rhs)
                floor = x if x > floor else floor
                if gap < math.inf:
                    # suite_tol.bound(floor), as floor >= 1
                    append((name, gap <= abs_eps + rel_eps * floor, gap / floor, ""))
                else:
                    # An infinite or NaN gap fails, with an infinite residual:
                    # an infinite floor would pass it with a NaN that max() drops.
                    append((name, False, math.inf, ""))
        for name, ok, detail in flags:
            append((name, ok, 0.0 if ok else math.inf, detail))

    kernel = sides._kernel if isinstance(sides, SideLengths) else sides
    exact = type(kernel) is _IntegerTriangle
    a, b, c = kernel.a, kernel.b, kernel.c
    if exact:
        if embedding is not None:
            raise ValueError("exact sides run on their own frame; pass no embedding")
        # The integer kernel reads the sides as (a, b, c) over L and gives
        # each value as a ratio (num, den).
        m, lifted = _canonical_frame(kernel)
        plane, suite_tol = homogeneous.Plane(m), tol  # an exact suite compares no floats
        A, B, C = (a, kernel.L), (b, kernel.L), (c, kernel.L)
        two, four = (2, 1), (4, 1)
        # A weight x over its sum d as a ratio, and with the sign of x*d.
        ratio, signed, foot_tol = _ratio, operator.mul, 0
        # Lengths stay squared; a scale's root is taken only for a residual.
        root = _Root
    else:
        if embedding is None:
            raise ValueError("float sides need an embedding")
        plane, suite_tol = FloatPlane, _conditioned(kernel, tol)
        lifted = embedding if type(embedding[0]) is tuple else plane.lift(embedding)
        A, B, C = a, b, c
        two, four = 2, 4
        ratio = signed = operator.truediv
        foot_tol = suite_tol.bound(1.0)
        root = math.sqrt
    met = kernel.metrics()
    vertex_n = kernel.vertex_ninepoint_dist_sq()
    # Each circle's kind and residual come from one computation, made
    # before the first check, so a value the float kind decision refuses
    # raises before the embedding is compared.
    verdicts = [kernel.verdict(circle, met, vertex_n, suite_tol) for circle in CIRCLES]
    # The fields of TriangleMetrics, in order, from the kernel's tuple.
    s, K_sq, R_sq, r_sq, rA_sq, rB_sq, rC_sq, Rr = met[:8]
    va, vb, vc = lifted

    product = plane.product
    abs_eps, rel_eps = suite_tol.abs_eps, suite_tol.rel_eps
    scale_len_sq = R_sq
    scale_len = root(R_sq)

    zero = plane.difference(A, A)
    dist_sq, sub, dot = plane.dist_sq, plane.sub, plane.dot

    # Embedding consistency: the vertex triple must reproduce the sides
    # (the exact frame does by construction).
    compare([
        ("embedding_matches_sides_a", dist_sq(vb, vc), product(A, A), scale_len_sq),
        ("embedding_matches_sides_b", dist_sq(vc, va), product(B, B), scale_len_sq),
        ("embedding_matches_sides_c", dist_sq(va, vb), product(C, C), scale_len_sq),
    ])
    if not all(map(itemgetter(1), checks)):
        raise ValueError("embedding does not match the side lengths")

    oracle = cartesian_oracle(plane, va, vb, vc)
    # The kernel's centers straight from their weights.
    frame = _center_frame(plane, a, b, c, va, vb, vc)
    at = oracle.frame  # the constructed points, on the same plane
    o_pt, g_pt, h_pt, n_pt = at["O"], at["G"], at["H"], at["N"]

    # Metric closed forms against their defining products.
    abc_sq = plane.square(product(product(A, B), C))
    rows = [
        ("metrics_circumradius_product", product(plane.times(16, R_sq), K_sq), abc_sq, abc_sq),
        ("metrics_inradius_product", product(product(r_sq, s), s), K_sq, K_sq),
    ]
    for name, r_x_sq, side in (("rA", rA_sq, A), ("rB", rB_sq, B), ("rC", rC_sq, C)):
        gap = plane.difference(s, side)
        lhs = product(product(r_x_sq, gap), gap)
        rows.append((f"metrics_exradius_product_{name}", lhs, K_sq, K_sq))
    R_r = product(R_sq, r_sq)
    rows.append(("metrics_mixed_product_Rr", product(Rr, Rr), R_r, R_r))

    # The squared distances from the vertices to O and to N, computed once
    # each for the rows below.
    to_o = [dist_sq(vertex, o_pt) for vertex in lifted]
    to_n = [dist_sq(vertex, n_pt) for vertex in lifted]

    # Circumcenter: constructed point is equidistant and matches R^2.
    rows += [
        ("circumradius_matches_oracle", to_o[0], R_sq, scale_len_sq),
        ("circumcenter_equidistant_b", to_o[1], R_sq, scale_len_sq),
        ("circumcenter_equidistant_c", to_o[2], R_sq, scale_len_sq),
    ]

    # Kernel centers against oracle constructions.
    for label in ("O", "G", "H", "N", "I", "Ea", "Eb", "Ec"):
        kernel_x, kernel_y = plane.coords(frame[label])
        oracle_x, oracle_y = plane.coords(at[label])
        rows.append((f"center_agreement_{label}_x", kernel_x, oracle_x, scale_len))
        rows.append((f"center_agreement_{label}_y", kernel_y, oracle_y, scale_len))

    # Euler relation on constructed points (H comes from altitudes here).
    oh_x, oh_y = plane.coords(sub(h_pt, o_pt))
    og3_x, og3_y = plane.coords(plane.scaled(sub(g_pt, o_pt), 3))
    n_x, n_y = plane.coords(n_pt)
    mid_x, mid_y = plane.coords(plane.midpoint(o_pt, h_pt))
    rows += [
        ("euler_vector_identity_x", oh_x, og3_x, scale_len),
        ("euler_vector_identity_y", oh_y, og3_y, scale_len),
        ("euler_ratio", dist_sq(g_pt, h_pt), plane.times(4, dist_sq(o_pt, g_pt)), scale_len_sq),
        ("ninepoint_is_oh_midpoint_x", n_x, mid_x, scale_len),
        ("ninepoint_is_oh_midpoint_y", n_y, mid_y, scale_len),
        # Altitude property of the constructed orthocenter.
        ("orthocenter_altitude_a", dot(sub(h_pt, va), sub(vb, vc)), zero, scale_len_sq),
        ("orthocenter_altitude_b", dot(sub(h_pt, vb), sub(vc, va)), zero, scale_len_sq),
    ]

    # Equal tangent distances of incenter and excenters to the side lines,
    # each line built once.
    line, line_dist_sq = plane.line, plane.line_dist_sq
    lines = (("bc", line(vb, vc)), ("ca", line(vc, va)), ("ab", line(va, vb)))
    for label, r_x_sq in (("I", r_sq), ("Ea", rA_sq), ("Eb", rB_sq), ("Ec", rC_sq)):
        prefix = "incenter" if label == "I" else f"excenter_{label}"
        for name, side_line in lines:
            distance = line_dist_sq(at[label], side_line)
            rows.append((f"{prefix}_line_distance_{name}", distance, r_x_sq, scale_len_sq))

    # Side points: midpoint of BC and the three bisector feet.
    half = plane.quotient(A, two)
    mid = kernel.side_point(half, half)
    half_over_a = plane.quotient(half, A)
    rows.append(("point_on_side_midpoint_beta", mid[0], half_over_a, 1.0))
    rows.append(("point_on_side_midpoint_gamma", mid[1], half_over_a, 1.0))
    # Exact feet lie on the side exactly; float ones within the bound.
    flags = []
    for k, vertex in enumerate(VERTICES):
        x, d = _bisector_foot_weights((a, b, c), k)
        foot = [signed(n, d) for n in x]
        on_side = foot[k] == 0 and min(foot) >= -foot_tol
        flags.append((f"bisector_foot_{vertex}_on_side", on_side, ""))
    compare(rows, flags)

    # Barycentric <-> Cartesian round trip through the incenter.
    x, d = CENTER_WEIGHTS["I"](a, b, c)
    i_bary = [ratio(n, d) for n in x]
    i_back = plane.barycentric(frame["I"], va, vb, vc)
    rows = [
        ("roundtrip_incenter_alpha", i_back[0], i_bary[0], 1.0),
        ("roundtrip_incenter_beta", i_back[1], i_bary[1], 1.0),
        ("roundtrip_incenter_gamma", i_back[2], i_bary[2], 1.0),
    ]

    # Squared-distance identity at constructed points: X in {I, Ea, G},
    # Y in {N, O}, against the direct Cartesian distance.  The distances
    # from the vertices enter the kernel formula as numerators over one
    # denominator; the vertices share one weight, so on the exact plane
    # their distances to one point share one denominator.
    vertex_dist_sq = {"N": plane.over_one(to_n), "O": plane.over_one(to_o)}
    for x_label in ("I", "Ea", "G"):
        x, d = CENTER_WEIGHTS[x_label](a, b, c)
        for y_label in ("N", "O"):
            from_sides = kernel.distance_sq(x, d, *vertex_dist_sq[y_label])
            direct = dist_sq(at[x_label], at[y_label])
            rows.append((f"distance_identity_{x_label}{y_label}", from_sides, direct, scale_len_sq))

    # Vertex-to-nine-point-center distances from sides alone.
    for vertex, from_sides, direct in zip(VERTICES, vertex_n, to_n):
        rows.append((f"vertex_ninepoint_distance_{vertex}", from_sides, direct, scale_len_sq))

    # Circumcenter dot products.
    for pair, opposite in (("AB", 2), ("BC", 0), ("CA", 1)):
        direct = dot(sub(at[pair[0]], o_pt), sub(at[pair[1]], o_pt))
        rows.append((f"circumdot_{pair}", kernel.circumdot(opposite), direct, scale_len_sq))

    # Nine-point membership: side midpoints and altitude feet lie at R/2.
    quarter_r_sq = plane.quotient(R_sq, four)
    rows.append(("ninepoint_radius", oracle.frame_radius_sq, quarter_r_sq, scale_len_sq))
    memberships = (
        ("mid_bc", plane.midpoint(vb, vc)),
        ("mid_ca", plane.midpoint(vc, va)),
        ("mid_ab", plane.midpoint(va, vb)),
        ("foot_a", plane.project(va, vb, vc)),
        ("foot_b", plane.project(vb, vc, va)),
        ("foot_c", plane.project(vc, va, vb)),
    )
    for name, member in memberships:
        distance = dist_sq(n_pt, member)
        rows.append((f"ninepoint_membership_{name}", distance, quarter_r_sq, scale_len_sq))

    # Feuerbach residuals and tangency kinds.
    rows.append(("feuerbach_incircle_residual", verdicts[0][1], zero, quarter_r_sq))
    for vertex, (_, residual) in zip(VERTICES, verdicts[1:]):
        rows.append((f"feuerbach_excircle_residual_{vertex}", residual, zero, quarter_r_sq))
    flags = []
    for circle, (kind, _) in zip(CIRCLES, verdicts):
        flags.append((f"tangency_kind_{circle}", _kind_ok(circle, kind), kind.value))
    equilateral_ok = not a == b == c or verdicts[0][0] is Tangency.COINCIDENT
    flags.append(("tangency_equilateral_flag", equilateral_ok, ""))
    compare(rows, flags)

    # Scale covariance: doubling the sides multiplies squared lengths by 4
    # and keeps the residual identically zero.  Exact sides double their
    # integer form over the same L.  Permutation equivariance: relabeling
    # vertices permutes the excircles.
    scaled = kernel.with_sides(2 * a, 2 * b, 2 * c)
    met_scaled = scaled.metrics()
    four_r_sq = plane.times(4, R_sq)
    rotated = kernel.with_sides(b, c, a)
    compare([
        ("scale_covariance_R_sq", met_scaled[2], four_r_sq, four_r_sq),
        ("scale_covariance_residual", scaled.residual("incircle"), plane.times(2, zero),
         plane.quotient(met_scaled[2], four)),
        ("permutation_exradius", rotated.metrics()[4], rB_sq, scale_len_sq),
        ("permutation_residual", rotated.residual("exA"), zero, quarter_r_sq),
    ])

    return SuiteReport(tuple(checks), exact)
