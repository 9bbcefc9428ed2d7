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
side lengths, and the exact carrier is integer homogeneous coordinates
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
one.  The suite chooses it from ``sides.is_exact`` alone and hands the
lifted vertices to both the oracle and the kernel's centers
(:func:`~ninepoint.centers.center_set` on float sides, the weights of
:data:`~ninepoint.triangle.CENTER_WEIGHTS` on exact ones), so it compares
the two frames point for point on one plane.

The suite chooses its value source once, with its plane.  On exact sides
it reads the integer kernel (the methods of
``triangle._IntegerTriangle``, the tangency decisions and residuals of
``feuerbach`` and the weights of ``centers``), whose every value is an
unreduced integer ratio (num, den); the scaled and rotated triangles are
integer forms over the same L.  Its own arithmetic on those values (the
metric products such as 16 R^2 K^2 against (abc)^2, the squared sides,
R^2/4) takes no gcd either, and a comparison is a cross-multiplication.
So a passing exact triangle builds no ``Fraction`` and no float; a
failed check builds them only for its normalized residual, which is at
most 2, so the suite runs on numbers beyond the range of a double.  A
failed check is normalized alike on both backends, by
max(1, |scale|, |lhs|, |rhs|), so one kernel fault reads the same size on
either.  Float sides run the same checks on the kernel's floats, in the
same order of operations.  Each check is recorded as a plain ``(name,
passed, residual, detail)`` row; :class:`SuiteReport` answers ``passed``
and ``max_residual`` from those rows, and makes them
:class:`IdentityCheck` named tuples only when ``checks`` is read.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from . import homogeneous
from .numeric import DEFAULT_TOLERANCE, ToleranceProfile
from .record import Record, cached, set_field
from .triangle import (
    FloatPlane,
    Point2,
    SideLengths,
    TriangleMetrics,
    _canonical_frame,
    _integer_triangle,
    _IntegerTriangle,
    barycentric_distance_sq,
    canonical_vertices,
    metrics,
    point_on_side,
)
from .centers import (
    VERTICES,
    CENTER_WEIGHTS,
    _bisector_foot_weights,
    _center_frame,
    bisector_foot_barycentric,
    center_set,
    circumdot,
    vertex_to_ninepoint_dist_sq,
)
from .feuerbach import (
    CIRCLES,
    Tangency,
    _exact_decision,
    _kind_ok,
    _ninepoint_residual,
    _residual_ratio,
    feuerbach_report,
)

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
    """A scale p/q as the integers (p, q); each side made with it is one
    ``Fraction``."""
    return rng.randrange(1, bound + 1), rng.randrange(1, bound + 1)


def _generic_sides(rng: random.Random, bound: int) -> SideLengths:
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
        triple = [Fraction(base * num, den), Fraction(hyp2 * num, den), Fraction(hyp1 * num, den)]
        shift = rng.randrange(3)
        triple = triple[shift:] + triple[:shift]
        return SideLengths(*triple)


def _isoceles_sides(rng: random.Random, bound: int) -> SideLengths:
    # A right triangle mirrored across its height: base 2p, equal legs h.
    # The legs are hypotenuses h > p, so the triangle is never flat.
    p, q, h = _pythagorean_legs(rng, bound)
    if rng.random() < 0.5:
        p, q = q, p
    num, den = _rational_scale(rng, bound)
    triple = [Fraction(2 * p * num, den), Fraction(h * num, den), Fraction(h * num, den)]
    shift = rng.randrange(3)
    triple = triple[shift:] + triple[:shift]
    return SideLengths(*triple)


def _right_angled_sides(rng: random.Random, bound: int) -> SideLengths:
    p, q, h = _pythagorean_legs(rng, bound)
    num, den = _rational_scale(rng, bound)
    return SideLengths(Fraction(p * num, den), Fraction(q * num, den), Fraction(h * num, den))


def _near_equilateral_sides(rng: random.Random, bound: int) -> SideLengths:
    # Max/min side ratio stays below 1 + 1/4000 <= 1 + 1e-3.
    base = 4000 * bound
    num, den = _rational_scale(rng, bound)
    return SideLengths(
        Fraction((base + rng.randrange(0, bound + 1)) * num, den),
        Fraction((base + rng.randrange(0, bound + 1)) * num, den),
        Fraction((base + rng.randrange(0, bound + 1)) * num, den),
    )


def _near_degenerate_sides(rng: random.Random, bound: int) -> SideLengths:
    # Flat scalene: c just under a + b.  Conditioning is about k, drawn
    # log-uniform up to 1e6, but the triple is never exactly degenerate.
    while True:
        n = rng.randrange(1, bound + 1)
        m = rng.randrange(1, bound + 1)
        k = min(int(10.0 ** (1.0 + 5.0 * rng.random())), 1_000_000)
        num, den = _rational_scale(rng, bound)
        # c = (n + m - 2(n + m)/k) * num/den
        c = Fraction((n + m) * (k - 2) * num, k * den)
        try:
            return SideLengths(Fraction(n * num, den), Fraction(m * num, den), c)
        except ValueError:
            continue


_GENERATORS: Dict[str, Callable[[random.Random, int], SideLengths]] = {
    "generic": _generic_sides,
    "isoceles": _isoceles_sides,
    "right-angled": _right_angled_sides,
    "near-equilateral": _near_equilateral_sides,
    "near-degenerate": _near_degenerate_sides,
}


def random_sides(profile: FuzzProfile, index: int) -> SideLengths:
    """The side lengths of triangle number ``index`` of the profile."""
    return _GENERATORS[profile.kind](_rng_for(profile, index), profile.magnitude_bound)


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

    unit = plane.unit_direction
    to_b_from_a = unit(a_pt, b_pt)
    to_c_from_a = unit(a_pt, c_pt)
    to_a_from_b = unit(b_pt, a_pt)
    to_c_from_b = unit(b_pt, c_pt)
    to_a_from_c = unit(c_pt, a_pt)
    to_b_from_c = unit(c_pt, b_pt)

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

    @cached
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


def _conditioned(sides: SideLengths, tol: ToleranceProfile) -> ToleranceProfile:
    """The float suite's tolerance: first-order error analysis puts
    rounding growth at O(eps * conditioning^2)."""
    cond = sides.conditioning()
    return ToleranceProfile(
        rel_eps=tol.rel_eps + 64.0 * _MACHINE_EPS * cond * cond, abs_eps=tol.abs_eps
    )


def _ratio_metrics(t: _IntegerTriangle) -> TriangleMetrics:
    """The integer kernel's metric ratios under their field names."""
    return TriangleMetrics(*t.metrics())


def check_identity_suite(
    sides: SideLengths,
    embedding: Optional[Tuple[Point2, Point2, Point2]],
    tol: ToleranceProfile = DEFAULT_TOLERANCE,
) -> SuiteReport:
    """Run every cross-check of kernel formulas against the oracle.

    Exact sides take no embedding (``embedding`` is None; anything else
    raises ``ValueError``): they run on their own frame
    (:func:`~ninepoint.triangle._canonical_frame`) of integer homogeneous
    coordinates under the metric x^2 + m*t^2, which is Cartesian (m = 1)
    when the altitude is rational, and read the kernel's integer ratios,
    not its ``Fraction``s.  Every comparison there is an exact equality,
    made by cross-multiplication, and so are the suite's own products of
    kernel values, and a ``Fraction`` and a float are taken only for the
    residual of a failed check.  Float sides need an embedding, whose
    vertices they take as floats and which must reproduce the sides, and
    compare with a conditioning-aware tolerance: first-order error analysis
    puts rounding growth at O(eps * conditioning^2), so the relative bound
    is ``tol.rel_eps + 64 * eps * conditioning^2``.
    """
    exact = sides.is_exact
    if exact:
        if embedding is not None:
            raise ValueError("exact sides run on their own frame; pass no embedding")
        # The integer kernel reads the sides as (a, b, c) over L and gives
        # each value as a ratio (num, den).
        t = kernel = sides._integer_form
        m, lifted = _canonical_frame(t)
        plane, suite_tol = homogeneous.Plane(m), tol  # an exact suite compares no floats
        a, b, c = t.a, t.b, t.c
        A, B, C = (a, t.L), (b, t.L), (c, t.L)
        sides_of, metrics_of = partial(_integer_triangle, L=t.L), _ratio_metrics
        residual_of = _residual_ratio
        kinds = [(circle, _exact_decision(t, circle)[0]) for circle in CIRCLES]
        equilateral = sides.is_equilateral
    else:
        if embedding is None:
            raise ValueError("float sides need an embedding")
        plane, suite_tol = FloatPlane, _conditioned(sides, tol)
        lifted = plane.lift(embedding)
        kernel, sides_of, metrics_of = sides, SideLengths, metrics
        residual_of = _ninepoint_residual
        a, b, c = A, B, C = sides.as_tuple()
        fb = feuerbach_report(sides, suite_tol)
        kinds = [(entry.circle, entry.report.kind) for entry in fb.entries]
        equilateral = fb.equilateral
    va, vb, vc = lifted

    product = plane.product
    abs_eps, rel_eps = suite_tol.abs_eps, suite_tol.rel_eps
    met = metrics_of(kernel)
    R_sq = met.R_sq
    scale_len_sq = R_sq
    scale_len = _Root(R_sq) if exact else math.sqrt(R_sq)

    checks: List[Row] = []

    def record_ratio(name: str, lhs: Any, rhs: Any, scale: Any, detail: str = "") -> None:
        # A t coordinate of a frame with m != 1 compares as its ratio t/w.
        n1, d1, n2, d2 = lhs[0], lhs[1], rhs[0], rhs[1]
        if n1 * d2 == n2 * d1:
            checks.append((name, True, 0.0, detail))
            return
        m = lhs[2] if type(lhs) is homogeneous._TCoordinate else 1
        checks.append((name, False, _exact_residual((n1, d1), (n2, d2), m, scale), detail))

    def record_float(name: str, lhs: float, rhs: float, scale: float, detail: str = "") -> None:
        gap = abs(lhs - rhs)
        scale_f = max(1.0, abs(scale), abs(lhs), abs(rhs))
        ok = gap <= abs_eps + rel_eps * scale_f  # suite_tol.bound(scale_f); scale_f >= 1
        checks.append((name, ok, gap / scale_f, detail))

    record = record_ratio if exact else record_float

    def record_flag(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, 0.0 if ok else math.inf, detail))

    zero = plane.difference(A, A)
    dist_sq, sub, dot = plane.dist_sq, plane.sub, plane.dot

    # Embedding consistency: the vertex triple must reproduce the sides
    # (the exact frame does by construction).
    record("embedding_matches_sides_a", dist_sq(vb, vc), product(A, A), scale_len_sq)
    record("embedding_matches_sides_b", dist_sq(vc, va), product(B, B), scale_len_sq)
    record("embedding_matches_sides_c", dist_sq(va, vb), product(C, C), scale_len_sq)
    if not all(map(itemgetter(1), checks)):
        raise ValueError("embedding does not match the side lengths")

    oracle = cartesian_oracle(plane, va, vb, vc)
    if exact:
        # The kernel's centers straight from their weights.
        frame = _center_frame(plane, a, b, c, va, vb, vc)
    else:
        bary = center_set(sides, lifted, plane=plane)
        frame = bary.frame
    at = oracle.frame  # the constructed points, on the same plane
    o_pt, g_pt, h_pt, n_pt = at["O"], at["G"], at["H"], at["N"]

    # Metric closed forms against their defining products.
    K_sq, r_sq, s = met.K_sq, met.r_sq, met.s
    abc_sq = plane.square(product(product(A, B), C))
    record("metrics_circumradius_product", product(plane.times(16, R_sq), K_sq), abc_sq, abc_sq)
    record("metrics_inradius_product", product(product(r_sq, s), s), K_sq, K_sq)
    for name, r_x_sq, side in (("rA", met.rA_sq, A), ("rB", met.rB_sq, B), ("rC", met.rC_sq, C)):
        gap = plane.difference(s, side)
        record(f"metrics_exradius_product_{name}", product(product(r_x_sq, gap), gap), K_sq, K_sq)
    Rr = met.Rr
    R_r = product(R_sq, r_sq)
    record("metrics_mixed_product_Rr", product(Rr, Rr), R_r, R_r)

    # Circumcenter: constructed point is equidistant and matches R^2.
    record("circumradius_matches_oracle", dist_sq(o_pt, at["A"]), R_sq, scale_len_sq)
    record("circumcenter_equidistant_b", dist_sq(o_pt, at["B"]), R_sq, scale_len_sq)
    record("circumcenter_equidistant_c", dist_sq(o_pt, at["C"]), R_sq, scale_len_sq)

    # Kernel centers against oracle constructions.
    for label in ("O", "G", "H", "N", "I", "Ea", "Eb", "Ec"):
        kernel_x, kernel_y = plane.coords(frame[label])
        oracle_x, oracle_y = plane.coords(at[label])
        record(f"center_agreement_{label}_x", kernel_x, oracle_x, scale_len)
        record(f"center_agreement_{label}_y", kernel_y, oracle_y, scale_len)

    # Euler relation on constructed points (H comes from altitudes here).
    oh_x, oh_y = plane.coords(sub(h_pt, o_pt))
    og3_x, og3_y = plane.coords(plane.scaled(sub(g_pt, o_pt), 3))
    record("euler_vector_identity_x", oh_x, og3_x, scale_len)
    record("euler_vector_identity_y", oh_y, og3_y, scale_len)
    record(
        "euler_ratio",
        dist_sq(g_pt, h_pt),
        plane.times(4, dist_sq(o_pt, g_pt)),
        scale_len_sq,
    )
    n_x, n_y = plane.coords(n_pt)
    mid_x, mid_y = plane.coords(plane.midpoint(o_pt, h_pt))
    record("ninepoint_is_oh_midpoint_x", n_x, mid_x, scale_len)
    record("ninepoint_is_oh_midpoint_y", n_y, mid_y, scale_len)

    # Altitude property of the constructed orthocenter.
    record("orthocenter_altitude_a", dot(sub(h_pt, va), sub(vb, vc)), zero, scale_len_sq)
    record("orthocenter_altitude_b", dot(sub(h_pt, vb), sub(vc, va)), zero, scale_len_sq)

    # Equal tangent distances of incenter and excenters to the side lines.
    lines = (("bc", vb, vc), ("ca", vc, va), ("ab", va, vb))
    for name, on_line, toward in lines:
        record(
            f"incenter_line_distance_{name}",
            plane.line_dist_sq(at["I"], on_line, toward),
            met.r_sq,
            scale_len_sq,
        )
    for label, r_x_sq in (("Ea", met.rA_sq), ("Eb", met.rB_sq), ("Ec", met.rC_sq)):
        for name, on_line, toward in lines:
            record(
                f"excenter_{label}_line_distance_{name}",
                plane.line_dist_sq(at[label], on_line, toward),
                r_x_sq,
                scale_len_sq,
            )

    # Side points: midpoint of BC and the three bisector feet.
    if exact:
        half = (a, 2 * t.L)
        mid = t.side_point(half, half)
    else:
        half = a / 2
        mid = point_on_side(half, half, sides).components[1:]
    half_over_a = plane.quotient(half, A)
    record("point_on_side_midpoint_beta", mid[0], half_over_a, 1.0)
    record("point_on_side_midpoint_gamma", mid[1], half_over_a, 1.0)
    # Exact feet lie on the side exactly (their weights x over d have the
    # signs of x*d); float ones within the bound.
    foot_tol = 0 if exact else suite_tol.bound(1.0)
    for k, vertex in enumerate(VERTICES):
        if exact:
            x, d = _bisector_foot_weights((a, b, c), k)
            foot = [n * d for n in x]
        else:
            foot = bisector_foot_barycentric(sides, vertex).components
        record_flag(f"bisector_foot_{vertex}_on_side", foot[k] == 0 and min(foot) >= -foot_tol)

    # Barycentric <-> Cartesian round trip through the incenter.
    if exact:
        x, d = CENTER_WEIGHTS["I"](a, b, c)
        i_bary = [(n, d) for n in x]
    else:
        i_bary = bary.barycentric["I"].components
    i_back = plane.barycentric(frame["I"], va, vb, vc)
    record("roundtrip_incenter_alpha", i_back[0], i_bary[0], 1.0)
    record("roundtrip_incenter_beta", i_back[1], i_bary[1], 1.0)
    record("roundtrip_incenter_gamma", i_back[2], i_bary[2], 1.0)

    # Squared-distance identity at constructed points: X in {I, Ea, G},
    # Y in {N, O}, against the direct Cartesian distance.  The distances
    # from the vertices enter the kernel formula as its scalars; the
    # vertices share one weight, so on the exact plane their distances to
    # one point share one denominator.
    vertex_dist_sq = {
        y_label: [dist_sq(at[v], at[y_label]) for v in VERTICES] for y_label in ("N", "O")
    }
    for x_label in ("I", "Ea", "G"):
        if exact:
            x, d = CENTER_WEIGHTS[x_label](a, b, c)
        for y_label in ("N", "O"):
            dists = vertex_dist_sq[y_label]
            if exact:
                via_formula = t.distance_sq(x, d, [n for n, _ in dists], dists[0][1])
            else:
                via_formula = barycentric_distance_sq(bary.barycentric[x_label], *dists, sides)
            record(
                f"distance_identity_{x_label}{y_label}",
                via_formula,
                dist_sq(at[x_label], at[y_label]),
                scale_len_sq,
            )

    # Vertex-to-nine-point-center distances from sides alone.
    if exact:
        vertex_n = t.vertex_ninepoint_dist_sq()
    else:
        vertex_n = [vertex_to_ninepoint_dist_sq(sides, vertex) for vertex in VERTICES]
    for vertex, from_sides in zip(VERTICES, vertex_n):
        record(
            f"vertex_ninepoint_distance_{vertex}",
            from_sides,
            dist_sq(at[vertex], n_pt),
            scale_len_sq,
        )

    # Circumcenter dot products.
    for pair, opposite in (("AB", 2), ("BC", 0), ("CA", 1)):
        direct = dot(sub(at[pair[0]], o_pt), sub(at[pair[1]], o_pt))
        from_sides = t.circumdot(opposite) if exact else circumdot(sides, pair)
        record(f"circumdot_{pair}", from_sides, direct, scale_len_sq)

    # Nine-point membership: side midpoints and altitude feet lie at R/2.
    four = (4, 1) if exact else 4
    quarter_r_sq = plane.quotient(R_sq, four)
    record("ninepoint_radius", oracle.frame_radius_sq, quarter_r_sq, scale_len_sq)
    memberships = (
        ("mid_bc", plane.midpoint(vb, vc)),
        ("mid_ca", plane.midpoint(vc, va)),
        ("mid_ab", plane.midpoint(va, vb)),
        ("foot_a", plane.project(va, vb, vc)),
        ("foot_b", plane.project(vb, vc, va)),
        ("foot_c", plane.project(vc, va, vb)),
    )
    for name, member in memberships:
        record(f"ninepoint_membership_{name}", dist_sq(n_pt, member), quarter_r_sq, scale_len_sq)

    # Feuerbach residuals and tangency kinds.
    record("feuerbach_incircle_residual", residual_of(kernel, "incircle"), zero, quarter_r_sq)
    for vertex in VERTICES:
        record(
            f"feuerbach_excircle_residual_{vertex}",
            residual_of(kernel, f"ex{vertex}"),
            zero,
            quarter_r_sq,
        )
    for circle, kind in kinds:
        record_flag(f"tangency_kind_{circle}", _kind_ok(circle, kind), detail=kind.value)
    record_flag(
        "tangency_equilateral_flag",
        equilateral == sides.is_equilateral
        and (not equilateral or kinds[0][1] is Tangency.COINCIDENT),
    )

    # Scale covariance: doubling the sides multiplies squared lengths by 4
    # and keeps the residual identically zero.  Exact sides double their
    # integer form over the same L.
    scaled = sides_of(2 * a, 2 * b, 2 * c)
    met_scaled = metrics_of(scaled)
    four_r_sq = plane.times(4, R_sq)
    record("scale_covariance_R_sq", met_scaled.R_sq, four_r_sq, four_r_sq)
    record(
        "scale_covariance_residual",
        residual_of(scaled, "incircle"),
        plane.times(2, zero),
        plane.quotient(met_scaled.R_sq, four),
    )

    # Permutation equivariance: relabeling vertices permutes the excircles.
    rotated = sides_of(b, c, a)
    record("permutation_exradius", metrics_of(rotated).rA_sq, met.rB_sq, scale_len_sq)
    record("permutation_residual", residual_of(rotated, "exA"), zero, quarter_r_sq)

    return SuiteReport(tuple(checks), exact)
