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
cross-multiplication; a ``Fraction`` is built only where a value enters a
kernel formula.  The generic, isoceles and right-angled profiles glue
Pythagorean right triangles, so their altitude is rational and their
canonical embedding is Cartesian.  The near-equilateral and
near-degenerate profiles mostly have an irrational altitude y.  The suite
then runs on the sides' own frame, with second coordinate t = y/sqrt(m)
and metric x^2 + m*t^2 (:func:`~ninepoint.triangle._canonical_frame`),
where the vertices, the unit edge directions and every construction are
rational again: the constructions only take inner products.  Float sides
run the same constructions over :class:`~ninepoint.triangle.FloatPlane`,
which carries points as bare ``(x, y)`` float pairs, with
magnitude-aware tolerances.  The oracle does not choose a plane: it takes
vertices already lifted onto one.  The suite chooses it from
``sides.is_exact`` and hands the lifted vertices to both the oracle and
:func:`~ninepoint.centers.center_set`, so it compares the two frames point
for point on one plane.

On exact sides the suite's own arithmetic on kernel values (the metric
products such as 16 R^2 K^2 against (abc)^2, the squared sides, R^2/4)
runs on integer ratios too: each kernel ``Fraction`` enters as its
numerator and denominator, products and differences take no gcd, and a
comparison is a cross-multiplication.  An exact suite converts nothing to
a float unless a check fails, and then only to normalize that check's
residual, so it runs on numbers beyond the range of a double.  Float
sides run the same checks on the kernel's floats, in the same order of
operations.  Each check is recorded as a plain ``(name, passed, residual,
detail)`` row; :class:`SuiteReport` answers ``passed`` and
``max_residual`` from those rows, and makes them :class:`IdentityCheck`
named tuples only when ``checks`` is read.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from . import homogeneous
from .numeric import DEFAULT_TOLERANCE, ToleranceProfile
from .record import Record, cached, set_field
from .triangle import (
    FloatPlane,
    Point2,
    SideLengths,
    _canonical_frame,
    barycentric_distance_sq,
    canonical_vertices,
    metrics,
    point_on_side,
)
from .centers import (
    VERTICES,
    _shift,
    bisector_foot_barycentric,
    center_set,
    circumdot,
    vertex_to_ninepoint_dist_sq,
)
from .feuerbach import (
    Tangency,
    excircle_ninepoint_residual,
    feuerbach_report,
    incircle_ninepoint_residual,
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


def _rational_scale(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randrange(1, bound + 1), rng.randrange(1, bound + 1))


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
        scale = _rational_scale(rng, bound)
        triple = [base * scale, hyp2 * scale, hyp1 * scale]
        shift = rng.randrange(3)
        triple = triple[shift:] + triple[:shift]
        return SideLengths(*triple)


def _isoceles_sides(rng: random.Random, bound: int) -> SideLengths:
    # A right triangle mirrored across its height: base 2p, equal legs h.
    # The legs are hypotenuses h > p, so the triangle is never flat.
    p, q, h = _pythagorean_legs(rng, bound)
    if rng.random() < 0.5:
        p, q = q, p
    scale = _rational_scale(rng, bound)
    triple = [2 * p * scale, h * scale, h * scale]
    shift = rng.randrange(3)
    triple = triple[shift:] + triple[:shift]
    return SideLengths(*triple)


def _right_angled_sides(rng: random.Random, bound: int) -> SideLengths:
    p, q, h = _pythagorean_legs(rng, bound)
    scale = _rational_scale(rng, bound)
    return SideLengths(p * scale, q * scale, h * scale)


def _near_equilateral_sides(rng: random.Random, bound: int) -> SideLengths:
    # Max/min side ratio stays below 1 + 1/4000 <= 1 + 1e-3.
    base = 4000 * bound
    scale = _rational_scale(rng, bound)
    return SideLengths(
        (base + rng.randrange(0, bound + 1)) * scale,
        (base + rng.randrange(0, bound + 1)) * scale,
        (base + rng.randrange(0, bound + 1)) * scale,
    )


def _near_degenerate_sides(rng: random.Random, bound: int) -> SideLengths:
    # Flat scalene: c just under a + b.  Conditioning is about k, drawn
    # log-uniform up to 1e6, but the triple is never exactly degenerate.
    while True:
        n = rng.randrange(1, bound + 1)
        m = rng.randrange(1, bound + 1)
        k = min(int(10.0 ** (1.0 + 5.0 * rng.random())), 1_000_000)
        gap = Fraction(2 * (n + m), k)
        scale = _rational_scale(rng, bound)
        try:
            return SideLengths(n * scale, m * scale, (n + m - gap) * scale)
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


def _as_float(value: Any) -> float:
    """A compared value or a scale as a float.  A ratio of the exact plane
    is one division of its integers, which rounds correctly, as ``float``
    of the ``Fraction`` it stands for does."""
    kind = type(value)
    if kind is float:
        return value
    if kind is tuple:
        return value[0] / value[1]
    if kind is _Root:
        return math.sqrt(_as_float(value.square))
    return float(value)


def _conditioned(sides: SideLengths, tol: ToleranceProfile) -> ToleranceProfile:
    """The float suite's tolerance: first-order error analysis puts
    rounding growth at O(eps * conditioning^2)."""
    cond = sides.conditioning()
    return ToleranceProfile(
        rel_eps=tol.rel_eps + 64.0 * _MACHINE_EPS * cond * cond, abs_eps=tol.abs_eps
    )


def _refuse_wrong_float_embedding(
    sides: SideLengths, embedding: Tuple[Point2, ...], tol: ToleranceProfile
) -> None:
    """Float vertices given with exact sides must reproduce the sides, by
    the comparison a float suite makes of its embedding."""
    bound = _conditioned(sides, tol).bound
    va, vb, vc = FloatPlane.lift(embedding)
    scale = float(metrics(sides).R_sq)
    for p, q, side in ((vb, vc, sides.a), (vc, va, sides.b), (va, vb, sides.c)):
        lhs, rhs = FloatPlane.dist_sq(p, q), float(side * side)
        if abs(lhs - rhs) > bound(max(1.0, abs(scale), abs(lhs), abs(rhs))):
            raise ValueError("embedding does not match the side lengths")


def check_identity_suite(
    sides: SideLengths,
    embedding: Optional[Tuple[Point2, Point2, Point2]],
    tol: ToleranceProfile = DEFAULT_TOLERANCE,
) -> SuiteReport:
    """Run every cross-check of kernel formulas against the oracle.

    Exact sides run the Cartesian checks on integer homogeneous
    coordinates; every comparison there is an exact equality, made by
    cross-multiplication, and so are the suite's own products of kernel
    values, and a float is taken only for the residual of a failed check.
    Exact vertices are lifted onto the Cartesian plane.  With no embedding
    (None), or with float vertices, the suite runs on the sides' own frame
    (:func:`~ninepoint.triangle._canonical_frame`), under the metric
    x^2 + m*t^2; float vertices must first reproduce the sides, as on a
    float suite.  Float sides take the vertices as floats, and compare
    with a conditioning-aware tolerance: first-order error analysis puts
    rounding growth at O(eps * conditioning^2), so the relative bound is
    ``tol.rel_eps + 64 * eps * conditioning^2``.
    """
    exact = sides.is_exact
    if not exact:
        plane, suite_tol = FloatPlane, _conditioned(sides, tol)
        lifted = plane.lift(embedding)
    elif embedding and all(p.is_exact for p in embedding):
        plane, suite_tol = homogeneous.Plane(), tol
        lifted = plane.lift(embedding)
    else:
        if embedding:
            _refuse_wrong_float_embedding(sides, embedding, tol)
        m, lifted = _canonical_frame(sides._integer_form)
        plane, suite_tol = homogeneous.Plane(m), tol  # an exact suite compares no floats
    va, vb, vc = lifted

    a, b, c = sides.as_tuple()
    lift, product = plane.scalar, plane.product
    A, B, C = lift(a), lift(b), lift(c)
    abs_eps, rel_eps = suite_tol.abs_eps, suite_tol.rel_eps
    fb = feuerbach_report(sides, suite_tol)
    met = fb.metrics
    R_sq = lift(met.R_sq)
    if exact:
        scale_len_sq, scale_len = R_sq, _Root(R_sq)
    else:
        scale_len_sq = _as_float(R_sq)
        scale_len = math.sqrt(scale_len_sq)

    checks: List[Row] = []

    def record_ratio(name: str, lhs: Any, rhs: Any, scale: Any, detail: str = "") -> None:
        # Ratios of the exact plane and kernel Fractions alike; a t
        # coordinate of a frame with m != 1 compares as its ratio t/w.
        n1, d1 = lhs if type(lhs) is tuple else lhs.as_integer_ratio()
        n2, d2 = rhs if type(rhs) is tuple else rhs.as_integer_ratio()
        if n1 * d2 == n2 * d1:
            checks.append((name, True, 0.0, detail))
            return
        gap = abs(float(Fraction(n1, d1) - Fraction(n2, d2)))
        if type(lhs) is homogeneous._TCoordinate:  # y = t * sqrt(m), for any size of m
            gap *= math.exp(math.log(lhs[2]) / 2)
        checks.append((name, False, gap / max(1.0, abs(_as_float(scale))), detail))

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

    # Embedding consistency: the vertex triple must reproduce the sides.
    record("embedding_matches_sides_a", dist_sq(vb, vc), product(A, A), scale_len_sq)
    record("embedding_matches_sides_b", dist_sq(vc, va), product(B, B), scale_len_sq)
    record("embedding_matches_sides_c", dist_sq(va, vb), product(C, C), scale_len_sq)
    if not all(map(itemgetter(1), checks)):
        raise ValueError("embedding does not match the side lengths")

    oracle = cartesian_oracle(plane, va, vb, vc)
    kernel = center_set(sides, lifted, plane=plane)
    at = oracle.frame  # the constructed points, on the same plane
    o_pt, g_pt, h_pt, n_pt = at["O"], at["G"], at["H"], at["N"]

    # Metric closed forms against their defining products.
    K_sq, r_sq, s = lift(met.K_sq), lift(met.r_sq), lift(met.s)
    abc_sq = plane.square(product(product(A, B), C))
    record("metrics_circumradius_product", product(plane.times(16, R_sq), K_sq), abc_sq, abc_sq)
    record("metrics_inradius_product", product(product(r_sq, s), s), K_sq, K_sq)
    for name, r_x_sq, side in (("rA", met.rA_sq, A), ("rB", met.rB_sq, B), ("rC", met.rC_sq, C)):
        gap = plane.difference(s, side)
        record(
            f"metrics_exradius_product_{name}",
            product(product(lift(r_x_sq), gap), gap),
            K_sq,
            K_sq,
        )
    Rr = lift(met.Rr)
    R_r = product(R_sq, r_sq)
    record("metrics_mixed_product_Rr", product(Rr, Rr), R_r, R_r)

    # Circumcenter: constructed point is equidistant and matches R^2.
    record("circumradius_matches_oracle", dist_sq(o_pt, at["A"]), R_sq, scale_len_sq)
    record("circumcenter_equidistant_b", dist_sq(o_pt, at["B"]), R_sq, scale_len_sq)
    record("circumcenter_equidistant_c", dist_sq(o_pt, at["C"]), R_sq, scale_len_sq)

    # Kernel centers against oracle constructions.
    for label in ("O", "G", "H", "N", "I", "Ea", "Eb", "Ec"):
        kernel_x, kernel_y = plane.coords(kernel.frame[label])
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
    half = a / 2
    mid = point_on_side(half, half, sides)
    half_over_a = plane.quotient(lift(half), A)
    record("point_on_side_midpoint_beta", mid.beta, half_over_a, 1.0)
    record("point_on_side_midpoint_gamma", mid.gamma, half_over_a, 1.0)
    # Exact feet lie on the side exactly; float ones within the bound.
    foot_tol = 0 if sides.is_exact else suite_tol.bound(1.0)
    for vertex in VERTICES:
        foot = bisector_foot_barycentric(sides, vertex)
        record_flag(
            f"bisector_foot_{vertex}_on_side",
            foot.components[_shift(vertex)] == 0 and min(foot.components) >= -foot_tol,
        )

    # Barycentric <-> Cartesian round trip through the incenter.
    i_bary = kernel.barycentric["I"]
    i_back = plane.barycentric(kernel.frame["I"], va, vb, vc)
    record("roundtrip_incenter_alpha", i_back[0], i_bary.alpha, 1.0)
    record("roundtrip_incenter_beta", i_back[1], i_bary.beta, 1.0)
    record("roundtrip_incenter_gamma", i_back[2], i_bary.gamma, 1.0)

    # Squared-distance identity at constructed points: X in {I, Ea, G},
    # Y in {N, O}, against the direct Cartesian distance.  The distances
    # from the vertices enter the kernel formula as Scalars.
    vertex_dist_sq = {
        y_label: [plane.value(dist_sq(at[v], at[y_label])) for v in VERTICES]
        for y_label in ("N", "O")
    }
    x_cases = (
        ("I", i_bary),
        ("Ea", kernel.barycentric["Ea"]),
        ("G", kernel.barycentric["G"]),
    )
    for x_label, x_bary in x_cases:
        for y_label in ("N", "O"):
            via_formula = barycentric_distance_sq(x_bary, *vertex_dist_sq[y_label], sides)
            record(
                f"distance_identity_{x_label}{y_label}",
                via_formula,
                dist_sq(at[x_label], at[y_label]),
                scale_len_sq,
            )

    # Vertex-to-nine-point-center distances from sides alone.
    for vertex in VERTICES:
        record(
            f"vertex_ninepoint_distance_{vertex}",
            vertex_to_ninepoint_dist_sq(sides, vertex),
            dist_sq(at[vertex], n_pt),
            scale_len_sq,
        )

    # Circumcenter dot products.
    for pair, p_label, q_label in (("AB", "A", "B"), ("BC", "B", "C"), ("CA", "C", "A")):
        direct = dot(sub(at[p_label], o_pt), sub(at[q_label], o_pt))
        record(f"circumdot_{pair}", circumdot(sides, pair), direct, scale_len_sq)

    # Nine-point membership: side midpoints and altitude feet lie at R/2.
    four = lift(4)
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
    record(
        "feuerbach_incircle_residual",
        incircle_ninepoint_residual(sides),
        zero,
        quarter_r_sq,
    )
    for vertex in VERTICES:
        record(
            f"feuerbach_excircle_residual_{vertex}",
            excircle_ninepoint_residual(sides, vertex),
            zero,
            quarter_r_sq,
        )
    for entry in fb.entries:
        record_flag(f"tangency_kind_{entry.circle}", entry.ok, detail=entry.report.kind.value)
    record_flag(
        "tangency_equilateral_flag",
        fb.equilateral == sides.is_equilateral
        and (not fb.equilateral or fb.entries[0].report.kind is Tangency.COINCIDENT),
    )

    # Scale covariance: doubling the sides multiplies squared lengths by 4
    # and keeps the residual identically zero.
    scaled = SideLengths(2 * a, 2 * b, 2 * c)
    met_scaled = metrics(scaled)
    four_r_sq = plane.times(4, R_sq)
    record("scale_covariance_R_sq", met_scaled.R_sq, four_r_sq, four_r_sq)
    record(
        "scale_covariance_residual",
        incircle_ninepoint_residual(scaled),
        plane.times(2, zero),
        plane.quotient(lift(met_scaled.R_sq), four),
    )

    # Permutation equivariance: relabeling vertices permutes the excircles.
    rotated = SideLengths(b, c, a)
    met_rot = metrics(rotated)
    record("permutation_exradius", met_rot.rA_sq, met.rB_sq, scale_len_sq)
    record(
        "permutation_residual",
        excircle_ninepoint_residual(rotated, "A"),
        zero,
        quarter_r_sq,
    )

    return SuiteReport(tuple(checks), exact)
