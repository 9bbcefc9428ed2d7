"""Randomized triangles, an independent Cartesian oracle, and the identity
suite that cross-checks every formula in this package against it.

The oracle re-derives each center from its defining construction, never
from the closed forms under test:

* circumcenter: equidistance from the vertices (normal equations, coded
  separately from the kernel's perpendicular-bisector solve);
* centroid: intersection of two medians;
* orthocenter: intersection of two altitudes (not the Euler relation);
* incenter/excenters: intersections of internal/external angle bisectors
  built from unit edge directions (not the (a, b, c)/2s coordinates);
* nine-point center and radius: circumcircle of the three side midpoints
  (not the midpoint of OH).

Exactness: profiles generate rational side lengths whose canonical
embedding is also rational wherever possible (two Pythagorean right
triangles glued along a common leg).  For such triangles the unit edge
directions are rational, so the whole oracle runs exactly, and every
comparison in the suite is an exact equality.  The exact carrier is
integer homogeneous coordinates (:mod:`ninepoint.homogeneous`): lines are
joins, intersections are meets, a unit direction takes one ``isqrt``, and
a comparison is a cross-multiplication; a ``Fraction`` is built only where
a value enters a kernel formula.  Profiles that cannot embed rationally
(near-equilateral, near-degenerate) fall back to float vertices and
magnitude-aware tolerances, on the same constructions over
:class:`~ninepoint.triangle.FloatPlane`, which carries points as bare
``(x, y)`` float pairs.  The kernel's Cartesian centers
(:func:`~ninepoint.centers.center_set`) choose their plane by the same
rule, so the suite compares the two frames point for point on one plane:
it lifts the embedding once and hands the lifted vertices to both.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Dict, List, Tuple

from . import homogeneous
from .numeric import (
    DEFAULT_TOLERANCE,
    Scalar,
    ToleranceProfile,
    is_exact,
)
from .triangle import (
    FloatPlane,
    Point2,
    SideLengths,
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


@dataclass(frozen=True)
class FuzzProfile:
    """Deterministic generation recipe: same (profile, index) -> same triangle."""

    kind: str
    count: int = 1
    seed: int = 0
    magnitude_bound: int = 10

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"kind must be one of {PROFILE_KINDS}, got {self.kind!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.magnitude_bound < 2:
            raise ValueError(f"magnitude_bound must be >= 2, got {self.magnitude_bound}")


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
    # are rational, so the canonical embedding is exact.
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
        try:
            return SideLengths(*triple)
        except ValueError:
            continue


def _isoceles_sides(rng: random.Random, bound: int) -> SideLengths:
    # A right triangle mirrored across its height: base 2p, equal legs h.
    while True:
        p, q, h = _pythagorean_legs(rng, bound)
        if rng.random() < 0.5:
            p, q = q, p
        scale = _rational_scale(rng, bound)
        triple = [2 * p * scale, h * scale, h * scale]
        shift = rng.randrange(3)
        triple = triple[shift:] + triple[:shift]
        try:
            return SideLengths(*triple)
        except ValueError:
            continue


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


def random_triangle(
    profile: FuzzProfile, index: int
) -> Tuple[SideLengths, Tuple[Point2, Point2, Point2]]:
    """Deterministic triangle number ``index`` of the profile: side lengths
    plus the canonical embedding (exact when the profile allows it)."""
    rng = _rng_for(profile, index)
    sides = _GENERATORS[profile.kind](rng, profile.magnitude_bound)
    return sides, canonical_vertices(sides)


# --- independent Cartesian constructions ----------------------------------
#
# The oracle and the suite's Cartesian checks are written once, against a
# plane: a namespace of the same constructions over one carrier.  Exact
# vertices use ninepoint.homogeneous (integer triples; scalars are integer
# ratios).  Everything else uses triangle.FloatPlane (float pairs).


@dataclass(frozen=True)
class OracleResult:
    """Constructed centers and the constructed nine-point radius squared.

    ``frame`` keeps the labeled points in the carrier they were built on,
    and ``plane`` is the namespace that built them: integer triples of
    :mod:`ninepoint.homogeneous` for exact vertices, float pairs
    ``(x, y)`` otherwise.  ``frame_radius_sq`` is the radius in that
    carrier's scalar.  ``points`` and ``nine_point_radius_sq`` give them as
    ``Point2``s and a ``Fraction`` or float, built on first use."""

    plane: Any
    frame: Dict[str, Any]
    frame_radius_sq: Any

    @cached_property
    def points(self) -> Dict[str, Point2]:
        return {label: self.plane.as_point2(p) for label, p in self.frame.items()}

    @property
    def nine_point_radius_sq(self) -> Scalar:
        return self.plane.value(self.frame_radius_sq)

    def distance_sq(self, label1: str, label2: str) -> Scalar:
        return self.plane.value(self.plane.dist_sq(self.frame[label1], self.frame[label2]))


def _construct(plane: Any, a_pt: Any, b_pt: Any, c_pt: Any) -> OracleResult:
    """The oracle's constructions on one plane."""
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
        plane=plane,
        frame={
            "A": a_pt, "B": b_pt, "C": c_pt,
            "O": circum, "G": centroid, "H": ortho, "N": nine,
            "I": incenter, "Ea": ex_a, "Eb": ex_b, "Ec": ex_c,
        },
        frame_radius_sq=plane.dist_sq(nine, mid_bc),
    )


def cartesian_oracle(
    vertex_a: Any, vertex_b: Any, vertex_c: Any, plane: Any = None
) -> OracleResult:
    """Every center from scratch; see the module docstring for the recipes.

    Exact vertices run on integer homogeneous coordinates, and any others
    on float pairs.  Exact vertices with irrational side lengths cannot
    support the exact bisector construction, so the oracle drops to floats
    for them.  The vertices are ``Point2``s, or with ``plane`` already
    lifted onto it, as the identity suite holds them.
    """
    if plane is None:
        vertices = (vertex_a, vertex_b, vertex_c)
        plane = homogeneous if all(p.is_exact for p in vertices) else FloatPlane
        vertex_a, vertex_b, vertex_c = plane.lift(vertices)
    vertices = (vertex_a, vertex_b, vertex_c)
    if plane.orientation(*vertices) == 0:
        raise ValueError("collinear vertices")
    if plane is homogeneous and any(
        homogeneous.length(p, q) is None
        for p, q in ((vertex_b, vertex_c), (vertex_c, vertex_a), (vertex_a, vertex_b))
    ):
        plane = FloatPlane
        vertices = FloatPlane.lift([homogeneous.as_point2(p) for p in vertices])
    return _construct(plane, *vertices)


# --- identity suite --------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    residual: float  # normalized; 0.0 for exact matches
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    checks: Tuple[IdentityCheck, ...]
    exact: bool

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def max_residual(self) -> float:
        return max((check.residual for check in self.checks), default=0.0)

    def failures(self) -> Tuple[IdentityCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)


def _as_ratio(value: Any) -> Tuple[int, int]:
    """An exact scalar, a Fraction or a ratio of the exact plane, as an
    integer pair (num, den)."""
    return value if isinstance(value, tuple) else (value.numerator, value.denominator)


def check_identity_suite(
    sides: SideLengths,
    embedding: Tuple[Point2, Point2, Point2],
    tol: ToleranceProfile = DEFAULT_TOLERANCE,
) -> SuiteReport:
    """Run every cross-check of kernel formulas against the oracle.

    Exact sides and vertices run the Cartesian checks on integer
    homogeneous coordinates; every comparison there is an exact equality,
    made by cross-multiplication.  Otherwise the vertices are taken as
    floats.  Float comparisons use a conditioning-aware tolerance:
    first-order error analysis puts rounding growth at
    O(eps * conditioning^2), so the relative bound is
    ``tol.rel_eps + 64 * eps * conditioning^2``.
    """
    exact = sides.is_exact and all(p.is_exact for p in embedding)
    plane = homogeneous if exact else FloatPlane
    va, vb, vc = lifted = plane.lift(embedding)
    cond = sides.conditioning()
    suite_tol = ToleranceProfile(
        rel_eps=tol.rel_eps + 64.0 * _MACHINE_EPS * cond * cond,
        abs_eps=tol.abs_eps,
    )
    abs_eps, rel_eps = suite_tol.abs_eps, suite_tol.rel_eps

    checks: List[IdentityCheck] = []

    def record_ratio(name: str, lhs: Any, rhs: Any, scale: float, detail: str = "") -> None:
        # Integer ratios of the exact plane and kernel Fractions alike.
        (n1, d1), (n2, d2) = _as_ratio(lhs), _as_ratio(rhs)
        ok = n1 * d2 == n2 * d1
        residual = 0.0
        if not ok:
            residual = abs(float(Fraction(n1, d1) - Fraction(n2, d2))) / max(1.0, abs(scale))
        checks.append(IdentityCheck(name, ok, residual, detail))

    def record_float(name: str, lhs: float, rhs: float, scale: float, detail: str = "") -> None:
        gap = abs(lhs - rhs)
        scale_f = max(1.0, abs(scale), abs(lhs), abs(rhs))
        ok = gap <= abs_eps + rel_eps * scale_f  # suite_tol.bound(scale_f); scale_f >= 1
        checks.append(IdentityCheck(name, ok, gap / scale_f, detail))

    def record_mixed(name: str, lhs: Any, rhs: Any, scale: float, detail: str = "") -> None:
        if is_exact(lhs) and is_exact(rhs):
            record_ratio(name, lhs, rhs, scale, detail)
        else:
            record_float(name, float(lhs), float(rhs), scale, detail)

    # The branch is decided once: the exact plane compares ratios, float
    # sides make every compared value a float, and exact sides on float
    # vertices compare each value by its type.
    if exact:
        record = record_ratio
    elif sides.is_exact:
        record = record_mixed
    else:
        record = record_float

    def record_flag(name: str, ok: bool, detail: str = "") -> None:
        checks.append(IdentityCheck(name, ok, 0.0 if ok else math.inf, detail))

    a, b, c = sides.as_tuple()
    fb = feuerbach_report(sides, suite_tol)
    met = fb.metrics
    scale_len_sq = float(met.R_sq)
    scale_len = math.sqrt(scale_len_sq)
    zero = a - a
    dist_sq, sub, dot = plane.dist_sq, plane.sub, plane.dot

    # Embedding consistency: the vertex triple must reproduce the sides.
    record("embedding_matches_sides_a", dist_sq(vb, vc), a * a, scale_len_sq)
    record("embedding_matches_sides_b", dist_sq(vc, va), b * b, scale_len_sq)
    record("embedding_matches_sides_c", dist_sq(va, vb), c * c, scale_len_sq)
    if not all(check.passed for check in checks):
        raise ValueError("embedding does not match the side lengths")

    oracle = cartesian_oracle(*lifted, plane=plane)
    kernel = center_set(sides, lifted, plane=plane)
    at = oracle.frame  # the constructed points, on the same plane
    o_pt, g_pt, h_pt, n_pt = at["O"], at["G"], at["H"], at["N"]

    # Metric closed forms against their defining products.
    abc_sq = (a * b * c) ** 2
    record("metrics_circumradius_product", 16 * met.R_sq * met.K_sq, abc_sq, float(abc_sq))
    record("metrics_inradius_product", met.r_sq * met.s * met.s, met.K_sq, float(met.K_sq))
    for name, r_sq, side in (("rA", met.rA_sq, a), ("rB", met.rB_sq, b), ("rC", met.rC_sq, c)):
        gap = met.s - side
        record(f"metrics_exradius_product_{name}", r_sq * gap * gap, met.K_sq, float(met.K_sq))
    record(
        "metrics_mixed_product_Rr",
        met.Rr * met.Rr,
        met.R_sq * met.r_sq,
        float(met.R_sq * met.r_sq),
    )

    # Circumcenter: constructed point is equidistant and matches R^2.
    record("circumradius_matches_oracle", dist_sq(o_pt, at["A"]), met.R_sq, scale_len_sq)
    record("circumcenter_equidistant_b", dist_sq(o_pt, at["B"]), met.R_sq, scale_len_sq)
    record("circumcenter_equidistant_c", dist_sq(o_pt, at["C"]), met.R_sq, scale_len_sq)

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
    for label, r_sq in (("Ea", met.rA_sq), ("Eb", met.rB_sq), ("Ec", met.rC_sq)):
        for name, on_line, toward in lines:
            record(
                f"excenter_{label}_line_distance_{name}",
                plane.line_dist_sq(at[label], on_line, toward),
                r_sq,
                scale_len_sq,
            )

    # Side points: midpoint of BC and the three bisector feet.
    mid = point_on_side(a / 2, a / 2, sides)
    record("point_on_side_midpoint_beta", mid.beta, (a / 2) / a, 1.0)
    record("point_on_side_midpoint_gamma", mid.gamma, (a / 2) / a, 1.0)
    for vertex in VERTICES:
        foot = bisector_foot_barycentric(sides, vertex)
        own = foot.components[_shift(vertex)]
        record_flag(
            f"bisector_foot_{vertex}_on_side",
            float(own) == 0.0
            and min(float(v) for v in foot.components) >= -suite_tol.bound(1.0),
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
    quarter_r_sq = met.R_sq / 4
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
        float(quarter_r_sq),
    )
    for vertex in VERTICES:
        record(
            f"feuerbach_excircle_residual_{vertex}",
            excircle_ninepoint_residual(sides, vertex),
            zero,
            float(quarter_r_sq),
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
    record("scale_covariance_R_sq", met_scaled.R_sq, 4 * met.R_sq, 4.0 * scale_len_sq)
    record(
        "scale_covariance_residual",
        incircle_ninepoint_residual(scaled),
        2 * zero,
        float(met_scaled.R_sq) / 4.0,
    )

    # Permutation equivariance: relabeling vertices permutes the excircles.
    rotated = SideLengths(b, c, a)
    met_rot = metrics(rotated)
    record("permutation_exradius", met_rot.rA_sq, met.rB_sq, scale_len_sq)
    record(
        "permutation_residual",
        excircle_ninepoint_residual(rotated, "A"),
        zero,
        float(quarter_r_sq),
    )

    return SuiteReport(checks=tuple(checks), exact=exact)
