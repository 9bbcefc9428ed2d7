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
directions are rational, so the whole oracle runs on Fractions and every
comparison in the suite is an exact equality.  Profiles that cannot embed
rationally (near-equilateral, near-degenerate) fall back to float vertices
and magnitude-aware tolerances.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .numeric import (
    DEFAULT_TOLERANCE,
    Scalar,
    ToleranceProfile,
    is_exact,
    sqrt_exact,
)
from .triangle import (
    Point2,
    SideLengths,
    barycentric_distance_sq,
    barycentric_to_cartesian,
    canonical_vertices,
    cartesian_to_barycentric,
    metrics,
    orientation,
    point_on_side,
)
from .centers import (
    VERTICES,
    bisector_foot_barycentric,
    center_set,
    circumdot,
    excenter_barycentric,
    incenter_barycentric,
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


def _intersect_lines(p1: Point2, d1: Point2, p2: Point2, d2: Point2) -> Point2:
    """Intersection of p1 + t*d1 and p2 + u*d2."""
    det = d1.cross(d2)
    if det == 0:
        raise ValueError("parallel construction lines")
    t = (p2 - p1).cross(d2) / det
    return p1 + d1.scaled(t)


def _perp(d: Point2) -> Point2:
    return Point2(-d.y, d.x)


def _midpoint(p: Point2, q: Point2) -> Point2:
    return Point2((p.x + q.x) / 2, (p.y + q.y) / 2)


def _equidistant_point(p1: Point2, p2: Point2, p3: Point2) -> Point2:
    """The point with |X - p1| = |X - p2| = |X - p3|."""
    ex = 2 * (p2.x - p1.x)
    ey = 2 * (p2.y - p1.y)
    fx = 2 * (p3.x - p1.x)
    fy = 2 * (p3.y - p1.y)
    rhs_e = p2.dot(p2) - p1.dot(p1)
    rhs_f = p3.dot(p3) - p1.dot(p1)
    det = ex * fy - ey * fx
    if det == 0:
        raise ValueError("collinear points have no equidistant center")
    return Point2((rhs_e * fy - rhs_f * ey) / det, (ex * rhs_f - fx * rhs_e) / det)


def _unit_direction(src: Point2, dst: Point2) -> Point2:
    """(dst - src) / |dst - src|; exact when the length is rational."""
    delta = dst - src
    d_sq = delta.dot(delta)
    if is_exact(d_sq):
        root = sqrt_exact(d_sq)
        if root is None:
            raise ValueError("irrational edge length; run the oracle on floats")
        return delta.scaled(Fraction(1) / root)
    return delta.scaled(1.0 / math.sqrt(float(d_sq)))


@dataclass(frozen=True)
class OracleResult:
    """Constructed centers, squared distances among the labeled points, and
    the constructed nine-point radius squared."""

    points: Dict[str, Point2]
    nine_point_radius_sq: Scalar

    def distance_sq(self, label1: str, label2: str) -> Scalar:
        return self.points[label1].dist_sq(self.points[label2])


def cartesian_oracle(
    vertex_a: Point2, vertex_b: Point2, vertex_c: Point2
) -> OracleResult:
    """Every center from scratch; see the module docstring for the recipes.

    Exact vertices with irrational side lengths cannot support the exact
    bisector construction, so the oracle drops to floats for them.
    """
    if orientation(vertex_a, vertex_b, vertex_c) == 0:
        raise ValueError("collinear vertices")
    if all(p.is_exact for p in (vertex_a, vertex_b, vertex_c)):
        side_sqs = (
            vertex_b.dist_sq(vertex_c),
            vertex_c.dist_sq(vertex_a),
            vertex_a.dist_sq(vertex_b),
        )
        if any(sqrt_exact(v) is None for v in side_sqs):
            vertex_a = vertex_a.as_float()
            vertex_b = vertex_b.as_float()
            vertex_c = vertex_c.as_float()

    a_pt, b_pt, c_pt = vertex_a, vertex_b, vertex_c
    mid_bc = _midpoint(b_pt, c_pt)
    mid_ca = _midpoint(c_pt, a_pt)
    mid_ab = _midpoint(a_pt, b_pt)

    circum = _equidistant_point(a_pt, b_pt, c_pt)
    centroid = _intersect_lines(a_pt, mid_bc - a_pt, b_pt, mid_ca - b_pt)
    ortho = _intersect_lines(a_pt, _perp(c_pt - b_pt), b_pt, _perp(a_pt - c_pt))
    nine = _equidistant_point(mid_bc, mid_ca, mid_ab)

    to_b_from_a = _unit_direction(a_pt, b_pt)
    to_c_from_a = _unit_direction(a_pt, c_pt)
    to_a_from_b = _unit_direction(b_pt, a_pt)
    to_c_from_b = _unit_direction(b_pt, c_pt)
    to_a_from_c = _unit_direction(c_pt, a_pt)
    to_b_from_c = _unit_direction(c_pt, b_pt)

    bis_a = to_b_from_a + to_c_from_a
    bis_b = to_a_from_b + to_c_from_b
    bis_c = to_a_from_c + to_b_from_c
    ext_a = to_b_from_a - to_c_from_a
    ext_b = to_a_from_b - to_c_from_b
    ext_c = to_a_from_c - to_b_from_c

    incenter = _intersect_lines(a_pt, bis_a, b_pt, bis_b)
    ex_a = _intersect_lines(a_pt, bis_a, b_pt, ext_b)
    ex_b = _intersect_lines(b_pt, bis_b, c_pt, ext_c)
    ex_c = _intersect_lines(c_pt, bis_c, a_pt, ext_a)

    return OracleResult(
        points={
            "A": a_pt, "B": b_pt, "C": c_pt,
            "O": circum, "G": centroid, "H": ortho, "N": nine,
            "I": incenter, "Ea": ex_a, "Eb": ex_b, "Ec": ex_c,
        },
        nine_point_radius_sq=nine.dist_sq(mid_bc),
    )


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


def _line_dist_sq(point: Point2, on_line: Point2, toward: Point2) -> Scalar:
    """Squared distance from a point to the infinite line through two points."""
    d = toward - on_line
    num = d.cross(point - on_line)
    return (num * num) / d.dot(d)


def _project_onto_line(point: Point2, on_line: Point2, toward: Point2) -> Point2:
    d = toward - on_line
    t = (point - on_line).dot(d) / d.dot(d)
    return on_line + d.scaled(t)


def check_identity_suite(
    sides: SideLengths,
    embedding: Tuple[Point2, Point2, Point2],
    tol: ToleranceProfile = DEFAULT_TOLERANCE,
) -> SuiteReport:
    """Run every cross-check of kernel formulas against the oracle.

    Comparisons where both values come out rational use plain ``==``.
    Float comparisons use a conditioning-aware tolerance: first-order error
    analysis puts rounding growth at O(eps * conditioning^2), so the
    relative bound is ``tol.rel_eps + 64 * eps * conditioning^2``.
    """
    va, vb, vc = embedding
    exact = sides.is_exact and all(p.is_exact for p in embedding)
    cond = sides.conditioning()
    suite_tol = ToleranceProfile(
        rel_eps=tol.rel_eps + 64.0 * _MACHINE_EPS * cond * cond,
        abs_eps=tol.abs_eps,
    )

    checks: List[IdentityCheck] = []

    def record(name: str, lhs: Scalar, rhs: Scalar, scale: float, detail: str = "") -> None:
        if is_exact(lhs) and is_exact(rhs):
            ok = lhs == rhs
            residual = 0.0 if ok else abs(float(lhs - rhs)) / max(1.0, abs(scale))
        else:
            scale_f = max(1.0, abs(scale), abs(float(lhs)), abs(float(rhs)))
            residual = abs(float(lhs) - float(rhs)) / scale_f
            ok = abs(float(lhs) - float(rhs)) <= suite_tol.bound(scale_f)
        checks.append(IdentityCheck(name=name, passed=ok, residual=residual, detail=detail))

    def record_flag(name: str, ok: bool, detail: str = "") -> None:
        checks.append(
            IdentityCheck(name=name, passed=ok, residual=0.0 if ok else math.inf, detail=detail)
        )

    a, b, c = sides.as_tuple()
    fb = feuerbach_report(sides, suite_tol)
    met = fb.metrics
    scale_len_sq = float(met.R_sq)
    scale_len = math.sqrt(scale_len_sq)
    zero = a - a

    # Embedding consistency: the vertex triple must reproduce the sides.
    record("embedding_matches_sides_a", vb.dist_sq(vc), a * a, scale_len_sq)
    record("embedding_matches_sides_b", vc.dist_sq(va), b * b, scale_len_sq)
    record("embedding_matches_sides_c", va.dist_sq(vb), c * c, scale_len_sq)
    if not all(check.passed for check in checks):
        raise ValueError("embedding does not match the side lengths")

    oracle = cartesian_oracle(va, vb, vc)
    kernel = center_set(sides, (va, vb, vc))

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
    record("circumradius_matches_oracle", oracle.distance_sq("O", "A"), met.R_sq, scale_len_sq)
    record("circumcenter_equidistant_b", oracle.distance_sq("O", "B"), met.R_sq, scale_len_sq)
    record("circumcenter_equidistant_c", oracle.distance_sq("O", "C"), met.R_sq, scale_len_sq)

    # Kernel centers against oracle constructions.
    for label in ("O", "G", "H", "N", "I", "Ea", "Eb", "Ec"):
        kernel_pt = getattr(kernel, label)
        oracle_pt = oracle.points[label]
        record(f"center_agreement_{label}_x", kernel_pt.x, oracle_pt.x, scale_len)
        record(f"center_agreement_{label}_y", kernel_pt.y, oracle_pt.y, scale_len)

    # Euler relation on constructed points (H comes from altitudes here).
    o_pt = oracle.points["O"]
    g_pt = oracle.points["G"]
    h_pt = oracle.points["H"]
    n_pt = oracle.points["N"]
    record("euler_vector_identity_x", h_pt.x - o_pt.x, 3 * (g_pt.x - o_pt.x), scale_len)
    record("euler_vector_identity_y", h_pt.y - o_pt.y, 3 * (g_pt.y - o_pt.y), scale_len)
    record(
        "euler_ratio",
        oracle.distance_sq("G", "H"),
        4 * oracle.distance_sq("O", "G"),
        scale_len_sq,
    )
    record("ninepoint_is_oh_midpoint_x", n_pt.x, (o_pt.x + h_pt.x) / 2, scale_len)
    record("ninepoint_is_oh_midpoint_y", n_pt.y, (o_pt.y + h_pt.y) / 2, scale_len)

    # Altitude property of the constructed orthocenter.
    record("orthocenter_altitude_a", (h_pt - va).dot(vb - vc), zero, scale_len_sq)
    record("orthocenter_altitude_b", (h_pt - vb).dot(vc - va), zero, scale_len_sq)

    # Equal tangent distances of incenter and excenters to the side lines.
    lines = (("bc", vb, vc), ("ca", vc, va), ("ab", va, vb))
    for name, on_line, toward in lines:
        record(
            f"incenter_line_distance_{name}",
            _line_dist_sq(oracle.points["I"], on_line, toward),
            met.r_sq,
            scale_len_sq,
        )
    for label, r_sq in (("Ea", met.rA_sq), ("Eb", met.rB_sq), ("Ec", met.rC_sq)):
        for name, on_line, toward in lines:
            record(
                f"excenter_{label}_line_distance_{name}",
                _line_dist_sq(oracle.points[label], on_line, toward),
                r_sq,
                scale_len_sq,
            )

    # Side points: midpoint of BC and the three bisector feet.
    mid = point_on_side(a / 2, a / 2, sides)
    record("point_on_side_midpoint_beta", mid.beta, (a / 2) / a, 1.0)
    record("point_on_side_midpoint_gamma", mid.gamma, (a / 2) / a, 1.0)
    for vertex in VERTICES:
        foot = bisector_foot_barycentric(sides, vertex)
        own = foot.components[{"A": 0, "B": 1, "C": 2}[vertex]]
        record_flag(
            f"bisector_foot_{vertex}_on_side",
            float(own) == 0.0
            and min(float(v) for v in foot.components) >= -suite_tol.bound(1.0),
        )

    # Barycentric <-> Cartesian round trip through the incenter.
    i_bary = incenter_barycentric(sides)
    i_back = cartesian_to_barycentric(
        barycentric_to_cartesian(i_bary, va, vb, vc), va, vb, vc
    )
    record("roundtrip_incenter_alpha", i_back.alpha, i_bary.alpha, 1.0)
    record("roundtrip_incenter_beta", i_back.beta, i_bary.beta, 1.0)
    record("roundtrip_incenter_gamma", i_back.gamma, i_bary.gamma, 1.0)

    # Squared-distance identity at constructed points: X in {I, Ea, G},
    # Y in {N, O}, against the direct Cartesian distance.
    x_cases = (
        ("I", i_bary),
        ("Ea", excenter_barycentric(sides, "A")),
        ("G", kernel.barycentric["G"]),
    )
    for x_label, x_bary in x_cases:
        for y_label in ("N", "O"):
            via_formula = barycentric_distance_sq(
                x_bary,
                oracle.distance_sq("A", y_label),
                oracle.distance_sq("B", y_label),
                oracle.distance_sq("C", y_label),
                sides,
            )
            record(
                f"distance_identity_{x_label}{y_label}",
                via_formula,
                oracle.distance_sq(x_label, y_label),
                scale_len_sq,
            )

    # Vertex-to-nine-point-center distances from sides alone.
    for vertex in VERTICES:
        record(
            f"vertex_ninepoint_distance_{vertex}",
            vertex_to_ninepoint_dist_sq(sides, vertex, met),
            oracle.distance_sq(vertex, "N"),
            scale_len_sq,
        )

    # Circumcenter dot products.
    for pair, p_label, q_label in (("AB", "A", "B"), ("BC", "B", "C"), ("CA", "C", "A")):
        direct = (oracle.points[p_label] - o_pt).dot(oracle.points[q_label] - o_pt)
        record(f"circumdot_{pair}", circumdot(sides, pair, met), direct, scale_len_sq)

    # Nine-point membership: side midpoints and altitude feet lie at R/2.
    quarter_r_sq = met.R_sq / 4
    record("ninepoint_radius", oracle.nine_point_radius_sq, quarter_r_sq, scale_len_sq)
    memberships = (
        ("mid_bc", _midpoint(vb, vc)),
        ("mid_ca", _midpoint(vc, va)),
        ("mid_ab", _midpoint(va, vb)),
        ("foot_a", _project_onto_line(va, vb, vc)),
        ("foot_b", _project_onto_line(vb, vc, va)),
        ("foot_c", _project_onto_line(vc, va, vb)),
    )
    for name, member in memberships:
        record(f"ninepoint_membership_{name}", n_pt.dist_sq(member), quarter_r_sq, scale_len_sq)

    # Feuerbach residuals and tangency kinds.
    record(
        "feuerbach_incircle_residual",
        incircle_ninepoint_residual(sides, met),
        zero,
        float(quarter_r_sq),
    )
    for vertex in VERTICES:
        record(
            f"feuerbach_excircle_residual_{vertex}",
            excircle_ninepoint_residual(sides, vertex, met),
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
        incircle_ninepoint_residual(scaled, met_scaled),
        2 * zero,
        float(met_scaled.R_sq) / 4.0,
    )

    # Permutation equivariance: relabeling vertices permutes the excircles.
    rotated = SideLengths(b, c, a)
    met_rot = metrics(rotated)
    record("permutation_exradius", met_rot.rA_sq, met.rB_sq, scale_len_sq)
    record(
        "permutation_residual",
        excircle_ninepoint_residual(rotated, "A", met_rot),
        zero,
        float(quarter_r_sq),
    )

    return SuiteReport(checks=tuple(checks), exact=exact)
