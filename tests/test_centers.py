"""Center formulas against frozen values and the classical relations.

All frozen Cartesian values come from the canonical 3-4-5 placement
A=(0,4), B=(3,0), C=(0,0), where every center was first constructed
independently (perpendicular bisectors, medians, altitudes, angle
bisectors) before the closed forms under test were written.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ninepoint import homogeneous
from ninepoint.centers import (
    CENTER_WEIGHTS,
    VERTICES,
    CenterSet,
    bisector_foot_barycentric,
    center_barycentric,
    center_set,
    centroid_barycentric,
    circumdot,
    vertex_to_ninepoint_dist_sq,
)
from ninepoint.harness import PROFILE_KINDS, FuzzProfile, random_triangle
from ninepoint.triangle import (
    FloatPlane,
    Point2,
    SideLengths,
    canonical_vertices,
    metrics,
)

F = Fraction

positive_fractions = st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50)
rational_sides = st.tuples(positive_fractions, positive_fractions, positive_fractions).map(
    lambda xyz: SideLengths(xyz[1] + xyz[2], xyz[2] + xyz[0], xyz[0] + xyz[1])
)


@pytest.fixture
def sides345() -> SideLengths:
    return SideLengths(3, 4, 5)


@pytest.fixture
def triangle345(sides345):
    return sides345, canonical_vertices(sides345)


class TestBarycentricCenters:
    def test_centroid(self):
        assert centroid_barycentric().components == (F(1, 3), F(1, 3), F(1, 3))

    def test_incenter_3_4_5(self, sides345):
        assert center_barycentric(sides345, "I").components == (F(1, 4), F(1, 3), F(5, 12))

    def test_excenters_3_4_5(self, sides345):
        assert center_barycentric(sides345, "Ea").components == (F(-1, 2), F(2, 3), F(5, 6))
        assert center_barycentric(sides345, "Eb").components == (F(3, 4), F(-1), F(5, 4))
        assert center_barycentric(sides345, "Ec").components == (F(3, 2), F(2), F(-5, 2))

    def test_excenter_equilateral(self):
        assert center_barycentric(SideLengths(1, 1, 1), "Ea").components == (F(-1), F(1), F(1))

    def test_excenter_negative_only_at_own_vertex(self, sides345):
        for label, index in (("Ea", 0), ("Eb", 1), ("Ec", 2)):
            coords = center_barycentric(sides345, label).components
            for j, value in enumerate(coords):
                assert (value < 0) == (j == index)

    def test_bisector_feet_3_4_5(self, sides345):
        # Foot of the bisector from A divides BC as |BF| : |FC| = c : b.
        assert bisector_foot_barycentric(sides345, "A").components == (F(0), F(4, 9), F(5, 9))
        assert bisector_foot_barycentric(sides345, "B").components == (F(3, 8), F(0), F(5, 8))
        assert bisector_foot_barycentric(sides345, "C").components == (F(3, 7), F(4, 7), F(0))

    def test_bisector_foot_2_2_3(self):
        coords = bisector_foot_barycentric(SideLengths(2, 2, 3), "C")
        assert coords.components == (F(1, 2), F(1, 2), F(0))

    def test_unknown_vertex_rejected(self, sides345):
        with pytest.raises(ValueError):
            center_barycentric(sides345, "Ed")

    @given(rational_sides)
    def test_incenter_inside(self, sides: SideLengths):
        coords = center_barycentric(sides, "I")
        assert all(v > 0 for v in coords.components)
        assert sum(coords.components) == 1

    @given(rational_sides)
    def test_bisector_foot_on_boundary(self, sides: SideLengths):
        for vertex, index in (("A", 0), ("B", 1), ("C", 2)):
            coords = bisector_foot_barycentric(sides, vertex).components
            assert coords[index] == 0
            assert all(v >= 0 for v in coords)


class TestCartesianCenters:
    def test_circumcenter_3_4_5(self, triangle345):
        _, vertices = triangle345
        center = homogeneous.circumcenter(*homogeneous.lift(vertices))
        assert homogeneous.as_point2(center) == Point2(F(3, 2), F(2))

    def test_circumcenter_equilateral_float(self):
        va, vb, vc = FloatPlane.lift(canonical_vertices(SideLengths(1, 1, 1)))
        x, y = FloatPlane.circumcenter(va, vb, vc)
        assert x == pytest.approx(0.5)
        assert y == pytest.approx(3 ** 0.5 / 6)

    @pytest.mark.parametrize("plane", [homogeneous, FloatPlane], ids=["exact", "float"])
    def test_collinear_rejected(self, plane):
        collinear = plane.lift((Point2(0, 0), Point2(1, 1), Point2(2, 2)))
        with pytest.raises(ValueError, match="collinear vertices have no circumcenter"):
            plane.circumcenter(*collinear)

    def test_orthocenter_3_4_5(self, triangle345):
        # Right angle at C puts the orthocenter on C itself.
        assert center_set(*triangle345).H == Point2(F(0), F(0))

    def test_nine_point_center_3_4_5(self, triangle345):
        assert center_set(*triangle345).N == Point2(F(3, 4), F(1))

    @given(rational_sides)
    def test_circumcenter_equidistant(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        center = center_set(sides, (va, vb, vc)).O
        assert center.dist_sq(va) == center.dist_sq(vb) == center.dist_sq(vc)
        assert center.dist_sq(va) == metrics(sides).R_sq


class TestDistancesAndDots:
    def test_vertex_to_ninepoint_3_4_5(self, sides345):
        assert vertex_to_ninepoint_dist_sq(sides345, "A") == F(153, 16)
        assert vertex_to_ninepoint_dist_sq(sides345, "B") == F(97, 16)
        assert vertex_to_ninepoint_dist_sq(sides345, "C") == F(25, 16)

    def test_circumdot_3_4_5(self, sides345):
        # (A-O).(B-O) = R^2 - c^2/2 and cyclic.
        assert circumdot(sides345, "AB") == F(-25, 4)
        assert circumdot(sides345, "BC") == F(25, 4) - F(9, 2)
        assert circumdot(sides345, "CA") == F(25, 4) - F(8)

    def test_circumdot_symmetric_pair_spelling(self, sides345):
        with pytest.raises(ValueError):
            circumdot(sides345, "AD")  # type: ignore[arg-type]

    @given(rational_sides)
    def test_vertex_distance_matches_embedding(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        nine = center_set(sides, (va, vb, vc)).N
        assert vertex_to_ninepoint_dist_sq(sides, "A") == va.dist_sq(nine)
        assert vertex_to_ninepoint_dist_sq(sides, "B") == vb.dist_sq(nine)
        assert vertex_to_ninepoint_dist_sq(sides, "C") == vc.dist_sq(nine)

    @given(rational_sides)
    def test_circumdot_matches_embedding(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        circum = center_set(sides, (va, vb, vc)).O
        assert circumdot(sides, "AB") == (va - circum).dot(vb - circum)
        assert circumdot(sides, "BC") == (vb - circum).dot(vc - circum)
        assert circumdot(sides, "CA") == (vc - circum).dot(va - circum)


class TestCenterSet:
    def test_full_set_3_4_5(self, triangle345):
        sides, vertices = triangle345
        centers = center_set(sides, vertices)
        assert isinstance(centers, CenterSet)
        assert centers.O is not None
        assert (centers.O.x, centers.O.y) == (F(3, 2), F(2))
        assert (centers.G.x, centers.G.y) == (F(1), F(4, 3))
        assert (centers.H.x, centers.H.y) == (F(0), F(0))
        assert (centers.N.x, centers.N.y) == (F(3, 4), F(1))
        assert (centers.I.x, centers.I.y) == (F(1), F(1))
        assert (centers.Ea.x, centers.Ea.y) == (F(2), F(-2))
        assert (centers.Eb.x, centers.Eb.y) == (F(-3), F(3))
        assert (centers.Ec.x, centers.Ec.y) == (F(6), F(6))

    def test_barycentric_family(self, sides345):
        centers = center_set(sides345)
        assert centers.O is None
        assert set(centers.barycentric) == {"G", "I", "Ea", "Eb", "Ec"}
        assert centers.barycentric["I"].components == (F(1, 4), F(1, 3), F(5, 12))

    def test_cartesian_items_order(self, triangle345):
        sides, vertices = triangle345
        names = [name for name, _ in center_set(sides, vertices).cartesian_items()]
        assert names == ["O", "G", "H", "N", "I", "Ea", "Eb", "Ec"]

    @given(rational_sides)
    def test_euler_line_relations(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        centers = center_set(sides, (va, vb, vc))
        o, g, h, n = centers.O, centers.G, centers.H, centers.N
        # H - O = 3(G - O) componentwise, N the midpoint of OH.
        assert h.x - o.x == 3 * (g.x - o.x)
        assert h.y - o.y == 3 * (g.y - o.y)
        assert n.x == (o.x + h.x) / 2
        assert n.y == (o.y + h.y) / 2
        # |GH|^2 = 4 |OG|^2 along the line.
        assert g.dist_sq(h) == 4 * o.dist_sq(g)

    @given(rational_sides)
    def test_rotation_consistency(self, sides: SideLengths):
        # Relabeling vertices A->B->C->A turns the A-excenter data into the
        # B-excenter data of the rotated triangle.
        a, b, c = sides.as_tuple()
        rotated = SideLengths(b, c, a)
        ex_b = center_barycentric(sides, "Eb").components
        ex_a_rot = center_barycentric(rotated, "Ea").components
        assert ex_a_rot == (ex_b[1], ex_b[2], ex_b[0])
        foot_b = bisector_foot_barycentric(sides, "B").components
        foot_a_rot = bisector_foot_barycentric(rotated, "A").components
        assert foot_a_rot == (foot_b[1], foot_b[2], foot_b[0])


# A copy of the two constructions that center_set replaced: integer triples
# for exact sides and vertices, Point2 arithmetic for everything else.  The
# single construction must reproduce them value for value and bit for bit.


def _reference_exact_frame(sides, vertices):
    h = homogeneous
    va, vb, vc = h.lift(vertices)
    circum = h.circumcenter(va, vb, vc)
    centroid = h.barycentric_point((1, 1, 1), 3, va, vb, vc)
    ortho = h.add(circum, h.scaled(h.sub(centroid, circum), 3))
    frame = {"O": circum, "G": centroid, "H": ortho, "N": h.midpoint(circum, ortho)}
    t = sides._integer_form
    for label, weights in CENTER_WEIGHTS.items():
        frame[label] = h.barycentric_point(*weights(t.a, t.b, t.c), va, vb, vc)
    return {label: h.as_point2(p) for label, p in frame.items()}


def _reference_point2_frame(sides, vertices):
    va, vb, vc = vertices
    ab, ac = vb - va, vc - va
    det = ab.cross(ac)
    rhs_ab = (vb.dot(vb) - va.dot(va)) / 2
    rhs_ac = (vc.dot(vc) - va.dot(va)) / 2
    circum = Point2((rhs_ab * ac.y - rhs_ac * ab.y) / det, (ab.x * rhs_ac - ac.x * rhs_ab) / det)

    def affine(x):
        alpha, beta, gamma = x.components
        return va.scaled(alpha) + vb.scaled(beta) + vc.scaled(gamma)

    centroid = affine(centroid_barycentric())
    ortho = circum + (centroid - circum).scaled(3)
    nine = Point2((circum.x + ortho.x) / 2, (circum.y + ortho.y) / 2)
    frame = {"O": circum, "G": centroid, "H": ortho, "N": nine}
    frame.update((label, affine(center_barycentric(sides, label))) for label in CENTER_WEIGHTS)
    return frame


def _reference_points(sides, vertices):
    if sides.is_exact and all(p.is_exact for p in vertices):
        return _reference_exact_frame(sides, vertices)
    return _reference_point2_frame(sides, vertices)


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _assert_matches_reference(sides, vertices):
    expected = _reference_points(sides, vertices)
    actual = center_set(sides, vertices).points
    assert list(actual) == list(expected)
    for label, point in expected.items():
        got = actual[label]
        assert (type(got.x), type(got.y)) == (type(point.x), type(point.y)), label
        assert (_bits(got.x), _bits(got.y)) == (_bits(point.x), _bits(point.y)), label


class TestOneConstruction:
    """center_set against the reference copy of the two former paths."""

    @given(rational_sides)
    def test_rational_sides(self, sides: SideLengths):
        # Exact sides: exact vertices when the altitude is rational, float
        # vertices otherwise; then the same triangle on floats.
        _assert_matches_reference(sides, canonical_vertices(sides))
        floats = sides.as_float()
        _assert_matches_reference(floats, canonical_vertices(floats))

    @given(st.sampled_from(PROFILE_KINDS), st.integers(0, 10**6), st.integers(0, 50))
    def test_fuzz_profiles(self, kind: str, seed: int, index: int):
        sides, vertices = random_triangle(FuzzProfile(kind=kind, seed=seed), index)
        _assert_matches_reference(sides, vertices)
        floats = sides.as_float()
        _assert_matches_reference(floats, canonical_vertices(floats))

    def test_exact_sides_with_float_embedding(self):
        # svg draws exact sides without a rational embedding on floats.
        sides = SideLengths(2, 3, 4)
        vertices = canonical_vertices(sides)
        assert not vertices[0].is_exact
        _assert_matches_reference(sides, vertices)

    def test_mixed_input_gives_float_centers(self, triangle345):
        sides, vertices = triangle345
        centers = center_set(sides.as_float(), vertices)
        assert len(centers.points) == 8
        for label, point in centers.points.items():
            assert type(point.x) is float and type(point.y) is float, label
        assert (centers.O.x, centers.O.y) == (1.5, 2.0)


def test_vertices_constant():
    assert VERTICES == ("A", "B", "C")
