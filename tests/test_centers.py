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

from ninepoint.centers import (
    VERTICES,
    CenterSet,
    bisector_foot_barycentric,
    center_set,
    centroid_barycentric,
    circumcenter_cartesian,
    circumdot,
    excenter_barycentric,
    incenter_barycentric,
    nine_point_center,
    orthocenter_from_euler,
    vertex_to_ninepoint_dist_sq,
)
from ninepoint.triangle import (
    Point2,
    SideLengths,
    barycentric_to_cartesian,
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
        assert incenter_barycentric(sides345).components == (F(1, 4), F(1, 3), F(5, 12))

    def test_excenters_3_4_5(self, sides345):
        assert excenter_barycentric(sides345, "A").components == (F(-1, 2), F(2, 3), F(5, 6))
        assert excenter_barycentric(sides345, "B").components == (F(3, 4), F(-1), F(5, 4))
        assert excenter_barycentric(sides345, "C").components == (F(3, 2), F(2), F(-5, 2))

    def test_excenter_equilateral(self):
        assert excenter_barycentric(SideLengths(1, 1, 1), "A").components == (F(-1), F(1), F(1))

    def test_excenter_negative_only_at_own_vertex(self, sides345):
        for vertex, index in (("A", 0), ("B", 1), ("C", 2)):
            coords = excenter_barycentric(sides345, vertex).components
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
            excenter_barycentric(sides345, "D")  # type: ignore[arg-type]

    @given(rational_sides)
    def test_incenter_inside(self, sides: SideLengths):
        coords = incenter_barycentric(sides)
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
        _, (va, vb, vc) = triangle345
        center = circumcenter_cartesian(va, vb, vc)
        assert (center.x, center.y) == (F(3, 2), F(2))

    def test_circumcenter_equilateral_float(self):
        va, vb, vc = canonical_vertices(SideLengths(1, 1, 1))
        center = circumcenter_cartesian(va, vb, vc)
        assert center.x == pytest.approx(0.5)
        assert center.y == pytest.approx(3 ** 0.5 / 6)

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            circumcenter_cartesian(Point2(0, 0), Point2(1, 1), Point2(2, 2))

    def test_orthocenter_from_euler_3_4_5(self, triangle345):
        _, (va, vb, vc) = triangle345
        circum = circumcenter_cartesian(va, vb, vc)
        centroid = barycentric_to_cartesian(centroid_barycentric(), va, vb, vc)
        ortho = orthocenter_from_euler(circum, centroid)
        # Right angle at C puts the orthocenter on C itself.
        assert (ortho.x, ortho.y) == (F(0), F(0))

    def test_nine_point_center_3_4_5(self, triangle345):
        _, (va, vb, vc) = triangle345
        circum = circumcenter_cartesian(va, vb, vc)
        centroid = barycentric_to_cartesian(centroid_barycentric(), va, vb, vc)
        ortho = orthocenter_from_euler(circum, centroid)
        nine = nine_point_center(circum, ortho)
        assert (nine.x, nine.y) == (F(3, 4), F(1))

    @given(rational_sides)
    def test_circumcenter_equidistant(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        center = circumcenter_cartesian(va, vb, vc)
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
        circum = circumcenter_cartesian(va, vb, vc)
        centroid = barycentric_to_cartesian(centroid_barycentric(), va, vb, vc)
        nine = nine_point_center(circum, orthocenter_from_euler(circum, centroid))
        assert vertex_to_ninepoint_dist_sq(sides, "A") == va.dist_sq(nine)
        assert vertex_to_ninepoint_dist_sq(sides, "B") == vb.dist_sq(nine)
        assert vertex_to_ninepoint_dist_sq(sides, "C") == vc.dist_sq(nine)

    @given(rational_sides)
    def test_circumdot_matches_embedding(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        circum = circumcenter_cartesian(va, vb, vc)
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
        ex_b = excenter_barycentric(sides, "B").components
        ex_a_rot = excenter_barycentric(rotated, "A").components
        assert ex_a_rot == (ex_b[1], ex_b[2], ex_b[0])
        foot_b = bisector_foot_barycentric(sides, "B").components
        foot_a_rot = bisector_foot_barycentric(rotated, "A").components
        assert foot_a_rot == (foot_b[1], foot_b[2], foot_b[0])


def test_vertices_constant():
    assert VERTICES == ("A", "B", "C")
