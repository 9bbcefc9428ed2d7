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
    vertex_to_ninepoint_dist_sq,
)
from ninepoint.harness import PROFILE_KINDS, FuzzProfile, random_triangle
from ninepoint.triangle import (
    Point2,
    SideLengths,
    canonical_vertices,
    metrics,
)
from point2_reference import add, as_float, dot, float_sides, scaled, sub

F = Fraction

positive_fractions = st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50)
rational_sides = st.tuples(positive_fractions, positive_fractions, positive_fractions).map(
    lambda xyz: SideLengths(xyz[1] + xyz[2], xyz[2] + xyz[0], xyz[0] + xyz[1])
)
# The vertex opposite each pair, by index: the kernel's circumdot takes it.
OPPOSITE = {"BC": 0, "CA": 1, "AB": 2}


def circumdot(sides: SideLengths, pair: str):
    """(P - O).(Q - O) for a vertex pair: the public value of the kernel's."""
    t = sides._kernel
    return t.value(t.circumdot(OPPOSITE[pair]))


@pytest.fixture
def sides345() -> SideLengths:
    return SideLengths(3, 4, 5)


@pytest.fixture
def triangle345(sides345):
    return sides345, canonical_vertices(sides345)


class TestBarycentricCenters:
    def test_centroid(self):
        assert centroid_barycentric().components == (F(1, 3), F(1, 3), F(1, 3))
        # One frozen record, built once.
        assert centroid_barycentric() is centroid_barycentric()

    def test_incenter_3_4_5(self, sides345):
        assert center_set(sides345).barycentric["I"].components == (F(1, 4), F(1, 3), F(5, 12))

    def test_excenters_3_4_5(self, sides345):
        bary = center_set(sides345).barycentric
        assert bary["Ea"].components == (F(-1, 2), F(2, 3), F(5, 6))
        assert bary["Eb"].components == (F(3, 4), F(-1), F(5, 4))
        assert bary["Ec"].components == (F(3, 2), F(2), F(-5, 2))

    def test_excenter_equilateral(self):
        ex_a = center_set(SideLengths(1, 1, 1)).barycentric["Ea"]
        assert ex_a.components == (F(-1), F(1), F(1))

    def test_excenter_negative_only_at_own_vertex(self, sides345):
        for label, index in (("Ea", 0), ("Eb", 1), ("Ec", 2)):
            coords = center_set(sides345).barycentric[label].components
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

    @given(rational_sides)
    def test_incenter_inside(self, sides: SideLengths):
        coords = center_set(sides).barycentric["I"]
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
        assert center_set(*triangle345).points["O"] == Point2(F(3, 2), F(2))

    def test_circumcenter_equilateral_float(self):
        sides = SideLengths(1.0, 1.0, 1.0)
        center = center_set(sides, canonical_vertices(sides)).points["O"]
        assert center.x == pytest.approx(0.5)
        assert center.y == pytest.approx(3 ** 0.5 / 6)

    @pytest.mark.parametrize("sides", [SideLengths(3, 4, 5), SideLengths(3.0, 4.0, 5.0)],
                             ids=["exact", "float"])
    def test_collinear_rejected(self, sides):
        # The weights read only the sides; the vertices given are collinear.
        collinear = (Point2(0, 0), Point2(1, 1), Point2(2, 2))
        if not sides.is_exact:
            collinear = tuple(as_float(p) for p in collinear)
        with pytest.raises(ValueError, match="collinear vertices have no circumcenter"):
            center_set(sides, collinear)

    def test_orthocenter_3_4_5(self, triangle345):
        # Right angle at C puts the orthocenter on C itself.
        assert center_set(*triangle345).points["H"] == Point2(F(0), F(0))

    def test_nine_point_center_3_4_5(self, triangle345):
        assert center_set(*triangle345).points["N"] == Point2(F(3, 4), F(1))

    @given(rational_sides)
    def test_circumcenter_equidistant(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        center = center_set(sides, (va, vb, vc)).points["O"]
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

    @given(rational_sides)
    def test_vertex_distance_matches_embedding(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        nine = center_set(sides, (va, vb, vc)).points["N"]
        assert vertex_to_ninepoint_dist_sq(sides, "A") == va.dist_sq(nine)
        assert vertex_to_ninepoint_dist_sq(sides, "B") == vb.dist_sq(nine)
        assert vertex_to_ninepoint_dist_sq(sides, "C") == vc.dist_sq(nine)

    @given(rational_sides)
    def test_circumdot_matches_embedding(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        circum = center_set(sides, (va, vb, vc)).points["O"]
        assert circumdot(sides, "AB") == dot(sub(va, circum), sub(vb, circum))
        assert circumdot(sides, "BC") == dot(sub(vb, circum), sub(vc, circum))
        assert circumdot(sides, "CA") == dot(sub(vc, circum), sub(va, circum))


class TestCenterSet:
    def test_full_set_3_4_5(self, triangle345):
        sides, vertices = triangle345
        centers = center_set(sides, vertices)
        assert isinstance(centers, CenterSet)
        expected = {
            "O": (F(3, 2), F(2)),
            "G": (F(1), F(4, 3)),
            "H": (F(0), F(0)),
            "N": (F(3, 4), F(1)),
            "I": (F(1), F(1)),
            "Ea": (F(2), F(-2)),
            "Eb": (F(-3), F(3)),
            "Ec": (F(6), F(6)),
        }
        assert {label: (p.x, p.y) for label, p in centers.points.items()} == expected

    def test_barycentric_family(self, sides345):
        centers = center_set(sides345)
        assert centers.points == {}
        assert set(centers.barycentric) == {"G", "I", "Ea", "Eb", "Ec"}
        assert centers.barycentric["I"].components == (F(1, 4), F(1, 3), F(5, 12))

    def test_cartesian_items_order(self, triangle345):
        sides, vertices = triangle345
        names = list(center_set(sides, vertices).points)
        assert names == ["O", "G", "H", "N", "I", "Ea", "Eb", "Ec"]

    @given(rational_sides)
    def test_euler_line_relations(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        centers = center_set(sides, (va, vb, vc)).points
        o, g, h, n = centers["O"], centers["G"], centers["H"], centers["N"]
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
        ex_b = center_set(sides).barycentric["Eb"].components
        ex_a_rot = center_set(rotated).barycentric["Ea"].components
        assert ex_a_rot == (ex_b[1], ex_b[2], ex_b[0])
        foot_b = bisector_foot_barycentric(sides, "B").components
        foot_a_rot = bisector_foot_barycentric(rotated, "A").components
        assert foot_a_rot == (foot_b[1], foot_b[2], foot_b[0])


# The closed forms of the eight centers, written out again in Point2
# arithmetic: Fractions for exact sides and vertices, floats otherwise.
# center_set must reproduce them value for value and bit for bit.


def _reference_weights(a, b, c):
    """Each center's weights and their sum, in the kernel's float order."""
    a_sq, b_sq, c_sq = a * a, b * b, c * c
    s_a, s_b, s_c = b_sq + c_sq - a_sq, c_sq + a_sq - b_sq, a_sq + b_sq - c_sq
    o = (a_sq * s_a, b_sq * s_b, c_sq * s_c)
    h = (s_b * s_c, s_c * s_a, s_a * s_b)
    n = (o[0] + h[0], o[1] + h[1], o[2] + h[2])
    return {
        "O": (o, o[0] + o[1] + o[2]),
        "G": ((1, 1, 1), 3),
        "H": (h, h[0] + h[1] + h[2]),
        "N": (n, n[0] + n[1] + n[2]),
        "I": ((a, b, c), a + b + c),
        "Ea": ((-a, b, c), -a + b + c),
        "Eb": ((a, -b, c), -b + c + a),
        "Ec": ((a, b, -c), -c + a + b),
    }


def _reference_points(sides, vertices):
    va, vb, vc = vertices
    exact = sides.is_exact and all(p.is_exact for p in vertices)
    if sides.is_exact:
        t = sides._kernel
        a, b, c = t.a, t.b, t.c
    else:
        a, b, c = sides.as_tuple()
    if not exact:
        va, vb, vc = (as_float(p) for p in vertices)
    ratio = Fraction if exact else (lambda k, d: k / d)
    return {
        label: add(
            add(scaled(va, ratio(k_a, d)), scaled(vb, ratio(k_b, d))), scaled(vc, ratio(k_c, d))
        )
        for label, ((k_a, k_b, k_c), d) in _reference_weights(a, b, c).items()
    }


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
    """center_set against the closed forms in Point2 arithmetic."""

    @given(rational_sides)
    def test_rational_sides(self, sides: SideLengths):
        # Exact sides: exact vertices when the altitude is rational, float
        # vertices otherwise; then the same triangle on floats.
        _assert_matches_reference(sides, canonical_vertices(sides))
        floats = float_sides(sides)
        _assert_matches_reference(floats, canonical_vertices(floats))

    @given(st.sampled_from(PROFILE_KINDS), st.integers(0, 10**6), st.integers(0, 50))
    def test_fuzz_profiles(self, kind: str, seed: int, index: int):
        sides, vertices = random_triangle(FuzzProfile(kind=kind, seed=seed), index)
        _assert_matches_reference(sides, vertices)
        floats = float_sides(sides)
        _assert_matches_reference(floats, canonical_vertices(floats))

    def test_exact_sides_with_float_embedding(self):
        # svg draws exact sides without a rational embedding on floats.
        sides = SideLengths(2, 3, 4)
        vertices = canonical_vertices(sides)
        assert not vertices[0].is_exact
        _assert_matches_reference(sides, vertices)

    def test_mixed_input_gives_float_centers(self, triangle345):
        sides, vertices = triangle345
        centers = center_set(float_sides(sides), vertices)
        assert len(centers.points) == 8
        for label, point in centers.points.items():
            assert type(point.x) is float and type(point.y) is float, label
        circum = centers.points["O"]
        assert (circum.x, circum.y) == (1.5, 2.0)


# Copies of the bodies that the integer closed forms replaced on exact sides
# (and that float sides still run).


def _reference_circumdot(sides, pair):
    opposite = sides.as_tuple()[OPPOSITE[pair]]
    return metrics(sides).R_sq - (opposite * opposite) / 2


def _reference_bisector_foot(sides, vertex):
    k = VERTICES.index(vertex)
    triple = sides.as_tuple()
    a, b, c = triple[k:] + triple[:k]
    weights = (a - a, b / (b + c), c / (b + c))
    return tuple(weights[(j - k) % 3] for j in range(3))


class TestIntegerClosedForms:
    """circumdot and the bisector feet on the integer form of exact sides,
    against the former Fraction expressions, and bit for bit on floats."""

    huge = (F(10**40 + 7, 3**50), F(10**40 + 3, 3**50 + 1), F(10**40, 7**40))

    def _assert_matches_reference(self, sides):
        for pair in ("AB", "BC", "CA"):
            got, expected = circumdot(sides, pair), _reference_circumdot(sides, pair)
            assert type(got) is type(expected) and _bits(got) == _bits(expected), pair
        for vertex in VERTICES:
            got = bisector_foot_barycentric(sides, vertex).components
            expected = _reference_bisector_foot(sides, vertex)
            assert [type(v) for v in got] == [type(v) for v in expected], vertex
            assert list(map(_bits, got)) == list(map(_bits, expected)), vertex

    @given(rational_sides)
    def test_rational_sides(self, sides: SideLengths):
        self._assert_matches_reference(sides)
        self._assert_matches_reference(float_sides(sides))

    @pytest.mark.parametrize("triple", [(3, 4, 5), (2, 3, 4), (1, 1, 1), huge])
    def test_fixed_sides(self, triple):
        sides = SideLengths(*triple)
        self._assert_matches_reference(sides)
        self._assert_matches_reference(float_sides(sides))

    def test_one_fraction_per_value(self, monkeypatch):
        sides = SideLengths(*self.huge)
        built = [0]
        original_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built[0] += 1
            return original_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        circumdot(sides, "AB")
        assert built[0] == 1
        built[0] = 0
        bisector_foot_barycentric(sides, "B")
        assert built[0] == 2  # the two ratios; the zero is shared


def test_vertices_constant():
    assert VERTICES == ("A", "B", "C")
