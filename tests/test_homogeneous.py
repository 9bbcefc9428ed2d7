"""Integer homogeneous coordinates against Fraction arithmetic on the
Cartesian points they stand for, with weights of either sign."""

import ast
import inspect
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ninepoint import centers, harness, homogeneous
from ninepoint.centers import center_set
from ninepoint.triangle import FloatPlane, Point2, SideLengths, _canonical_frame

h = homogeneous.Plane()

coord = st.integers(-60, 60)
weight = st.integers(-12, 12).filter(bool)
triples = st.tuples(coord, coord, weight)


def cart(p):
    x, y, w = p
    return Fraction(x, w), Fraction(y, w)


def ratio(r):
    return Fraction(*r)


def dist_sq(p, q):
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def side(p, u, v):
    return (v[0] - u[0]) * (p[1] - u[1]) - (v[1] - u[1]) * (p[0] - u[0])


@given(triples, triples)
def test_vector_operations(p, q):
    (px, py), (qx, qy) = cart(p), cart(q)
    assert cart(h.add(p, q)) == (px + qx, py + qy)
    assert cart(h.sub(p, q)) == (px - qx, py - qy)
    assert cart(h.midpoint(p, q)) == ((px + qx) / 2, (py + qy) / 2)
    assert cart(h.scaled(p, 3)) == (3 * px, 3 * py)
    assert cart(h.perp(p)) == (-py, px)
    assert ratio(h.dot(p, q)) == px * qx + py * qy
    assert ratio(h.dist_sq(p, q)) == dist_sq((px, py), (qx, qy))
    assert ratio(h.times(4, h.dist_sq(p, q))) == 4 * dist_sq((px, py), (qx, qy))
    assert tuple(map(ratio, h.coords(p))) == (px, py)
    assert h.as_point2(p) == Point2(px, py)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(fractions, fractions.filter(bool))
def test_scalar_operations(x, y):
    # Ratios without reduction stand for the Fraction results.
    r, s = (x.numerator, x.denominator), (y.numerator, y.denominator)
    assert ratio(h.product(r, s)) == x * y
    assert ratio(h.square(r)) == x * x
    assert ratio(h.difference(r, s)) == x - y
    assert ratio(h.quotient(r, s)) == x / y
    assert ratio(h.quotient(r, (4, 1))) == x / 4


@given(finite_floats, finite_floats.filter(bool))
def test_float_plane_scalar_operations(x, y):
    # The float plane makes the float operation of each name.
    fp = FloatPlane
    assert fp.product(x, y) == x * y
    assert fp.square(x) == x ** 2
    assert fp.difference(x, y) == x - y
    assert fp.quotient(x, y) == x / y
    with pytest.raises(OverflowError):
        fp.square(1e200)


@given(triples, triples, triples)
def test_lines(p, u, v):
    assume(cart(u) != cart(v))
    cp, cu, cv = cart(p), cart(u), cart(v)
    assert ratio(h.line_dist_sq(p, u, v)) == side(cp, cu, cv) ** 2 / dist_sq(cu, cv)
    foot = cart(h.project(p, u, v))
    assert side(foot, cu, cv) == 0
    direction = (cv[0] - cu[0], cv[1] - cu[1])
    assert (cp[0] - foot[0]) * direction[0] + (cp[1] - foot[1]) * direction[1] == 0


@given(triples, triples, triples, triples)
def test_triangle_constructions(a, b, c, p):
    ca, cb, cc = cart(a), cart(b), cart(c)
    assume(side(ca, cb, cc) != 0)
    assert h.orientation(a, b, c) != 0
    alpha, beta, gamma = map(ratio, h.barycentric(p, a, b, c))
    cp = cart(p)
    assert alpha + beta + gamma == 1
    assert alpha * ca[0] + beta * cb[0] + gamma * cc[0] == cp[0]
    assert alpha * ca[1] + beta * cb[1] + gamma * cc[1] == cp[1]
    # A line through a along b - a meets one through c along its perpendicular.
    meet = cart(h.intersect(a, h.sub(b, a), c, h.perp(h.sub(b, a))))
    assert side(meet, ca, cb) == 0


@given(st.tuples(coord, coord), st.tuples(coord, coord), st.tuples(coord, coord), weight)
def test_shared_weight_constructions(a, b, c, w):
    a, b, c = ((p[0], p[1], w) for p in (a, b, c))
    ca, cb, cc = cart(a), cart(b), cart(c)
    assume(side(ca, cb, cc) != 0)
    x = cart(h.equidistant_point(a, b, c))
    assert dist_sq(x, ca) == dist_sq(x, cb) == dist_sq(x, cc)
    g = cart(h.barycentric_point((1, 2, 3), 6, a, b, c))
    assert g == ((ca[0] + 2 * cb[0] + 3 * cc[0]) / 6, (ca[1] + 2 * cb[1] + 3 * cc[1]) / 6)


def test_mixed_weights_rejected():
    with pytest.raises(ValueError, match="one weight"):
        h.equidistant_point((0, 0, 1), (1, 0, 2), (0, 1, 1))


def test_unit_direction_and_length():
    # (3, 4)/(-5) to the origin: the vector is (3/5, 4/5), of length 1.
    src, dst = (3, 4, -5), (0, 0, 7)
    assert h.length(src, dst) is not None and ratio(h.length(src, dst)) == 1
    assert cart(h.unit_direction(src, dst)) == (Fraction(3, 5), Fraction(4, 5))
    assert h.length((0, 0, 1), (1, 1, 1)) is None
    with pytest.raises(ValueError, match="irrational"):
        h.unit_direction((0, 0, 1), (1, 1, 1))


def test_lift_shares_the_lcm():
    points = (Point2(Fraction(1, 2), Fraction(1, 3)), Point2(2, Fraction(5, 4)), Point2(0, 0))
    assert h.lift(points) == ((6, 4, 12), (24, 15, 12), (0, 0, 12))


def test_a_frame_with_a_metric_has_no_cartesian_exit():
    # 2, 3, 4 has P = 9 * 5 * 3 * 1 = 135, not a square: the altitude is
    # irrational, and the frame's t = y/sqrt(135).
    sides = SideLengths(2, 3, 4)
    m, (va, vb, vc) = _canonical_frame(sides._integer_form)
    frame = homogeneous.Plane(m)
    assert m == 135
    edges = ((vb, vc), (vc, va), (va, vb))
    assert [ratio(frame.dist_sq(p, q)) for p, q in edges] == [4, 9, 16]
    x, t = frame.coords(va)
    assert ratio(x) == Fraction(-3, 4)
    assert t[2] == m  # the t ratio carries its metric
    kernel = center_set(sides, (va, vb, vc), plane=frame)
    for leave in (
        lambda: frame.as_point2(va),
        lambda: kernel.points,
    ):
        with pytest.raises(ValueError, match="not a Cartesian coordinate"):
            leave()
    # The Cartesian frame keeps its exits.
    assert ratio(h.coords((3, 4, 2))[1]) == 2
    assert h.as_point2((3, 4, 2)) == Point2(Fraction(3, 2), 2)


def test_parallel_lines_rejected():
    with pytest.raises(ValueError, match="parallel"):
        h.intersect((0, 0, 1), (1, 1, 1), (1, 0, 1), (2, 2, 3))


def _plane_names(*functions):
    """Names read from ``plane``, ``ring`` or ``self.plane`` in the
    functions' source."""
    names = set()
    for function in functions:
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in ("plane", "ring"):
                names.add(node.attr)
            elif isinstance(owner, ast.Attribute) and owner.attr == "plane":
                names.add(node.attr)
    return names


def test_both_planes_define_every_name_the_constructions_call():
    names = _plane_names(
        centers.center_set,
        centers._center_frame,
        centers.CenterSet,
        harness.cartesian_oracle,
        harness.OracleResult,
        harness.check_identity_suite,
    )
    assert {"lift", "orientation", "barycentric_point", "equidistant_point"} <= names
    assert {"times", "product", "square", "difference", "quotient"} <= names
    for plane in (h, FloatPlane):
        missing = sorted(name for name in names if not hasattr(plane, name))
        assert missing == [], plane
