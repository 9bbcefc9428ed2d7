"""Triangle kernel: sides, metrics, barycentric machinery, embeddings.

Frozen expected values were computed first from an independent Cartesian
placement (C at the origin, B on the x-axis) before the formulas under test
existed; the exact backend must reproduce them bit-for-bit.
"""

import collections
import copy
import itertools
import math
import pickle
import struct
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ninepoint.centers import bisector_foot_barycentric
from ninepoint.numeric import DEFAULT_TOLERANCE
from point2_reference import (
    add,
    cartesian_to_barycentric,
    cross,
    dot,
    float_sides,
    scaled,
    sub,
)
from test_numeric import (
    FloatSub,
    FractionSub,
    IntSub,
    _reference_coerce_scalar,
    _reference_is_exact,
)
from ninepoint.triangle import (
    Barycentric,
    FloatPlane,
    InvalidTriangleError,
    Point2,
    SideLengths,
    barycentric_distance_sq,
    canonical_vertices,
    metrics,
    point_on_side,
    sides_from_vertices,
)

F = Fraction

# Rational side triples via the substitution a = y+z, b = z+x, c = x+y
# with x, y, z > 0, which hits exactly the valid triangles.
positive_fractions = st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50)
rational_sides = st.tuples(positive_fractions, positive_fractions, positive_fractions).map(
    lambda xyz: SideLengths(xyz[1] + xyz[2], xyz[2] + xyz[0], xyz[0] + xyz[1])
)


@st.composite
def positive_triples(draw):
    """Three positive rationals in any order; in half the draws one is the
    sum of the other two."""
    a, b = draw(positive_fractions), draw(positive_fractions)
    c = a + b if draw(st.booleans()) else draw(positive_fractions)
    return tuple(draw(st.permutations((a, b, c))))


class TestSideLengths:
    def test_valid(self):
        sides = SideLengths(3, 4, 5)
        assert sides.as_tuple() == (F(3), F(4), F(5))
        assert sides.is_exact

    def test_nonpositive_side(self):
        with pytest.raises(InvalidTriangleError, match="invalid side: a <= 0"):
            SideLengths(0, 4, 5)
        with pytest.raises(InvalidTriangleError, match="invalid side: b <= 0"):
            SideLengths(3, -1, 5)

    def test_degenerate_flat(self):
        with pytest.raises(InvalidTriangleError, match=r"degenerate: a \+ b = c"):
            SideLengths(1, 2, 3)
        with pytest.raises(InvalidTriangleError, match=r"degenerate: b \+ c = a"):
            SideLengths(7, 3, 4)

    def test_inequality_violation(self):
        with pytest.raises(InvalidTriangleError, match=r"not a triangle: a \+ b < c"):
            SideLengths(1, 2, 10)

    def test_equilateral_flag(self):
        assert SideLengths(1, 1, 1).is_equilateral
        assert SideLengths(F(5, 3), F(5, 3), F(5, 3)).is_equilateral
        assert not SideLengths(3, 4, 5).is_equilateral

    def test_float_backend(self):
        sides = SideLengths(3.0, 4.0, 5.0)
        assert not sides.is_exact
        assert sides.as_tuple() == (3.0, 4.0, 5.0)

    def test_as_float(self):
        # Exact sides taken to floats, as the tests' float_sides takes them.
        sides = float_sides(SideLengths(F(1, 2), F(1, 2), F(3, 4)))
        assert not sides.is_exact and sides.as_tuple() == (0.5, 0.5, 0.75)

    def test_conditioning(self):
        # s = 6; s-a = 3, s-b = 2, s-c = 1 -> max side / min gap = 5.
        assert SideLengths(3, 4, 5).conditioning() == pytest.approx(5.0)

    def test_mixed_backends_raise(self):
        with pytest.raises(TypeError, match="exact and float scalars do not mix"):
            SideLengths(3.0, F(4), 5.0)

    @given(rational_sides)
    def test_generated_sides_always_valid(self, sides: SideLengths):
        a, b, c = sides.as_tuple()
        assert a + b > c and b + c > a and c + a > b

    @given(positive_triples())
    def test_exact_inequalities_match_fraction_comparisons(self, triple):
        """The integer-form checks raise what comparing Fraction sums raised,
        in the same order."""
        a, b, c = triple
        expected = None
        for x, y, rhs, text, opposite in (
            (a, b, c, "a + b", "c"), (b, c, a, "b + c", "a"), (c, a, b, "c + a", "b")
        ):
            if x + y == rhs:
                expected = f"degenerate: {text} = {opposite}"
                break
            if x + y < rhs:
                expected = f"not a triangle: {text} < {opposite}"
                break
        try:
            SideLengths(a, b, c)
            got = None
        except InvalidTriangleError as exc:
            got = str(exc)
        assert got == expected

    def test_exact_inequalities_use_no_fraction_arithmetic(self, monkeypatch):
        calls = count_fraction_calls(monkeypatch, FRACTION_ARITHMETIC)
        SideLengths(F(13, 7), F(14, 9), F(15, 11))
        for sides in ((1, 2, 3), (F(5, 6), F(1, 2), F(1, 3)), (1, 2, 10)):
            with pytest.raises(InvalidTriangleError):
                SideLengths(*sides)
        assert dict(calls) == {}

    def test_exact_sides_make_no_fraction_comparisons(self, monkeypatch):
        # Positivity is read from the numerators and the equilateral flag
        # from the integer form.
        calls = count_fraction_calls(monkeypatch, FRACTION_ARITHMETIC + FRACTION_COMPARISONS)
        flags = [
            SideLengths(*sides).is_equilateral
            for sides in ((F(13, 7), F(14, 9), F(15, 11)), (F(5, 3), F(5, 3), F(5, 3)))
        ]
        for sides in ((0, 4, 5), (F(3), F(-1, 2), F(5))):
            with pytest.raises(InvalidTriangleError, match="invalid side"):
                SideLengths(*sides)
        assert dict(calls) == {}
        assert flags == [False, True]


class TestMetrics:
    def test_3_4_5(self):
        met = metrics(SideLengths(3, 4, 5))
        assert met.s == F(6)
        assert met.K_sq == F(36)
        assert met.R_sq == F(25, 4)
        assert met.r_sq == F(1)
        assert met.rA_sq == F(4)
        assert met.rB_sq == F(9)
        assert met.rC_sq == F(36)
        assert met.Rr == F(5, 2)
        assert met.RrA == F(5)
        assert met.RrB == F(15, 2)
        assert met.RrC == F(15)

    def test_equilateral_unit(self):
        met = metrics(SideLengths(1, 1, 1))
        assert met.s == F(3, 2)
        assert met.K_sq == F(3, 16)
        assert met.R_sq == F(1, 3)
        assert met.r_sq == F(1, 12)
        # r = R/2 in squared form: r_sq = R_sq / 4.
        assert met.r_sq == met.R_sq / 4

    def test_isoceles_2_2_3(self):
        met = metrics(SideLengths(2, 2, 3))
        assert met.s == F(7, 2)
        assert met.K_sq == F(63, 16)

    def test_scalene_2_3_4(self):
        met = metrics(SideLengths(2, 3, 4))
        assert met.s == F(9, 2)
        assert met.R_sq == F(576, 135)

    def test_float_matches_exact(self):
        exact = metrics(SideLengths(3, 4, 5))
        approx = metrics(SideLengths(3.0, 4.0, 5.0))
        assert approx.R_sq == pytest.approx(float(exact.R_sq), rel=1e-12)
        assert approx.K_sq == pytest.approx(float(exact.K_sq), rel=1e-12)

    @given(rational_sides)
    def test_heron_consistency(self, sides: SideLengths):
        met = metrics(sides)
        a, b, c = sides.as_tuple()
        s = met.s
        assert met.K_sq == s * (s - a) * (s - b) * (s - c)
        assert met.K_sq > 0
        # abc = 4RK and K = rs in squared form.
        assert 16 * met.R_sq * met.K_sq == (a * b * c) ** 2
        assert met.r_sq * s * s == met.K_sq
        assert met.Rr * met.Rr == met.R_sq * met.r_sq

    @given(rational_sides, st.fractions(min_value=F(1, 7), max_value=7, max_denominator=20))
    def test_scale_covariance(self, sides: SideLengths, k: Fraction):
        a, b, c = sides.as_tuple()
        met = metrics(sides)
        scaled = metrics(SideLengths(k * a, k * b, k * c))
        assert scaled.R_sq == k * k * met.R_sq
        assert scaled.r_sq == k * k * met.r_sq
        assert scaled.K_sq == k ** 4 * met.K_sq


FRACTION_ARITHMETIC = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
)
FRACTION_COMPARISONS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")


def count_fraction_calls(monkeypatch, names):
    """Wrap the named Fraction operators so that each call is counted; the
    wrappers stay in place until the test ends."""
    calls = collections.Counter()
    for name in names:
        original = getattr(Fraction, name)

        def counted(self, other, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


class TestBarycentric:
    def test_components(self):
        coords = Barycentric(F(1, 4), F(1, 3), F(5, 12))
        assert coords.components == (F(1, 4), F(1, 3), F(5, 12))
        assert all(type(v) is Fraction for v in coords.components)

    def test_negative_component_allowed(self):
        Barycentric(F(-1, 2), F(2, 3), F(5, 6))  # excenters sit outside

    def test_exact_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            Barycentric(F(1, 2), F(1, 2), F(1, 2))

    def test_mixed_backends_raise(self):
        with pytest.raises(TypeError, match="exact and float scalars do not mix"):
            Barycentric(1, 0, 0.0)

    def test_float_sum_tolerance(self):
        Barycentric(0.25, 0.25, 0.5 + 1e-12)
        with pytest.raises(ValueError, match="sum"):
            Barycentric(0.25, 0.25, 0.51)

    def test_exact_check_adds_no_fractions(self, monkeypatch):
        weights = [
            (F(1, 4), F(1, 3), F(5, 12)),
            (F(-7, 3), 2, F(4, 3)),
            (1, 0, 0),
            (F(1, 2**61 - 1), F(1, 10**18 + 9), 1 - F(1, 2**61 - 1) - F(1, 10**18 + 9)),
        ]
        calls = count_fraction_calls(monkeypatch, ("__add__", "__radd__"))
        for alpha, beta, gamma in weights:
            Barycentric(alpha, beta, gamma)
        assert dict(calls) == {}


class TestPointOnSide:
    def test_interior(self):
        sides = SideLengths(3, 4, 5)
        # |BX| = 1, |CX| = 2 on BC.
        coords = point_on_side(F(1), F(2), sides)
        assert coords.components == (F(0), F(2, 3), F(1, 3))

    def test_endpoints_allowed(self):
        sides = SideLengths(3, 4, 5)
        at_b = point_on_side(F(0), F(3), sides)
        assert at_b.components == (F(0), F(1), F(0))
        at_c = point_on_side(F(3), F(0), sides)
        assert at_c.components == (F(0), F(0), F(1))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="negative distance"):
            point_on_side(F(-1), F(4), SideLengths(3, 4, 5))

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not equal a"):
            point_on_side(F(1), F(1), SideLengths(3, 4, 5))

    def test_float_backend(self):
        coords = point_on_side(1.5, 1.5, SideLengths(3.0, 4.0, 5.0))
        assert coords.beta == pytest.approx(0.5)
        assert coords.gamma == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "dist_bx, dist_cx, sides",
        [
            (1.0, 2.0, SideLengths(3, 4, 5)),
            (F(1), 2.0, SideLengths(3, 4, 5)),
            (1, 2, SideLengths(3.0, 4.0, 5.0)),
        ],
        ids=["float_on_exact", "mixed_on_exact", "exact_on_float"],
    )
    def test_distances_off_the_sides_backend_raise(self, dist_bx, dist_cx, sides):
        with pytest.raises(TypeError, match="exact and float scalars do not mix"):
            point_on_side(dist_bx, dist_cx, sides)

    @given(rational_sides, st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    def test_exact_matches_fraction_arithmetic(self, sides, share):
        a = sides.a
        dist_bx = share * a
        coords = point_on_side(dist_bx, a - dist_bx, sides)
        assert coords.components == (0, (a - dist_bx) / a, dist_bx / a)
        assert all(type(v) is Fraction for v in coords.components)

    def test_exact_input_takes_no_fraction_arithmetic(self, monkeypatch):
        # The sum is tested by cross-multiplication, and each nonzero
        # component is one Fraction; the bisector feet likewise.
        sides = SideLengths(F(7, 2), F(10, 3), 4)
        calls = count_fraction_calls(monkeypatch, FRACTION_ARITHMETIC)
        on_side = point_on_side(F(7, 4), F(7, 4), sides).components
        feet = [bisector_foot_barycentric(sides, vertex).components for vertex in "ABC"]
        with pytest.raises(ValueError, match="negative distance"):
            point_on_side(F(-1, 2), F(4), sides)
        assert dict(calls) == {}
        assert on_side == (0, F(1, 2), F(1, 2))
        assert feet[0] == (0, F(5, 11), F(6, 11))


def _reference_barycentric_distance_sq(x, dist_ay_sq, dist_by_sq, dist_cy_sq, sides):
    """The body before exact inputs were evaluated on integers."""
    alpha, beta, gamma = x.components
    dist_ay_sq = _reference_coerce_scalar(dist_ay_sq)
    dist_by_sq = _reference_coerce_scalar(dist_by_sq)
    dist_cy_sq = _reference_coerce_scalar(dist_cy_sq)
    a, b, c = sides.as_tuple()
    weighted = alpha * dist_ay_sq + beta * dist_by_sq + gamma * dist_cy_sq
    pairwise = beta * gamma * (a * a) + gamma * alpha * (b * b) + alpha * beta * (c * c)
    return weighted - pairwise


def _same_scalar(actual, expected):
    """Equal value and type; floats must agree bit for bit."""
    if type(actual) is not type(expected):
        return False
    if isinstance(expected, float):
        return struct.pack("<d", actual) == struct.pack("<d", expected)
    return actual == expected


# Weights of either sign, zero included, rotated so that the zero and the
# derived third weight can sit in any slot.
signed_weights = st.one_of(
    st.just(F(0)),
    st.integers(-5, 5),
    st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
)


def _rotated_barycentric(alpha, beta, shift):
    weights = (F(alpha), F(beta), 1 - F(alpha) - F(beta))
    return Barycentric(*weights[shift:], *weights[:shift])


exact_barycentric = st.builds(_rotated_barycentric, signed_weights, signed_weights, st.integers(0, 2))
exact_distance_sq = st.one_of(
    st.integers(0, 10**9),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**9),
)
float_distance_sq = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestBarycentricDistance:
    def test_incenter_to_ninepoint_3_4_5(self):
        # I = (1/4, 1/3, 5/12); squared distances from A, B, C to N are
        # 153/16, 97/16, 25/16.  The identity must give |IN|^2 = 1/16.
        sides = SideLengths(3, 4, 5)
        x = Barycentric(F(1, 4), F(1, 3), F(5, 12))
        d_sq = barycentric_distance_sq(x, F(153, 16), F(97, 16), F(25, 16), sides)
        assert d_sq == F(1, 16)

    def test_vertex_to_vertex(self):
        # X = A, Y = B (so |AY|^2 = c^2, |BY|^2 = 0, |CY|^2 = a^2): the
        # identity collapses to |AB|^2 = c^2.
        sides = SideLengths(3, 4, 5)
        x = Barycentric(F(1), F(0), F(0))
        d_sq = barycentric_distance_sq(x, F(25), F(0), F(9), sides)
        assert d_sq == F(25)

    @given(rational_sides)
    def test_zero_distance_to_self(self, sides: SideLengths):
        # X = centroid, Y = centroid: distances to vertices are the median
        # thirds; the identity must return exactly zero.
        a, b, c = sides.as_tuple()
        third = F(1, 3)
        x = Barycentric(third, third, third)
        d_a = (2 * b * b + 2 * c * c - a * a) / 9
        d_b = (2 * c * c + 2 * a * a - b * b) / 9
        d_c = (2 * a * a + 2 * b * b - c * c) / 9
        assert barycentric_distance_sq(x, d_a, d_b, d_c, sides) == 0

    @given(exact_barycentric, st.tuples(*[exact_distance_sq] * 3), rational_sides)
    def test_exact_matches_reference(self, x, dist_sq, sides):
        expected = _reference_barycentric_distance_sq(x, *dist_sq, sides)
        assert _same_scalar(barycentric_distance_sq(x, *dist_sq, sides), expected)

    @given(exact_barycentric, st.tuples(*[float_distance_sq] * 3), rational_sides)
    @example(Barycentric(1, 1, -1), (0.0, 0.0, 0.0), SideLengths(F(3, 50), F(1, 25), F(3, 50)))
    def test_mixed_and_float_match_reference(self, x, dist_sq, sides):
        # Fraction weights with float distances on float sides (the
        # centroid's case) give the bits of the reference expression.
        sides = float_sides(sides)
        expected = _reference_barycentric_distance_sq(x, *dist_sq, sides)
        assert _same_scalar(barycentric_distance_sq(x, *dist_sq, sides), expected)

    @given(rational_sides, st.tuples(*[float_distance_sq] * 3), st.tuples(*[st.floats(-5, 5)] * 2))
    def test_float_matches_reference(self, sides, dist_sq, ab):
        x = Barycentric(ab[0], ab[1], 1.0 - ab[0] - ab[1])
        sides = float_sides(sides)
        expected = _reference_barycentric_distance_sq(x, *dist_sq, sides)
        assert _same_scalar(barycentric_distance_sq(x, *dist_sq, sides), expected)

    @given(
        st.tuples(*[st.integers(1, 2**20)] * 2),
        st.tuples(*[st.integers(2**61 - 2**20, 2**61 + 2**20)] * 2),
        st.integers(0, 2),
        st.tuples(*[float_distance_sq] * 3),
        rational_sides,
    )
    @example((1, 1), (3, 3), 0, (2.0, 3.0, 5.0), SideLengths(F(3), F(4), F(5)))
    def test_fraction_weights_on_float_distances_keep_their_bits(
        self, numerators, denominators, shift, dist_sq, sides
    ):
        # The centroid's case, and weights whose products need more than 53
        # bits: each weight and weight product, divided as integers, rounds
        # as float() of the Fraction does, so the bits are those of the
        # Fraction-times-float expression, and no Fraction arithmetic runs.
        alpha, beta = (F(n, d) for n, d in zip(numerators, denominators))
        x = _rotated_barycentric(alpha, beta, shift)
        sides = float_sides(sides)
        expected = _reference_barycentric_distance_sq(x, *dist_sq, sides)
        with pytest.MonkeyPatch.context() as patch:
            calls = count_fraction_calls(patch, FRACTION_ARITHMETIC)
            actual = barycentric_distance_sq(x, *dist_sq, sides)
        assert dict(calls) == {}
        assert _same_scalar(actual, expected)

    @pytest.mark.parametrize(
        "x, dist_sq, sides",
        [
            (Barycentric(F(1, 4), F(1, 3), F(5, 12)), (F(153, 16), 97 / 16, F(25, 16)), (3, 4, 5)),
            (Barycentric(0.25, 1 / 3, 5 / 12), (F(153, 16), F(97, 16), F(25, 16)), (3, 4, 5)),
            (Barycentric(0.25, 0.25, 0.5), (9, 16, 25), (3.0, 4.0, 5.0)),
        ],
        ids=["float_distance_on_exact", "float_weights_on_exact", "exact_distances_on_float"],
    )
    def test_off_the_sides_backend_raises(self, x, dist_sq, sides):
        with pytest.raises(TypeError, match="exact and float scalars do not mix"):
            barycentric_distance_sq(x, *dist_sq, SideLengths(*sides))

    def test_exact_inputs_take_no_fraction_arithmetic(self, monkeypatch):
        sides = SideLengths(F(7, 2), F(10, 3), 4)
        cases = [
            (Barycentric(F(1, 4), F(1, 3), F(5, 12)), (F(153, 16), F(97, 16), F(25, 16))),
            (Barycentric(F(-3, 7), F(5, 7), F(5, 7)), (2, 0, F(9, 4))),
            (Barycentric(0, 1, 0), (9, F(1, 10**12 + 39), 0)),
        ]
        expected = [_reference_barycentric_distance_sq(x, *d, sides) for x, d in cases]
        calls = count_fraction_calls(monkeypatch, FRACTION_ARITHMETIC)
        actual = [barycentric_distance_sq(x, *d, sides) for x, d in cases]
        assert dict(calls) == {}
        assert actual == expected


class TestEmbeddings:
    def test_canonical_3_4_5(self):
        va, vb, vc = canonical_vertices(SideLengths(3, 4, 5))
        assert (va.x, va.y) == (F(0), F(4))
        assert (vb.x, vb.y) == (F(3), F(0))
        assert (vc.x, vc.y) == (F(0), F(0))

    def test_canonical_irrational_falls_back_to_float(self):
        va, vb, vc = canonical_vertices(SideLengths(1, 1, 1))
        assert not va.is_exact
        assert va.x == pytest.approx(0.5)
        assert va.y == pytest.approx(0.8660254037844386)
        assert (vb.x, vb.y) == (1.0, 0.0)

    def test_canonical_reproduces_sides(self):
        sides = SideLengths(F(13), F(14), F(15))
        va, vb, vc = canonical_vertices(sides)
        assert va.is_exact  # 13-14-15 is Heronian with rational altitude
        assert vb.dist_sq(vc) == F(169)
        assert vc.dist_sq(va) == F(196)
        assert va.dist_sq(vb) == F(225)

    def test_sides_from_vertices_exact(self):
        # Exact coordinates give exact sides.
        sides = sides_from_vertices(Point2(0, 4), Point2(3, 0), Point2(0, 0))
        assert sides.is_exact
        assert sides.as_tuple() == (F(3), F(4), F(5))

    def test_sides_from_vertices_irrational_rejected(self):
        with pytest.raises(InvalidTriangleError, match="irrational"):
            sides_from_vertices(Point2(0, 0), Point2(1, 0), Point2(0, 1))

    def test_sides_from_vertices_float(self):
        # Float coordinates give float sides, irrational lengths included.
        sides = sides_from_vertices(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
        assert not sides.is_exact
        assert sides.a == pytest.approx(2 ** 0.5)

    @given(rational_sides)
    def test_embedding_matches_sides(self, sides: SideLengths):
        va, vb, vc = canonical_vertices(sides)
        a, b, c = sides.as_tuple()
        if va.is_exact:
            assert vb.dist_sq(vc) == a * a
            assert vc.dist_sq(va) == b * b
            assert va.dist_sq(vb) == c * c
        else:
            assert float(vb.dist_sq(vc)) == pytest.approx(float(a * a), rel=1e-9)


def _affine(x, va, vb, vc):
    """alpha*A + beta*B + gamma*C in Point2 arithmetic."""
    return add(add(scaled(va, x.alpha), scaled(vb, x.beta)), scaled(vc, x.gamma))


class TestCartesianConversions:
    def test_to_cartesian_incenter(self):
        va, vb, vc = canonical_vertices(SideLengths(3, 4, 5))
        pt = _affine(Barycentric(F(1, 4), F(1, 3), F(5, 12)), va, vb, vc)
        assert (pt.x, pt.y) == (F(1), F(1))

    def test_roundtrip(self):
        va, vb, vc = canonical_vertices(SideLengths(3, 4, 5))
        coords = cartesian_to_barycentric(Point2(F(1), F(1)), va, vb, vc)
        assert coords.components == (F(1, 4), F(1, 3), F(5, 12))

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            cartesian_to_barycentric(Point2(0, 0), Point2(0, 0), Point2(1, 1), Point2(2, 2))

    @given(
        rational_sides,
        st.fractions(min_value=-2, max_value=2, max_denominator=20),
        st.fractions(min_value=-2, max_value=2, max_denominator=20),
    )
    def test_roundtrip_any_affine_point(self, sides: SideLengths, alpha: Fraction, beta: Fraction):
        va, vb, vc = canonical_vertices(sides)
        if not va.is_exact:
            return
        coords = Barycentric(alpha, beta, 1 - alpha - beta)
        pt = _affine(coords, va, vb, vc)
        back = cartesian_to_barycentric(pt, va, vb, vc)
        assert back.components == coords.components


# --- FloatPlane on float pairs ----------------------------------------------
#
# The Point2 forms of each FloatPlane construction, as they were before the
# plane moved to bare float pairs, in the Point2 arithmetic of
# point2_reference.  The pair versions must give the same floats bit for
# bit, and raise the same errors with the same text.


def _point2_intersect(p1, d1, p2, d2):
    det = cross(d1, d2)
    if det == 0:
        raise ValueError("parallel construction lines")
    t = cross(sub(p2, p1), d2) / det
    return add(p1, scaled(d1, t))


def _point2_equidistant_point(p1, p2, p3):
    ex = 2 * (p2.x - p1.x)
    ey = 2 * (p2.y - p1.y)
    fx = 2 * (p3.x - p1.x)
    fy = 2 * (p3.y - p1.y)
    rhs_e = dot(p2, p2) - dot(p1, p1)
    rhs_f = dot(p3, p3) - dot(p1, p1)
    det = ex * fy - ey * fx
    if det == 0:
        raise ValueError("collinear points have no equidistant center")
    return Point2((rhs_e * fy - rhs_f * ey) / det, (ex * rhs_f - fx * rhs_e) / det)


def _point2_barycentric_point(weights, d, a, b, c):
    k_a, k_b, k_c = weights
    return add(add(scaled(a, k_a / d), scaled(b, k_b / d)), scaled(c, k_c / d))


def _point2_unit_direction(src, dst):
    delta = sub(dst, src)
    return scaled(delta, 1.0 / math.sqrt(float(dot(delta, delta))))


def _point2_line_dist_sq(point, on_line, toward):
    d = sub(toward, on_line)
    num = cross(d, sub(point, on_line))
    return (num * num) / dot(d, d)


def _point2_project(point, on_line, toward):
    d = sub(toward, on_line)
    t = dot(sub(point, on_line), d) / dot(d, d)
    return add(on_line, scaled(d, t))


def _point2_barycentric(point, a, b, c):
    return cartesian_to_barycentric(point, a, b, c).components


def _point2_orientation(a, b, c):
    return cross(sub(b, a), sub(c, a))


# Name -> (Point2 form, number of point arguments); barycentric_point takes
# weights and their sum first.
PLANE_CONSTRUCTIONS = {
    "intersect": (_point2_intersect, 4),
    "equidistant_point": (_point2_equidistant_point, 3),
    "barycentric_point": (_point2_barycentric_point, 3),
    "unit_direction": (_point2_unit_direction, 2),
    "line_dist_sq": (_point2_line_dist_sq, 3),
    "project": (_point2_project, 3),
    "barycentric": (_point2_barycentric, 4),
    "orientation": (_point2_orientation, 3),
}


# The FloatPlane form of a construction whose plane method takes another
# shape than the points: the distance to a line takes the line.
PAIR_FORMS = {
    "line_dist_sq": lambda point, on_line, toward: FloatPlane.line_dist_sq(
        point, FloatPlane.line(on_line, toward)
    ),
}


def _plane_outcome(fn, *args):
    """The result as float.hex strings, or the exception's type and text."""
    try:
        result = fn(*args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, Point2):
        result = (result.x, result.y)
    if isinstance(result, tuple):
        return tuple(v.hex() for v in result)
    return result.hex()


def _assert_plane_matches_point2_form(name, points, weights=None):
    reference, _ = PLANE_CONSTRUCTIONS[name]
    pairs = FloatPlane.lift(points)
    lead = () if weights is None else weights
    expected = _plane_outcome(reference, *lead, *points)
    actual = _plane_outcome(PAIR_FORMS.get(name, getattr(FloatPlane, name)), *lead, *pairs)
    assert actual == expected, (name, points)


# Every finite double; a modest range where the constructions succeed; and
# magnitudes whose sums and products overflow, which must fail at the same
# step and with the same text as in the Point2 forms.
any_finite = st.floats(allow_nan=False, allow_infinity=False)
modest = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
huge = st.builds(
    lambda sign, x: sign * x,
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=1e150, max_value=sys.float_info.max),
)
coordinate = st.one_of(modest, any_finite, huge)
float_points = st.builds(Point2, coordinate, coordinate)


@st.composite
def near_collinear_points(draw, count):
    """Points within a relative 1e-6 to 1e-15 of one line, or exactly on it
    in exact arithmetic."""
    x0, y0, dx, dy = (draw(modest) for _ in range(4))
    points = []
    for _ in range(count):
        t = draw(modest)
        eps = draw(st.sampled_from((0.0, 1e-15, 1e-12, 1e-9, 1e-6)))
        points.append(Point2(x0 + t * dx - eps * dy, y0 + t * dy + eps * dx))
    return tuple(points)


plane_weights = st.tuples(
    st.tuples(*(st.one_of(st.integers(-5, 5), any_finite) for _ in range(3))),
    st.one_of(st.integers(0, 5), any_finite),
)


class TestFloatPlaneMatchesPoint2Forms:
    @pytest.mark.parametrize("name", sorted(PLANE_CONSTRUCTIONS))
    @given(data=st.data())
    def test_any_points(self, name, data):
        _, count = PLANE_CONSTRUCTIONS[name]
        points = tuple(data.draw(float_points) for _ in range(count))
        weights = data.draw(plane_weights) if name == "barycentric_point" else None
        _assert_plane_matches_point2_form(name, points, weights)

    @pytest.mark.parametrize("name", sorted(PLANE_CONSTRUCTIONS))
    @given(data=st.data())
    def test_near_collinear_points(self, name, data):
        _, count = PLANE_CONSTRUCTIONS[name]
        points = data.draw(near_collinear_points(count))
        weights = data.draw(plane_weights) if name == "barycentric_point" else None
        _assert_plane_matches_point2_form(name, points, weights)

    def test_overflow_is_rejected_as_point2_rejects_it(self):
        # 1e10 * 1e300 overflows to inf in the first scaled point.
        points = (Point2(1e300, 0.0), Point2(0.0, 1.0), Point2(1.0, 0.0))
        for construct, args in (
            (FloatPlane.barycentric_point, FloatPlane.lift(points)),
            (_point2_barycentric_point, points),
        ):
            with pytest.raises(ValueError, match=r"^non-finite coordinate inf$"):
                construct((1e10, 0.0, 0.0), 1.0, *args)

    def test_pairs_leave_as_point2(self):
        pairs = FloatPlane.lift((Point2(F(1, 2), F(5, 2)), Point2(3.0, 4.0)))
        assert pairs == ((0.5, 2.5), (3.0, 4.0))
        assert FloatPlane.as_point2(pairs[0]) == Point2(0.5, 2.5)


class TestPoint2:
    def test_arithmetic(self):
        # The reference arithmetic of point2_reference, and Point2's own
        # dist_sq.
        p = Point2(F(1), F(2))
        q = Point2(F(3), F(5))
        assert (add(p, q).x, add(p, q).y) == (F(4), F(7))
        assert (sub(q, p).x, sub(q, p).y) == (F(2), F(3))
        assert dot(p, q) == F(13)
        assert cross(p, q) == F(-1)
        assert p.dist_sq(q) == F(13)

    def test_scaled(self):
        p = scaled(Point2(F(1), F(2)), F(3, 2))
        assert (p.x, p.y) == (F(3, 2), F(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)

    def test_int_promotion(self):
        p = Point2(1, 2)
        assert p.is_exact
        assert isinstance(p.x, Fraction)

    @pytest.mark.parametrize(
        "xy",
        [(1, 2.5), (F(1, 2), 2.5), (2.5, F(1, 2)), (float("nan"), F(1, 2))],
        ids=["int_float", "fraction_float", "float_fraction", "nan_fraction"],
    )
    def test_mixed_backends_raise(self, xy):
        # As SideLengths and Barycentric: the mix is refused before the
        # finiteness test, so a NaN beside a Fraction raises TypeError.
        with pytest.raises(TypeError, match="^exact and float scalars do not mix$"):
            Point2(*xy)

    @pytest.mark.parametrize("copier", [
        copy.copy,
        copy.deepcopy,
        lambda value: pickle.loads(pickle.dumps(value)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_records_copy_and_pickle(self, copier):
        # The frozen records rebuild through their constructors.
        sides = SideLengths(3, 4, 5)
        records = (Point2(1, F(5, 2)), Point2(1.0, 2.5), Barycentric(F(1, 4), F(1, 4), F(1, 2)), sides, metrics(sides))
        for record in records:
            twin = copier(record)
            assert type(twin) is type(record) and twin == record


# --- type dispatch ----------------------------------------------------------
#
# Point2 keeps two Fractions or two finite floats as given, and every
# constructor coerces through coerce_scalar, which asks about float first.
# These reference copies are the validation bodies from before both, where
# SideLengths, Barycentric and Point2 also refuse a triple or pair that
# mixes exact and float values; every input must give the same fields
# (value and type) or the same exception.


def _reference_finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite coordinate {value!r}")
    return value


def _reference_point2(x, y):
    return tuple(_reference_finite(v) for v in _reference_one_backend((x, y)))


def _reference_one_backend(values):
    values = tuple(_reference_coerce_scalar(v) for v in values)
    if len({_reference_is_exact(v) for v in values}) != 1:
        raise TypeError("exact and float scalars do not mix")
    return values


def _reference_barycentric(alpha, beta, gamma):
    alpha, beta, gamma = _reference_one_backend((alpha, beta, gamma))
    total = alpha + beta + gamma
    if _reference_is_exact(total):
        if total != 1:
            raise ValueError(f"barycentric coordinates sum to {total}, not 1")
    else:
        scale = max(1.0, *(abs(float(v)) for v in (alpha, beta, gamma)))
        if abs(float(total) - 1.0) > DEFAULT_TOLERANCE.bound(scale):
            raise ValueError(f"barycentric coordinates sum to {total!r}, not 1")
    return (alpha, beta, gamma)


def _reference_side_lengths(a, b, c):
    a, b, c = _reference_one_backend((a, b, c))
    for name, value in (("a", a), ("b", b), ("c", c)):
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidTriangleError(f"non-finite side: {name} = {value!r}")
        if value <= 0:
            raise InvalidTriangleError(f"invalid side: {name} <= 0")
    for (first, second), opposite, text in (
        ((a, b), c, "a + b"),
        ((b, c), a, "b + c"),
        ((c, a), b, "c + a"),
    ):
        total = first + second
        name = {"a + b": "c", "b + c": "a", "c + a": "b"}[text]
        if total == opposite:
            raise InvalidTriangleError(f"degenerate: {text} = {name}")
        if total < opposite:
            raise InvalidTriangleError(f"not a triangle: {text} < {name}")
    return (a, b, c)


def fields_outcome(build, *args):
    """The fields a constructor keeps, each as (type, repr), or the
    exception's type and message."""
    try:
        fields = build(*args)
    except Exception as exc:  # the exception itself is the result compared
        return ("raises", type(exc), str(exc))
    return ("returns", tuple((type(v), repr(v)) for v in fields))


def _point2_fields(x, y):
    point = Point2(x, y)
    return (point.x, point.y)


def _ids(args):
    return ",".join(f"{type(v).__name__}({v!r})" for v in args)


COORDINATES = [
    1,
    2.0,
    -0.0,
    F(1, 3),
    True,
    float("nan"),
    float("inf"),
    float("-inf"),
    IntSub(2),
    FloatSub(1.5),
    FloatSub("inf"),
    FractionSub(1, 2),
    Decimal("1.5"),
    complex(1, 2),
    "1",
]

BARYCENTRIC_INPUTS = [
    (F(1, 4), F(1, 3), F(5, 12)),
    (F(1, 2), F(1, 2), F(1, 2)),
    (F(-1, 2), F(2, 3), F(5, 6)),
    (F(1, 3), F(1, 3), F(1, 3)),
    (0.25, 0.25, 0.5),
    (0.25, 0.25, 0.5 + 1e-12),
    (0.25, 0.25, 0.51),
    (-0.5, 0.75, 0.75),
    (1e300, -1e300, 1.0),
    (0.5, 0.5, float("nan")),
    (float("inf"), 0.0, 0.0),
    (1, 0, 0),
    (2, -1, 0),
    (1, 0, 0.0),
    (F(1, 3), 1 / 3, 1 / 3),
    (True, 0, 0),
    (IntSub(1), 0, 0),
    (FloatSub(0.5), 0.25, 0.25),
    (FractionSub(1, 2), F(1, 4), F(1, 4)),
    (Decimal("0.5"), 0.25, 0.25),
    (complex(1, 0), 0.0, 0.0),
    ("1", 0, 0),
    # Exact triples, checked by cross-multiplying.
    (0, 0, 1),
    (3, -2, 0),
    (1, 1, 1),
    (0, 0, 0),
    (F(-7, 3), 2, F(4, 3)),
    (F(1, 3), F(1, 3), F(1, 2)),
    (F(1, 2**61 - 1), F(1, 10**18 + 9), 1 - F(1, 2**61 - 1) - F(1, 10**18 + 9)),
    (F(1, 2**61 - 1), F(1, 10**18 + 9), F(1, (2**61 - 1) * (10**18 + 9))),
    (F(10**30, 10**30 + 1), F(1, 10**30 + 1), 0),
    (F(10**30, 10**30 + 1), F(1, 10**30 + 3), 0),
    (F(2**89 - 1, 2**127 - 1), F(-(2**89 - 1), 2**127 - 1), 1),
    (FractionSub(1, 3), F(1, 3), F(1, 3)),
    (FractionSub(1, 3), IntSub(1), F(-1, 3)),
    (IntSub(2), F(-1, 2), F(-1, 3)),
]

SIDE_INPUTS = [
    (3, 4, 5),
    (3.0, 4.0, 5.0),
    (F(3, 2), 2, F(5, 2)),
    (3.0, F(4), 5.0),
    (1.0, 1.0, 1.999999),
    (0, 4, 5),
    (3, -1, 5),
    (3.0, 4.0, -0.0),
    (1, 2, 3),
    (7.0, 3.0, 4.0),
    (1, 2, 10),
    (float("nan"), 1.0, 1.0),
    (1.0, float("inf"), 1.0),
    (1.0, 1.0, float("-inf")),
    (True, 1, 1),
    (IntSub(3), 4, 5),
    (FloatSub(3.0), 4.0, 5.0),
    (FractionSub(3, 1), F(4), F(5)),
    (Decimal("3"), 4, 5),
    (complex(3, 0), 4.0, 5.0),
    ("3", 4, 5),
]


class TestTypeDispatchMatchesReference:
    @pytest.mark.parametrize("xy", list(itertools.product(COORDINATES, repeat=2)), ids=_ids)
    def test_point2(self, xy):
        expected = fields_outcome(_reference_point2, *xy)
        actual = fields_outcome(_point2_fields, *xy)
        assert actual == expected

    @pytest.mark.parametrize("weights", BARYCENTRIC_INPUTS, ids=_ids)
    def test_barycentric(self, weights):
        expected = fields_outcome(_reference_barycentric, *weights)
        actual = fields_outcome(lambda *w: Barycentric(*w).components, *weights)
        assert actual == expected

    @pytest.mark.parametrize("sides", SIDE_INPUTS, ids=_ids)
    def test_side_lengths(self, sides):
        expected = fields_outcome(_reference_side_lengths, *sides)
        actual = fields_outcome(lambda *v: SideLengths(*v).as_tuple(), *sides)
        assert actual == expected

    def test_carriers_kept_as_given(self):
        for x, y in ((FloatSub(1.5), 2.5), (FractionSub(1, 2), F(1, 3))):
            p = Point2(x, y)
            assert p.x is x and p.y is y
            assert p.is_exact is (type(y) is Fraction)
        third = F(1, 3)
        assert Barycentric(third, third, third).alpha is third
