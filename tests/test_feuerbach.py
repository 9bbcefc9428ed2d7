"""Tangency engine: squared-form classification and the nine-point report."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ninepoint.centers import VERTICES, center_set, vertex_to_ninepoint_dist_sq
from ninepoint.feuerbach import (
    Tangency,
    classify_tangency_sq,
    excircle_ninepoint_residual,
    feuerbach_report,
    incircle_ninepoint_residual,
)
from ninepoint.numeric import ToleranceProfile
from ninepoint.triangle import (
    Barycentric,
    InvalidTriangleError,
    SideLengths,
    _FloatTriangle,
    _IntegerTriangle,
    barycentric_distance_sq,
    metrics,
)

F = Fraction

positive_fractions = st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50)
rational_sides = st.tuples(positive_fractions, positive_fractions, positive_fractions).map(
    lambda xyz: SideLengths(xyz[1] + xyz[2], xyz[2] + xyz[0], xyz[0] + xyz[1])
)


@st.composite
def float_sides(draw) -> SideLengths:
    """Generic or near-degenerate float triangles from 1e-6 to 1e7 in size.
    Near-degenerate ones put c a relative gap g below a + b, which gives
    conditioning of about 2/g, up to 1e6."""
    scale = 10.0 ** draw(st.integers(-6, 6))
    a = draw(st.floats(0.1, 10.0)) * scale
    b = draw(st.floats(0.1, 10.0)) * scale
    if draw(st.booleans()):
        c = (a + b) * (1.0 - 10.0 ** -draw(st.floats(1.0, 5.7)))
    else:
        c = abs(a - b) + (a + b - abs(a - b)) * draw(st.floats(0.05, 0.95))
    try:
        return SideLengths(a, b, c)
    except InvalidTriangleError:
        assume(False)


@st.composite
def flat_float_sides(draw) -> SideLengths:
    """Float triangles with c a relative gap 10^-e below a + b, e up to 12,
    so conditioning reaches about 2e12; or any of ``float_sides``."""
    if draw(st.booleans()):
        return draw(float_sides())
    a, b = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    c = (a + b) * (1.0 - 10.0 ** -draw(st.floats(1.0, 12.0)))
    try:
        return SideLengths(a, b, c)
    except InvalidTriangleError:
        assume(False)


class TestClassifySq:
    def test_internal_exact(self):
        # d = 1, r1 = 3, r2 = 2: d^2 = (r1 - r2)^2.
        report = classify_tangency_sq(F(1), F(9), F(4))
        assert report.kind is Tangency.INTERNAL_TANGENT
        assert report.rhs == F(1)
        assert report.residual == 0

    def test_external_exact(self):
        report = classify_tangency_sq(F(25), F(9), F(4))
        assert report.kind is Tangency.EXTERNAL_TANGENT
        assert report.rhs == F(25)
        assert report.residual == 0

    def test_not_tangent_exact(self):
        report = classify_tangency_sq(F(9), F(1), F(1))
        assert report.kind is Tangency.NOT_TANGENT
        assert report.rhs_internal == F(0)
        assert report.rhs_external == F(4)
        assert report.residual_external == F(5)

    def test_coincident_exact(self):
        report = classify_tangency_sq(F(0), F(9, 4), F(9, 4))
        assert report.kind is Tangency.COINCIDENT
        assert report.residual == 0

    def test_concentric_unequal_is_not_tangent(self):
        # Same center, different radii: no tangency despite d = 0.
        assert classify_tangency_sq(F(0), F(1), F(4)).kind is Tangency.NOT_TANGENT
        assert classify_tangency_sq(0.0, 1.0, 4.0).kind is Tangency.NOT_TANGENT

    def test_irrational_cross_term_is_not_tangent(self):
        # r1^2 * r2^2 = 2 has no rational root, so no rational d^2 can
        # satisfy either tangency equation.
        report = classify_tangency_sq(F(3), F(1), F(2))
        assert report.kind is Tangency.NOT_TANGENT
        assert isinstance(report.rhs_external, float)

    def test_float_internal(self):
        report = classify_tangency_sq(1.0, 9.0, 4.0)
        assert report.kind is Tangency.INTERNAL_TANGENT

    def test_float_external(self):
        assert classify_tangency_sq(25.0, 9.0, 4.0).kind is Tangency.EXTERNAL_TANGENT

    def test_float_coincident(self):
        assert classify_tangency_sq(1e-16, 2.25, 2.25).kind is Tangency.COINCIDENT

    def test_float_not_tangent(self):
        assert classify_tangency_sq(9.0, 1.0, 1.0).kind is Tangency.NOT_TANGENT

    def test_float_nearest_candidate_wins(self):
        # Radii 10 and 0.1: candidates 98.01 and 102.01 sit 4 apart, and a
        # band of ~8 admits both.  The smaller residual must decide, not
        # the evaluation order.
        tol = ToleranceProfile(rel_eps=0.08, abs_eps=1e-12)
        report = classify_tangency_sq(102.01, 100.0, 0.01, tol)
        assert report.kind is Tangency.EXTERNAL_TANGENT
        report = classify_tangency_sq(98.01, 100.0, 0.01, tol)
        assert report.kind is Tangency.INTERNAL_TANGENT

    def test_float_slightly_negative_distance_clamped(self):
        report = classify_tangency_sq(-1e-15, 2.25, 2.25)
        assert report.kind is Tangency.COINCIDENT

    def test_genuinely_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            classify_tangency_sq(-1.0, 2.25, 2.25)
        with pytest.raises(ValueError, match="nonnegative"):
            classify_tangency_sq(F(-1, 16), F(9), F(4))

    def test_mixed_backends_raise(self):
        with pytest.raises(TypeError, match="exact and float scalars do not mix"):
            classify_tangency_sq(F(1), 1.0, 4.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            classify_tangency_sq(F(1), F(0), F(4))

    def test_exact_zero_residual_is_rational(self):
        report = classify_tangency_sq(F(1, 16), F(25, 16), F(1))
        assert report.kind is Tangency.INTERNAL_TANGENT
        assert isinstance(report.residual, Fraction)

    @given(
        st.fractions(min_value=F(1, 10), max_value=10, max_denominator=30),
        st.fractions(min_value=F(1, 10), max_value=10, max_denominator=30),
    )
    def test_constructed_tangencies_classify(self, r1: Fraction, r2: Fraction):
        internal = classify_tangency_sq((r1 - r2) ** 2, r1 * r1, r2 * r2)
        if r1 == r2:
            assert internal.kind is Tangency.COINCIDENT
        else:
            assert internal.kind is Tangency.INTERNAL_TANGENT
        external = classify_tangency_sq((r1 + r2) ** 2, r1 * r1, r2 * r2)
        assert external.kind is Tangency.EXTERNAL_TANGENT

    @given(
        st.fractions(min_value=0, max_value=100, max_denominator=30),
        st.fractions(min_value=F(1, 10), max_value=10, max_denominator=30),
        st.fractions(min_value=F(1, 10), max_value=10, max_denominator=30),
    )
    def test_symmetric_in_radii(self, d_sq: Fraction, r1: Fraction, r2: Fraction):
        left = classify_tangency_sq(d_sq, r1, r2)
        right = classify_tangency_sq(d_sq, r2, r1)
        assert left.kind == right.kind


class TestResiduals:
    def test_3_4_5_zero(self):
        sides = SideLengths(3, 4, 5)
        assert incircle_ninepoint_residual(sides) == 0
        for vertex in ("A", "B", "C"):
            assert excircle_ninepoint_residual(sides, vertex) == 0

    def test_center_to_ninepoint_3_4_5(self):
        sides = SideLengths(3, 4, 5)
        incenter = Barycentric(F(1, 4), F(1, 3), F(5, 12))
        vertex_dist_sq = [vertex_to_ninepoint_dist_sq(sides, v) for v in VERTICES]
        assert barycentric_distance_sq(incenter, *vertex_dist_sq, sides) == F(1, 16)

    def test_bad_vertex_rejected(self):
        with pytest.raises(ValueError):
            excircle_ninepoint_residual(SideLengths(3, 4, 5), "Z")  # type: ignore[arg-type]

    @given(rational_sides)
    def test_residuals_vanish_on_rationals(self, sides: SideLengths):
        assert incircle_ninepoint_residual(sides) == 0
        assert excircle_ninepoint_residual(sides, "A") == 0
        assert excircle_ninepoint_residual(sides, "B") == 0
        assert excircle_ninepoint_residual(sides, "C") == 0

    @given(rational_sides, st.fractions(min_value=F(1, 7), max_value=7, max_denominator=20))
    def test_residual_scale_covariance(self, sides: SideLengths, k: Fraction):
        a, b, c = sides.as_tuple()
        scaled = SideLengths(k * a, k * b, k * c)
        assert incircle_ninepoint_residual(scaled) == 0
        met = metrics(sides)
        met_scaled = metrics(scaled)
        assert met_scaled.R_sq == k * k * met.R_sq
        assert met_scaled.RrA == k * k * met.RrA

    @given(rational_sides)
    def test_residual_permutation_equivariance(self, sides: SideLengths):
        a, b, c = sides.as_tuple()
        rotated = SideLengths(b, c, a)
        assert metrics(rotated).rA_sq == metrics(sides).rB_sq
        assert excircle_ninepoint_residual(rotated, "A") == 0


class TestFeuerbachReport:
    def test_3_4_5(self):
        report = feuerbach_report(SideLengths(3, 4, 5))
        assert not report.equilateral
        assert report.ok
        assert report.max_normalized_residual == 0.0
        by_circle = {entry.circle: entry.report for entry in report.entries}
        assert set(by_circle) == {"incircle", "exA", "exB", "exC"}
        assert by_circle["incircle"].kind is Tangency.INTERNAL_TANGENT
        assert by_circle["incircle"].lhs == F(1, 16)
        assert by_circle["exA"].kind is Tangency.EXTERNAL_TANGENT
        assert by_circle["exA"].lhs == F(169, 16)
        assert by_circle["exB"].lhs == F(289, 16)
        assert by_circle["exC"].lhs == F(841, 16)

    def test_equilateral_coincident(self):
        report = feuerbach_report(SideLengths(1, 1, 1))
        assert report.equilateral
        assert report.ok
        by_circle = {entry.circle: entry.report for entry in report.entries}
        assert by_circle["incircle"].kind is Tangency.COINCIDENT
        assert by_circle["incircle"].lhs == 0
        for name in ("exA", "exB", "exC"):
            assert by_circle[name].kind is Tangency.EXTERNAL_TANGENT
            assert by_circle[name].lhs == F(4, 3)

    def test_float_3_4_5(self):
        report = feuerbach_report(SideLengths(3.0, 4.0, 5.0))
        assert report.ok
        assert report.max_normalized_residual <= 1e-12

    def test_entries_order(self):
        report = feuerbach_report(SideLengths(3, 4, 5))
        assert [entry.circle for entry in report.entries] == ["incircle", "exA", "exB", "exC"]

    @given(rational_sides)
    def test_every_rational_triangle_verifies(self, sides: SideLengths):
        report = feuerbach_report(sides)
        assert report.ok
        if sides.is_equilateral:
            assert report.entries[0].report.kind is Tangency.COINCIDENT
        else:
            assert report.entries[0].report.kind is Tangency.INTERNAL_TANGENT

    @given(float_sides())
    def test_float_report_matches_per_circle_reference(self, sides: SideLengths):
        # Every field must equal, bit for bit, the classification of each
        # circle on its own: |XN|^2 against R^2/4 and r_X^2.
        tol = ToleranceProfile()
        met = metrics(sides)
        bary = center_set(sides).barycentric
        centers = {"incircle": bary["I"], "exA": bary["Ea"], "exB": bary["Eb"], "exC": bary["Ec"]}
        radii_sq = {"incircle": met.r_sq, "exA": met.rA_sq, "exB": met.rB_sq, "exC": met.rC_sq}
        vertex_dist_sq = [vertex_to_ninepoint_dist_sq(sides, v) for v in VERTICES]
        report = feuerbach_report(sides, tol)
        assert report.sides == sides
        assert report.metrics == met
        assert report.equilateral == sides.is_equilateral
        assert [entry.circle for entry in report.entries] == list(centers)
        for entry in report.entries:
            expected = classify_tangency_sq(
                barycentric_distance_sq(centers[entry.circle], *vertex_dist_sq, sides),
                met.R_sq / 4,
                radii_sq[entry.circle],
                tol,
            )
            assert entry.report == expected, entry.circle

    @pytest.mark.parametrize("sides, float_calls, exact_calls", [
        ((3.0, 4.0, 5.5), 1, 0),
        ((F(3), F(4), F(11, 2)), 0, 0),
    ])
    def test_vertex_distances_computed_once_per_float_report(
        self, monkeypatch, sides, float_calls, exact_calls
    ):
        # The float report reads the three vertex-to-N distances of one
        # call for its four circles; the exact closed forms read none.
        calls = {}
        for kernel in (_FloatTriangle, _IntegerTriangle):
            method = kernel.vertex_ninepoint_dist_sq

            def counted(self, method=method, name=kernel.__name__):
                calls[name] = calls.get(name, 0) + 1
                return method(self)

            monkeypatch.setattr(kernel, "vertex_ninepoint_dist_sq", counted)
        assert feuerbach_report(SideLengths(*sides)).ok
        assert calls.get("_FloatTriangle", 0) == float_calls
        assert calls.get("_IntegerTriangle", 0) == exact_calls

    @given(flat_float_sides(), st.sampled_from([1e-6, 1e-9, 1e-12]))
    def test_float_report_is_the_classifier_and_the_verdict(self, sides: SideLengths, rel_eps):
        # The report's kernel route makes the classifier's operations: every
        # field equal by repr, so NaN and the sign of a zero count; its kind
        # is the one the identity suite reads from the kernel's verdict.
        tol = ToleranceProfile(rel_eps=rel_eps)
        t, met = sides._kernel, metrics(sides)
        vertex_n = t.vertex_ninepoint_dist_sq()
        radii_sq = (met.r_sq, met.rA_sq, met.rB_sq, met.rC_sq)
        report = feuerbach_report(sides, tol)
        for entry, r_sq in zip(report.entries, radii_sq):
            expected = classify_tangency_sq(
                t.center_dist_sq(entry.circle, vertex_n), met.R_sq / 4, r_sq, tol
            )
            assert repr(entry.report) == repr(expected), entry.circle
            verdict = t.verdict(entry.circle, met._values(), vertex_n, tol)
            assert entry.report.kind is verdict[0], entry.circle
