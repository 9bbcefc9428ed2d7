"""Fuzz profiles, the independent Cartesian oracle, and the identity suite."""

import math
from fractions import Fraction

import pytest

from ninepoint.harness import (
    PROFILE_KINDS,
    FuzzProfile,
    cartesian_oracle,
    check_identity_suite,
    random_triangle,
)
from ninepoint.numeric import sqrt_exact
from ninepoint.triangle import Point2, SideLengths, canonical_vertices, metrics

F = Fraction


class TestFuzzProfile:
    def test_valid(self):
        profile = FuzzProfile(kind="generic", count=5, seed=3)
        assert profile.magnitude_bound == 10

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FuzzProfile(kind="acute")

    def test_count_validated(self):
        with pytest.raises(ValueError, match="count"):
            FuzzProfile(kind="generic", count=0)

    def test_bound_validated(self):
        with pytest.raises(ValueError, match="magnitude_bound"):
            FuzzProfile(kind="generic", magnitude_bound=1)

    def test_kinds_frozen(self):
        assert PROFILE_KINDS == (
            "generic",
            "isoceles",
            "near-degenerate",
            "near-equilateral",
            "right-angled",
        )


class TestGeneration:
    def test_deterministic(self):
        profile = FuzzProfile(kind="generic", count=10, seed=42)
        first = [random_triangle(profile, i) for i in range(10)]
        second = [random_triangle(profile, i) for i in range(10)]
        for (s1, v1), (s2, v2) in zip(first, second):
            assert s1.as_tuple() == s2.as_tuple()
            assert all((p.x, p.y) == (q.x, q.y) for p, q in zip(v1, v2))

    def test_seed_changes_output(self):
        a = random_triangle(FuzzProfile(kind="generic", seed=1), 0)[0]
        b = random_triangle(FuzzProfile(kind="generic", seed=2), 0)[0]
        assert a.as_tuple() != b.as_tuple()

    def test_profiles_are_independent_streams(self):
        generic = random_triangle(FuzzProfile(kind="generic", seed=5), 0)[0]
        isoceles = random_triangle(FuzzProfile(kind="isoceles", seed=5), 0)[0]
        assert generic.as_tuple() != isoceles.as_tuple()

    def test_generic_is_rational_with_exact_embedding(self):
        profile = FuzzProfile(kind="generic", seed=0)
        for i in range(25):
            sides, (va, vb, vc) = random_triangle(profile, i)
            assert sides.is_exact
            assert va.is_exact and vb.is_exact and vc.is_exact
            a, b, c = sides.as_tuple()
            assert vb.dist_sq(vc) == a * a
            assert vc.dist_sq(va) == b * b
            assert va.dist_sq(vb) == c * c

    def test_isoceles_has_equal_pair(self):
        profile = FuzzProfile(kind="isoceles", seed=0)
        for i in range(25):
            sides, vertices = random_triangle(profile, i)
            a, b, c = sides.as_tuple()
            assert a == b or b == c or c == a
            assert all(p.is_exact for p in vertices)

    def test_right_angled_satisfies_pythagoras(self):
        profile = FuzzProfile(kind="right-angled", seed=0)
        for i in range(25):
            sides, _ = random_triangle(profile, i)
            x, y, z = sorted(sides.as_tuple())
            assert x * x + y * y == z * z

    def test_near_equilateral_ratio(self):
        profile = FuzzProfile(kind="near-equilateral", seed=0)
        for i in range(25):
            sides, _ = random_triangle(profile, i)
            values = sorted(float(v) for v in sides.as_tuple())
            assert values[2] / values[0] <= 1 + 1e-3

    def test_near_degenerate_conditioning_range(self):
        profile = FuzzProfile(kind="near-degenerate", seed=0)
        conds = []
        for i in range(50):
            sides, _ = random_triangle(profile, i)
            conds.append(sides.conditioning())
        assert max(conds) <= 2e6  # capped near 1e6 with slack for rounding
        assert max(conds) > 1e4  # actually reaches the hard region
        assert min(conds) < 1e3  # and spans down to mildly flat shapes


class TestOracle:
    def test_3_4_5_centers(self):
        va, vb, vc = canonical_vertices(SideLengths(3, 4, 5))
        oracle = cartesian_oracle(va, vb, vc)
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
        for label, (x, y) in expected.items():
            pt = oracle.points[label]
            assert (pt.x, pt.y) == (x, y), label

    def test_3_4_5_nine_point_radius(self):
        va, vb, vc = canonical_vertices(SideLengths(3, 4, 5))
        oracle = cartesian_oracle(va, vb, vc)
        assert oracle.nine_point_radius_sq == F(25, 16)

    def test_distance_helpers(self):
        va, vb, vc = canonical_vertices(SideLengths(3, 4, 5))
        oracle = cartesian_oracle(va, vb, vc)
        assert oracle.distance_sq("I", "N") == F(1, 16)

    def test_collinear_rejected(self):
        with pytest.raises(ValueError, match="collinear"):
            cartesian_oracle(Point2(0, 0), Point2(1, 1), Point2(2, 2))

    def test_irrational_exact_input_degrades_to_float(self):
        # Unit right isoceles triangle: hypotenuse sqrt(2) defeats the exact
        # bisector construction, so the oracle runs on floats.
        oracle = cartesian_oracle(Point2(0, 0), Point2(1, 0), Point2(0, 1))
        assert not oracle.points["I"].is_exact
        expected = 1 - math.sqrt(2) / 2  # classic incenter offset
        assert float(oracle.points["I"].x) == pytest.approx(expected)

    def test_oracle_matches_metrics_radii(self):
        sides = SideLengths(F(13), F(14), F(15))
        oracle = cartesian_oracle(*canonical_vertices(sides))
        met = metrics(sides)
        assert oracle.distance_sq("O", "A") == met.R_sq
        assert oracle.nine_point_radius_sq == met.R_sq / 4


class TestIdentitySuite:
    def test_3_4_5_all_exact(self):
        sides = SideLengths(3, 4, 5)
        report = check_identity_suite(sides, canonical_vertices(sides))
        assert report.passed
        assert report.exact
        assert report.max_residual == 0.0
        assert report.failures() == ()
        assert len(report.checks) > 60

    def test_float_3_4_5(self):
        sides = SideLengths(3.0, 4.0, 5.0)
        vertices = tuple(p.as_float() for p in canonical_vertices(SideLengths(3, 4, 5)))
        report = check_identity_suite(sides, vertices)
        assert report.passed
        assert not report.exact
        assert report.max_residual <= 1e-12

    def test_check_names_are_unique(self):
        sides = SideLengths(3, 4, 5)
        report = check_identity_suite(sides, canonical_vertices(sides))
        names = [check.name for check in report.checks]
        assert len(names) == len(set(names))

    def test_embedding_mismatch_raises(self):
        sides = SideLengths(3, 4, 5)
        wrong = (Point2(0, 5), Point2(3, 0), Point2(0, 0))
        with pytest.raises(ValueError, match="embedding"):
            check_identity_suite(sides, wrong)

    def test_equilateral_passes_with_coincident_flag(self):
        sides = SideLengths(1, 1, 1)
        report = check_identity_suite(sides, canonical_vertices(sides))
        assert report.passed
        by_name = {check.name: check for check in report.checks}
        assert by_name["tangency_kind_incircle"].detail == "coincident"

    @pytest.mark.parametrize("kind", ["generic", "isoceles", "right-angled"])
    def test_rational_profiles_run_exact(self, kind: str):
        profile = FuzzProfile(kind=kind, seed=1)
        for i in range(10):
            sides, vertices = random_triangle(profile, i)
            report = check_identity_suite(sides, vertices)
            assert report.passed, report.failures()
            assert report.exact
            assert report.max_residual == 0.0

    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_all_profiles_pass_on_floats(self, kind: str):
        profile = FuzzProfile(kind=kind, seed=2)
        for i in range(10):
            sides, vertices = random_triangle(profile, i)
            report = check_identity_suite(
                sides.as_float(), tuple(p.as_float() for p in vertices)
            )
            assert report.passed, (kind, i, report.failures())
