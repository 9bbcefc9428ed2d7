"""Fuzz profiles, the independent Cartesian oracle, and the identity suite."""

import abc
import fractions
import math
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ninepoint import cli, harness, homogeneous, numeric
from ninepoint.centers import CENTER_WEIGHTS, VERTICES, CenterSet, center_set
from ninepoint.feuerbach import (
    FeuerbachEntry,
    FeuerbachReport,
    TangencyReport,
    excircle_ninepoint_residual,
    feuerbach_report,
    incircle_ninepoint_residual,
)
from ninepoint.harness import (
    PROFILE_KINDS,
    FuzzProfile,
    IdentityCheck,
    _float_sides,
    _integer_sides,
    cartesian_oracle,
    check_identity_suite,
    random_sides,
    random_triangle,
)
from ninepoint.triangle import (
    Barycentric,
    FloatPlane,
    InvalidTriangleError,
    Point2,
    SideLengths,
    _canonical_frame,
    _checked_integer_form,
    _FloatTriangle,
    _integer_triangle,
    _IntegerTriangle,
    canonical_vertices,
    exact_vertices,
    metrics,
)

from point2_reference import as_float, float_sides
from test_triangle import FRACTION_ARITHMETIC, count_fraction_calls

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


class TestIntegerGeneration:
    """Each generator gives the integer form (a, b, c, L) straight, and
    exact ``fuzz`` hands it to the identity suite as it is."""

    PROFILES = [
        FuzzProfile(kind=kind, seed=seed, magnitude_bound=bound)
        for kind in PROFILE_KINDS
        for seed, bound in ((0, 10), (1, 10), (2, 10), (3, 10), (0, 10**80))
    ]

    def test_integer_form_is_that_of_the_sides(self):
        # Every profile, seeds 0-3 at the default bound and seed 0 at
        # --bound 10**80: the form over the smallest L, as SideLengths
        # builds it from the reduced Fractions.
        for profile in self.PROFILES:
            count = 500 if profile.magnitude_bound == 10 else 50
            for index in range(count):
                t = _integer_sides(profile, index)
                assert t == random_sides(profile, index)._kernel, (profile, index)

    @pytest.mark.parametrize("faulty", [False, True], ids=["kernel", "faulty_eb"])
    def test_exact_fuzz_suite_rows_are_those_of_the_sides(self, monkeypatch, faulty):
        # The suite keyed on the generated kernel gives the rows of the
        # suite on random_sides, also with the fingerprint's injected fault
        # (Eb weighted as Ec).  The kernels are equal (above), so a subset
        # of the indices suffices here.
        if faulty:
            monkeypatch.setitem(CENTER_WEIGHTS, "Eb", CENTER_WEIGHTS["Ec"])
        for profile in self.PROFILES:
            for index in range(20 if profile.magnitude_bound == 10 else 5):
                direct = check_identity_suite(_integer_sides(profile, index), None)
                via_sides = check_identity_suite(random_sides(profile, index), None)
                assert direct._rows == via_sides._rows, (profile, index)
                assert direct.passed is not faulty, (profile, index)

    def test_float_suite_keyed_on_the_float_kernel(self):
        # The float kernel's half-sums give SideLengths.conditioning() bit
        # for bit, so the suite keyed on the kernel gives the same rows.
        for kind in PROFILE_KINDS:
            for index in range(20):
                sides, vertices = random_triangle(FuzzProfile(kind=kind, seed=2), index)
                sides = float_sides(sides)
                vertices = tuple(as_float(p) for p in vertices)
                direct = check_identity_suite(sides._kernel, vertices)
                assert direct._rows == check_identity_suite(sides, vertices)._rows, kind

    def test_float_sides_are_the_exact_triangle_as_floats(self):
        # Float fuzz builds its sides and embedding, as float pairs, from the
        # generator's integer form.  Bit for bit (signed zeros included), and
        # error for error, they are the exact triangle's taken to floats:
        # every profile at seeds 0-2, and at seed 0 with --bound 10**80.
        def outcome(build):
            try:
                sides, pairs = build()
            except (OverflowError, ValueError) as exc:
                return type(exc), str(exc)
            assert all(type(p) is tuple and len(p) == 2 for p in pairs)
            return [v.hex() for v in sides.as_tuple()] + [x.hex() for p in pairs for x in p]

        def lifted(sides):
            floats, vertices = float_sides(sides), canonical_vertices(sides)
            return floats, FloatPlane.lift(vertices)

        for profile in self.PROFILES:
            if profile.seed == 3:
                continue
            for index in range(300 if profile.magnitude_bound == 10 else 50):
                sides = random_sides(profile, index)
                t = _integer_sides(profile, index)
                old = outcome(lambda: lifted(sides))
                assert outcome(lambda: _float_sides(t)) == old, (profile, index)

    def test_near_degenerate_retries_as_side_lengths_refuses(self):
        # The generator's check is SideLengths' own: the triples it skips
        # are those SideLengths refuses, with SideLengths' texts.
        with pytest.raises(InvalidTriangleError, match=r"^not a triangle: b \+ c < a$"):
            SideLengths(F(9), F(1), F(8) - F(1, 10**6))
        with pytest.raises(InvalidTriangleError, match=r"^not a triangle: b \+ c < a$"):
            _checked_integer_form(_integer_triangle(9 * 10**6, 10**6, 8 * 10**6 - 1, 10**6))


CARTESIAN = homogeneous.Plane()


def _oracle_on_exact(vertices):
    """The oracle on exact vertices, lifted onto the integer plane here as
    the identity suite lifts them."""
    return cartesian_oracle(CARTESIAN, *CARTESIAN.lift(vertices))


def _frame_points(oracle):
    return {label: CARTESIAN.as_point2(p) for label, p in oracle.frame.items()}


class TestOracle:
    def test_3_4_5_centers(self):
        pts = _frame_points(_oracle_on_exact(canonical_vertices(SideLengths(3, 4, 5))))
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
            pt = pts[label]
            assert (pt.x, pt.y) == (x, y), label

    def test_3_4_5_nine_point_radius(self):
        oracle = _oracle_on_exact(canonical_vertices(SideLengths(3, 4, 5)))
        assert F(*oracle.frame_radius_sq) == F(25, 16)

    def test_distance_helpers(self):
        pts = _frame_points(_oracle_on_exact(canonical_vertices(SideLengths(3, 4, 5))))
        assert pts["I"].dist_sq(pts["N"]) == F(1, 16)

    @pytest.mark.parametrize("plane", [CARTESIAN, FloatPlane], ids=["exact", "float"])
    def test_collinear_rejected(self, plane):
        collinear = plane.lift((Point2(0, 0), Point2(1, 1), Point2(2, 2)))
        with pytest.raises(ValueError, match="collinear"):
            cartesian_oracle(plane, *collinear)

    def test_oracle_matches_metrics_radii(self):
        sides = SideLengths(F(13), F(14), F(15))
        oracle = _oracle_on_exact(canonical_vertices(sides))
        pts = _frame_points(oracle)
        met = metrics(sides)
        assert pts["O"].dist_sq(pts["A"]) == met.R_sq
        assert F(*oracle.frame_radius_sq) == met.R_sq / 4


def _side(p, u, v):
    """Twice the signed area of (u, v, p), on plain Fractions."""
    return (v.x - u.x) * (p.y - u.y) - (v.y - u.y) * (p.x - u.x)


def _dist_sq(p, q):
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def _line_dist_sq(p, u, v):
    return _side(p, u, v) ** 2 / _dist_sq(u, v)


def _midpoint(p, q):
    return Point2((p.x + q.x) / 2, (p.y + q.y) / 2)


class TestExactOracleDefinitions:
    """Each exact oracle point satisfies its defining property, recomputed
    here with Fraction arithmetic on the coordinates."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["generic", "isoceles", "right-angled"]),
        seed=st.integers(0, 10**6),
        index=st.integers(0, 50),
    )
    def test_points_satisfy_their_definitions(self, kind, seed, index):
        _, vertices = random_triangle(FuzzProfile(kind=kind, seed=seed), index)
        oracle = _oracle_on_exact(vertices)
        pts = _frame_points(oracle)
        assert all(isinstance(v, Fraction) for p in pts.values() for v in (p.x, p.y))
        A, B, C, O, G, H, N = (pts[k] for k in ("A", "B", "C", "O", "G", "H", "N"))
        assert (A, B, C) == vertices
        # O is equidistant from the vertices, N from the side midpoints.
        assert _dist_sq(O, A) == _dist_sq(O, B) == _dist_sq(O, C)
        mids = (_midpoint(B, C), _midpoint(C, A), _midpoint(A, B))
        assert _dist_sq(N, mids[0]) == _dist_sq(N, mids[1]) == _dist_sq(N, mids[2])
        assert F(*oracle.frame_radius_sq) == _dist_sq(N, mids[0])
        # G lies on two medians, H on two altitudes.
        assert _side(G, A, mids[0]) == 0 and _side(G, B, mids[1]) == 0
        assert (H.x - A.x) * (B.x - C.x) + (H.y - A.y) * (B.y - C.y) == 0
        assert (H.x - B.x) * (C.x - A.x) + (H.y - B.y) * (C.y - A.y) == 0
        # I and each excenter are equally far from the three side lines, on
        # the vertices' side of each line except the excenter's own side.
        sides = ((B, C, A), (C, A, B), (A, B, C))
        for label, flipped in (("I", None), ("Ea", 0), ("Eb", 1), ("Ec", 2)):
            p = pts[label]
            assert _line_dist_sq(p, B, C) == _line_dist_sq(p, C, A) == _line_dist_sq(p, A, B)
            for k, (u, v, opposite) in enumerate(sides):
                same_side = (_side(p, u, v) > 0) == (_side(opposite, u, v) > 0)
                assert same_side == (k != flipped), (label, k)


class TestSuiteFindsKernelFaults:
    def test_wrong_excenter_weights_fail_only_their_checks(self, monkeypatch):
        # Eb built with the weights of Ec.  Their sum is still d, so the
        # barycentric form stays valid and only the point is wrong.  The
        # tangency kernel takes the circle's radius from the same weights,
        # so it checks Ec's tangency instead and stays green: the center
        # agreement is what catches this fault.
        monkeypatch.setitem(CENTER_WEIGHTS, "Eb", CENTER_WEIGHTS["Ec"])
        sides, _ = random_triangle(FuzzProfile(kind="generic", seed=1), 0)
        report = check_identity_suite(sides, None)
        assert report.exact and not report.passed
        assert {check.name for check in report.failures()} == {
            "center_agreement_Eb_x",
            "center_agreement_Eb_y",
        }
        worst = max(check.residual for check in report.failures())
        assert report.max_residual == worst > 0

    @pytest.mark.parametrize("seed", [1, 3])
    def test_a_fault_reads_alike_on_both_backends(self, monkeypatch, seed):
        # O built with the weights of H, on the exact frame and on floats.
        # A failed exact check is normalized as a float one is, by
        # max(1, |scale|, |lhs|, |rhs|), so one fault reads the same size.
        monkeypatch.setitem(CENTER_WEIGHTS, "O", CENTER_WEIGHTS["H"])
        sides, vertices = random_triangle(FuzzProfile(kind="near-degenerate", seed=seed), 0)
        exact = check_identity_suite(sides, None)
        floats = check_identity_suite(float_sides(sides), vertices)
        assert exact.exact and not floats.exact
        exact_residual = {check.name: check.residual for check in exact.failures()}
        float_residual = {check.name: check.residual for check in floats.failures()}
        assert set(exact_residual) == set(float_residual) == {
            "center_agreement_O_x",
            "center_agreement_O_y",
        }
        for name, residual in exact_residual.items():
            assert residual == pytest.approx(float_residual[name], rel=1e-6), name

    @pytest.mark.parametrize(
        "kind, on_floats",
        [("generic", False), ("generic", True), ("near-degenerate", False)],
        ids=["exact", "float", "exact_irrational_frame"],
    )
    def test_wrong_circumcenter_weights_fail_only_its_checks(self, monkeypatch, kind, on_floats):
        # O built with the weights of H.  The oracle solves for O on its
        # own, so only the circumcenter's agreement fails; the kernel's H
        # and N do not go through O.  The near-degenerate triangle's
        # altitude is irrational, so its exact suite runs on a frame with
        # metric x^2 + m*t^2, m != 1.
        monkeypatch.setitem(CENTER_WEIGHTS, "O", CENTER_WEIGHTS["H"])
        sides, vertices = random_triangle(FuzzProfile(kind=kind, seed=1), 0)
        assert (exact_vertices(sides) is None) == (kind == "near-degenerate")
        if on_floats:
            report = check_identity_suite(float_sides(sides), tuple(as_float(p) for p in vertices))
        else:
            report = check_identity_suite(sides, None)
        assert report.exact is not on_floats and not report.passed
        assert {check.name for check in report.failures()} == {
            "center_agreement_O_x",
            "center_agreement_O_y",
        }
        # Both gaps are a sizable part of R.  On the metric frame the y gap
        # is the t gap times sqrt(m); read in t, it would be about 1e-6.
        assert all(check.residual > 0.1 for check in report.failures())

    def test_circumcenter_agreement_compares_two_computations(self):
        # The kernel weighs the vertices by O's closed form and the oracle
        # solves the normal equations, so on floats they round apart.
        sides, vertices = random_triangle(FuzzProfile(kind="near-degenerate", seed=3), 0)
        report = check_identity_suite(float_sides(sides), tuple(as_float(p) for p in vertices))
        residual = {check.name: check.residual for check in report.checks}
        assert report.passed
        assert residual["center_agreement_O_x"] > 0 and residual["center_agreement_O_y"] > 0


class TestExactSuitePath:
    def test_no_square_roots_and_few_points(self, monkeypatch):
        roots = []
        original_sqrt = numeric.sqrt_exact

        def counting_sqrt(value):
            roots.append(value)
            return original_sqrt(value)

        for name, module in list(sys.modules.items()):
            if name.startswith("ninepoint") and getattr(module, "sqrt_exact", None) is original_sqrt:
                monkeypatch.setattr(module, "sqrt_exact", counting_sqrt)
        built = [0]
        original_init = Point2.__init__

        def counting_init(self, x, y):
            built[0] += 1
            original_init(self, x, y)

        profile = FuzzProfile(kind="generic", seed=4)
        triangles = [random_triangle(profile, i) for i in range(20)]
        monkeypatch.setattr(Point2, "__init__", counting_init)
        for sides, _ in triangles:
            built[0] = 0
            report = check_identity_suite(sides, None)
            assert report.passed and report.exact
            assert built[0] <= 25
        assert roots == []

    def test_no_float_of_a_fraction(self, monkeypatch):
        # A passing exact suite converts nothing to a float: not the
        # conditioning, not the scales of its residuals.
        profile = FuzzProfile(kind="generic", seed=4)
        triangles = [random_triangle(profile, i) for i in range(20)]
        converted = [0]
        original_float = Fraction.__float__

        def counting_float(self):
            converted[0] += 1
            return original_float(self)

        monkeypatch.setattr(Fraction, "__float__", counting_float)
        for sides, _ in triangles:
            report = check_identity_suite(sides, None)
            assert report.passed and report.exact
        assert converted[0] == 0

    @pytest.mark.parametrize("kind", ["generic", "near-degenerate", "near-equilateral"])
    def test_no_call_into_fractions(self, kind):
        # The suite reads the integer kernel's ratios, so a passing exact
        # triangle calls no code of the fractions module: no Fraction is
        # built, reduced, compared or taken apart.  A profile hook sees every
        # such call, also the Fractions that Python 3.12+ arithmetic builds
        # without Fraction.__new__.  The near-degenerate and
        # near-equilateral triangles include frames with metric m != 1.
        triangles = [random_sides(FuzzProfile(kind=kind, seed=4), i) for i in range(10)]
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals is fractions.__dict__:
                calls.append(frame.f_code.co_name)

        for sides in triangles:
            sys.setprofile(profile)
            try:
                report = check_identity_suite(sides, None)
            finally:
                sys.setprofile(None)
            assert report.passed and report.exact
        assert calls == []
        frame_metrics = [_canonical_frame(sides._kernel)[0] for sides in triangles]
        assert kind == "generic" or any(m != 1 for m in frame_metrics)

    @pytest.mark.parametrize("kind", ["generic", "near-degenerate", "near-equilateral"])
    def test_exact_fuzz_request_makes_no_call_into_fractions(self, kind, capsys):
        # A whole exact fuzz request: the generator gives the integer form
        # straight and the suite reads it, so no Fraction is built to be
        # taken apart again.
        argv = ["fuzz", "--profile", kind, "--backend", "exact", "--count", "10", "--seed", "4"]
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals is fractions.__dict__:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
        assert code == 0 and "10/10 exact-zero" in capsys.readouterr().out
        assert calls == []

    def test_tangency_numerators_once_per_circle(self, monkeypatch):
        # Each circle's kind and residual come from one numerator triple:
        # four circles, then the doubled triangle's incircle and the
        # rotated triangle's excircle opposite A.
        calls = [0]
        original = _IntegerTriangle.tangency_numerators

        def counting(t, circle):
            calls[0] += 1
            return original(t, circle)

        monkeypatch.setattr(_IntegerTriangle, "tangency_numerators", counting)
        for kind in PROFILE_KINDS:
            for index in range(4):
                calls[0] = 0
                report = check_identity_suite(_integer_sides(FuzzProfile(kind=kind), index), None)
                assert report.passed and calls[0] == 6, (kind, index)


class TestFloatTypeDispatch:
    """Float scalars are classified by concrete type.  ``isinstance(x,
    Fraction)`` on a float runs ``ABCMeta.__instancecheck__`` in Python, so
    these count those calls."""

    @pytest.fixture
    def abc_checks(self, monkeypatch):
        """``abc_checks(fn)`` calls ``fn`` and gives its result and the number
        of ABC instance checks made during the call."""
        calls = [0]
        original = abc.ABCMeta.__instancecheck__

        def counting(cls, instance):
            calls[0] += 1
            return original(cls, instance)

        def run(fn):
            calls[0] = 0
            result = fn()
            return result, calls[0]

        monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", counting)
        return run

    @pytest.mark.parametrize(
        "build",
        [
            lambda: numeric.coerce_scalar(1.5),
            lambda: numeric.is_exact(1.5),
            lambda: Point2(1.0, 2.0),
            lambda: Barycentric(0.25, 0.25, 0.5),
        ],
        ids=["coerce_scalar", "is_exact", "Point2", "Barycentric"],
    )
    def test_float_scalars_need_no_abc_check(self, abc_checks, build):
        _, calls = abc_checks(build)
        assert calls == 0

    def test_float_suite_abc_checks(self, abc_checks, monkeypatch):
        # The centroid's Fraction(1, 3) weights and their products become
        # floats by integer division before they meet the float distances in
        # barycentric_distance_sq, so no Fraction meets a float, and a float
        # suite makes no Fraction arithmetic at all.
        fraction_calls = count_fraction_calls(monkeypatch, FRACTION_ARITHMETIC)
        for seed in (3, 8, 11):
            sides, vertices = random_triangle(FuzzProfile(kind="near-degenerate", seed=seed), 0)
            sides = float_sides(sides)
            vertices = tuple(as_float(p) for p in vertices)
            fraction_calls.clear()
            report, calls = abc_checks(lambda: check_identity_suite(sides, vertices))
            assert report.passed and not report.exact
            assert calls == 0
            assert dict(fraction_calls) == {}


class TestFloatSuiteConstructions:
    """The float suite runs on bare float pairs and reads the float
    kernel's bare floats, not the public records."""

    RECORDS = (
        Point2, Barycentric, SideLengths, TangencyReport, FeuerbachEntry, FeuerbachReport, CenterSet
    )

    @pytest.fixture
    def constructions(self, monkeypatch):
        """Counts of the constructions of each record class."""
        counts = dict.fromkeys(self.RECORDS, 0)
        for cls in counts:
            original = cls.__init__

            def counting(self, *args, cls=cls, original=original, **kwargs):
                counts[cls] += 1
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    @pytest.mark.parametrize("seed", [3, 8])
    def test_near_degenerate_suite(self, constructions, seed):
        # A passing float triangle of every profile, the near-degenerate
        # one included.  No Point2: the given vertices are lifted to pairs
        # once.  No Barycentric: FloatPlane.barycentric runs the
        # constructor's sum check on its bare floats.  The doubled and
        # rotated triangles are float kernels, not SideLengths, and the
        # kinds and residuals come from the kernel's floats, with no
        # TangencyReport, FeuerbachEntry, FeuerbachReport or CenterSet.
        for kind in PROFILE_KINDS:
            sides, vertices = random_triangle(FuzzProfile(kind=kind, seed=seed), 0)
            sides = float_sides(sides)
            vertices = tuple(as_float(p) for p in vertices)
            for cls in constructions:
                constructions[cls] = 0
            report = check_identity_suite(sides, vertices)
            assert report.passed and not report.exact, kind
            assert constructions == dict.fromkeys(self.RECORDS, 0), kind

    def test_each_center_built_once_per_sides(self, constructions):
        # center_set, feuerbach_report and the four residuals all read the
        # same four centers of one SideLengths; G is built once, on import.
        sides, vertices = random_triangle(FuzzProfile(kind="near-degenerate", seed=3), 0)
        sides = float_sides(sides)
        vertices = tuple(as_float(p) for p in vertices)
        constructions[Barycentric] = 0
        center_set(sides, vertices)
        feuerbach_report(sides)
        incircle_ninepoint_residual(sides)
        for vertex in VERTICES:
            excircle_ninepoint_residual(sides, vertex)
        assert constructions[Barycentric] == 4


class TestIdentitySuite:
    def test_3_4_5_all_exact(self):
        report = check_identity_suite(SideLengths(3, 4, 5), None)
        assert report.passed
        assert report.exact
        assert report.max_residual == 0.0
        assert report.failures() == ()
        assert len(report.checks) > 60

    def test_float_3_4_5(self):
        sides = SideLengths(3.0, 4.0, 5.0)
        vertices = tuple(as_float(p) for p in canonical_vertices(SideLengths(3, 4, 5)))
        report = check_identity_suite(sides, vertices)
        assert report.passed
        assert not report.exact
        assert report.max_residual <= 1e-12

    @pytest.mark.parametrize(
        "kind, backend", [("generic", "exact"), ("near-degenerate", "float")]
    )
    def test_checks_are_plain_rows_until_read(self, monkeypatch, kind, backend):
        # The suite records each check as a plain tuple, and the report makes
        # the IdentityChecks only when its checks are read, without calling
        # IdentityCheck.__new__.
        calls = [0]
        original = IdentityCheck.__new__

        def counting(cls, *args, **kwargs):
            calls[0] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(IdentityCheck, "__new__", staticmethod(counting))
        sides, vertices = random_triangle(FuzzProfile(kind=kind, seed=3), 0)
        if backend == "float":
            report = check_identity_suite(float_sides(sides), tuple(as_float(p) for p in vertices))
        else:
            report = check_identity_suite(sides, None)
        assert report.passed and calls == [0]
        assert len(report.checks) == 87
        assert all(type(check) is IdentityCheck for check in report.checks)
        assert calls == [0]

    @pytest.mark.parametrize(
        "backend, kind", [("exact", "generic"), ("float", "near-degenerate")]
    )
    def test_rows_are_checked_without_a_call_per_row(self, capsys, backend, kind):
        # The suite's rows are data that one loop per backend checks: its
        # own functions (those nested in check_identity_suite, comprehensions
        # aside, and _exact_residual) take a handful of calls per triangle,
        # not one per row.  Code objects, as Python 3.10 has no qualified
        # names.
        row_code, nested = {harness._exact_residual.__code__}, [check_identity_suite.__code__]
        while nested:
            for const in nested.pop().co_consts:
                if isinstance(const, types.CodeType):
                    nested.append(const)
                    if not const.co_name.startswith("<"):
                        row_code.add(const)
        calls = [0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in row_code:
                calls[0] += 1

        argv = ["fuzz", "--profile", kind, "--backend", backend, "--count", "20", "--seed", "1"]
        sys.setprofile(profile)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
        assert code == 0 and "20/20" in capsys.readouterr().out
        assert calls[0] / 20 < 10

    # A float check's verdict and residual on special operands: (x, y, w)
    # go into the four rows that read the scaled and rotated triangles, as
    # (x, 4R^2, 4R^2), (y, 0.0, x/4), (w, r_B^2, R^2) and (y, 0.0, R^2/4) of
    # the 3-4-5 triangle (lhs, rhs, scale), with each row's passed flag and
    # float.hex residual as the abs/max form computes them.  A NaN never
    # becomes the floor max(1, |scale|, |lhs|, |rhs|), an infinite or NaN
    # gap fails with an infinite residual (not the NaN of inf/inf, which
    # max_residual would drop), and a -0.0 gap gives a +0.0 residual.
    ROW_CHECK_CASES = [
        ((0.0, -math.inf, -0.25),
         [(False, "0x1.0000000000000p+0"), (False, "inf"),
          (False, "0x1.071c71c71c71cp+0"), (False, "inf")]),
        ((-0.0, math.nan, 7.5),
         [(False, "0x1.0000000000000p+0"), (False, "inf"),
          (False, "0x1.5555555555555p-3"), (False, "inf")]),
        ((math.inf, 0.25, -7.5),
         [(False, "inf"), (True, "0x0.0p+0"),
          (False, "0x1.d555555555555p+0"), (False, "0x1.47ae147ae147bp-3")]),
        ((-math.inf, -0.25, 1e300),
         [(False, "inf"), (True, "0x0.0p+0"),
          (False, "0x1.0000000000000p+0"), (False, "0x1.47ae147ae147bp-3")]),
        ((math.nan, 7.5, 0.0),
         [(False, "inf"), (False, "0x1.0000000000000p+0"),
          (False, "0x1.0000000000000p+0"), (False, "0x1.0000000000000p+0")]),
        ((0.25, -7.5, -0.0),
         [(False, "0x1.fae147ae147aep-1"), (False, "0x1.0000000000000p+0"),
          (False, "0x1.0000000000000p+0"), (False, "0x1.0000000000000p+0")]),
        ((-0.25, 1e300, math.inf),
         [(False, "0x1.028f5c28f5c29p+0"), (False, "0x1.0000000000000p+0"),
          (False, "inf"), (False, "0x1.0000000000000p+0")]),
        ((7.5, 0.0, -math.inf),
         [(False, "0x1.6666666666666p-1"), (True, "0x0.0p+0"),
          (False, "inf"), (True, "0x0.0p+0")]),
        ((-7.5, -0.0, math.nan),
         [(False, "0x1.4cccccccccccdp+0"), (True, "0x0.0p+0"),
          (False, "inf"), (True, "0x0.0p+0")]),
        ((1e300, math.inf, 0.25),
         [(False, "0x1.0000000000000p+0"), (False, "inf"),
          (False, "0x1.f1c71c71c71c7p-1"), (False, "inf")]),
    ]

    @pytest.mark.parametrize("operands, expected", ROW_CHECK_CASES)
    def test_float_row_check_on_special_operands(self, monkeypatch, operands, expected):
        x, y, w = operands

        class Injected:
            def metrics(self):
                return (0.0, 0.0, x, 0.0, w)

            def residual(self, circle):
                return y

        monkeypatch.setattr(_FloatTriangle, "with_sides", lambda self, a, b, c: Injected())
        sides = SideLengths(3.0, 4.0, 5.0)
        report = check_identity_suite(sides, canonical_vertices(sides))
        rows = {check.name: check for check in report.checks}
        names = ("scale_covariance_R_sq", "scale_covariance_residual",
                 "permutation_exradius", "permutation_residual")
        assert [(rows[n].passed, rows[n].residual.hex()) for n in names] == expected
        # A failed row's infinite residual reaches the report's maximum.
        assert (report.max_residual == math.inf) is any(r == "inf" for _, r in expected)

    def test_identity_check_is_an_immutable_record(self):
        check = IdentityCheck("x", True, 0.0)
        assert check.detail == ""
        assert repr(check) == "IdentityCheck(name='x', passed=True, residual=0.0, detail='')"
        with pytest.raises(AttributeError):
            check.passed = False  # type: ignore[misc]

    def test_check_names_are_unique(self):
        report = check_identity_suite(SideLengths(3, 4, 5), None)
        names = [check.name for check in report.checks]
        assert len(names) == len(set(names))

    def test_embedding_mismatch_raises(self):
        # Float sides need vertices that reproduce them.
        wrong = (Point2(0.0, 5.0), Point2(3.0, 0.0), Point2(0.0, 0.0))
        with pytest.raises(ValueError, match="embedding does not match the side lengths"):
            check_identity_suite(SideLengths(3.0, 4.0, 5.0), wrong)

    def test_float_sides_need_an_embedding(self):
        with pytest.raises(ValueError, match="float sides need an embedding"):
            check_identity_suite(SideLengths(3.0, 4.0, 5.0), None)

    def test_exact_sides_take_no_embedding(self):
        # Exact sides run on their own frame, so any embedding is refused,
        # a right one too.
        sides = SideLengths(3, 4, 5)
        right = canonical_vertices(sides)
        for vertices in (right, tuple(as_float(p) for p in right)):
            with pytest.raises(ValueError, match="pass no embedding"):
                check_identity_suite(sides, vertices)

    def test_equilateral_passes_with_coincident_flag(self):
        report = check_identity_suite(SideLengths(1, 1, 1), None)
        assert report.passed
        by_name = {check.name: check for check in report.checks}
        assert by_name["tangency_kind_incircle"].detail == "coincident"

    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_rational_profiles_run_exact(self, kind: str):
        profile = FuzzProfile(kind=kind, seed=1)
        for i in range(10):
            sides, _ = random_triangle(profile, i)
            report = check_identity_suite(sides, None)
            assert report.passed, report.failures()
            assert report.exact
            assert report.max_residual == 0.0

    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_all_profiles_pass_on_floats(self, kind: str):
        profile = FuzzProfile(kind=kind, seed=2)
        for i in range(10):
            sides, vertices = random_triangle(profile, i)
            report = check_identity_suite(
                float_sides(sides), tuple(as_float(p) for p in vertices)
            )
            assert report.passed, (kind, i, report.failures())
