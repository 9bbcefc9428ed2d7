"""The float kernel ``triangle._FloatTriangle`` against the integer kernel.

Both kernels answer the identity suite under the same method names and
argument order, so the suite calls them without asking which it holds.
A float is a dyadic rational, so ``Fraction(float)`` sides are the float
triangle itself, exactly, and the integer kernel of those sides (the
exact shadow) gives the true value of every quantity that the float
kernel rounds.  The differential test holds each float value within
k * eps * cond of its shadow, normalized as the suite normalizes that
quantity's row: |float - true| / max(1, |scale|, |float|, |true|).  The
largest ratio of each quantity was measured over 200,000 float triangles
(the five profiles, seeds 0-39, indices 0-999; Python 3.11.7), which

    PYTHONPATH=src:tests python tests/test_float_kernel.py

prints per profile, and each k is that ratio times at most 2.
"""

import ast
import inspect
import sys
import textwrap
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ninepoint import centers, feuerbach, harness, svg, triangle
from ninepoint.harness import PROFILE_KINDS, FuzzProfile, random_sides
from ninepoint.triangle import CENTER_WEIGHTS, SideLengths, _FloatTriangle, _IntegerTriangle

from point2_reference import float_sides

EPS = sys.float_info.epsilon
KERNEL_NAMES = ("kernel", "t", "scaled", "rotated")
METRIC_FIELDS = ("s", "K_sq", "R_sq", "r_sq", "rA_sq", "rB_sq", "rC_sq", "Rr", "RrA", "RrB", "RrC")

# Measured maxima of the normalized error over eps * cond, per quantity
# (see the module docstring), and the bound k each is held to.
MEASURED = {
    "metrics": 1.7503,
    "vertex_ninepoint_dist_sq": 0.7905,
    "circumdot": 1.6471,
    "side_point": 0.1215,
    "distance_sq": 1.3581,
}
BOUND = {
    "metrics": 3.5,
    "vertex_ninepoint_dist_sq": 1.58,
    "circumdot": 3.29,
    "side_point": 0.24,
    "distance_sq": 2.71,
}
# The kernel's other shared names: what the four circles share, each
# circle's verdict and residual, and the vocabulary of the public functions
# (a result's public value and its float, a weight over its sum, the kernel
# of other sides).
SHARED = {
    "circle_terms", "verdict", "tangency", "residual",
    "value", "values", "as_float", "ratio", "with_sides",
}


def _kernel_calls(*functions):
    """Methods called on a kernel (a name of KERNEL_NAMES) in the functions'
    source."""
    names = set()
    for function in functions:
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if isinstance(owner, ast.Name) and owner.id in KERNEL_NAMES:
                    names.add(node.func.attr)
    return names


def test_both_kernels_define_every_method_the_suite_calls():
    # The suite and every public function that reads the sides' kernel
    # without asking which one it is.
    names = _kernel_calls(
        harness.check_identity_suite,
        SideLengths._metrics.func,
        centers.vertex_to_ninepoint_dist_sq,
        centers.bisector_foot_barycentric,
        feuerbach._ninepoint_residual,
        feuerbach.feuerbach_report,
        svg._drawing,
    )
    assert names == set(MEASURED) | SHARED
    for name in names:
        exact, floating = getattr(_IntegerTriangle, name), getattr(_FloatTriangle, name)
        assert callable(exact) and callable(floating), name
        if inspect.isfunction(floating):
            # The same argument order, under the same names.
            assert list(inspect.signature(exact).parameters) == list(
                inspect.signature(floating).parameters
            ), name
    # The builtins of the vocabulary, checked on values: a public value is
    # one Fraction or the float itself, its float one true division (no
    # gcd) or the float itself, a weight over its sum one Fraction or one
    # true division, and a zero component the shared exact zero or 0.0.
    ratios, floats = ((3, 4), (-1, 8)), (0.75, -0.125)
    assert list(map(type, _IntegerTriangle.values(ratios))) == [Fraction, Fraction]
    assert _IntegerTriangle.values(ratios) == floats == _FloatTriangle.values(floats)
    assert _FloatTriangle.values(floats) is floats and _FloatTriangle.value(0.75) == 0.75
    huge = (3 * 10**400 + 1, 9 * 10**400)  # unreduced, each term beyond the float range
    assert _IntegerTriangle.as_float(huge) == float(Fraction(*huge)) == 1 / 3
    assert _IntegerTriangle.as_float((-1, 8)) == -0.125 and _FloatTriangle.as_float(0.75) == 0.75
    exact, floating = _IntegerTriangle.ratio(3, 4), _FloatTriangle.ratio(3, 4)
    assert type(exact) is Fraction and exact == Fraction(3, 4)
    assert type(floating) is float and floating == 0.75
    assert _IntegerTriangle.zero is triangle._ZERO and _FloatTriangle.zero == 0.0


def _normalized(value: float, true: Fraction, scale: Fraction) -> float:
    """|value - true| / max(1, |scale|, |value|, |true|), as a failed row
    of the float suite is normalized."""
    gap = abs(Fraction(value) - true)
    return float(gap / max(1, abs(scale), abs(Fraction(value)), abs(true)))


def ratio(pair) -> Fraction:
    return Fraction(*pair)


def shadow_errors(sides: SideLengths):
    """Per quantity, the largest normalized error of the float kernel of
    float sides against their exact shadow, over eps * cond."""
    t = sides._kernel
    shadow = SideLengths(*map(Fraction, sides.as_tuple()))._kernel
    true_metrics = [ratio(pair) for pair in shadow.metrics()]
    R_sq = true_metrics[METRIC_FIELDS.index("R_sq")]
    errors = {}
    errors["metrics"] = max(
        _normalized(value, true, true) for value, true in zip(t.metrics(), true_metrics)
    )
    vertex_n = t.vertex_ninepoint_dist_sq()
    true_vertex_n = shadow.vertex_ninepoint_dist_sq()
    errors["vertex_ninepoint_dist_sq"] = max(
        _normalized(value, ratio(true), R_sq) for value, true in zip(vertex_n, true_vertex_n)
    )
    errors["circumdot"] = max(
        _normalized(t.circumdot(k), ratio(shadow.circumdot(k)), R_sq) for k in range(3)
    )
    # The side's midpoint, as the suite takes it, and the point a third
    # of the way from B.
    a = sides.a
    worst = 0.0
    for bx in (a / 2, a / 3):
        cx = a - bx
        pair = (bx.as_integer_ratio(), cx.as_integer_ratio())
        for value, true in zip(t.side_point(bx, cx), shadow.side_point(*pair)):
            worst = max(worst, _normalized(value, ratio(true), Fraction(1)))
    errors["side_point"] = worst
    # |XN|^2 of every kernel center X that the suite weighs by the identity.
    numerators, den = [n for n, _ in true_vertex_n], true_vertex_n[0][1]
    worst = 0.0
    for label in ("I", "Ea", "Eb", "Ec", "G"):
        value = t.distance_sq(*CENTER_WEIGHTS[label](t.a, t.b, t.c), vertex_n, 1)
        x, d = CENTER_WEIGHTS[label](shadow.a, shadow.b, shadow.c)
        worst = max(worst, _normalized(value, ratio(shadow.distance_sq(x, d, numerators, den)), R_sq))
    errors["distance_sq"] = worst
    unit = EPS * sides.conditioning()
    return {name: error / unit for name, error in errors.items()}


def _float_sides(kind: str, seed: int, index: int) -> SideLengths:
    return float_sides(random_sides(FuzzProfile(kind=kind, seed=seed), index))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PROFILE_KINDS), st.integers(0, 10**6), st.integers(0, 10**6))
def test_float_kernel_within_its_bound_of_the_exact_shadow(kind, seed, index):
    errors = shadow_errors(_float_sides(kind, seed, index))
    for name, error in errors.items():
        assert error <= BOUND[name], (name, error)


def test_bounds_are_the_measured_maxima_with_at_most_twice_their_margin():
    for name in MEASURED:
        assert MEASURED[name] <= BOUND[name] <= 2 * MEASURED[name], name


if __name__ == "__main__":
    for kind in PROFILE_KINDS:
        worst = dict.fromkeys(MEASURED, 0.0)
        for seed in range(40):
            for index in range(1000):
                for name, error in shadow_errors(_float_sides(kind, seed, index)).items():
                    worst[name] = max(worst[name], error)
        print(kind, {name: round(value, 4) for name, value in worst.items()}, flush=True)
