"""Integer exact kernel: a symbolic proof of its polynomials, and a
differential test of every exact metric and report field against the
Fraction closed forms, evaluated here."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ninepoint.feuerbach import (
    Tangency,
    _tangency_numerators,
    excircle_ninepoint_residual,
    feuerbach_report,
    incircle_ninepoint_residual,
)
from ninepoint.triangle import SideLengths, _integer_triangle, metrics

F = Fraction

CIRCLES = ("incircle", "exA", "exB", "exC")


def center_weights(a, b, c):
    """Barycentric weights (x_a, x_b, x_c) and their sum, per circle."""
    return {
        "incircle": ((a, b, c), a + b + c),
        "exA": ((-a, b, c), -a + b + c),
        "exB": ((a, -b, c), a - b + c),
        "exC": ((a, b, -c), a + b - c),
    }


def test_tangency_numerators_are_polynomial_identities():
    """lhs - rhs vanishes in Z[a, b, c] for the expected tangency of each
    circle, and the numerators over their denominator are |XN|^2,
    (R/2 - r_X)^2 and (R/2 + r_X)^2."""
    sympy = pytest.importorskip("sympy")
    a, b, c = sympy.symbols("a b c", positive=True)
    t = _integer_triangle(a, b, c)
    P = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    R_sq = (a * b * c) ** 2 / P
    vertex_n_sq = (
        (R_sq - a**2 + b**2 + c**2) / 4,
        (R_sq + a**2 - b**2 + c**2) / 4,
        (R_sq + a**2 + b**2 - c**2) / 4,
    )
    for circle, ((x_a, x_b, x_c), d) in center_weights(a, b, c).items():
        lhs, rhs_internal, rhs_external, den = _tangency_numerators(t, circle)
        tangent = rhs_internal if circle == "incircle" else rhs_external
        assert sympy.expand(lhs - tangent) == 0, circle

        alpha, beta, gamma = x_a / d, x_b / d, x_c / d
        dist_sq = (
            alpha * vertex_n_sq[0] + beta * vertex_n_sq[1] + gamma * vertex_n_sq[2]
            - (beta * gamma * a**2 + gamma * alpha * b**2 + alpha * beta * c**2)
        )
        radius_sq = P / (4 * d**2)  # K^2 / (s - x)^2 with K^2 = P/16
        mixed = a * b * c / (2 * d)  # R * r_X = abc / 4(s - x)
        assert sympy.cancel(lhs / den - dist_sq) == 0, circle
        assert sympy.cancel(rhs_internal / den - (R_sq / 4 + radius_sq - mixed)) == 0, circle
        assert sympy.cancel(rhs_external / den - (R_sq / 4 + radius_sq + mixed)) == 0, circle


def closed_form_metrics(a: Fraction, b: Fraction, c: Fraction) -> dict:
    s = (a + b + c) / 2
    K_sq = s * (s - a) * (s - b) * (s - c)
    abc = a * b * c
    return {
        "s": s,
        "K_sq": K_sq,
        "R_sq": abc * abc / (16 * K_sq),
        "r_sq": K_sq / (s * s),
        "rA_sq": K_sq / ((s - a) * (s - a)),
        "rB_sq": K_sq / ((s - b) * (s - b)),
        "rC_sq": K_sq / ((s - c) * (s - c)),
        "Rr": abc / (4 * s),
        "RrA": abc / (4 * (s - a)),
        "RrB": abc / (4 * (s - b)),
        "RrC": abc / (4 * (s - c)),
    }


def closed_form_tangency(a: Fraction, b: Fraction, c: Fraction, met: dict) -> dict:
    """(lhs, rhs_internal, rhs_external) per circle from the barycentric
    distance identity and the metric closed forms."""
    vertex_n_sq = (
        (met["R_sq"] - a * a + b * b + c * c) / 4,
        (met["R_sq"] + a * a - b * b + c * c) / 4,
        (met["R_sq"] + a * a + b * b - c * c) / 4,
    )
    radii = {
        "incircle": (met["r_sq"], met["Rr"]),
        "exA": (met["rA_sq"], met["RrA"]),
        "exB": (met["rB_sq"], met["RrB"]),
        "exC": (met["rC_sq"], met["RrC"]),
    }
    out = {}
    for circle, (weights, total) in center_weights(a, b, c).items():
        alpha, beta, gamma = (x / total for x in weights)
        lhs = (
            alpha * vertex_n_sq[0] + beta * vertex_n_sq[1] + gamma * vertex_n_sq[2]
            - (beta * gamma * a * a + gamma * alpha * b * b + alpha * beta * c * c)
        )
        radius_sq, mixed = radii[circle]
        base = met["R_sq"] / 4 + radius_sq
        out[circle] = (lhs, base - mixed, base + mixed)
    return out


@st.composite
def big_rational_triangles(draw):
    """Sides whose numerators and denominators have 1 to 238 digits:
    scalene, isoceles or equilateral, permuted, and scaled by a rational."""
    digits = draw(st.integers(min_value=1, max_value=238))
    ratio = st.builds(
        Fraction,
        st.integers(min_value=10 ** (digits - 1), max_value=10**digits - 1),
        st.integers(min_value=10 ** (digits - 1), max_value=10**digits - 1),
    )
    shape = draw(st.sampled_from(("scalene", "isoceles", "equilateral")))
    first = draw(ratio)
    if shape == "equilateral":
        triple = [first] * 3
    elif shape == "isoceles":
        triple = [first, first, draw(ratio)]
    else:
        triple = [first, draw(ratio), draw(ratio)]
    a, b, c = draw(st.permutations(triple))
    assume(a + b > c and b + c > a and c + a > b)
    if draw(st.booleans()):
        k = draw(ratio)
        a, b, c = k * a, k * b, k * c
    return SideLengths(a, b, c)


@settings(max_examples=60, deadline=None)
@given(big_rational_triangles())
def test_exact_kernel_matches_fraction_closed_forms(sides: SideLengths):
    a, b, c = sides.as_tuple()
    want = closed_form_metrics(a, b, c)
    met = metrics(sides)
    for name, value in want.items():
        got = getattr(met, name)
        assert type(got) is Fraction and got == value, name

    report = feuerbach_report(sides)
    assert report.metrics == met
    assert report.equilateral == sides.is_equilateral
    assert report.ok
    assert [entry.circle for entry in report.entries] == list(CIRCLES)
    tangencies = closed_form_tangency(a, b, c, want)
    for entry in report.entries:
        lhs, rhs_internal, rhs_external = tangencies[entry.circle]
        got = entry.report
        assert got.lhs == lhs
        assert got.rhs_internal == rhs_internal
        assert got.rhs_external == rhs_external
        assert got.residual_internal == lhs - rhs_internal
        assert got.residual_external == lhs - rhs_external
        assert all(
            type(v) is Fraction
            for v in (got.lhs, got.rhs_internal, got.rhs_external,
                      got.residual_internal, got.residual_external, got.rhs, got.residual)
        )
        if entry.circle != "incircle":
            expected_kind = Tangency.EXTERNAL_TANGENT
        elif sides.is_equilateral:
            expected_kind = Tangency.COINCIDENT
        else:
            expected_kind = Tangency.INTERNAL_TANGENT
        assert got.kind is expected_kind
        assert got.rhs == (0 if expected_kind is Tangency.COINCIDENT else lhs)
        assert got.residual == (lhs if expected_kind is Tangency.COINCIDENT else 0)

    lhs, rhs_internal, _ = tangencies["incircle"]
    assert incircle_ninepoint_residual(sides) == lhs - rhs_internal == 0
    for vertex in "ABC":
        lhs, _, rhs_external = tangencies[f"ex{vertex}"]
        assert excircle_ninepoint_residual(sides, vertex) == lhs - rhs_external == 0
