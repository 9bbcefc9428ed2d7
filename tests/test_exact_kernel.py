"""Integer exact kernel: a symbolic proof of its polynomials, and a
differential test of every exact metric and report field against the
Fraction closed forms, evaluated here."""

import collections
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ninepoint.feuerbach import (
    Tangency,
    TangencyReport,
    _exact_kind,
    _exact_tangency,
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


def test_cancelled_closed_forms_are_polynomial_identities():
    """The weight sum d of each circle divides P; the chosen rhs over its
    denominator is (abc -+ P/d)^2 / (4*P*L^2); and the two rhs numerators
    differ by 4*abc*d*P, so the unchosen residual is -+abc/(d*L^2)."""
    sympy = pytest.importorskip("sympy")
    a, b, c, L = sympy.symbols("a b c L", positive=True)
    t = _integer_triangle(a, b, c, L)
    abc, P = t.abc, sympy.expand(t.P)
    for circle, (_, d) in center_weights(a, b, c).items():
        P_over_d, remainder = sympy.div(P, d, a, b, c)
        assert remainder == 0, circle
        _, rhs_internal, rhs_external, den = _tangency_numerators(t, circle)
        assert sympy.cancel((abc - P_over_d) ** 2 / (4 * P * L**2) - rhs_internal / den) == 0
        assert sympy.cancel((abc + P_over_d) ** 2 / (4 * P * L**2) - rhs_external / den) == 0
        assert sympy.expand(rhs_external - rhs_internal - 4 * abc * d * P) == 0, circle
        assert sympy.cancel(4 * abc * d * P / den - abc / (d * L**2)) == 0, circle


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


def reduced_tangency(t, circle: str) -> TangencyReport:
    """Every field reduced from its numerator over 4*P*d^2*L^2, as the exact
    report once built them all."""
    lhs, rhs_internal, rhs_external, den = _tangency_numerators(t, circle)
    return TangencyReport(
        kind=_exact_kind(lhs, rhs_internal, rhs_external),
        lhs=Fraction(lhs, den),
        rhs_internal=Fraction(rhs_internal, den),
        rhs_external=Fraction(rhs_external, den),
        residual_internal=Fraction(lhs - rhs_internal, den),
        residual_external=Fraction(lhs - rhs_external, den),
    )


@settings(max_examples=60, deadline=None)
@given(big_rational_triangles())
def test_closed_form_report_matches_reduced_numerators(sides: SideLengths):
    """All six fields (report equality compares each) equal the five
    reductions, on the tangent kinds the closed forms serve and on
    NotTangent, reached here by moving abc."""
    t = sides._integer_form
    for circle, entry in zip(CIRCLES, feuerbach_report(sides).entries):
        assert entry.report == reduced_tangency(t, circle), circle
    off = t._replace(abc=t.abc + 1)  # lhs - rhs is then a nonzero multiple of 2*d*P
    for circle in CIRCLES:
        got = _exact_tangency(off, circle)
        assert got.kind is Tangency.NOT_TANGENT
        assert got == reduced_tangency(off, circle), circle


def count_fraction_constructions(monkeypatch) -> collections.Counter:
    """Wrap ``Fraction.__new__`` so that each construction is counted; the
    wrapper stays in place until the test ends."""
    calls = collections.Counter()
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls["__new__"] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


@pytest.mark.parametrize(
    "sides",
    [(3, 4, 5), (2, 3, 4), (1, 1, 1), (F(7, 3), F(7, 3), F(5, 2)),
     (F(10**40 + 7, 3**50), F(10**40 + 3, 3**50 + 1), F(10**40, 7**40))],
    ids=["3-4-5", "2-3-4", "equilateral", "isoceles", "40-digit"],
)
def test_exact_report_builds_three_fractions_per_circle(monkeypatch, sides):
    """With the metrics cached, each circle's report builds its one reduced
    value, the unchosen residual and the unchosen rhs; nothing else."""
    sides = SideLengths(*sides)
    metrics(sides)
    calls = count_fraction_constructions(monkeypatch)
    report = feuerbach_report(sides)
    assert calls["__new__"] == 3 * len(CIRCLES)
    assert report.ok
