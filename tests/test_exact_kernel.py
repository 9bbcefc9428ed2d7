"""Integer exact kernel: a symbolic proof of its polynomials and of the
geometric facts they rest on, and a differential test of every exact
metric and report field against the Fraction closed forms, evaluated
here."""

import collections
import types
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
from ninepoint.triangle import CENTER_WEIGHTS, SideLengths, _integer_triangle, metrics

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


# --- the preliminaries, proven in coordinates ------------------------------
#
# The kernel's closed forms rest on facts about the triangle: where the
# circumcenter and the nine-point center are, and how far the incenter and
# the excenters are from the side lines.  These tests prove them over
# Q(a, b, c, L) in the coordinate model of a triangle with sides a/L, b/L
# and c/L: C = (0, 0), B = (a/L, 0) and A = (x, y) with
# x = (a^2 + b^2 - c^2)/(2aL).  Then y^2 = P/(4 a^2 L^2) with
# P = (a + b + c)(-a + b + c)(a - b + c)(a + b - c), which restates
# |CA|^2 = b^2/L^2, and y is in general irrational.  Each claim is an
# expression in a, b, c, L and y that must vanish; its numerator, with y^2
# replaced, is c0 + c1*y, and the claim holds exactly when c0 = c1 = 0.
# The kernel's closed forms are evaluated by its own code on symbols, with
# Fraction(n, d) read as n/d.


def _vanishes(sympy, expr, y, y_sq) -> bool:
    numerator, _ = sympy.fraction(sympy.together(expr))
    parts = [0, 0]
    for (k,), coeff in sympy.Poly(sympy.expand(numerator), y).terms():
        parts[k % 2] += coeff * y_sq ** (k // 2)
    return all(sympy.cancel(part) == 0 for part in parts)


def _dist_sq(p, q):
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _cross(o, p, q):
    """(p - o) x (q - o): twice the signed area of (o, p, q)."""
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


@pytest.fixture
def model(monkeypatch):
    """The coordinate model, and the kernel's exact closed forms on its
    integer form (a, b, c over L)."""
    sympy = pytest.importorskip("sympy")
    from ninepoint import centers, triangle

    a, b, c, L, y = sympy.symbols("a b c L y", positive=True)
    t = _integer_triangle(a, b, c, L)
    vertices = {"A": ((a**2 + b**2 - c**2) / (2 * a * L), y), "B": (a / L, 0), "C": (0, 0)}
    for module in (triangle, centers):
        monkeypatch.setattr(module, "Fraction", lambda n, d: sympy.sympify(n) / d)
    exact_sides = types.SimpleNamespace(is_exact=True, _integer_form=t)
    return types.SimpleNamespace(
        sympy=sympy,
        t=t,
        vertices=vertices,
        vanishes=lambda expr: _vanishes(sympy, expr, y, t.P / (4 * a**2 * L**2)),
        metrics=SideLengths._metrics.func(exact_sides),
        vertex_ninepoint_dist_sq=SideLengths._vertex_ninepoint_dist_sq.func(exact_sides),
        circumdot=lambda pair: centers.circumdot(exact_sides, pair),
    )


def _circumcenter(sympy, vertices):
    """The point equidistant from the three vertices, solved for."""
    o = sympy.symbols("o_x o_y")
    va, vb, vc = vertices.values()
    equations = [
        sympy.expand(_dist_sq(o, va) - _dist_sq(o, vc)),
        sympy.expand(_dist_sq(o, vb) - _dist_sq(o, vc)),
    ]
    (solution,) = sympy.solve(equations, o, dict=True)
    return tuple(solution[v] for v in o)


def test_model_reproduces_the_sides(model):
    a, b, c = model.t.a, model.t.b, model.t.c
    L = model.t.L
    va, vb, vc = model.vertices.values()
    assert model.vanishes(_dist_sq(vb, vc) - (a / L) ** 2)
    assert model.vanishes(_dist_sq(vc, va) - (b / L) ** 2)
    assert model.vanishes(_dist_sq(va, vb) - (c / L) ** 2)
    assert not model.vanishes(_dist_sq(vc, va) - (a / L) ** 2)  # the check can fail


def test_circumradius_is_abc_squared_over_P(model):
    """The circumcenter is at squared distance (abc)^2/P, the kernel's R^2,
    from each vertex; and each circumdot is (P - O).(Q - O)."""
    t, sympy = model.t, model.sympy
    assert sympy.cancel(model.metrics.R_sq - t.abc**2 / (t.P * t.L**2)) == 0
    o = _circumcenter(sympy, model.vertices)
    for label, vertex in model.vertices.items():
        assert model.vanishes(_dist_sq(o, vertex) - model.metrics.R_sq), label
    for pair in ("AB", "BC", "CA"):
        p, q = (model.vertices[label] for label in pair)
        dot = (p[0] - o[0]) * (q[0] - o[0]) + (p[1] - o[1]) * (q[1] - o[1])
        assert model.vanishes(dot - model.circumdot(pair)), pair


def test_ninepoint_center_gives_the_vertex_distances(model):
    """H = 3G - 2O is on the altitudes, and N = (O + H)/2 is at the kernel's
    vertex_to_ninepoint_dist_sq from each vertex."""
    sympy = model.sympy
    va, vb, vc = model.vertices.values()
    o = _circumcenter(sympy, model.vertices)
    g = tuple((va[k] + vb[k] + vc[k]) / 3 for k in range(2))
    h = tuple(3 * g[k] - 2 * o[k] for k in range(2))
    for p, q, r in ((va, vb, vc), (vb, vc, va)):
        assert model.vanishes((h[0] - p[0]) * (q[0] - r[0]) + (h[1] - p[1]) * (q[1] - r[1]))
    n = tuple((o[k] + h[k]) / 2 for k in range(2))
    for vertex, want in zip(model.vertices.values(), model.vertex_ninepoint_dist_sq):
        assert model.vanishes(_dist_sq(vertex, n) - want)


def test_center_weights_are_at_their_radius_from_every_side_line(model):
    """Each CENTER_WEIGHTS point (x_a A + x_b B + x_c C)/d is at squared
    distance r_X^2, the kernel's radius of its circle, from all three side
    lines: the incircle and the three excircles."""
    t, met = model.t, model.metrics
    va, vb, vc = model.vertices.values()
    radius_sq = {"I": met.r_sq, "Ea": met.rA_sq, "Eb": met.rB_sq, "Ec": met.rC_sq}
    for label, weights in CENTER_WEIGHTS.items():
        (x_a, x_b, x_c), d = weights(t.a, t.b, t.c)
        point = tuple((x_a * va[k] + x_b * vb[k] + x_c * vc[k]) / d for k in range(2))
        for p, q in ((vb, vc), (vc, va), (va, vb)):
            line_dist_sq = _cross(p, q, point) ** 2 / _dist_sq(p, q)
            assert model.vanishes(line_dist_sq - radius_sq[label]), (label, p, q)


def test_area_and_mixed_products(model):
    """K^2 is the squared area (base a/L, height y), s the half perimeter,
    and each mixed product R*r_X squares to R^2 * r_X^2."""
    t, met, sympy = model.t, model.metrics, model.sympy
    assert model.vanishes((t.a / t.L * model.vertices["A"][1] / 2) ** 2 - met.K_sq)
    assert sympy.cancel(met.s - (t.a + t.b + t.c) / (2 * t.L)) == 0
    pairs = ((met.Rr, met.r_sq), (met.RrA, met.rA_sq), (met.RrB, met.rB_sq), (met.RrC, met.rC_sq))
    for mixed, radius_sq in pairs:
        assert sympy.cancel(mixed**2 - met.R_sq * radius_sq) == 0


def test_barycentric_distance_identity(model):
    """|XY|^2 = alpha |AY|^2 + beta |BY|^2 + gamma |CY|^2
    - (beta gamma a^2 + gamma alpha b^2 + alpha beta c^2) for any point
    X = alpha A + beta B + gamma C with alpha + beta + gamma = 1 and any Y."""
    sympy, t = model.sympy, model.t
    alpha, beta, p, q = sympy.symbols("alpha beta p q")
    gamma = 1 - alpha - beta
    va, vb, vc = model.vertices.values()
    x = tuple(alpha * va[k] + beta * vb[k] + gamma * vc[k] for k in range(2))
    y_pt = (p, q)
    a_sq, b_sq, c_sq = ((side / t.L) ** 2 for side in (t.a, t.b, t.c))
    identity = (
        alpha * _dist_sq(va, y_pt) + beta * _dist_sq(vb, y_pt) + gamma * _dist_sq(vc, y_pt)
        - (beta * gamma * a_sq + gamma * alpha * b_sq + alpha * beta * c_sq)
    )
    assert model.vanishes(_dist_sq(x, y_pt) - identity)


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
