"""Integer exact kernel: a symbolic proof of its polynomials and of the
geometric facts they rest on, and a differential test of every exact
metric and report field against the Fraction closed forms, evaluated
here."""

import collections
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ninepoint.feuerbach import (
    Tangency,
    TangencyReport,
    excircle_ninepoint_residual,
    feuerbach_report,
    incircle_ninepoint_residual,
)
from ninepoint.triangle import (
    CENTER_WEIGHTS,
    CIRCLE_CENTERS,
    Barycentric,
    SideLengths,
    TriangleMetrics,
    _integer_triangle,
    _SquareRatio,
    barycentric_distance_sq,
    metrics,
)

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


def symbolic_closed_forms(sympy, a, b, c, L):
    """R^2 and, per circle, (|XN|^2, r_X^2, R*r_X) for sides a/L, b/L, c/L,
    from the barycentric distance identity and the metric closed forms."""
    P = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    R_sq = (a * b * c) ** 2 / (P * L**2)
    a_sq, b_sq, c_sq = (a / L) ** 2, (b / L) ** 2, (c / L) ** 2
    vertex_n_sq = (
        (R_sq - a_sq + b_sq + c_sq) / 4,
        (R_sq + a_sq - b_sq + c_sq) / 4,
        (R_sq + a_sq + b_sq - c_sq) / 4,
    )
    out = {}
    for circle, ((x_a, x_b, x_c), d) in center_weights(a, b, c).items():
        alpha, beta, gamma = x_a / d, x_b / d, x_c / d
        dist_sq = (
            alpha * vertex_n_sq[0] + beta * vertex_n_sq[1] + gamma * vertex_n_sq[2]
            - (beta * gamma * a_sq + gamma * alpha * b_sq + alpha * beta * c_sq)
        )
        radius_sq = P / (4 * d**2 * L**2)  # K^2 / (s - x)^2 with K^2 = P/(16 L^4)
        mixed = a * b * c / (2 * d * L**2)  # R * r_X = abc / 4(s - x)
        out[circle] = (dist_sq, radius_sq, mixed)
    return R_sq, out


def test_tangency_numerators_are_polynomial_identities():
    """Over 4*P*d^2*L^2, |XN|^2 - (R/2 -+ r_X)^2 is P*(e +- 2*abc*d); and
    e + 2*abc*p vanishes in Z[a, b, c] for the incircle, e - 2*abc*d for
    each excircle."""
    sympy = pytest.importorskip("sympy")
    a, b, c, L = sympy.symbols("a b c L", positive=True)
    t = _integer_triangle(a, b, c, L)
    R_sq, closed = symbolic_closed_forms(sympy, a, b, c, L)
    for circle, (dist_sq, radius_sq, mixed) in closed.items():
        e, two_abc_d, d = t.tangency_numerators(circle)
        assert sympy.expand(two_abc_d - 2 * a * b * c * d) == 0, circle
        den = 4 * t.P * d**2 * L**2
        base = R_sq / 4 + radius_sq
        assert sympy.cancel((dist_sq - (base - mixed)) * den - t.P * (e + two_abc_d)) == 0
        assert sympy.cancel((dist_sq - (base + mixed)) * den - t.P * (e - two_abc_d)) == 0
        # The residual that Feuerbach's theorem makes zero, as a ratio.
        num, den = t.residual(circle)
        theorem = base - mixed if circle == "incircle" else base + mixed
        assert sympy.cancel(num / den - (dist_sq - theorem)) == 0, circle
        if circle == "incircle":
            assert d == t.p
            assert sympy.expand(e + two_abc_d) == 0
        else:
            assert sympy.expand(e - two_abc_d) == 0, circle


def test_cancelled_closed_forms_are_polynomial_identities():
    """The weight sum d of each circle divides P; (R/2 -+ r_X)^2 is
    (abc -+ P/d)^2 / (4*P*L^2); and the two residuals differ by 2*R*r_X."""
    sympy = pytest.importorskip("sympy")
    a, b, c, L = sympy.symbols("a b c L", positive=True)
    t = _integer_triangle(a, b, c, L)
    abc, P = t.abc, sympy.expand(t.P)
    R_sq, closed = symbolic_closed_forms(sympy, a, b, c, L)
    for circle, (_, d) in center_weights(a, b, c).items():
        _, radius_sq, mixed = closed[circle]
        P_over_d, remainder = sympy.div(P, d, a, b, c)
        assert remainder == 0, circle
        base = R_sq / 4 + radius_sq
        assert sympy.cancel((abc - P_over_d) ** 2 / (4 * P * L**2) - (base - mixed)) == 0
        assert sympy.cancel((abc + P_over_d) ** 2 / (4 * P * L**2) - (base + mixed)) == 0
        e, two_abc_d, _ = t.tangency_numerators(circle)
        residual_gap = ((e + two_abc_d) - (e - two_abc_d)) / (4 * d**2 * L**2)
        assert sympy.cancel(residual_gap - 2 * mixed) == 0, circle


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
# The kernel's closed forms are its own ratio forms, evaluated on symbols
# and read as num/den.


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
    integer form (a, b, c over L): each ratio (num, den) read as num/den.
    The metrics cancel gcd(abc, L^2), which symbols do not have: it is
    taken as 1, and on integer symbols the exact quotients by 1 stay the
    polynomials themselves."""
    sympy = pytest.importorskip("sympy")
    from ninepoint import triangle

    a, b, c, L = sympy.symbols("a b c L", positive=True, integer=True)
    y = sympy.symbols("y", positive=True)
    t = _integer_triangle(a, b, c, L)
    vertices = {"A": ((a**2 + b**2 - c**2) / (2 * a * L), y), "B": (a / L, 0), "C": (0, 0)}

    def ratio(r):
        return sympy.sympify(r[0]) / r[1]

    with monkeypatch.context() as patch:
        patch.setattr(triangle, "math", types.SimpleNamespace(gcd=lambda *n: 1))
        met = TriangleMetrics(*map(ratio, t.metrics()))
    return types.SimpleNamespace(
        sympy=sympy,
        t=t,
        ratio=ratio,
        vertices=vertices,
        vanishes=lambda expr: _vanishes(sympy, expr, y, t.P / (4 * a**2 * L**2)),
        metrics=met,
        vertex_ninepoint_dist_sq=tuple(map(ratio, t.vertex_ninepoint_dist_sq())),
        # A pair's circumdot is indexed by the vertex opposite it.
        circumdot=lambda pair: ratio(t.circumdot({"AB": 2, "BC": 0, "CA": 1}[pair])),
    )


@pytest.mark.parametrize("square", [True, False], ids=["rational_altitude", "irrational_altitude"])
def test_canonical_frame_reproduces_the_sides(monkeypatch, square):
    """Under the metric x^2 + m*t^2, the squared edges of the canonical
    frame are a^2, b^2 and c^2 in both of its cases: P = k^2 with m = 1,
    and m = P with k = 1.  isqrt returns the symbol k, which stands for
    sqrt(P)."""
    sympy = pytest.importorskip("sympy")
    from ninepoint import homogeneous, triangle

    a, b, c, L, k = sympy.symbols("a b c L k", positive=True, integer=True)
    t = _integer_triangle(a, b, c, L)
    P = t.P
    if square:
        t = t._replace(P=k**2)
    monkeypatch.setattr(
        triangle, "math", types.SimpleNamespace(isqrt=lambda n: k, gcd=lambda *n: 1)
    )
    m, (va, vb, vc) = triangle._canonical_frame(t)
    assert (m == 1) is square
    plane = homogeneous.Plane(m)

    def dist_sq(p, q):
        num, den = plane.dist_sq(p, q)
        return (num / den).subs(k, sympy.sqrt(P))

    assert sympy.cancel(dist_sq(vb, vc) - (a / L) ** 2) == 0
    assert sympy.cancel(dist_sq(vc, va) - (b / L) ** 2) == 0
    assert sympy.cancel(dist_sq(va, vb) - (c / L) ** 2) == 0
    assert sympy.cancel(dist_sq(vc, va) - (a / L) ** 2) != 0  # the check can fail


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


def _euler_points(sympy, vertices):
    """The solved circumcenter O, the centroid G, H = 3G - 2O and
    N = (O + H)/2."""
    va, vb, vc = vertices.values()
    o = _circumcenter(sympy, vertices)
    g = tuple((va[k] + vb[k] + vc[k]) / 3 for k in range(2))
    h = tuple(3 * g[k] - 2 * o[k] for k in range(2))
    n = tuple((o[k] + h[k]) / 2 for k in range(2))
    return {"O": o, "G": g, "H": h, "N": n}


def test_ninepoint_center_gives_the_vertex_distances(model):
    """H = 3G - 2O is on the altitudes, and N = (O + H)/2 is at the kernel's
    vertex_to_ninepoint_dist_sq from each vertex."""
    va, vb, vc = model.vertices.values()
    points = _euler_points(model.sympy, model.vertices)
    h, n = points["H"], points["N"]
    for p, q, r in ((va, vb, vc), (vb, vc, va)):
        assert model.vanishes((h[0] - p[0]) * (q[0] - r[0]) + (h[1] - p[1]) * (q[1] - r[1]))
    for vertex, want in zip(model.vertices.values(), model.vertex_ninepoint_dist_sq):
        assert model.vanishes(_dist_sq(vertex, n) - want)


def _weighted_point(weights, t, vertices):
    """The CENTER_WEIGHTS point (x_a A + x_b B + x_c C)/d."""
    (x_a, x_b, x_c), d = weights(t.a, t.b, t.c)
    va, vb, vc = vertices.values()
    return tuple((x_a * va[k] + x_b * vb[k] + x_c * vc[k]) / d for k in range(2))


def test_center_weights_of_the_euler_line(model):
    """The CENTER_WEIGHTS points of O, G, H and N are the solved
    circumcenter, the centroid, 3G - 2O and the midpoint of OH."""
    for label, want in _euler_points(model.sympy, model.vertices).items():
        point = _weighted_point(CENTER_WEIGHTS[label], model.t, model.vertices)
        for k in range(2):
            assert model.vanishes(point[k] - want[k]), (label, k)


def test_center_weights_are_at_their_radius_from_every_side_line(model):
    """Each circle center's CENTER_WEIGHTS point is at squared distance
    r_X^2, the kernel's radius of its circle, from all three side lines:
    the incircle and the three excircles."""
    met = model.metrics
    va, vb, vc = model.vertices.values()
    radius_sq = {"I": met.r_sq, "Ea": met.rA_sq, "Eb": met.rB_sq, "Ec": met.rC_sq}
    assert tuple(radius_sq) == CIRCLE_CENTERS
    for label in CIRCLE_CENTERS:
        point = _weighted_point(CENTER_WEIGHTS[label], model.t, model.vertices)
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
    # The kernel's ratio form of the identity, for weights x/d1 and
    # distances dist/d2.
    weights = sympy.symbols("x_a x_b x_c")
    dist, d2 = sympy.symbols("m_a m_b m_c"), sympy.Symbol("d_2", positive=True)
    d1 = sum(weights)
    alpha, beta, gamma = (w / d1 for w in weights)
    want = (
        (alpha * dist[0] + beta * dist[1] + gamma * dist[2]) / d2
        - (beta * gamma * a_sq + gamma * alpha * b_sq + alpha * beta * c_sq)
    )
    assert sympy.cancel(model.ratio(t.distance_sq(weights, d1, dist, d2)) - want) == 0


def test_side_point_divides_by_the_side(model):
    """The B and C coordinates of a point X on BC are |CX|/a and |BX|/a."""
    sympy, t = model.sympy, model.t
    bx, cx = sympy.symbols("n_b d_b"), sympy.symbols("n_c d_c")
    beta, gamma = t.side_point(bx, cx)
    a = t.a / t.L
    assert sympy.cancel(model.ratio(beta) - (cx[0] / cx[1]) / a) == 0
    assert sympy.cancel(model.ratio(gamma) - (bx[0] / bx[1]) / a) == 0


def closed_form_metrics(a: Fraction, b: Fraction, c: Fraction, abc: Fraction) -> dict:
    """The metric fields from Heron's formula, with ``abc`` standing for
    the product of the sides."""
    s = (a + b + c) / 2
    K_sq = s * (s - a) * (s - b) * (s - c)
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
    want = closed_form_metrics(a, b, c, a * b * c)
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


def _over_denominators(rng, digits: int, denominators: str):
    """Three reduced sides in [1, 2), so a triangle, with numerators and
    denominators of the given digits: over one shared denominator, over
    pairwise coprime ones (all above 1), or over two that share a factor
    and a third coprime to both."""
    low, high = max(2, 10 ** (digits - 1)), 10**digits

    def denominator(*coprime_to):
        while True:
            d = rng.randrange(low, high)
            if all(math.gcd(d, e) == 1 for e in coprime_to):
                return d

    if denominators == "equal":
        dens = [denominator()] * 3
    elif denominators == "coprime":
        d_a = denominator()
        d_b = denominator(d_a)
        dens = [d_a, d_b, denominator(d_a, d_b)]
    else:
        g = rng.randrange(2, 10 ** ((digits + 1) // 2) + 2)
        d_c = denominator()
        dens = [g * denominator(d_c), g * denominator(d_c), d_c]
    sides = []
    for d in dens:
        n = rng.randrange(d, 2 * d)
        while math.gcd(n, d) != 1:
            n = rng.randrange(d, 2 * d)
        sides.append(Fraction(n, d))
    return sides


@pytest.mark.parametrize("denominators", ["equal", "coprime", "shared"])
@pytest.mark.parametrize("digits", [1, 2, 7, 30, 90, 200])
def test_cancelled_metrics_equal_the_uncancelled_closed_forms(digits, denominators):
    """``metrics()`` cancels h = gcd(abc, L^2) from R^2 and the R*r_X
    before any reduction; every field still equals the Fraction of the
    closed form, and on pairwise coprime denominators (L^2 divides abc)
    there is a factor to cancel."""
    rng = random.Random(f"{digits}/{denominators}")
    for _ in range(5):
        a, b, c = _over_denominators(rng, digits, denominators)
        sides = SideLengths(a, b, c)
        t = sides._kernel
        want = closed_form_metrics(a, b, c, a * b * c)
        got = t.metrics()
        for name, (num, den) in zip(TriangleMetrics._fields, got):
            assert type(num) is int and type(den) is int and den > 0, name
            assert Fraction(num, den) == want[name], name
        assert TriangleMetrics(*t.values(got)) == metrics(sides)
        h = math.gcd(t.abc, t.L * t.L)
        if denominators == "coprime":
            assert h == t.L * t.L > 1
        R_sq, Rr = got[2], got[7]
        assert R_sq == ((t.abc // h) ** 2 * h, t.P * (t.L * t.L // h))
        assert Rr == (t.abc // h, 2 * t.p * (t.L * t.L // h))


def reference_report(sides: SideLengths, circle: str, abc: Fraction) -> TangencyReport:
    """Every field from Fraction closed forms: R^2/4 + r_X^2 -+ R*r_X, and
    |XN|^2 by ``barycentric_distance_sq``, with ``abc`` standing for the
    product of the sides; the kind from comparing them."""
    a, b, c = sides.as_tuple()
    met = closed_form_metrics(a, b, c, abc)
    k = CIRCLES.index(circle)
    radius_sq = (met["r_sq"], met["rA_sq"], met["rB_sq"], met["rC_sq"])[k]
    mixed = (met["Rr"], met["RrA"], met["RrB"], met["RrC"])[k]
    weights, total = center_weights(a, b, c)[circle]
    center = Barycentric(*(x / total for x in weights))
    vertex_n_sq = (
        (met["R_sq"] - a * a + b * b + c * c) / 4,
        (met["R_sq"] + a * a - b * b + c * c) / 4,
        (met["R_sq"] + a * a + b * b - c * c) / 4,
    )
    lhs = barycentric_distance_sq(center, *vertex_n_sq, sides)
    rhs_internal = met["R_sq"] / 4 + radius_sq - mixed
    rhs_external = met["R_sq"] / 4 + radius_sq + mixed
    if lhs == rhs_internal:
        kind = Tangency.COINCIDENT if lhs == 0 else Tangency.INTERNAL_TANGENT
    elif lhs == rhs_external:
        kind = Tangency.EXTERNAL_TANGENT
    else:
        kind = Tangency.NOT_TANGENT
    return TangencyReport(
        kind, lhs, rhs_internal, rhs_external, lhs - rhs_internal, lhs - rhs_external
    )


@settings(max_examples=60, deadline=None)
@given(big_rational_triangles())
def test_closed_form_report_matches_reduced_numerators(sides: SideLengths):
    """All six fields (report equality compares each) equal the reduced
    Fractions of the reference, on the tangent kinds the closed forms serve
    and on NotTangent, reached here by moving abc; both residual functions
    are zero."""
    a, b, c = sides.as_tuple()
    t, met = sides._kernel, metrics(sides)
    for circle, entry in zip(CIRCLES, feuerbach_report(sides).entries):
        assert entry.report == reference_report(sides, circle, a * b * c), circle
    assert incircle_ninepoint_residual(sides) == 0
    assert all(excircle_ninepoint_residual(sides, vertex) == 0 for vertex in "ABC")
    # The scaled abc is t.abc = L^3 * abc; moving it by one makes every
    # residual nonzero.
    off = t._replace(abc=t.abc + 1)
    moved = a * b * c + Fraction(1, t.L**3)
    for circle in CIRCLES:
        got = TangencyReport(*off.tangency(circle, met._values(), None, None))
        assert got.kind is Tangency.NOT_TANGENT
        assert got == reference_report(sides, circle, moved), circle


def count_large_gcds(monkeypatch) -> collections.Counter:
    """Wrap ``math.gcd``, which ``Fraction`` reduces with on every Python
    version, so that each call whose operands all exceed 128 bits is
    counted; the wrapper stays in place until the test ends."""
    calls = collections.Counter()
    original = math.gcd

    def counted(*args):
        if all(abs(n).bit_length() > 128 for n in args):
            calls["large"] += 1
        return original(*args)

    monkeypatch.setattr(math, "gcd", counted)
    return calls


@pytest.mark.parametrize(
    "sides, tangent",
    [((F(10**40 + 7, 3**50), F(10**40 + 3, 3**50 + 1), F(10**40, 7**40)), 4),
     ((F(10**40 + 7, 3**50), F(10**40 + 7, 3**50), F(10**40 + 3, 3**50 + 1)), 4),
     ((F(10**40 + 7, 3**50),) * 3, 3)],
    ids=["scalene", "isoceles", "equilateral"],
)
def test_exact_report_reduces_one_large_number_per_tangent_circle(monkeypatch, sides, tangent):
    """With the metrics cached, building the report reduces no large
    number.  Read, each tangent circle's lhs reduces its one value (a
    coincident circle's is zero) and is its rhs, its other residual
    reduces its one ratio, and its other rhs is built once."""
    sides = SideLengths(*sides)
    metrics(sides)
    calls = count_large_gcds(monkeypatch)
    report = feuerbach_report(sides)
    assert calls["large"] == 0
    assert report.ok
    reports = [entry.report for entry in report.entries]
    for got in reports:
        assert got.rhs is got.lhs or got.kind is Tangency.COINCIDENT
    assert calls["large"] == tangent
    for got in reports:
        assert type(got.residual_internal) is type(got.residual_external) is Fraction
    assert calls["large"] == tangent + len(reports)
    first = [(got.rhs_internal, got.rhs_external) for got in reports]
    assert calls["large"] >= 2 * tangent + len(reports)
    read = calls["large"]
    second = [(got.rhs_internal, got.rhs_external) for got in reports]
    assert all(x is y for pair, again in zip(first, second) for x, y in zip(pair, again))
    assert calls["large"] == read


# Integers of up to about 200 digits, with a shared factor drawn apart so
# that gcd(root, den) is often large and den/g still shares factors with g.
FACTORS = st.integers(min_value=1, max_value=10**60)
ROOTS = st.integers(min_value=-(10**140), max_value=10**140)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("negative", "zero", "positive")),
    ROOTS,
    st.integers(min_value=1, max_value=10**140),
    FACTORS,
    st.integers(min_value=0, max_value=3),
)
@example("zero", 0, 1, 1, 0)
@example("positive", 2**70, 3 * 2**150, 1, 0)
@example("negative", -(6**30), 5 * 6**80, 6**5, 2)
def test_square_reduction_is_the_fractions(sign, root, den, factor, power):
    """``_SquareRatio.reduced``, gcd(M^2, D) = g * gcd(g, D/g), gives the
    lowest terms that ``Fraction(M*M, D)`` gives, for M < 0, M = 0 and
    M > 0: the lhs root of a tangent circle has either sign, and the
    equilateral incircle's is 0."""
    magnitude = abs(root) * factor or 1
    root = {"negative": -magnitude, "zero": 0, "positive": magnitude}[sign]
    den *= factor**power
    square = _SquareRatio(root, den)
    assert square.reduced() == Fraction(root * root, den).as_integer_ratio()
    assert square.value() == Fraction(root * root, den)
