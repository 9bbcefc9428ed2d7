"""Deterministic SVG rendering: stable ids, fitted geometry, equilateral case."""

import math
import re
import types
from fractions import Fraction

import pytest

from ninepoint import svg
from ninepoint.svg import ViewTransform, fit_transform, render_svg
from ninepoint.triangle import (
    Point2,
    SideLengths,
    canonical_vertices,
    metrics,
)

from point2_reference import float_sides

F = Fraction


@pytest.fixture
def svg345() -> str:
    sides = SideLengths(3, 4, 5)
    return render_svg(sides, canonical_vertices(sides))


class TestViewTransform:
    def test_y_flipped(self):
        view = ViewTransform(scale=2.0, offset_x=10.0, offset_y=500.0)
        assert view.x(5.0) == 20.0
        assert view.y(5.0) == 490.0
        assert view.point(Point2(5.0, 5.0)) == (20.0, 490.0)

    def test_fit_is_uniform_and_inside(self):
        view = fit_transform((0.0, 4.0), (0.0, 2.0))
        # Long axis spans the viewBox minus margins; short axis is centered.
        assert view.x(0.0) == pytest.approx(40.0)
        assert view.x(4.0) == pytest.approx(960.0)
        assert view.y(1.0) == pytest.approx(500.0)
        span_y = view.y(0.0) - view.y(2.0)
        assert span_y == pytest.approx(2.0 * (view.x(1.0) - view.x(0.0)))

    def test_degenerate_extent_survives(self):
        view = fit_transform((1.0, 1.0), (0.0, 1.0))
        assert view.x(1.0) == pytest.approx(500.0)


class TestRenderSvg:
    def test_stable_element_ids(self, svg345: str):
        for element_id in (
            "triangle",
            "euler-line",
            "ninepoint",
            "incircle",
            "excircle-a",
            "excircle-b",
            "excircle-c",
            "point-O",
            "point-G",
            "point-H",
            "point-N",
            "point-I",
        ):
            assert f'id="{element_id}"' in svg345, element_id

    def test_header_and_viewbox(self, svg345: str):
        assert svg345.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
        assert 'viewBox="0 0 1000 1000"' in svg345
        assert svg345.rstrip().endswith("</svg>")

    def test_deterministic(self):
        sides = SideLengths(3, 4, 5)
        vertices = canonical_vertices(sides)
        assert render_svg(sides, vertices) == render_svg(sides, vertices)

    def test_all_coordinates_four_decimals(self, svg345: str):
        for match in re.finditer(r'\s(?:cx|cy|x1|y1|x2|y2|r)="([^"]+)"', svg345):
            value = match.group(1)
            if value == "3":  # marker dot radius is a bare constant
                continue
            assert re.fullmatch(r"-?\d+\.\d{4}", value), value

    def test_no_negative_zero(self, svg345: str):
        assert "-0.0000" not in svg345

    def test_incircle_ninepoint_ratio_preserved(self, svg345: str):
        # r(ninepoint) / r(incircle) must equal (R/2) / r = 5/4 after the
        # uniform fit: 25/16 and 1 in squared form.
        radii = {}
        for match in re.finditer(r'<circle id="(ninepoint|incircle)"[^>]*r="([0-9.]+)"', svg345):
            radii[match.group(1)] = float(match.group(2))
        assert radii["ninepoint"] / radii["incircle"] == pytest.approx(1.25, rel=1e-3)

    @pytest.mark.parametrize("one", [1, 1.0], ids=["exact", "float"])
    def test_equilateral_renders_single_coincident_circle(self, one):
        sides = SideLengths(one, one, one)
        text = render_svg(sides, canonical_vertices(sides))
        assert "incircle = nine-point circle (equilateral)" in text
        assert 'id="incircle"' in text
        assert 'id="ninepoint"' not in text
        assert 'id="euler-line"' not in text  # O = H: no line to draw
        for name in ("excircle-a", "excircle-b", "excircle-c"):
            assert f'id="{name}"' in text

    def test_float_backend_renders(self):
        sides = SideLengths(2.0, 3.0, 4.0)
        text = render_svg(sides, canonical_vertices(sides))
        assert 'id="triangle"' in text
        assert 'id="euler-line"' in text

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize(
        "near",
        [(10**6, 10**6 + 1, 10**6), (10**5, 10**5 + 1, 10**5), (1, 1, F("1.000001"))],
        ids=["1e6", "1e5", "1+1e-6"],
    )
    def test_exact_near_equilateral_draws_both_circles(self, near, backend):
        # These sides have no rational embedding, so they are drawn on
        # floats, where |IN|^2 falls inside the float tolerance of zero; the
        # sides are not equilateral, so the circles are tangent, not
        # coincident, on either backend.
        sides = SideLengths(*near)
        if backend == "float":
            sides = float_sides(sides)
        text = render_svg(sides, canonical_vertices(sides))
        assert 'id="ninepoint"' in text and 'id="incircle"' in text
        assert "(equilateral)" not in text


class _Stop(Exception):
    """Raised after the five radii, to end a drawing once they are read."""


def _svg_radii_squared(monkeypatch, sides, vertices):
    """The five squared radii that ``render_svg`` takes square roots of: R^2,
    r^2, r_a^2, r_b^2, r_c^2, in order, as floats."""
    seen = []

    def sqrt(x):
        seen.append(x)
        if len(seen) == 5:
            raise _Stop
        return math.sqrt(x)

    monkeypatch.setattr(svg, "math", types.SimpleNamespace(sqrt=sqrt))
    with pytest.raises(_Stop):
        render_svg(sides, vertices)
    return seen


def _floats_of_metrics(sides):
    """float() of the reduced metrics svg draws, or the OverflowError of
    the first that has none."""
    met = metrics(sides)
    try:
        return [float(getattr(met, name)) for name in ("R_sq", "r_sq", "rA_sq", "rB_sq", "rC_sq")]
    except OverflowError as exc:
        return exc


# Exact sides at every scale, 1e-320 to 1e300: their center weights are
# integer ratios, so only the radii see the scale.  Float sides only where
# their degree-4 center weights are finite and nonzero.
RADII_SCALES = [
    *(("exact", scale) for scale in
      ("1e-320", "1e-300", "1e-160", "1", "7/3", "1e153", "1e154", "3e154", "1e200", "1e300")),
    *(("float", scale) for scale in ("1e-70", "1", "7/3", "1e70")),
]


@pytest.mark.parametrize("backend, scale", RADII_SCALES)
@pytest.mark.parametrize("shape", [(2, 3, 4), (1, 1, F(3, 2)), (F(10**40 + 1, 10**40), 1, 1)])
def test_radii_are_float_of_the_reduced_metrics(monkeypatch, backend, scale, shape):
    """svg's radii come from the kernel's ratios, one true division each;
    they are math.sqrt(float(metrics(sides).X)) bit for bit, or raise the
    same OverflowError.  The drawing is given the vertices of the shape at
    unit scale, so that only the radii see the scale."""
    k = F(scale)
    sides = SideLengths(*(k * side for side in shape))
    vertices = canonical_vertices(float_sides(SideLengths(*shape)))
    if backend == "float":
        sides = float_sides(sides)
    want = _floats_of_metrics(sides)
    if isinstance(want, OverflowError):
        with pytest.raises(OverflowError) as caught:
            render_svg(sides, vertices)
        assert str(caught.value) == str(want)
        return
    got = _svg_radii_squared(monkeypatch, sides, vertices)
    assert [x.hex() for x in got] == [x.hex() for x in want]
