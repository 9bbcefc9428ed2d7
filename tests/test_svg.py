"""Deterministic SVG rendering: stable ids, fitted geometry, equilateral case."""

import re
from fractions import Fraction

import pytest

from ninepoint.svg import ViewTransform, fit_transform, render_svg
from ninepoint.triangle import Point2, SideLengths, canonical_vertices

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
