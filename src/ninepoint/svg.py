"""Deterministic schematic SVG rendering of a triangle and its circles.

Same input produces byte-identical output: elements appear in a fixed
order, coordinates are formatted with a fixed precision, and nothing
depends on the environment.  The drawing fits the triangle, the Euler
segment, the nine-point circle, the incircle, and all three excircles
into a 1000 x 1000 viewBox with a fixed margin; y is flipped so the
mathematical upper half-plane points up on screen.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .record import Record, set_field
from .triangle import Point2, SideLengths, metrics
from .centers import center_set

__all__ = ["ViewTransform", "fit_transform", "render_svg"]

VIEWBOX = 1000.0
MARGIN = 40.0

_PREAMBLE = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="1000" height="1000" viewBox="0 0 1000 1000">\n'
)
_POSTAMBLE = "</svg>\n"


class ViewTransform(Record):
    """Affine map from model coordinates to the viewBox (y flipped)."""

    __slots__ = _fields = ("scale", "offset_x", "offset_y")
    scale: float
    offset_x: float
    offset_y: float

    def __init__(self, scale: float, offset_x: float, offset_y: float) -> None:
        set_field(self, "scale", scale)
        set_field(self, "offset_x", offset_x)
        set_field(self, "offset_y", offset_y)

    def x(self, value: float) -> float:
        return self.offset_x + self.scale * value

    def y(self, value: float) -> float:
        return self.offset_y - self.scale * value

    def point(self, p: Point2) -> Tuple[float, float]:
        return (self.x(float(p.x)), self.y(float(p.y)))


def fit_transform(xs: Tuple[float, float], ys: Tuple[float, float]) -> ViewTransform:
    """Uniform transform fitting the model bounding box into the viewBox."""
    min_x, max_x = xs
    min_y, max_y = ys
    width = max(max_x - min_x, 1e-12)
    height = max(max_y - min_y, 1e-12)
    scale = (VIEWBOX - 2 * MARGIN) / max(width, height)
    # Center the short axis.
    pad_x = (VIEWBOX - scale * width) / 2.0
    pad_y = (VIEWBOX - scale * height) / 2.0
    return ViewTransform(
        scale=scale,
        offset_x=pad_x - scale * min_x,
        offset_y=VIEWBOX - pad_y + scale * min_y,
    )


def _fmt(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _circle(element_id: str, cx: float, cy: float, r: float, stroke: str) -> str:
    return (
        f'  <circle id="{element_id}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
        f'r="{_fmt(r)}" fill="none" stroke="{stroke}" stroke-width="1.5"/>\n'
    )


def _dot(element_id: str, cx: float, cy: float) -> str:
    return (
        f'  <circle id="{element_id}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
        f'r="3" fill="#111111"/>\n'
    )


def _text(x: float, y: float, label: str) -> str:
    return (
        f'  <text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="16" fill="#111111">{label}</text>\n'
    )


def render_svg(sides: SideLengths, vertices: Tuple[Point2, Point2, Point2]) -> str:
    """Schematic drawing; the returned string is a pure function of input."""
    centers = center_set(sides, vertices).points
    met = metrics(sides)
    radius_np = math.sqrt(float(met.R_sq)) / 2.0
    radius_in = math.sqrt(float(met.r_sq))
    radius_ex = {
        "excircle-a": (centers["Ea"], math.sqrt(float(met.rA_sq))),
        "excircle-b": (centers["Eb"], math.sqrt(float(met.rB_sq))),
        "excircle-c": (centers["Ec"], math.sqrt(float(met.rC_sq))),
    }

    xs: List[float] = []
    ys: List[float] = []
    for p in vertices:
        xs.append(float(p.x))
        ys.append(float(p.y))
    for center, radius in (
        (centers["N"], radius_np),
        (centers["I"], radius_in),
        *radius_ex.values(),
    ):
        xs.extend((float(center.x) - radius, float(center.x) + radius))
        ys.extend((float(center.y) - radius, float(center.y) + radius))
    view = fit_transform((min(xs), max(xs)), (min(ys), max(ys)))

    va, vb, vc = vertices
    parts: List[str] = [_PREAMBLE]
    points_attr = " ".join(
        f"{_fmt(px)},{_fmt(py)}" for px, py in (view.point(va), view.point(vb), view.point(vc))
    )
    parts.append(
        f'  <polygon id="triangle" points="{points_attr}" '
        f'fill="none" stroke="#111111" stroke-width="2"/>\n'
    )

    o_xy = view.point(centers["O"])
    h_xy = view.point(centers["H"])
    if abs(o_xy[0] - h_xy[0]) > 1e-9 or abs(o_xy[1] - h_xy[1]) > 1e-9:
        parts.append(
            f'  <line id="euler-line" x1="{_fmt(o_xy[0])}" y1="{_fmt(o_xy[1])}" '
            f'x2="{_fmt(h_xy[0])}" y2="{_fmt(h_xy[1])}" '
            f'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>\n'
        )

    n_xy = view.point(centers["N"])
    i_xy = view.point(centers["I"])
    # The two circles coincide exactly when R = 2r, that is exactly on
    # equilateral sides, on either backend.
    if sides.is_equilateral:
        parts.append(
            _circle("incircle", i_xy[0], i_xy[1], view.scale * radius_in, "#0055cc")
        )
        parts.append(
            _text(
                i_xy[0] + 10.0,
                i_xy[1] - 10.0,
                "incircle = nine-point circle (equilateral)",
            )
        )
    else:
        parts.append(
            _circle("ninepoint", n_xy[0], n_xy[1], view.scale * radius_np, "#cc2200")
        )
        parts.append(
            _circle("incircle", i_xy[0], i_xy[1], view.scale * radius_in, "#0055cc")
        )
    for element_id, (center, radius) in radius_ex.items():
        c_xy = view.point(center)
        parts.append(_circle(element_id, c_xy[0], c_xy[1], view.scale * radius, "#008844"))

    for label in ("O", "G", "H", "N", "I"):
        cx, cy = view.point(centers[label])
        parts.append(_dot(f"point-{label}", cx, cy))
        parts.append(_text(cx + 6.0, cy - 6.0, label))

    parts.append(_POSTAMBLE)
    return "".join(parts)
