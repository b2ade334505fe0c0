"""SVG rendering of planar polygon iterations and dual-point paths.

Output is plain SVG 1.1 text with no dependencies: nested polygons graded
from dark to light by iterate index with the limit point marked, or the
dual-point path with the centroid marked.  The viewport is the bounding box
of the starting family plus a 5% margin; later iterates stay inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import centroid
from .barypolygon import PolygonTrace, limit_point
from .dual import DualTrace

__all__ = ["SvgStyle", "emit_svg"]


@dataclass(frozen=True)
class SvgStyle:
    width: int = 640
    height: int = 640
    margin: float = 0.05
    stroke_frac: float = 0.004
    marker_frac: float = 0.012
    start_color: str = "#0b3d91"
    end_color: str = "#cfe3f7"
    marker_color: str = "#c0392b"
    background: str = "#ffffff"


def _num(x: float) -> str:
    return format(x, ".10g")


def _parse_hex(color: str) -> tuple[int, int, int]:
    value = color.lstrip("#")
    return int(value[0:2], 16), int(value[2:4], 16), int(value[4:6], 16)


def _lerp_color(c0: str, c1: str, f: float) -> str:
    r0, g0, b0 = _parse_hex(c0)
    r1, g1, b1 = _parse_hex(c1)
    mix = tuple(round(a + (b - a) * f) for a, b in zip((r0, g0, b0), (r1, g1, b1)))
    return "#{:02x}{:02x}{:02x}".format(*mix)


class _Frame:
    """Bounding box of the reference family, with a y-flip into SVG space."""

    def __init__(self, coords: list[tuple[float, float]], margin: float):
        xs = [c[0] for c in coords]
        ys = [c[1] for c in coords]
        self.min_x, self.max_x = min(xs), max(xs)
        self.min_y, self.max_y = min(ys), max(ys)
        span = max(self.max_x - self.min_x, self.max_y - self.min_y, 1e-9)
        self.span = span
        self.pad = margin * span

    def flip(self, point: tuple[float, float]) -> tuple[float, float]:
        return point[0], (self.min_y + self.max_y) - point[1]

    @property
    def view_box(self) -> str:
        return " ".join(
            _num(v)
            for v in (
                self.min_x - self.pad,
                self.min_y - self.pad,
                self.max_x - self.min_x + 2.0 * self.pad,
                self.max_y - self.min_y + 2.0 * self.pad,
            )
        )


def _header(frame: _Frame, style: SvgStyle) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{style.width}" height="{style.height}" '
        f'viewBox="{frame.view_box}">',
        f'<rect x="{_num(frame.min_x - frame.pad)}" y="{_num(frame.min_y - frame.pad)}" '
        f'width="{_num(frame.max_x - frame.min_x + 2.0 * frame.pad)}" '
        f'height="{_num(frame.max_y - frame.min_y + 2.0 * frame.pad)}" '
        f'fill="{style.background}"/>',
    ]


def _require_planar(dim: int) -> None:
    if dim != 2:
        raise ValueError(f"SVG output needs planar input (d = 2), got d = {dim}")


def _polygon_svg(trace: PolygonTrace, style: SvgStyle) -> str:
    _require_planar(trace.dim)
    base = list(zip(*trace.iterates[0].columns))
    frame = _Frame(base, style.margin)
    stroke = style.stroke_frac * frame.span
    lines = _header(frame, style)
    count = len(trace.iterates)
    for i, family in enumerate(trace.iterates):
        f = i / (count - 1) if count > 1 else 0.0
        color = _lerp_color(style.start_color, style.end_color, f)
        pts = " ".join(
            f"{_num(x)},{_num(y)}"
            for x, y in map(frame.flip, zip(*family.columns))
        )
        lines.append(
            f'<polygon points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_num(stroke)}"/>'
        )
    gx, gy = frame.flip(limit_point(trace.iterates[0], trace.params).coords)
    lines.append(
        f'<circle cx="{_num(gx)}" cy="{_num(gy)}" r="{_num(style.marker_frac * frame.span)}" '
        f'fill="{style.marker_color}"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _dual_svg(trace: DualTrace, style: SvgStyle) -> str:
    _require_planar(trace.family.dim)
    base = [pt.coords for pt in trace.family.points]
    frame = _Frame(base, style.margin)
    stroke = style.stroke_frac * frame.span
    lines = _header(frame, style)
    outline = " ".join(
        f"{_num(x)},{_num(y)}"
        for x, y in (frame.flip(pt.coords) for pt in trace.family.points)
    )
    lines.append(
        f'<polygon points="{outline}" fill="none" stroke="{style.end_color}" '
        f'stroke-width="{_num(stroke)}"/>'
    )
    path = " ".join(
        f"{_num(x)},{_num(y)}"
        for x, y in (frame.flip(pt.coords) for pt in trace.points)
    )
    lines.append(
        f'<polyline points="{path}" fill="none" stroke="{style.start_color}" '
        f'stroke-width="{_num(stroke)}"/>'
    )
    count = len(trace.points)
    radius = 0.5 * style.marker_frac * frame.span
    for i, pt in enumerate(trace.points):
        f = i / (count - 1) if count > 1 else 0.0
        color = _lerp_color(style.start_color, style.end_color, f)
        x, y = frame.flip(pt.coords)
        lines.append(
            f'<circle cx="{_num(x)}" cy="{_num(y)}" r="{_num(radius)}" fill="{color}"/>'
        )
    gx, gy = frame.flip(centroid(trace.family).coords)
    lines.append(
        f'<circle cx="{_num(gx)}" cy="{_num(gy)}" r="{_num(style.marker_frac * frame.span)}" '
        f'fill="none" stroke="{style.marker_color}" stroke-width="{_num(1.5 * stroke)}"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_svg(trace, style: SvgStyle = SvgStyle()) -> str:
    """Render a polygon or dual trace as an SVG 1.1 document string."""
    if isinstance(trace, PolygonTrace):
        return _polygon_svg(trace, style)
    if isinstance(trace, DualTrace):
        return _dual_svg(trace, style)
    raise TypeError(f"unsupported trace type {type(trace).__name__}")
