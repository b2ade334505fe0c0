"""SVG rendering of planar polygon iterations and dual-point paths.

Output is plain SVG 1.1 text with no dependencies: nested polygons graded
from dark to light by iterate index with the limit point marked, or the
dual-point path with the centroid marked.  The viewport is the bounding box
of the starting family plus a 5% margin; later iterates stay inside it.
"""

from __future__ import annotations

from .affine import centroid
from .barypolygon import PolygonTrace, limit_point
from .dual import DualTrace

__all__ = ["emit_svg"]

WIDTH = 640
HEIGHT = 640
MARGIN = 0.05
# stroke width and limit-marker radius, as fractions of the frame's span
STROKE_FRAC = 0.004
MARKER_FRAC = 0.012
START_COLOR = "#0b3d91"
END_COLOR = "#cfe3f7"
MARKER_COLOR = "#c0392b"
BACKGROUND = "#ffffff"


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


def emit_svg(trace) -> str:
    """Render a polygon or dual trace as an SVG 1.1 document string."""
    if isinstance(trace, PolygonTrace):
        family = trace.iterates[0]
    elif isinstance(trace, DualTrace):
        family = trace.family
    else:
        raise TypeError(f"unsupported trace type {type(trace).__name__}")
    if family.dim != 2:
        raise ValueError(f"SVG output needs planar input (d = 2), got d = {family.dim}")
    # the frame: the starting family's bounding box plus its margin, y flipped
    xs, ys = family.columns
    min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    pad = MARGIN * span
    box_x, box_y, box_w, box_h = map(_num, (min_x - pad, min_y - pad,
                                            max_x - min_x + 2.0 * pad, max_y - min_y + 2.0 * pad))
    stroke = STROKE_FRAC * span

    def at(x: float, y: float) -> tuple[str, str]:
        return _num(x), _num((min_y + max_y) - y)

    def line(tag: str, pairs, color: str) -> str:
        points = " ".join(",".join(at(x, y)) for x, y in pairs)
        return (f'<{tag} points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="{_num(stroke)}"/>')

    def shade(i: int, count: int) -> str:
        f = i / (count - 1) if count > 1 else 0.0
        return _lerp_color(START_COLOR, END_COLOR, f)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="{box_x} {box_y} {box_w} {box_h}">',
        f'<rect x="{box_x}" y="{box_y}" width="{box_w}" height="{box_h}" '
        f'fill="{BACKGROUND}"/>',
    ]
    if isinstance(trace, PolygonTrace):
        count = len(trace.iterates)
        lines += [line("polygon", zip(*it.columns), shade(i, count))
                  for i, it in enumerate(trace.iterates)]
        marker, paint = limit_point(family, trace.params), f'fill="{MARKER_COLOR}"'
    else:
        lines.append(line("polygon", zip(xs, ys), END_COLOR))
        lines.append(line("polyline", (pt.coords for pt in trace.points), START_COLOR))
        count, radius = len(trace.points), _num(0.5 * MARKER_FRAC * span)
        for i, pt in enumerate(trace.points):
            cx, cy = at(*pt.coords)
            lines.append(f'<circle cx="{cx}" cy="{cy}" r="{radius}" fill="{shade(i, count)}"/>')
        marker = centroid(family)
        paint = (f'fill="none" stroke="{MARKER_COLOR}" '
                 f'stroke-width="{_num(1.5 * stroke)}"')
    cx, cy = at(*marker.coords)
    lines.append(f'<circle cx="{cx}" cy="{cy}" r="{_num(MARKER_FRAC * span)}" {paint}/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
