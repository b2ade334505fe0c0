"""SVG emission: validity, element counts, viewport, determinism."""

import xml.etree.ElementTree as ET
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from barypoly.affine import PointFamily, centroid
from barypoly.barypolygon import ParamVector, iterate_sequence, limit_point
from barypoly.config import random_family
from barypoly.dual import dual_trace
from barypoly.svgfig import END_COLOR, START_COLOR, _lerp_color, _num, emit_svg

TRIANGLE = PointFamily.from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])

PENTA = PointFamily.from_coords(
    [(0.0, 0.0), (4.0, -0.5), (5.2, 2.8), (2.4, 4.6), (-0.8, 2.9)]
)
PENTA_T = ParamVector(tuple(float(Fraction(1, d)) for d in (61, 41, 28, 19, 13)))

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(text):
    root = ET.fromstring(text)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("version") == "1.1"
    return root


def test_single_polygon_document():
    doc = emit_svg(iterate_sequence(TRIANGLE, ParamVector((0.5, 0.5, 0.5)), 0))
    root = _parse(doc)
    polygons = root.findall(f"{SVG_NS}polygon")
    assert len(polygons) == 1
    assert len(root.findall(f"{SVG_NS}circle")) == 1


def test_pentagon_twenty_iterations():
    doc = emit_svg(iterate_sequence(PENTA, PENTA_T, 20))
    root = _parse(doc)
    assert len(root.findall(f"{SVG_NS}polygon")) == 21
    assert len(root.findall(f"{SVG_NS}circle")) == 1


def test_viewport_covers_start_family_with_margin():
    doc = emit_svg(iterate_sequence(PENTA, PENTA_T, 3))
    root = _parse(doc)
    min_x, min_y, width, height = (float(v) for v in root.get("viewBox").split())
    xs = [pt.coords[0] for pt in PENTA.points]
    ys = [pt.coords[1] for pt in PENTA.points]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    pad = 0.05 * span
    assert min_x == pytest.approx(min(xs) - pad, rel=1e-9)
    assert min_y == pytest.approx(min(ys) - pad, rel=1e-9)
    assert width == pytest.approx(max(xs) - min(xs) + 2 * pad, rel=1e-9)
    assert height == pytest.approx(max(ys) - min(ys) + 2 * pad, rel=1e-9)


def test_non_planar_rejected():
    fam = PointFamily.from_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    t = ParamVector((0.5, 0.5, 0.5))
    for trace in (iterate_sequence(fam, t, 1), dual_trace(fam, t, 1)):
        with pytest.raises(ValueError) as info:
            emit_svg(trace)
        assert str(info.value) == "SVG output needs planar input (d = 2), got d = 3"


def test_unsupported_trace_rejected():
    with pytest.raises(TypeError) as info:
        emit_svg(TRIANGLE)
    assert str(info.value) == "unsupported trace type PointFamily"


def test_dual_trace_svg():
    trace = dual_trace(TRIANGLE, ParamVector((0.2, 0.3, 0.4)), 12)
    root = _parse(emit_svg(trace))
    assert len(root.findall(f"{SVG_NS}polyline")) == 1
    # family outline polygon, one dot per dual point, one centroid ring
    assert len(root.findall(f"{SVG_NS}polygon")) == 1
    assert len(root.findall(f"{SVG_NS}circle")) == len(trace.points) + 1


def test_deterministic_output():
    trace = iterate_sequence(PENTA, PENTA_T, 8)
    assert emit_svg(trace) == emit_svg(trace)


def test_polygons_shade_from_start_to_end_color():
    doc = emit_svg(iterate_sequence(TRIANGLE, ParamVector((0.5, 0.5, 0.5)), 2))
    assert f'stroke="{START_COLOR}"' in doc
    assert f'stroke="{END_COLOR}"' in doc


# The two renderers emit_svg replaced, kept here as the oracle for its output.
class _OldFrame:
    def __init__(self, coords, margin):
        xs = [c[0] for c in coords]
        ys = [c[1] for c in coords]
        self.min_x, self.max_x = min(xs), max(xs)
        self.min_y, self.max_y = min(ys), max(ys)
        span = max(self.max_x - self.min_x, self.max_y - self.min_y, 1e-9)
        self.span = span
        self.pad = margin * span

    def flip(self, point):
        return point[0], (self.min_y + self.max_y) - point[1]

    @property
    def view_box(self):
        return " ".join(
            _num(v)
            for v in (
                self.min_x - self.pad,
                self.min_y - self.pad,
                self.max_x - self.min_x + 2.0 * self.pad,
                self.max_y - self.min_y + 2.0 * self.pad,
            )
        )


def _old_header(frame, style):
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


def _old_polygon_svg(trace, style):
    base = list(zip(*trace.iterates[0].columns))
    frame = _OldFrame(base, style.margin)
    stroke = style.stroke_frac * frame.span
    lines = _old_header(frame, style)
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


def _old_dual_svg(trace, style):
    base = [pt.coords for pt in trace.family.points]
    frame = _OldFrame(base, style.margin)
    stroke = style.stroke_frac * frame.span
    lines = _old_header(frame, style)
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


# the style emit_svg took as an argument before it became module constants
OLD_STYLE = SimpleNamespace(width=640, height=640, margin=0.05, stroke_frac=0.004,
                            marker_frac=0.012, start_color="#0b3d91", end_color="#cfe3f7",
                            marker_color="#c0392b", background="#ffffff")


@st.composite
def _planar_families(draw):
    """Seeded random families at three scales, or collinear rows, some so
    close that the frame's span falls to its 1e-9 floor."""
    p = draw(st.integers(2, 9))
    x0, y0 = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        rows = [(x0 + scale * x, y0 + scale * y)
                for x, y in zip(*random_family(p, 2, draw(st.integers(0, 2**16))).columns)]
    else:
        step = draw(st.sampled_from([1e-11, 1e-10, 0.5]))
        slope = draw(st.sampled_from([0.0, 1.0, -3.0]))
        rows = [(x0 + k * step, y0 + k * step * slope) for k in range(p)]
    return PointFamily.from_coords(rows)


@given(_planar_families(), st.data(), st.integers(0, 30), st.integers(0, 60))
def test_emit_svg_matches_the_two_renderers_it_replaced(family, data, iterations, steps):
    t = ParamVector(tuple(data.draw(st.lists(st.floats(0.001, 0.999),
                                             min_size=family.size, max_size=family.size))))
    polygons = iterate_sequence(family, t, iterations)
    assert emit_svg(polygons) == _old_polygon_svg(polygons, OLD_STYLE)
    dual = dual_trace(family, t, steps)
    assert emit_svg(dual) == _old_dual_svg(dual, OLD_STYLE)
