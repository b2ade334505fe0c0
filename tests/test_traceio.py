"""CSV/JSON trace serialisation: schema shape, determinism, round trips."""

import hashlib
import json
import math
import os
import tracemalloc

import pytest

from barypoly.affine import PointFamily
from barypoly.barypolygon import ParamVector, iterate_sequence
from barypoly.config import random_family
from barypoly.derived import derived_trace
from barypoly.dual import dual_trace
from barypoly.traceio import fmt_float, render_trace, write_trace

TRIANGLE = PointFamily.from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
T3 = ParamVector((0.2, 0.3, 0.4))


def read_csv(text):
    """A CSV trace's header and its rows as floats."""
    header, *lines = text.splitlines()
    return header.split(","), [[float(cell) for cell in line.split(",")] for line in lines]


def test_fmt_float_round_trip():
    for x in (0.1, 1 / 3, 0.2 + 0.1, 1e-300, 5e-324, 123456789.123456789,
              math.pi, -0.0, 2.0, 1e-6):
        assert float(fmt_float(x)) == x


def test_single_step_polygon_csv():
    trace = iterate_sequence(TRIANGLE, T3, 0)
    text = render_trace(trace, "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == "step,v1_1,v1_2,v2_1,v2_2,v3_1,v3_2"
    assert lines[1].startswith("0,")


def test_derived_csv_shape():
    trace = derived_trace(T3, 3)
    header, rows = read_csv(render_trace(trace, "csv"))
    assert header == ["step", "t1", "t2", "t3"]
    assert len(rows) == 4
    assert all(len(row) == 4 for row in rows)
    assert rows[0][1:] == [0.2, 0.3, 0.4]


def test_dual_csv_has_distance_column():
    trace = dual_trace(TRIANGLE, T3, 3)
    header, rows = read_csv(render_trace(trace, "csv"))
    assert header == ["step", "g1", "g2", "dist"]
    assert len(rows) == 4


def test_csv_round_trip_exact():
    trace = derived_trace(ParamVector((0.123456789, 0.987654321, 0.5)), 12)
    _, rows = read_csv(render_trace(trace, "csv"))
    for m, entry in enumerate(trace.params):
        assert rows[m][0] == float(m)
        for got, want in zip(rows[m][1:], entry.t):
            assert got == want


def test_json_round_trip_exact():
    trace = derived_trace(ParamVector((0.123456789, 0.987654321, 0.5)), 12)
    doc = json.loads(render_trace(trace, "json"))
    assert doc["kind"] == "derived"
    assert doc["p"] == 3
    assert doc["saturated_at"] == trace.saturated_at
    for m, entry in enumerate(trace.params):
        for got, want in zip(doc["steps"][m], entry.t):
            assert float(got) == want


def test_json_polygon_metadata():
    trace = iterate_sequence(TRIANGLE, T3, 2)
    doc = json.loads(render_trace(trace, "json", tolerances={"stationary": 1e-9}))
    assert doc["kind"] == "polygon"
    assert doc["p"] == 3 and doc["d"] == 2
    assert [float(x) for x in doc["t0"]] == [0.2, 0.3, 0.4]
    assert doc["tolerances"] == {"stationary": 1e-9}
    assert len(doc["steps"]) == 3
    assert len(doc["steps"][0]) == 6


def test_render_deterministic():
    trace = dual_trace(TRIANGLE, T3, 20)
    for fmt in ("csv", "json"):
        assert render_trace(trace, fmt) == render_trace(trace, fmt)


def test_write_trace_bytes_identical(tmp_path):
    trace = derived_trace(T3, 10)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_trace(trace, "json", a)
    write_trace(trace, "json", b)
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_write_trace_bad_destination(tmp_path):
    trace = derived_trace(T3, 1)
    with pytest.raises(OSError):
        write_trace(trace, "csv", tmp_path / "missing" / "trace.csv")


def test_unknown_format_rejected():
    trace = derived_trace(T3, 1)
    with pytest.raises(ValueError):
        render_trace(trace, "xml")


def test_write_trace_checks_the_format_before_opening(tmp_path):
    path = tmp_path / "trace.xml"
    with pytest.raises(ValueError, match="unknown format"):
        write_trace(iterate_sequence(TRIANGLE, T3, 2), "xml", path)
    assert not path.exists()


def test_tolerances_layout_digest():
    # the golden CLI digests write no tolerances object; this pins its layout
    tolerances = {"distinct": 1 / 61, "stationary": 1e-9}
    text = "".join(
        render_trace(trace, fmt, tolerances=tolerances)
        for trace in (iterate_sequence(TRIANGLE, T3, 3), derived_trace(T3, 40),
                      dual_trace(TRIANGLE, T3, 40))
        for fmt in ("csv", "json")
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e2abd93f9f224e482268cf369359545e4285a3eaa1faa8ad1cd5d321ef24798c")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_trace_memory_does_not_grow_with_steps(fmt):
    # 3,001 rows of 100 numbers: about 5 MB of text, written a row at a time
    trace = iterate_sequence(random_family(50, 2, 1), ParamVector((0.3,) * 50), 3000)
    tracemalloc.start()
    try:
        write_trace(trace, fmt, os.devnull)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
