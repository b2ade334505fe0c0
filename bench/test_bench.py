"""Tests of the benchmark's own machinery.

Run from the root of a checkout with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import reference as ref
import run
import tracer
from workloads import Outcome

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from barypoly import affine, barypolygon  # noqa: E402

ROWS = [(0.0, 0.0), (1.0, 0.1), (0.3, 0.9), (-0.4, 0.5)]
T = [0.2, 0.7, 0.45, 0.3]


def _frac_excluded(values):
    out = []
    for k in range(len(values)):
        prod = Fraction(1)
        for i, v in enumerate(values):
            if i != k:
                prod *= v
        out.append(prod)
    return out


def _frac_barycenter(rows, weights):
    total = sum(weights)
    return [sum(w * Fraction(row[j]) for w, row in zip(weights, rows)) / total
            for j in range(len(rows[0]))]


def _close(decimals, fractions, rel=Fraction(1, 10**55)):
    for d, f in zip(decimals, fractions):
        assert abs(Fraction(d) - f) <= rel * max(abs(f), Fraction(1)), (d, f)


def test_excluded_products_match_fractions():
    values = [0.1, 0.35, 0.999, 1e-7, 0.5]
    _close(ref.excluded_products(values), _frac_excluded([Fraction(v) for v in values]))


def test_limit_point_matches_fractions():
    weights = _frac_excluded([1 - Fraction(v) for v in T])
    _close(ref.limit_point(ROWS, T), _frac_barycenter(ROWS, weights))


def test_dual_points_follow_the_exact_derived_orbit():
    rows = ROWS[:3]
    entry = [Fraction(v) for v in T[:3]]
    expected = []
    for _ in range(4):
        entry = _frac_excluded([1 - v for v in entry])
        expected.append(_frac_barycenter(rows, entry))
    for got, want in zip(ref.dual_points(rows, T[:3], 4), expected):
        _close(got, want)


def test_alpha_3_is_the_golden_ratio_conjugate():
    with localcontext() as ctx:
        ctx.prec = 70
        golden = (Decimal(5).sqrt() - 1) / 2
    assert abs(ref.alpha(3) - golden) < Decimal(10) ** -55


def test_float_limit_point_has_full_digits():
    point = barypolygon.limit_point(affine.PointFamily.from_coords(ROWS),
                                    barypolygon.ParamVector(T)).coords
    error = ref.point_error(point, ref.limit_point(ROWS, T))
    assert 15.0 < ref.digits(error, ref.scale(ROWS)) <= ref.MAX_DIGITS
    assert ref.digits(Decimal(0), 1.0) == ref.MAX_DIGITS


def test_spans_count_calls_and_self_time_adds_up():
    family = affine.PointFamily.from_coords(ROWS)
    t = barypolygon.ParamVector(T)
    original = barypolygon.diameter
    rec = tracer.Recorder()
    rec.install()
    try:
        assert barypolygon.diameter is not original
        rec.begin(tracer.ROOT)
        _, steps = barypolygon.iterate_to_diameter(family, t, eps=1e-9)
        duration = rec.end()
    finally:
        rec.uninstall()
    assert barypolygon.diameter is original
    assert rec.call_count("barypolygon.step") == steps
    assert rec.call_count("affine.diameter") == steps + 1
    assert rec.call_count("barypolygon.iterate") == 1
    assert sum(rec.self_ns) == duration
    assert min(rec.self_ns) >= 0


def test_only_validated_families_count_as_builds():
    rec = tracer.Recorder()
    rec.install()
    try:
        rec.begin(tracer.SETUP)
        family = affine.PointFamily.from_coords(ROWS)
        barypolygon.barypolygon_step(family, barypolygon.ParamVector(T))
        rec.end()
    finally:
        rec.uninstall()
    assert rec.call_count(tracer.FAMILY_BUILD) == 1
    assert rec.call_count("barypolygon.step") == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    outcomes = [Outcome(ok=True, digits=12.0), Outcome(ok=False)]

    class Named:
        name = "polygon_converge"

    e2e = run.end_to_end(Named, 0.1, [([0.01, 0.02], 0.04)] * 3, outcomes)
    layers = run.per_layer(tracer.Recorder(), outcomes, 0.03, 40_000_000, (0.02, 0.09))
    for metrics, entries in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert {k: u for k, (_, u) in metrics.items()} == {e["name"]: e["unit"] for e in entries}
