"""Dual points, dual traces, and centroid convergence."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from barypoly.affine import GeometryError, PointFamily, barycenter, centroid, diameter
from barypoly.barypolygon import ParamVector, _orbit_entry, limit_point, limit_weights
from barypoly.config import random_family, regular_ngon
from barypoly.derived import classify_dynamics, derived_step, derived_trace
from barypoly.dual import (
    WEIGHT_FLOOR,
    centroid_convergence_report,
    dual_trace,
)

TRIANGLE = PointFamily.from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def _closed_params(values):
    """A ParamVector whose components may be exactly 0.0 or 1.0, built as the
    orbit kernel builds its entries; each must still be finite and in [0, 1]."""
    vals = tuple(map(float, values))
    assert len(vals) >= 2 and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals), vals
    return _orbit_entry(vals)


def test_dual_point_is_limit_point():
    t = ParamVector((0.5, 1 / 3, 0.25))
    g0 = dual_trace(TRIANGLE, t, 0).points[0]
    assert g0.coords == limit_point(TRIANGLE, t).coords
    assert g0.coords == pytest.approx(
        (float(Fraction(9, 29)), float(Fraction(8, 29))), abs=1e-13
    )


def test_dual_point_regular_is_centroid():
    t = ParamVector((0.42, 0.42, 0.42))
    g0 = dual_trace(TRIANGLE, t, 0).points[0]
    assert g0.coords == pytest.approx((1 / 3, 1 / 3), abs=1e-15)


def test_weight_identity_exact():
    # the product-form weights of a dual point are one derived step of t
    for t in (ParamVector((0.2, 0.3, 0.4)), ParamVector((0.11, 0.67, 0.5, 0.21))):
        assert limit_weights(t) == derived_step(t).t


def test_dual_trace_single_point():
    trace = dual_trace(TRIANGLE, ParamVector((0.5, 1 / 3, 0.25)), 0)
    assert len(trace.points) == 1
    assert trace.points[0].coords == pytest.approx((9 / 29, 8 / 29), abs=1e-13)
    assert not trace.truncated


def test_dual_trace_p2_stationary():
    fam = PointFamily.from_coords([(0.0,), (1.0,)])
    trace = dual_trace(fam, ParamVector((0.3, 0.7)), 8)
    first = trace.points[0].coords
    for pt in trace.points:
        assert pt.coords == pytest.approx(first, abs=1e-12)


def test_dual_trace_p2_two_periodic():
    fam = PointFamily.from_coords([(0.0,), (1.0,)])
    trace = dual_trace(fam, ParamVector((0.3, 0.5)), 9)
    pts = [pt.coords[0] for pt in trace.points]
    assert abs(pts[1] - pts[0]) > 1e-3
    for m in range(len(pts) - 2):
        assert abs(pts[m + 2] - pts[m]) <= 1e-12


def test_dual_points_in_convex_hull():
    fam = PointFamily.from_coords([(0, 0), (4, 1), (3, 5)])
    t0 = ParamVector((0.15, 0.62, 0.48))
    trace = dual_trace(fam, t0, 200)
    xs = [pt.coords[0] for pt in fam.points]
    ys = [pt.coords[1] for pt in fam.points]
    for pt in trace.points:
        assert min(xs) - 1e-12 <= pt.coords[0] <= max(xs) + 1e-12
        assert min(ys) - 1e-12 <= pt.coords[1] <= max(ys) + 1e-12


def test_dual_trace_truncates_before_saturation():
    trace = dual_trace(TRIANGLE, ParamVector((0.2, 0.3, 0.4)), 400)
    assert trace.truncated
    dt = trace.params_used
    assert dt.saturated_at is not None
    assert len(trace.points) < len(dt.params)
    # distances recorded up to the cut stay finite and end tiny
    assert trace.distances[-1] < 1e-6


def test_dual_trace_floor_applies_at_the_horizon():
    # the last requested step is floor-checked too, not only interior ones
    full = dual_trace(TRIANGLE, ParamVector((0.2, 0.3, 0.4)), 400)
    kept = len(full.points)
    exact = dual_trace(TRIANGLE, ParamVector((0.2, 0.3, 0.4)), kept)
    assert len(exact.points) == kept
    assert [pt.coords for pt in exact.points] == [pt.coords for pt in full.points]


def test_irregular_p3_distance_profile():
    rng = random.Random(14)
    for _ in range(6):
        fam = PointFamily.from_coords(
            [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
        )
        t0 = ParamVector(tuple(rng.uniform(0.1, 0.9) for _ in range(3)))
        if t0.spread < 1e-9:
            continue
        trace = dual_trace(fam, t0, 400)
        d = trace.distances
        assert min(d) < 1e-6
        m0 = classify_dynamics(t0).lockin_index
        slack = 1e-13 * max(1.0, diameter(fam))
        # two-step contraction after lock-in
        for m in range(m0, len(d) - 2):
            assert d[m + 2] <= d[m] + slack
        # tail ratio bound once well inside the contraction regime
        for m in range(m0, len(d) - 2):
            if d[m] < 0.1 * d[0] and d[m] > 1e2 * slack:
                assert d[m + 2] / d[m] <= 0.75


def test_report_regular_is_immediate():
    trace = dual_trace(TRIANGLE, ParamVector((0.3, 0.3, 0.3)), 30)
    report = centroid_convergence_report(trace)
    assert report.immediate
    assert report.decay_rate is None
    assert report.first_below == 0
    assert not report.conjectured
    assert max(trace.distances) <= 1e-12


def test_report_irregular_p3():
    trace = dual_trace(TRIANGLE, ParamVector((0.2, 0.3, 0.4)), 400)
    report = centroid_convergence_report(trace)
    assert not report.immediate
    assert not report.conjectured
    assert report.first_below is not None
    assert report.decay_rate is not None
    assert 0.0 < report.decay_rate < 1.0


def test_report_near_stationary_perturbation():
    from barypoly.derived import solve_alpha

    a = solve_alpha(3)
    t0 = ParamVector((1 - a + 1e-3, 1 - a - 1e-3, 1 - a))
    trace = dual_trace(TRIANGLE, t0, 400)
    report = centroid_convergence_report(trace)
    assert report.first_below is not None


def test_report_conjectured_for_p4_irregular():
    fam = PointFamily.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
    trace = dual_trace(fam, ParamVector((0.2, 0.3, 0.4, 0.5)), 400)
    report = centroid_convergence_report(trace)
    assert report.conjectured
    assert report.first_below is not None


def test_report_rejects_p2():
    fam = PointFamily.from_coords([(0.0,), (1.0,)])
    trace = dual_trace(fam, ParamVector((0.3, 0.5)), 10)
    with pytest.raises(ValueError):
        centroid_convergence_report(trace)


def _old_complement_products(values):
    us = tuple(1.0 - v for v in values)
    out = []
    for k in range(len(us)):
        prod = 1.0
        for i, u in enumerate(us):
            if i != k:
                prod *= u
        out.append(prod)
    return tuple(out)


def _old_dual_trace(family, t0, steps, weight_floor):
    """dual_trace as it was before it read the weights from the orbit: the
    orbit through checked constructors, and each G_m's weights computed
    again from t^(m) for the floor test and again for the point."""
    def saturated(t):
        return any(v == 0.0 or v == 1.0 for v in t.t)

    params, saturated_at = [t0], (0 if saturated(t0) else None)
    while saturated_at is None and len(params) <= steps:
        params.append(_closed_params(_old_complement_products(params[-1].t)))
        if saturated(params[-1]):
            saturated_at = len(params) - 1
    end = len(params) if saturated_at is None else saturated_at
    usable = []
    for entry in params[:end]:
        if min(_old_complement_products(entry.t)) < weight_floor:
            break
        usable.append(entry)
    if not usable:
        usable = [params[0]]
    g = centroid(family)
    points = [barycenter(family, _old_complement_products(t.t)) for t in usable]
    return params, saturated_at, points, [math.dist(pt.coords, g.coords) for pt in points]


def _outcome(run):
    try:
        return run()
    except ValueError as exc:
        return type(exc), str(exc)


def _hexes(values):
    return tuple(map(float.hex, values))


_COMPONENT = st.one_of(
    st.integers(1, 2**53 - 1).map(lambda n: n / 2**53),
    st.floats(0.0, 1.0),
    st.floats(1e-300, 1e-6),
    st.floats(1.0 - 1e-6, 1.0),
    st.sampled_from([0.0, 1.0]),
)


@given(
    st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**16),
    st.sampled_from([1e-3, 1.0, 1e3]), st.booleans(), st.data(),
    st.integers(0, 60),
)
def test_dual_trace_matches_the_reference_bit_for_bit(
        p, dim, seed, scale, regular, data, steps):
    family = PointFamily.from_coords(
        [tuple(scale * c for c in pt.coords) for pt in random_family(p, dim, seed).points])
    if regular:
        values = (data.draw(_COMPONENT),) * p
    else:
        values = tuple(data.draw(st.lists(_COMPONENT, min_size=p, max_size=p)))
    t0 = _closed_params(values)

    def new():
        trace = dual_trace(family, t0, steps)
        dt = trace.params_used
        return ([_hexes(e.t) for e in dt.params], dt.saturated_at,
                [_hexes(pt.coords) for pt in trace.points], _hexes(trace.distances))

    def old():
        params, saturated_at, points, dists = _old_dual_trace(family, t0, steps, WEIGHT_FLOOR)
        return ([_hexes(e.t) for e in params], saturated_at,
                [_hexes(pt.coords) for pt in points], _hexes(dists))

    assert _outcome(new) == _outcome(old)


def test_dual_trace_falls_back_to_the_first_point():
    # G_0's weights (0.7 * 2**-40, ...) fall under the floor at once, so the
    # trace keeps G_0 alone, the limit point of t0
    t0 = ParamVector((0.2, 0.3, 1 - 2**-40))
    trace = dual_trace(TRIANGLE, t0, 10)
    assert [pt.coords for pt in trace.points] == [limit_point(TRIANGLE, t0).coords]
    assert trace.truncated


@pytest.mark.parametrize("weight_floor", [-1.0, 0.0])
def test_dual_trace_rejects_a_zero_weight_as_barycenter_does(weight_floor):
    # every u = 1 - t is 2**-53, so each product of 23 of them underflows:
    # t^(1), the weights of G_0, is all zeros.  dual_trace stops at
    # WEIGHT_FLOOR and raises from its G_0 fallback; the old trace raised the
    # same message at WEIGHT_FLOOR and at the non-positive floors, where the
    # zero weight passed the floor test and reached barycenter
    family = regular_ngon(24)
    t0 = ParamVector((1.0 - 2**-53,) * 24)
    weights = derived_trace(t0, 5).params[1].t
    assert weights == (0.0,) * 24
    with pytest.raises(GeometryError) as expected:
        barycenter(family, weights)
    with pytest.raises(GeometryError) as raised:
        dual_trace(family, t0, 5)
    assert str(raised.value) == str(expected.value) == (
        "weights must be finite and positive, got 0.0")
    for floor in (weight_floor, WEIGHT_FLOOR):
        assert _outcome(lambda: _old_dual_trace(family, t0, 5, floor)) == (
            GeometryError, str(expected.value))


def test_dual_trace_checks_the_family_size():
    with pytest.raises(ValueError, match="3 points but 4 parameters"):
        dual_trace(TRIANGLE, ParamVector((0.2, 0.3, 0.4, 0.5)), 10)


@given(st.integers(3, 8), st.integers(1, 3), st.integers(0, 2**16),
       st.floats(0.001, 0.999), st.integers(0, 60))
def test_regular_parameters_keep_every_dual_point_at_the_centroid(p, dim, seed, c, steps):
    family = random_family(p, dim, seed)
    trace = dual_trace(family, ParamVector((c,) * p), steps)
    g = centroid(family)
    scale = max(abs(x) for pt in family.points for x in pt.coords)
    for pt in trace.points:
        assert math.dist(pt.coords, g.coords) <= 4 * math.ulp(scale)
    assert centroid_convergence_report(trace).immediate
