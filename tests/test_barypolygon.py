"""Polygon step, iteration, and the closed-form limit."""

import importlib.util
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from barypoly.affine import (
    AffinePoint,
    GeometryError,
    PointFamily,
    barycenter,
    diameter,
)
from barypoly.barypolygon import (
    DEFAULT_TRACE_CAP,
    ParamVector,
    barypolygon_step,
    complement_products,
    iterate_final,
    iterate_sequence,
    iterate_to_diameter,
    limit_point,
    limit_weights,
)
from barypoly.config import random_family

TRIANGLE = PointFamily.from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])

# planar 5-gon with the small fractional parameters of the classic picture
PENTA = PointFamily.from_coords(
    [(0.0, 0.0), (4.0, -0.5), (5.2, 2.8), (2.4, 4.6), (-0.8, 2.9)]
)
PENTA_T = ParamVector(tuple(float(Fraction(1, d)) for d in (61, 41, 28, 19, 13)))


def test_param_vector_validation():
    with pytest.raises(ValueError):
        ParamVector((0.5,))
    with pytest.raises(ValueError):
        ParamVector((0.0, 0.5))
    with pytest.raises(ValueError):
        ParamVector((0.5, 1.0))
    with pytest.raises(ValueError):
        ParamVector((0.5, math.nan))
    assert ParamVector((0.5, 0.5)).size == 2


def test_step_p2_midpoints():
    fam = PointFamily.from_coords([(0.0,), (1.0,)])
    out = barypolygon_step(fam, ParamVector((0.5, 0.5)))
    assert [pt.coords for pt in out.points] == [(0.5,), (0.5,)]


def test_step_medial_triangle():
    out = barypolygon_step(TRIANGLE, ParamVector((0.5, 0.5, 0.5)))
    assert [pt.coords for pt in out.points] == pytest.approx(
        [(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]
    )


def test_step_mixed_parameters_exact():
    # hand oracle: B1 = A1/2 + A2/2, B2 = A2/3 + 2 A3/3, B3 = A3/4 + 3 A1/4
    out = barypolygon_step(TRIANGLE, ParamVector((0.5, 1 / 3, 0.25)))
    assert out.points[0].coords == pytest.approx((0.5, 0.0), abs=1e-15)
    assert out.points[1].coords == pytest.approx((1 / 3, 2 / 3), abs=1e-15)
    assert out.points[2].coords == pytest.approx((0.0, 0.25), abs=1e-15)


def test_step_length_mismatch():
    with pytest.raises(Exception):
        barypolygon_step(TRIANGLE, ParamVector((0.5, 0.5)))


def test_iterate_zero_steps_is_identity():
    iterates = list(iterate_sequence(TRIANGLE, ParamVector((0.5, 0.5, 0.5)), 0).iterates())
    assert len(iterates) == 1
    assert iterates[0] is TRIANGLE


def test_iterates_are_made_again_on_each_read():
    trace = iterate_sequence(PENTA, PENTA_T, 25)
    first = list(trace.iterates())
    assert len(first) == 26
    assert list(trace.iterates()) == first


def test_iterate_cap():
    # a trace holds no iterates, so its length has no cap
    trace = iterate_sequence(TRIANGLE, ParamVector((0.5, 0.5, 0.5)), DEFAULT_TRACE_CAP)
    assert trace.steps == DEFAULT_TRACE_CAP


def test_iterate_final_matches_stored():
    t = ParamVector((0.3, 0.5, 0.7))
    trace = iterate_sequence(TRIANGLE, t, 37)
    final = iterate_final(TRIANGLE, t, 37)
    assert [pt.coords for pt in final.points] == [
        pt.coords for pt in list(trace.iterates())[-1].points
    ]


def test_iterate_to_diameter():
    fam, steps = iterate_to_diameter(TRIANGLE, ParamVector((0.5, 0.5, 0.5)), eps=1e-6)
    assert diameter(fam) < 1e-6
    assert steps > 0


def _reference_step(current, t):
    """The polygon step one validated point at a time, as first written."""
    pts = current.points
    p = len(pts)
    moved = []
    for k in range(p):
        a, b = pts[k].coords, pts[(k + 1) % p].coords
        tk = t.t[k]
        ck = 1.0 - tk
        moved.append(AffinePoint(tuple(tk * ai + ck * bi for ai, bi in zip(a, b))))
    return PointFamily.from_coords([pt.coords for pt in moved], require_distinct=False)


def _reference_diameter(family):
    pts = family.points
    return max(math.dist(a.coords, b.coords) for i, a in enumerate(pts) for b in pts[i + 1:])


def _reference_to_diameter(start, t, eps, max_steps):
    """The stop loop with the full O(p**2) diameter before every step."""
    cur, steps = start, 0
    while _reference_diameter(cur) >= eps and steps < max_steps:
        cur = _reference_step(cur, t)
        steps += 1
    return cur, steps


def _coords(family):
    return [pt.coords for pt in family.points]


def _assert_same_run(start, t, eps, max_steps=10_000):
    want, want_steps = _reference_to_diameter(start, t, eps, max_steps)
    got, got_steps = iterate_to_diameter(start, t, eps=eps, max_steps=max_steps)
    assert got_steps == want_steps
    assert _coords(got) == _coords(want)
    return got_steps


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12).flatmap(lambda p: st.tuples(
        st.integers(1, 3).flatmap(lambda d: st.lists(
            st.tuples(*[st.floats(-100.0, 100.0)] * d), min_size=p, max_size=p)),
        st.lists(st.floats(0.1, 0.9), min_size=p, max_size=p),
    )),
    st.sampled_from([1e-3, 1e-9, 1e-12]),
)
def test_iterate_to_diameter_bit_identical(case, eps):
    rows, ts = case
    start = PointFamily.from_coords(rows, require_distinct=False)
    _assert_same_run(start, ParamVector(ts), eps, max_steps=3000)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_iterate_to_diameter_eps_on_an_iterate_diameter(d):
    # eps equal to an iterate's diameter, and one ulp above it: the stop test
    # must compare the exact diameter, not a bound on it
    rng = random.Random(d)
    start = PointFamily.from_coords([tuple(rng.uniform(-1, 1) for _ in range(d))
                                     for _ in range(7)])
    t = ParamVector(tuple(rng.uniform(0.2, 0.8) for _ in range(7)))
    fam = start
    for _ in range(40):
        fam = _reference_step(fam, t)
    exact = _reference_diameter(fam)
    assert _assert_same_run(start, t, exact) == 41
    assert _assert_same_run(start, t, math.nextafter(exact, math.inf)) == 40


def test_iterate_to_diameter_edges():
    t = ParamVector((0.3, 0.5, 0.7))
    assert iterate_to_diameter(TRIANGLE, t, max_steps=0) == (TRIANGLE, 0)
    assert _assert_same_run(TRIANGLE, t, 1e-12, max_steps=0) == 0
    # the cap ends the run with the diameter still above eps
    assert _assert_same_run(TRIANGLE, t, 1e-12, max_steps=25) == 25
    # an input already below eps takes no step and comes back as it is
    tiny = PointFamily.from_coords([(0.0, 0.0), (1e-13, 0.0), (0.0, 1e-13)],
                                   require_distinct=False)
    assert iterate_to_diameter(tiny, t, eps=1e-12) == (tiny, 0)
    coincident = PointFamily.from_coords([(2.0, 3.0)] * 3, require_distinct=False)
    assert _assert_same_run(coincident, t, 1e-12) == 0
    assert _assert_same_run(coincident, t, 0.0) == 10_000


def test_parameter_count_checked_before_any_step():
    two = ParamVector((0.5, 0.5))
    with pytest.raises(GeometryError, match="3 points but 2 parameters"):
        iterate_sequence(TRIANGLE, two, 0)
    with pytest.raises(GeometryError, match="3 points but 2 parameters"):
        iterate_final(TRIANGLE, two, 0)
    with pytest.raises(GeometryError, match="3 points but 2 parameters"):
        iterate_to_diameter(TRIANGLE, two, max_steps=0)


def test_step_builds_points_only_when_read():
    t = ParamVector((0.3, 0.5, 0.7))
    out = barypolygon_step(TRIANGLE, t)
    assert "points" not in vars(out)
    assert (out.size, out.dim) == (3, 2)
    assert diameter(out) == _reference_diameter(_reference_step(TRIANGLE, t))
    assert "points" not in vars(out)
    assert out == _reference_step(TRIANGLE, t)
    assert all(isinstance(pt, AffinePoint) for pt in out.points)
    assert out.columns == tuple(zip(*_coords(out)))
    assert TRIANGLE.columns == ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def test_column_built_family_rejects_non_finite_coordinates():
    # a convex step of finite points stays finite, so hand the check bad columns
    with pytest.raises(GeometryError, match=r"non-finite coordinate in \(inf, 2.0\)"):
        PointFamily._from_columns([[0.0, math.inf], [1.0, 2.0]])


def test_iterate_final_matches_repeated_steps():
    t = ParamVector((0.3, 0.55, 0.2, 0.8))
    start = PointFamily.from_coords([(0.0, 0.0, 1.0), (1.0, 0.0, 0.5),
                                     (0.0, 1.0, -2.0), (3.0, 2.0, 0.0)])
    step_by_step = reference = start
    for n in range(60):
        assert _coords(iterate_final(start, t, n)) == _coords(step_by_step)
        assert _coords(step_by_step) == _coords(reference)
        step_by_step = barypolygon_step(step_by_step, t)
        reference = _reference_step(reference, t)
    assert iterate_final(start, t, 0) is start


def test_pentagon_contraction():
    # empirical contraction of the small-parameter pentagon run
    iterates = list(iterate_sequence(PENTA, PENTA_T, 400).iterates())
    d0 = diameter(iterates[0])
    assert diameter(iterates[50]) < 0.5 * d0
    assert diameter(iterates[400]) < 1e-3 * d0


def test_limit_point_p2():
    fam = PointFamily.from_coords([(0.0,), (1.0,)])
    assert limit_point(fam, ParamVector((0.5, 0.5))).coords == (0.5,)


def test_limit_point_exact_rational_and_by_iteration():
    t = ParamVector((0.5, 1 / 3, 0.25))
    # product weights: (2/3 * 3/4, 1/2 * 3/4, 1/2 * 2/3) = (1/2, 3/8, 1/3)
    assert limit_weights(t) == pytest.approx((0.5, 0.375, 1 / 3), abs=1e-15)
    g = limit_point(TRIANGLE, t)
    assert g.coords == pytest.approx(
        (float(Fraction(9, 29)), float(Fraction(8, 29))), abs=1e-13
    )
    settled = iterate_final(TRIANGLE, t, 200)
    for pt in settled.points:
        assert math.dist(pt.coords, g.coords) < 1e-9


def test_limit_point_regular_is_centroid():
    t = ParamVector((0.37, 0.37, 0.37))
    g = limit_point(TRIANGLE, t)
    assert g.coords == pytest.approx((1 / 3, 1 / 3), abs=1e-15)


def _gaps(trace, target):
    """Largest vertex distance to ``target``, one value per iterate."""
    return [max(math.dist(pt.coords, target.coords) for pt in fam.points) for fam in trace.iterates()]


def test_convergence_gap_trivial():
    t = ParamVector((0.5, 0.5))
    fam = PointFamily.from_coords([(0.0,), (1.0,)])
    target = limit_point(fam, t)
    assert _gaps(iterate_sequence(fam, t, 0), target) == [0.5]
    assert _gaps(iterate_sequence(fam, t, 1), target) == [0.5, 0.0]


def test_convergence_gap_decreasing_tail():
    trace = iterate_sequence(PENTA, PENTA_T, 400)
    gaps = _gaps(trace, limit_point(PENTA, PENTA_T))
    tail = gaps[-12:]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    assert gaps[-1] < 1e-3 * gaps[0]


@given(
    st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**16),
    st.sampled_from([1e-3, 1.0, 1e3]), st.data(),
)
def test_step_preserves_limit_point(p, dim, seed, scale, data):
    # the limit of the sequence started at F is the limit started at its
    # first iterate; only the rounding of one step separates the two
    family = PointFamily.from_coords(
        [tuple(scale * c for c in pt.coords) for pt in random_family(p, dim, seed).points])
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    t = ParamVector(data.draw(st.lists(unit, min_size=p, max_size=p)))
    g0 = limit_point(family, t)
    g1 = limit_point(barypolygon_step(family, t), t)
    size = max(abs(x) for pt in family.points for x in pt.coords)
    assert math.dist(g0.coords, g1.coords) <= 8 * math.ulp(size)


params_st = st.lists(st.floats(0.01, 0.99), min_size=2, max_size=8)


@given(params_st)
def test_weight_form_equivalence(ts):
    t = ParamVector(ts)
    product_form = complement_products(t.t)
    full = math.prod(1.0 - v for v in t.t)
    # proportionality witness: w_k * (1 - t_k) recovers the full product
    for w, v in zip(product_form, t.t):
        assert abs(w * (1.0 - v) - full) <= 1e-12 * full
    inverse_form = tuple(1.0 / (1.0 - v) for v in t.t)
    fam = PointFamily.from_coords(
        [(math.cos(2 * math.pi * k / t.size), math.sin(2 * math.pi * k / t.size))
         for k in range(t.size)]
    )
    a = barycenter(fam, product_form)
    b = barycenter(fam, inverse_form)
    for x, y in zip(a.coords, b.coords):
        assert abs(x - y) <= 1e-12


def _bench_reference():
    """bench/reference.py, the 60-digit decimal references, loaded from its
    file: the benchmark's directory is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REF = _bench_reference()


@st.composite
def limit_params(draw):
    """p from 2 to 300 parameters, uniform but for up to 40 components
    1 - 2**-e with e in [20, 53], whose small factors take the products below
    the smallest normal float, and up to two below 2**-54, whose factor 1 - t
    rounds to 1.0.  A seeded draw fills the rest: hypothesis is slow to draw
    hundreds of floats."""
    p = draw(st.integers(2, 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    t = [rng.uniform(1e-3, 1.0 - 1e-3) for _ in range(p)]
    near_one = [1.0 - 2.0**-rng.uniform(20.0, 53.0) for _ in range(draw(st.integers(0, 40)))]
    tiny = draw(st.lists(st.floats(5e-324, 1e-300), max_size=2))
    special = near_one + tiny
    for k, v in zip(rng.sample(range(p), min(p, len(special))), special):
        t[k] = v
    return t


@settings(deadline=None)
@given(limit_params())
def test_limit_weights_keep_normal_products_and_scale_the_others(ts):
    t = ParamVector(ts)
    products = complement_products(t.t)
    weights = limit_weights(t)
    if min(products) >= sys.float_info.min:
        assert tuple(map(float.hex, weights)) == tuple(map(float.hex, products))
        family = PointFamily.from_coords(
            [(math.cos(2 * math.pi * k / t.size), math.sin(2 * math.pi * k / t.size))
             for k in range(t.size)])
        assert limit_point(family, t).coords == barycenter(family, products).coords
        return
    # the same ratios as the exact products, each weight within one rounding
    # per factor of them
    assert 0.5 <= max(weights) < 1.0 and min(weights) >= sys.float_info.min
    exact = REF.excluded_products([1.0 - v for v in t.t])
    top = max(exact)
    for w, x in zip(weights, exact):
        assert abs(Decimal(w) / Decimal(max(weights)) - x / top) <= (
            Decimal(2 * t.size) * Decimal(2) ** -53 * x / top)


@pytest.mark.parametrize("p,lo,hi", [
    (700, 0.38, 0.85),   # the products are subnormal: 12 digits before
    (1000, 0.1, 0.9),    # the products underflow to 0.0: limit_point raised
    (3000, 0.2, 0.35),   # the products stick at 5e-324: the centroid came back
])
def test_limit_point_keeps_its_digits_where_the_products_underflow(p, lo, hi):
    rng = random.Random(p)
    rows = [(rng.random(), rng.random()) for _ in range(p)]
    t = [rng.uniform(lo, hi) for _ in range(p)]
    assert min(complement_products(t)) < sys.float_info.min
    point = limit_point(PointFamily.from_coords(rows), ParamVector(t))
    error = REF.point_error(point.coords, REF.limit_point(rows, t))
    assert REF.digits(error, REF.scale(rows)) >= 15.0


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 10_000))
def test_long_run_convergence(p, d, seed):
    # 400 steps reach 1e-8 only with parameters away from the endpoints,
    # where the slowest contraction factor stays below ~0.96 per step
    rng = random.Random(seed)
    fam = PointFamily.from_coords(
        [tuple(rng.gauss(0.0, 2.0) for _ in range(d)) for _ in range(p)],
        require_distinct=False,
    )
    t = ParamVector(tuple(rng.uniform(0.2, 0.8) for _ in range(p)))
    target = limit_point(fam, t)
    final = iterate_final(fam, t, 400)
    assert max(math.dist(pt.coords, target.coords) for pt in final.points) <= 1e-8


TRANSFORMS = [
    ("translation", lambda x, y: (x + 3.5, y - 1.25)),
    ("rotation_scale", lambda x, y: (0.6 * x - 0.8 * y, 0.8 * x + 0.6 * y)),
    ("shear", lambda x, y: (x + 0.5 * y, y)),
    ("anisotropic", lambda x, y: (2.0 * x, 0.25 * y)),
]


@pytest.mark.parametrize("name,transform", TRANSFORMS)
def test_affine_equivariance(name, transform):
    t = ParamVector((0.3, 0.55, 0.2))
    mapped = PointFamily.from_coords(
        [transform(*pt.coords) for pt in TRIANGLE.points]
    )
    step_then_map = [
        transform(*pt.coords) for pt in barypolygon_step(TRIANGLE, t).points
    ]
    map_then_step = [pt.coords for pt in barypolygon_step(mapped, t).points]
    for a, b in zip(step_then_map, map_then_step):
        assert a == pytest.approx(b, abs=1e-10)
    g_mapped = transform(*limit_point(TRIANGLE, t).coords)
    assert g_mapped == pytest.approx(limit_point(mapped, t).coords, abs=1e-10)
