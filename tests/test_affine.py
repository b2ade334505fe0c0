"""Barycenter, centroid, and diameter basics."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from barypoly.affine import (
    GeometryError,
    PointFamily,
    _close_pairs,
    barycenter,
    centroid,
    diameter,
)

TRIANGLE = PointFamily.from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def test_midpoint():
    fam = PointFamily.from_coords([(0.0,), (1.0,)])
    assert barycenter(fam, (1.0, 1.0)).coords == (0.5,)


def test_triangle_centroid_by_symmetry():
    assert barycenter(TRIANGLE, (1.0, 1.0, 1.0)).coords == pytest.approx((1 / 3, 1 / 3))


def test_weighted_barycenter_exact_rational():
    # exact oracle: weights (1/2, 3/8, 1/3) normalise by 29/24
    ws = (Fraction(1, 2), Fraction(3, 8), Fraction(1, 3))
    total = sum(ws)
    expect_x = float(ws[1] / total)  # only the second point has x = 1
    expect_y = float(ws[2] / total)  # only the third point has y = 1
    assert (expect_x, expect_y) == (float(Fraction(9, 29)), float(Fraction(8, 29)))
    got = barycenter(TRIANGLE, (0.5, 0.375, 1 / 3))
    assert got.coords == pytest.approx((9 / 29, 8 / 29), abs=1e-15)


def test_centroid_examples():
    assert centroid(PointFamily.from_coords([(0.0,), (1.0,)])).coords == (0.5,)
    square = PointFamily.from_coords([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert centroid(square).coords == pytest.approx((1.0, 1.0))
    assert centroid(TRIANGLE).coords == pytest.approx((1 / 3, 1 / 3))


def test_diameter_examples():
    assert diameter(PointFamily.from_coords([(0.0,), (1.0,)])) == 1.0
    assert diameter(PointFamily.from_coords([(0, 0), (3, 4)])) == 5.0
    degenerate = PointFamily.from_coords([(1, 1), (1, 1)], require_distinct=False)
    assert diameter(degenerate) == 0.0


def test_family_validation():
    for rows, message in (
        ([], "a family needs at least two points"),
        ([(0.0, 0.0)], "a family needs at least two points"),
        ([(0.0, 0.0), (1.0,)], "all points of a family must share one dimension"),
        ([(), ()], "a point needs at least one coordinate"),
        ([(0.0, 0.0), (1.0, math.nan)], r"non-finite coordinate in \(1.0, nan\)"),
        ([(0.0, 0.0), (0.0, 0.0)], r"points 0 and 1 are not distinct \(tolerance 1e-12\)"),
    ):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            PointFamily.from_coords(rows)
    # just over the distinctness tolerance is fine
    PointFamily.from_coords([(0.0, 0.0), (1e-11, 0.0)])


def test_weight_validation():
    for weights, message in (
        ((1.0, 0.0, 1.0), "weights must be finite and positive, got 0.0"),
        ((1.0, -2.0, 1.0), "weights must be finite and positive, got -2.0"),
        ((1.0, math.nan, 1.0), "weights must be finite and positive, got nan"),
        ((1.0, math.inf, 1.0), "weights must be finite and positive, got inf"),
        ((), "empty weight vector"),
        ((1.0, 1.0), "3 points but 2 weights"),
        # a bad value is reported before a count mismatch
        ((1.0, 0.0), "weights must be finite and positive, got 0.0"),
    ):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            barycenter(TRIANGLE, weights)


def test_weights_whose_sum_overflows_keep_their_shares():
    # math.fsum of these weights overflows; scaled by a power of two they
    # give the same shares
    assert barycenter(TRIANGLE, [1e308] * 3).coords == pytest.approx((1 / 3, 1 / 3), abs=1e-16)
    big = sys.float_info.max
    x, y = barycenter(TRIANGLE, [big, 1.0, big]).coords
    assert x == pytest.approx(0.5 / big, rel=1e-15) and y == 0.5


coords_st = st.floats(-10.0, 10.0, allow_nan=False)
weights_st = st.floats(0.01, 100.0, allow_nan=False)


def _family(rows):
    return PointFamily.from_coords(rows, require_distinct=False)


@given(
    st.lists(st.tuples(coords_st, coords_st), min_size=2, max_size=6),
    st.data(),
    st.floats(1e-3, 1e3),
)
def test_barycenter_scale_invariance(rows, data, scale):
    fam = _family(rows)
    ws = data.draw(st.lists(weights_st, min_size=fam.size, max_size=fam.size))
    a = barycenter(fam, ws)
    b = barycenter(fam, [w * scale for w in ws])
    for x, y in zip(a.coords, b.coords):
        assert abs(x - y) <= 1e-12


@given(
    st.lists(st.tuples(coords_st, coords_st, coords_st), min_size=2, max_size=6),
    st.data(),
)
def test_barycenter_in_convex_hull(rows, data):
    fam = _family(rows)
    ws = data.draw(st.lists(weights_st, min_size=fam.size, max_size=fam.size))
    center = barycenter(fam, ws)
    for j, c in enumerate(center.coords):
        column = [pt.coords[j] for pt in fam.points]
        assert min(column) - 1e-12 <= c <= max(column) + 1e-12


@given(st.lists(st.tuples(coords_st, coords_st), min_size=2, max_size=6))
def test_centroid_is_uniform_barycenter(rows):
    fam = _family(rows)
    assert centroid(fam).coords == barycenter(fam, (1.0,) * fam.size).coords


@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*[coords_st] * d), min_size=2, max_size=6)))
def test_checked_and_column_built_families_agree(rows):
    fam = _family(rows)
    built = PointFamily._from_columns(zip(*rows))
    assert fam == built
    assert hash(fam) == hash(built)
    assert [pt.coords for pt in fam.points] == rows


def _all_close_pairs(rows, tol):
    """The all-pairs distinctness loop the sweep replaced, as the oracle."""
    return [(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))
            if math.dist(rows[i], rows[j]) <= tol]


@st.composite
def _crowded_rows(draw):
    """Rows with exact duplicates, rows one ulp apart and equal first coordinates."""
    dim = draw(st.integers(1, 3))
    coord = st.sampled_from([0.0, -1.0, 1.0, 1e-12, 0.5]) | st.floats(-3.0, 3.0)
    rows = []
    for _ in range(draw(st.integers(2, 40))):
        how = draw(st.sampled_from(["fresh", "copy", "ulp", "same_x"])) if rows else "fresh"
        if how == "fresh":
            rows.append(tuple(draw(coord) for _ in range(dim)))
            continue
        row = list(draw(st.sampled_from(rows)))
        if how == "ulp":
            k = draw(st.integers(0, dim - 1))
            row[k] = math.nextafter(row[k], draw(st.sampled_from([math.inf, -math.inf])))
        elif how == "same_x":
            row[1:] = [draw(coord) for _ in range(dim - 1)]
        rows.append(tuple(row))
    return rows


@settings(max_examples=300, deadline=None)
@given(_crowded_rows(), st.sampled_from([0.0, 1e-12, 1e-6, 2.0, math.inf, -1.0, math.nan]))
def test_close_pairs_match_the_all_pairs_loop(rows, tol):
    assert _close_pairs(rows, tol) == _all_close_pairs(rows, tol)


def test_family_reports_the_first_close_pair():
    rows = [(5.0, 0.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (5.0, 0.0)]
    with pytest.raises(GeometryError, match=r"^points 0 and 4 are not distinct"):
        PointFamily.from_coords(rows)
