"""Dimension-generic affine points, barycenters, centroids and diameters.

Everything here is immutable, so values can be shared freely across
threads; all operations are pure functions.  Inputs are checked where they
are built (a family by :class:`PointFamily`, weights by :func:`barycenter`),
and results such as :class:`AffinePoint` are built from checked values
without a second check.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, combinations, starmap
from operator import mul
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "DEFAULT_DISTINCT_TOL",
    "GeometryError",
    "AffinePoint",
    "PointFamily",
    "barycenter",
    "centroid",
    "diameter",
]

DEFAULT_DISTINCT_TOL = 1e-12


class GeometryError(ValueError):
    """Invalid geometric input: bad dimension, degenerate family, bad weights."""


class AffinePoint(NamedTuple):
    """A point of a finite-dimensional real affine space: a result, built
    from a checked family's float coordinates."""

    coords: tuple[float, ...]


class _Value:
    """An immutable value, equal and hashed by the attributes named in
    ``_fields``; only its own constructors set them, bypassing ``__setattr__``."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{self.__class__.__name__}({fields})"


class PointFamily(_Value):
    """An ordered family of p >= 2 points sharing one dimension, held as
    its coordinate columns: ``columns[j][k]`` is coordinate j of point k.

    Build one from rows with :meth:`from_coords`.  Pairwise distinctness is
    checked with a small tolerance by default.  Iterates of the polygon map
    may nearly coincide near convergence, so they are built with
    ``require_distinct=False``, or from columns without that check.
    """

    _fields = ("columns",)

    def __init__(self, columns: Iterable[Sequence[float]], require_distinct: bool = True,
                 distinct_tol: float = DEFAULT_DISTINCT_TOL) -> None:
        object.__setattr__(self, "columns", columns)
        self.__post_init__(require_distinct, distinct_tol)

    # bench/tracer.py wraps this method by name to count validated builds
    def __post_init__(self, require_distinct: bool, distinct_tol: float) -> None:
        cols = tuple(tuple(map(float, col)) for col in self.columns)
        if not cols:
            raise GeometryError("a point needs at least one coordinate")
        if any(len(col) != len(cols[0]) for col in cols):
            raise GeometryError("all points of a family must share one dimension")
        if len(cols[0]) < 2:
            raise GeometryError("a family needs at least two points")
        _require_finite(cols)
        if require_distinct:
            close = _close_pairs(list(zip(*cols)), distinct_tol)
            if close:
                i, j = close[0]
                raise GeometryError(
                    f"points {i} and {j} are not distinct "
                    f"(tolerance {distinct_tol:g})"
                )
        object.__setattr__(self, "columns", cols)

    @cached_property
    def points(self) -> tuple[AffinePoint, ...]:
        """The points, built from the columns when first read."""
        return tuple(map(AffinePoint, zip(*self.columns)))

    @property
    def size(self) -> int:
        return len(self.columns[0])

    @property
    def dim(self) -> int:
        return len(self.columns)

    @classmethod
    def from_coords(cls, rows: Iterable[Sequence[float]], **kwargs) -> "PointFamily":
        """The checked family of coordinate ``rows``, one per point."""
        rows = [tuple(row) for row in rows]
        if any(len(row) != len(rows[0]) for row in rows):
            raise GeometryError("all points of a family must share one dimension")
        # no rows: one empty column, so the point count is what fails
        return cls(tuple(zip(*rows)) if rows else ((),), **kwargs)

    @classmethod
    def _from_columns(cls, columns: Iterable[Sequence[float]]) -> "PointFamily":
        """A family from float coordinate columns, one per dimension, as the
        polygon step makes them.

        Only finiteness is checked, not distinctness, so a run of steps pays
        for plain float columns alone.
        """
        cols = tuple(map(tuple, columns))
        _require_finite(cols)
        family = cls.__new__(cls)
        family.__dict__["columns"] = cols
        return family


def _require_finite(columns: Sequence[Sequence[float]]) -> None:
    """Raise GeometryError naming the first point with a non-finite coordinate."""
    if not all(map(math.isfinite, chain.from_iterable(columns))):
        for row in zip(*columns):
            if not all(map(math.isfinite, row)):
                raise GeometryError(f"non-finite coordinate in {row!r}")


def _close_pairs(rows: Sequence[Sequence[float]], tol: float) -> list[tuple[int, int]]:
    """The sorted index pairs (i, j), i < j, of rows at most ``tol`` apart.

    A sweep over the rows sorted by first coordinate: ``dist <= tol`` implies
    ``|x_j - x_i| <= tol``, so each row is measured only against the rows
    after it that lie within ``tol`` on that axis.
    """
    order = sorted(range(len(rows)), key=lambda k: rows[k][0])
    pairs = []
    for n, i in enumerate(order):
        for j in order[n + 1:]:
            if rows[j][0] - rows[i][0] > tol:
                break
            if math.dist(rows[i], rows[j]) <= tol:
                pairs.append((min(i, j), max(i, j)))
    return sorted(pairs)


def barycenter(family: PointFamily, weights: Sequence[float]) -> AffinePoint:
    """Weighted barycenter of the family, weights normalised by their sum.

    The weights must be finite and strictly positive, one per point; their
    overall scale does not matter.
    """
    w = tuple(map(float, weights))
    if not w:
        raise GeometryError("empty weight vector")
    for wk in w:
        if not math.isfinite(wk) or wk <= 0.0:
            raise GeometryError(f"weights must be finite and positive, got {wk!r}")
    if len(w) != family.size:
        raise GeometryError(f"{family.size} points but {len(w)} weights")
    try:
        return AffinePoint(_weighted_mean(family.columns, w))
    except OverflowError:  # their sum overflows: scale them by a power of two
        e = math.frexp(max(w))[1]
        return AffinePoint(_weighted_mean(family.columns, [math.ldexp(x, -e) for x in w]))


def _weighted_mean(columns, weights) -> tuple[float, ...]:
    """The coordinates of the barycenter of positive float ``weights`` over
    coordinate ``columns``; a convex combination, finite for finite columns."""
    total = math.fsum(weights)
    shares = [wk / total for wk in weights]
    return tuple([math.fsum(map(mul, shares, col)) for col in columns])


def centroid(family: PointFamily) -> AffinePoint:
    """Equal-weights barycenter of the family."""
    return barycenter(family, (1.0,) * family.size)


def diameter(family: PointFamily) -> float:
    """Largest pairwise distance; zero for a family of coincident points."""
    return max(starmap(math.dist, combinations(zip(*family.columns), 2)))
