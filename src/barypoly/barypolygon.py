"""The barypolygon step, iterated point families, and their closed-form limit.

One step replaces each vertex A_k by the barycenter of (A_k; t_k) and the
cyclically next vertex (A_{k+1}; 1 - t_k).  Iterating contracts the family
onto a single point whose barycentric weights over the original family have
the product form prod_{i != k} (1 - t_i).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .affine import AffinePoint, GeometryError, PointFamily, _Value, barycenter, diameter

__all__ = [
    "DEFAULT_TRACE_CAP",
    "ParamVector",
    "PolygonTrace",
    "excluded_products",
    "complement_products",
    "barypolygon_step",
    "iterate_sequence",
    "iterate_final",
    "iterate_to_diameter",
    "limit_weights",
    "limit_point",
]

# iterate_to_diameter's default step cap
DEFAULT_TRACE_CAP = 10_000


class ParamVector(_Value):
    """Ordered barypolygon parameters, each strictly inside (0, 1).

    A state u = 1 - t of the conjugate recurrence is held the same way.
    The derived system can drive components to exactly 0.0 or 1.0 in
    floating point; its orbit entries are built without this check (see
    :func:`_orbit_entry`), and a trace flags the first saturated one
    instead of failing.
    """

    _fields = ("t",)

    def __init__(self, t: Sequence[float]) -> None:
        vals = tuple(float(v) for v in t)
        if len(vals) < 2:
            raise ValueError("need at least two parameters")
        for v in vals:
            if not math.isfinite(v):
                raise ValueError(f"non-finite parameter {v!r}")
            if not 0.0 < v < 1.0:
                raise ValueError(f"parameter {v!r} outside the open interval (0, 1)")
        object.__setattr__(self, "t", vals)

    @property
    def size(self) -> int:
        return len(self.t)

    @property
    def spread(self) -> float:
        return max(self.t) - min(self.t)


def _orbit_entry(values: tuple[float, ...]) -> ParamVector:
    """The ParamVector of float ``values``, built without its range check: an
    entry of a derived or conjugate orbit, which may hold a saturated 0.0 or 1.0.

    Only for values valid by construction.  Orbit entries start from a
    checked ParamVector, and in binary64 1.0 - v and products of floats in
    [0, 1] stay in [0, 1] (rounding is monotone, 0 and 1 are
    representable); the orbit loop flags the first saturated entry, the
    only one outside the open interval, and stops there.
    """
    entry = ParamVector.__new__(ParamVector)
    entry.__dict__["t"] = values
    return entry


def excluded_products(values: Sequence[float]) -> tuple[float, ...]:
    """For each index k, the product of all float entries other than the k-th.

    Entry k is set to 1.0 for its product; multiplying by 1.0 is exact, so
    each product rounds as the left-to-right loop over i != k does.  At
    p = 3 that loop forms 1.0 * b * c, a * 1.0 * c and a * b * 1.0, which
    round exactly as b * c, a * c and a * b, so the three products are
    written out: the same floats without the loop."""
    if len(values) == 3:
        a, b, c = values
        return (b * c, a * c, a * b)
    vals = list(values)
    out = []
    for k, v in enumerate(vals):
        vals[k] = 1.0
        out.append(math.prod(vals))
        vals[k] = v
    return tuple(out)


def complement_products(values: Sequence[float]) -> tuple[float, ...]:
    """For each index k, the product of (1 - v_i) over all entries i != k."""
    return excluded_products([1.0 - v for v in values])


def barypolygon_step(current: PointFamily, t: ParamVector) -> PointFamily:
    """Move every vertex toward its cyclic successor.

    Vertex k goes to t_k * A_k + (1 - t_k) * A_{k+1}, the last vertex closing
    the cycle with the first.  Output distinctness is not enforced: iterates
    coincide in the limit.  The step works on the family's coordinate
    columns and returns a family built from columns, so a run of steps
    makes no AffinePoint until its points are read.
    """
    _check_params(current, t)
    return PointFamily._from_columns(
        [tk * a + (1.0 - tk) * b for tk, a, b in zip(t.t, col, col[1:] + col[:1])]
        for col in current.columns
    )


def _check_params(family: PointFamily, t: ParamVector) -> None:
    if t.size != family.size:
        raise GeometryError(f"{family.size} points but {t.size} parameters")


class PolygonTrace(_Value):
    """The polygon map's run of ``steps`` steps from ``start`` under ``params``.

    The iterates are not stored: :meth:`iterates` makes them again on each
    read, so a trace of any length holds one family at a time.
    """

    _fields = ("start", "params", "steps")

    def __init__(self, start: PointFamily, params: ParamVector, steps: int) -> None:
        if steps < 0:
            raise ValueError("step count must be non-negative")
        _check_params(start, params)
        self.__dict__.update(start=start, params=params, steps=steps)

    def iterates(self) -> Iterator[PointFamily]:
        """The run's families: ``start``, then one ``barypolygon_step`` each."""
        current = self.start
        yield current
        for _ in range(self.steps):
            current = barypolygon_step(current, self.params)
            yield current


def iterate_sequence(start: PointFamily, t: ParamVector, n: int) -> PolygonTrace:
    """The trace of n polygon steps from start."""
    return PolygonTrace(start, t, n)


def iterate_final(start: PointFamily, t: ParamVector, n: int) -> PointFamily:
    """Run n polygon steps keeping only the latest family."""
    for current in PolygonTrace(start, t, n).iterates():
        pass
    return current


def iterate_to_diameter(
    start: PointFamily,
    t: ParamVector,
    *,
    eps: float = 1e-12,
    max_steps: int = DEFAULT_TRACE_CAP,
) -> tuple[PointFamily, int]:
    """Step until the family diameter falls below eps; returns (family, steps).

    ``diameter`` is tested before every step, so a run stops at the first
    iterate whose diameter is below eps, or after max_steps steps.
    """
    # not iterate_sequence: bench/tracer.py would count this run twice
    run = PolygonTrace(start, t, max(max_steps, 0)).iterates()
    for steps, current in enumerate(run):
        if diameter(current) < eps or steps >= max_steps:
            break
    return current, steps


def limit_weights(t: ParamVector) -> tuple[float, ...]:
    """Barycentric weights of the iteration limit, in bounded product form."""
    return complement_products(t.t)


def limit_point(family: PointFamily, t: ParamVector) -> AffinePoint:
    """Closed-form limit of the iterated polygon sequence started at family."""
    _check_params(family, t)
    return barycenter(family, limit_weights(t))
