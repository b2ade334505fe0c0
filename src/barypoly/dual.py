"""Dual points of the derived parameter orbit and their march to the centroid.

The m-th dual point is the closed-form limit of the t^(m)-polygon iteration
of a fixed family.  Its product-form weights are exactly one derived step of
t^(m), which ties the dual sequence to the derived system; as the weight
ratios flatten the dual points drive into the centroid.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .affine import AffinePoint, PointFamily, _weighted_mean, diameter
from .barypolygon import ParamVector, _check_params, complement_products, limit_point
from .derived import REGULAR_TOL, DerivedTrace, derived_trace

__all__ = [
    "DualTrace",
    "CentroidConvergenceReport",
    "dual_trace",
    "centroid_convergence_report",
]


class DualTrace(NamedTuple):
    """Dual points G_0, G_1, ... of one family with centroid distances."""

    family: PointFamily
    points: tuple[AffinePoint, ...]
    distances: tuple[float, ...]
    params_used: DerivedTrace

    @property
    def truncated(self) -> bool:
        """Whether saturation or the weight floor cut the trace short."""
        return len(self.points) < len(self.params_used.params)


WEIGHT_FLOOR = 1e-11
CENTROID_THRESHOLD = 1e-6


def dual_trace(family: PointFamily, t0: ParamVector, steps: int) -> DualTrace:
    """Dual points for the derived orbit of t0, truncated at saturation.

    The weights of G_m are the orbit entry t^(m+1); only the last entry of
    an unsaturated orbit needs one more derived step.  Once a component of
    the weights falls under ``WEIGHT_FLOOR`` it is dominated by the rounding
    of 1 - (product near 1) and the computed dual point carries no
    information, so the trace stops there (and at exact saturation at the
    latest), keeping G_0 if it is cut too.  By the cut the recorded
    distances sit far below any reporting threshold.
    """
    _check_params(family, t0)
    dt = derived_trace(t0, steps)
    weights = list(dt.params[1:])
    if dt.saturated_at is None:
        weights.append(complement_products(dt.params[-1]))
    coords = []
    for w in weights:
        if min(w) < WEIGHT_FLOOR:
            break
        coords.append(_weighted_mean(family.columns, w))
    points = tuple(map(AffinePoint, coords)) or (limit_point(family, t0),)
    g = _weighted_mean(family.columns, (1.0,) * family.size)
    dists = tuple(math.dist(pt.coords, g) for pt in points)
    return DualTrace(family, points, dists, dt)


class CentroidConvergenceReport(NamedTuple):
    """Distance-to-centroid profile of a dual trace: the first index below
    ``CENTROID_THRESHOLD`` and the fitted per-step decay rate.  The distances
    themselves, and whether the trace was cut short, are the trace's."""

    first_below: int | None
    decay_rate: float | None
    immediate: bool
    conjectured: bool


def centroid_convergence_report(trace: DualTrace) -> CentroidConvergenceReport:
    """Report how fast the dual points approach the centroid.

    Covers p = 3 and regular starts of any p >= 3; an irregular start with
    p >= 4 produces the same numbers flagged ``conjectured``.  p = 2 duals
    can be periodic rather than convergent and are rejected.  The decay rate
    is a least-squares geometric fit of the distances above the saturation
    floor; a constant-at-centroid trace is reported as immediate convergence
    with no rate.
    """
    t0 = trace.params_used.params[0]
    if len(t0) == 2:
        raise ValueError("the centroid report covers p >= 3")
    regular = max(t0) - min(t0) <= REGULAR_TOL
    conjectured = len(t0) >= 4 and not regular

    d = trace.distances
    first_below = next((m for m, x in enumerate(d) if x < CENTROID_THRESHOLD), None)
    floor = 1e-13 * max(diameter(trace.family), 1.0)
    immediate = regular or all(x <= floor for x in d)

    decay_rate = None
    if not immediate:
        samples = [(float(m), math.log(x)) for m, x in enumerate(d) if x > floor]
        if len(samples) >= 2:
            n = float(len(samples))
            sx = math.fsum(m for m, _ in samples)
            sy = math.fsum(y for _, y in samples)
            sxx = math.fsum(m * m for m, _ in samples)
            sxy = math.fsum(m * y for m, y in samples)
            denom = n * sxx - sx * sx
            if denom > 0.0:
                decay_rate = math.exp((n * sxy - sx * sy) / denom)
    return CentroidConvergenceReport(
        first_below=first_below,
        decay_rate=decay_rate,
        immediate=immediate,
        conjectured=conjectured,
    )
