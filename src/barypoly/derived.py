"""The derived parameter system, its conjugate, and convergence diagnostics.

The derived system maps a parameter vector t to the vector of products
prod_{i != k} (1 - t_i).  Substituting u = 1 - t componentwise yields the
conjugate recurrence u'_k = 1 - prod_{i != k} u_i, which is the form the
p = 3 analysis works in: fixed points, the linearisation around the interior
fixed point (alpha, alpha, alpha), order preservation, two-step ratio
contraction, lock-in detection, and the bounding-sequence squeeze.  Both
systems hold their states in :class:`ParamVector` and their orbits in
:class:`DerivedTrace`; a conjugate state's components are the u values.

alpha_p is the unique root in [0, 1] of x**(p-1) + x - 1.  For p = 3 it is
the golden ratio conjugate (sqrt(5) - 1) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

from .barypolygon import ParamVector, _unchecked, complement_products, excluded_products

__all__ = [
    "DerivedTrace",
    "DynamicsVerdict",
    "DynamicsClass",
    "StabilityReport3",
    "RatioBoundReport",
    "BoundingSequenceReport",
    "derived_step",
    "conjugate_step",
    "derived_trace",
    "conjugate_trace",
    "solve_alpha",
    "regular_map",
    "double_step_drift",
    "drift_slope_peak",
    "derived_residual",
    "conjugate_residual",
    "stability_report_p3",
    "classify_dynamics",
    "find_lockin",
    "order_check",
    "ratio_bound_check",
    "double_step_identity_residual",
    "bounding_sequence_check",
]


def derived_step(t: ParamVector) -> ParamVector:
    """One step of the derived system: t'_k = prod_{i != k} (1 - t_i).

    The result lies in (0, 1)^p mathematically but may round to an endpoint
    in floats; that is flagged through ``saturated``, not treated as an error.
    """
    return _unchecked(ParamVector, t=[complement_products(t.t)])[0]


def conjugate_step(u: ParamVector) -> ParamVector:
    """One step of the conjugate recurrence: u'_k = 1 - prod_{i != k} u_i."""
    return _unchecked(ParamVector, t=[_complement(excluded_products(u.t))])[0]


def _complement(values: Sequence[float]) -> tuple[float, ...]:
    return tuple([1.0 - v for v in values])


@dataclass(frozen=True)
class DerivedTrace:
    """Orbit t^(0), t^(1), ... of the derived system, or u_0, u_1, ... of
    its conjugate; stops at its first saturated entry."""

    params: tuple[ParamVector, ...]
    saturated_at: int | None = None

    def __post_init__(self) -> None:
        if len(self.params) == 0:
            raise ValueError("a trace needs at least the initial entry")
        if any(entry.size != self.size for entry in self.params):
            raise ValueError("all entries must share one length")
        if self.saturated_at is not None:
            if not 0 <= self.saturated_at < len(self.params):
                raise ValueError("saturation index out of range")
            if not self.params[self.saturated_at].saturated:
                raise ValueError("entry at the saturation index is not saturated")
        for m, entry in enumerate(self.params):
            if entry.saturated and (self.saturated_at is None or m < self.saturated_at):
                raise ValueError(f"unflagged saturated entry at index {m}")

    @property
    def size(self) -> int:
        return self.params[0].size

    @property
    def steps(self) -> int:
        return len(self.params) - 1


def _orbit(start: tuple[float, ...], u: tuple[float, ...], steps: int, conjugate: bool):
    """Float tuples start, then one entry per step for up to ``steps`` steps,
    and the index of the first saturated entry (None if none), where recording stops.

    A step from the complement state u takes t = excluded_products(u), the
    next derived entry, then u = 1 - t, the next conjugate entry, and records
    the one ``conjugate`` picks.  Both step functions compute exactly this,
    so from u = 1 - t0 the conjugate orbit is the float 1 - t at every index.
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    entries = [start]
    if 0.0 in start or 1.0 in start:
        return entries, 0
    for m in range(1, steps + 1):
        t = excluded_products(u)
        u = tuple([1.0 - x for x in t])
        entry = u if conjugate else t
        entries.append(entry)
        if 0.0 in entry or 1.0 in entry:
            return entries, m
    return entries, None


def _trace(start: ParamVector, u: tuple[float, ...], steps: int, conjugate: bool) -> DerivedTrace:
    entries, saturated_at = _orbit(start.t, u, steps, conjugate)
    params = (start, *_unchecked(ParamVector, t=entries[1:]))
    return _unchecked(DerivedTrace, params=[params], saturated_at=[saturated_at])[0]


def derived_trace(t0: ParamVector, steps: int) -> DerivedTrace:
    """Run the derived system for up to ``steps`` steps from t0.

    Recording stops with the first entry holding a component rounded to
    exactly 0 or 1; its index is reported as ``saturated_at``.
    """
    return _trace(t0, _complement(t0.t), steps, False)


def conjugate_trace(u0: ParamVector, steps: int) -> DerivedTrace:
    """Run the conjugate recurrence for up to ``steps`` steps from u0; the
    entries are the u vectors, and ``saturated_at`` marks the first saturated one."""
    return _trace(u0, u0.t, steps, True)


ALPHA_RESIDUAL_TOL = 1e-14
# the largest spread of a start that counts as regular (all components equal)
REGULAR_TOL = 1e-12


@lru_cache(maxsize=None)
def solve_alpha(p: int) -> float:
    """Unique root in [0, 1] of x**(p-1) + x - 1, bisection then Newton polish.

    The polynomial increases strictly from -1 to 1 on [0, 1], so the root
    exists and is unique for every p >= 2.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    e = p - 1

    def poly(x: float) -> float:
        return x**e + x - 1.0

    lo, hi = 0.0, 1.0
    x = 0.5
    for _ in range(48):
        x = 0.5 * (lo + hi)
        r = poly(x)
        if r == 0.0:
            return x
        if r < 0.0:
            lo = x
        else:
            hi = x
    best_x, best_r = x, abs(poly(x))
    for _ in range(8):
        r = poly(x)
        d = e * x ** (e - 1) + 1.0
        step = r / d
        x -= step
        if not 0.0 < x < 1.0:
            break
        ar = abs(poly(x))
        if ar < best_r:
            best_x, best_r = x, ar
        if step == 0.0:
            break
    if best_r > ALPHA_RESIDUAL_TOL:
        raise ArithmeticError(f"root polish stalled at residual {best_r:g} for p={p}")
    return best_x


def _check_regular_args(p: int, x: float) -> None:
    if p < 3:
        raise ValueError("p must be at least 3")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")


def regular_map(p: int, x: float) -> float:
    """One step of the regular conjugate recurrence: x -> 1 - x**(p-1)."""
    _check_regular_args(p, x)
    return 1.0 - x ** (p - 1)


def double_step_drift(p: int, x: float) -> float:
    """Displacement of x after two regular steps; zero exactly at 0, alpha_p, 1."""
    _check_regular_args(p, x)
    return 1.0 - x - (1.0 - x ** (p - 1)) ** (p - 1)


def drift_slope_peak(p: int) -> tuple[float, float]:
    """Location and value of the maximum slope of the double-step drift.

    The slope -1 + (p-1)^2 x^(p-2) (1 - x^(p-1))^(p-2) peaks at
    x = (1/p)^(1/(p-1)); the peak value is positive for every p >= 3,
    which is what pins the drift to exactly three roots.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    theta = (1.0 / p) ** (1.0 / (p - 1))
    mu = -1.0 + (p - 1) ** 2 * theta ** (p - 2) * (1.0 - theta ** (p - 1)) ** (p - 2)
    if not mu > 0.0:
        raise ArithmeticError(f"expected a positive peak slope for p={p}, got {mu!r}")
    return theta, mu


def derived_residual(values: Sequence[float]) -> float:
    """Max componentwise defect of being a derived-system fixed point."""
    prods = complement_products(values)
    return max(abs(v - pr) for v, pr in zip(values, prods))


def conjugate_residual(values: Sequence[float]) -> float:
    """Max componentwise defect of being a conjugate fixed point."""
    prods = excluded_products(values)
    return max(abs(v - (1.0 - pr)) for v, pr in zip(values, prods))


@dataclass(frozen=True)
class StabilityReport3:
    """Fixed points and local linearisation of the p = 3 systems.

    ``jacobian`` is the symmetric zero-diagonal linearisation of the conjugate
    system at (alpha, alpha, alpha); its spectrum is {alpha, alpha, -2 alpha},
    and 2 alpha > 1 makes the interior fixed point exponentially unstable.
    """

    alpha: float
    conjugate_points: tuple[tuple[float, float, float], ...]
    derived_points: tuple[tuple[float, float, float], ...]
    max_fixed_point_residual: float
    jacobian: tuple[tuple[float, float, float], ...]
    char_poly: tuple[float, float, float, float]
    eigenvalues: tuple[float, float, float]
    spectral_radius: float


def _char_poly_3x3(m: Sequence[Sequence[float]]) -> tuple[float, float, float, float]:
    """Monic characteristic polynomial coefficients (1, c2, c1, c0)."""
    tr = m[0][0] + m[1][1] + m[2][2]
    minors = (
        m[0][0] * m[1][1] - m[0][1] * m[1][0]
        + m[0][0] * m[2][2] - m[0][2] * m[2][0]
        + m[1][1] * m[2][2] - m[1][2] * m[2][1]
    )
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return (1.0, -tr, minors, -det)


def stability_report_p3() -> StabilityReport3:
    """The four fixed points of each p = 3 system plus the linearisation data.

    Conjugate fixed points: (1,1,0), (0,1,1), (1,0,1) and the interior point
    (alpha, alpha, alpha); the derived system correspondingly fixes the three
    unit vectors and (1-alpha, 1-alpha, 1-alpha).  Every point is verified by
    applying the matching step function.
    """
    a = solve_alpha(3)
    conj = ((1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (a, a, a))
    der = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
           (1.0 - a, 1.0 - a, 1.0 - a))
    residual = max(
        max(conjugate_residual(point) for point in conj),
        max(derived_residual(point) for point in der),
    )
    jac = ((0.0, -a, -a), (-a, 0.0, -a), (-a, -a, 0.0))
    return StabilityReport3(
        alpha=a,
        conjugate_points=conj,
        derived_points=der,
        max_fixed_point_residual=residual,
        jacobian=jac,
        char_poly=_char_poly_3x3(jac),
        eigenvalues=(-2.0 * a, a, a),
        spectral_radius=2.0 * a,
    )


class DynamicsVerdict(Enum):
    STATIONARY = "Stationary"
    PERIODIC2 = "Periodic2"
    ALTERNATING_DIVERGENT = "AlternatingDivergent"
    CONJECTURED_ALTERNATING = "ConjecturedAlternating"


@dataclass(frozen=True)
class DynamicsClass:
    """Classification of a derived-system orbit.

    ``parity`` names the conjugate subsequence (by index parity) that tends
    to 0; ``lockin_index`` is the first step after which all conjugate
    components sit strictly on one side of alpha and alternate sides.
    """

    verdict: DynamicsVerdict
    alpha: float
    parity: str | None = None
    lockin_index: int | None = None
    saturated: bool = False


# orbit steps classified; steps of stationarity evidence, fewer because the
# stationary point repels float noise (_stationary_window caps them per p)
HORIZON = 200
STATIONARY_WINDOW = 50
# a component this close to alpha ties it; alternating pairs confirming lock-in
ALPHA_TIE_TOL = 1e-15
CONFIRM_PAIRS = 3


def _side(values: Sequence[float], alpha: float, tie_tol: float) -> int:
    """-1 when all components sit strictly below alpha, +1 above, else 0.

    A component within tie_tol of alpha blocks the decision at this index.
    """
    if min(values) > alpha:
        side = 1
    elif max(values) < alpha:
        side = -1
    else:
        return 0
    return 0 if any(abs(v - alpha) <= tie_tol for v in values) else side


def find_lockin(
    trace: DerivedTrace,
    alpha: float,
    *,
    tie_tol: float = ALPHA_TIE_TOL,
    confirm_pairs: int = CONFIRM_PAIRS,
) -> int | None:
    """First index whose conjugate state sits strictly on one side of alpha
    with the following entries alternating sides; None if never visible.

    Confirmation uses up to ``confirm_pairs`` even/odd pairs but accepts a
    shorter window when the trace ends (saturation) first.
    """
    return _lockin([entry.t for entry in trace.params], alpha, tie_tol, confirm_pairs)


def _lockin(states: Sequence[tuple[float, ...]], alpha: float, tie_tol: float,
            confirm_pairs: int) -> int | None:
    """find_lockin over the conjugate orbit as float tuples."""
    n = len(states)
    for m in range(n):
        s = _side(states[m], alpha, tie_tol)
        if s == 0:
            continue
        window = min(n - 1 - m, 2 * confirm_pairs)
        confirmed = True
        for j in range(1, window + 1):
            expected = s if j % 2 == 0 else -s
            if _side(states[m + j], alpha, tie_tol) != expected:
                confirmed = False
                break
        if confirmed:
            return m
    return None


def _max_gap(states: Sequence[tuple[float, ...]], lag: int) -> float:
    """Largest componentwise change between orbit entries ``lag`` steps apart."""
    gaps = [max(abs(a - b) for a, b in zip(states[m], states[m + lag]))
            for m in range(len(states) - lag)]
    return max(gaps, default=0.0)


_FLOAT_NOISE = 4e-16


def _stationary_window(p: int, alpha: float, stationary_tol: float) -> int:
    """Longest evidence window binary64 can support at the stationary point.

    The regular derived map repels its fixed point with factor
    (p-1) * alpha**(p-2) per step, so quantisation noise grows past the
    stationarity tolerance after about log(tol / noise) / log(rate) steps;
    checking beyond that says nothing about the input.
    """
    rate = (p - 1) * alpha ** (p - 2)
    if rate <= 1.0:
        return STATIONARY_WINDOW
    cap = int(math.log(stationary_tol / _FLOAT_NOISE) / math.log(rate))
    return max(4, min(STATIONARY_WINDOW, cap))


def classify_dynamics(
    t0: ParamVector,
    *,
    stationary_tol: float = 1e-9,
    periodic_tol: float = 1e-9,
    regular_tol: float = REGULAR_TOL,
) -> DynamicsClass:
    """Classify the derived-system orbit started at t0.

    p = 2 is stationary exactly when t_2 = 1 - t_1 and 2-periodic otherwise.
    A regular start with p >= 3 is stationary exactly at t = 1 - alpha_p and
    otherwise alternates divergently, the side of alpha fixing which index
    parity tends to 0.  Irregular p = 3 orbits always alternate divergently;
    for irregular p >= 4 the same empirical procedure runs but the verdict is
    flagged as conjectured.
    """
    p = t0.size
    alpha = solve_alpha(p)

    if p == 2:
        states, saturated_at = _orbit(t0.t, _complement(t0.t), STATIONARY_WINDOW, False)
        saturated = saturated_at is not None
        stationary_form = abs(t0.t[1] - (1.0 - t0.t[0])) <= stationary_tol
        if stationary_form and _max_gap(states, 1) <= stationary_tol:
            return DynamicsClass(DynamicsVerdict.STATIONARY, alpha, saturated=saturated)
        two_step = _max_gap(states, 2)
        if two_step > periodic_tol:
            raise ArithmeticError(
                f"p=2 orbit failed its two-step return ({two_step:g}); "
                "this contradicts the exact dynamics"
            )
        return DynamicsClass(DynamicsVerdict.PERIODIC2, alpha, saturated=saturated)

    regular = t0.spread <= regular_tol
    if regular and abs(t0.t[0] - (1.0 - alpha)) <= stationary_tol:
        window = _stationary_window(p, alpha, stationary_tol)
        states, saturated_at = _orbit(t0.t, _complement(t0.t), window, False)
        if saturated_at is None and _max_gap(states, 1) <= stationary_tol:
            return DynamicsClass(DynamicsVerdict.STATIONARY, alpha)

    u0 = _complement(t0.t)
    states, saturated_at = _orbit(u0, u0, HORIZON, True)
    m0 = _lockin(states, alpha, ALPHA_TIE_TOL, CONFIRM_PAIRS)
    parity = None
    if regular:
        parity = "even" if 1.0 - t0.t[0] < alpha else "odd"
    elif m0 is not None:
        below = all(v < alpha for v in states[m0])
        zero_on_even = (m0 % 2 == 0) if below else (m0 % 2 == 1)
        parity = "even" if zero_on_even else "odd"
    verdict = (DynamicsVerdict.ALTERNATING_DIVERGENT if regular or p == 3
               else DynamicsVerdict.CONJECTURED_ALTERNATING)
    return DynamicsClass(
        verdict,
        alpha,
        parity=parity,
        lockin_index=m0,
        saturated=saturated_at is not None,
    )


def _require_p3(state: ParamVector) -> None:
    if state.size != 3:
        raise ValueError("this diagnostic is defined for p = 3 only")


def order_check(trace: DerivedTrace) -> bool:
    """Whether the ascending order of the initial components survives each step.

    Requires a sorted initial state.  Float rounding is monotone, so a sorted
    state provably stays sorted; this re-checks it on a concrete trace.
    """
    _require_p3(trace.params[0])
    first = trace.params[0].t
    if not (first[0] <= first[1] <= first[2]):
        raise ValueError("initial state must be sorted ascending")
    return all(s.t[0] <= s.t[1] <= s.t[2] for s in trace.params)


@dataclass(frozen=True)
class RatioBoundReport:
    """Two-step ratio contraction data along even indices of a p = 3 trace."""

    gaps: tuple[float, ...]
    bounds: tuple[float, ...]
    positive: bool
    bounded: bool
    monotone: bool
    trivial_regular: bool
    floor_at: int | None
    checked_pairs: int
    holds: bool


RATIO_COMPONENT_FLOOR = 1e-6
RATIO_MONOTONE_SLACK = 1e-9
SQUEEZE_SLACK = 1e-9


def ratio_bound_check(trace: DerivedTrace) -> RatioBoundReport:
    """Check the geometric contraction of component ratios at even indices.

    For a sorted irregular start (u_0 < w_0) the max/min ratio gap
    w/u - 1 at index 2q must stay positive and, for q >= 1, fall below
    (1/2)**q of its initial value, while the three even-index component
    ratios are non-increasing.  A regular start is trivially flagged.

    Checking stops at a saturated entry and already at the first even index
    whose smallest component drops under ``RATIO_COMPONENT_FLOOR``: such values
    come out of the cancellation 1 - (product near 1) quantised to a few
    multiples of the float spacing near 1, so their ratios carry no
    information.  The first excluded pair index is reported as ``floor_at``.
    """
    states = trace.params
    _require_p3(states[0])
    u0 = states[0].t
    if not (u0[0] <= u0[1] <= u0[2]):
        raise ValueError("initial state must be sorted ascending")
    if u0[2] == u0[0]:
        return RatioBoundReport((), (), True, True, True, True, None, 0, True)

    end = trace.saturated_at if trace.saturated_at is not None else len(states)
    vu, wv, wu = [], [], []
    floor_at = None
    for q, m in enumerate(range(0, end, 2)):
        u, v, w = states[m].t
        if u < RATIO_COMPONENT_FLOOR or (w / u) - 1.0 == 0.0:
            floor_at = q
            break
        vu.append(v / u)
        wv.append(w / v)
        wu.append(w / u)
    gaps = tuple(r - 1.0 for r in wu)
    gap0 = gaps[0] if gaps else 0.0
    bounds = tuple(0.5**q * gap0 for q in range(len(gaps)))

    positive = all(g > 0.0 for g in gaps)
    bounded = all(gaps[q] < bounds[q] for q in range(1, len(gaps)))
    monotone = all(
        seq[q + 1] <= seq[q] + RATIO_MONOTONE_SLACK
        for seq in (vu, wv, wu)
        for q in range(len(seq) - 1)
    )
    return RatioBoundReport(
        gaps=gaps,
        bounds=bounds,
        positive=positive,
        bounded=bounded,
        monotone=monotone,
        trivial_regular=False,
        floor_at=floor_at,
        checked_pairs=len(gaps),
        holds=positive and bounded and monotone,
    )


def double_step_identity_residual(state: ParamVector) -> float:
    """Defect of the two-step linear form against two explicit conjugate steps.

    With k = v - u*v*w and c = u*w, two steps send the outer components to
    k*u + c and k*w + c exactly; the residual is pure float rounding.
    """
    _require_p3(state)
    u, v, w = state.t
    two = conjugate_step(conjugate_step(state))
    k = v - u * v * w
    c = u * w
    return max(abs(two.t[0] - (k * u + c)), abs(two.t[2] - (k * w + c)))


@dataclass(frozen=True)
class BoundingSequenceReport:
    """Result of squeezing an orbit between iterates of the regular p=3 map."""

    start_index: int
    tau_start: float
    from_inverse: bool
    pairs_checked: int
    max_violation: float
    holds: bool


def bounding_sequence_check(trace: DerivedTrace, start_index: int) -> BoundingSequenceReport:
    """Squeeze the post-lock-in orbit with a scalar regular orbit.

    Requires all components at start_index to lie strictly inside
    (0, alpha_3).  The comparison value tau starts at the largest component
    there, or at sqrt(1 - u) of the next state's smallest component when that
    rule makes the squeeze valid, and then follows x -> 1 - x**2.  On
    below-alpha steps tau must stay at or above the largest component, on
    above-alpha steps at or below the smallest, up to ``SQUEEZE_SLACK`` (the
    start is an exact tie by construction).
    """
    states = trace.params
    _require_p3(states[0])
    alpha = solve_alpha(3)
    if start_index < 0 or start_index + 1 >= len(states):
        raise ValueError("trace too short after start_index")
    first = states[start_index].t
    if not all(0.0 < v < alpha for v in first):
        raise ValueError("state at start_index must lie strictly inside (0, alpha)^3")

    w0 = max(first)
    u1 = min(states[start_index + 1].t)
    if u1 > 1.0 - w0 * w0:
        tau = w0
        from_inverse = False
    else:
        tau = math.sqrt(1.0 - u1)
        from_inverse = True

    max_violation = 0.0
    x = tau
    count = 0
    for offset, m in enumerate(range(start_index, len(states))):
        comps = states[m].t
        if offset % 2 == 0:
            violation = max(comps) - x
        else:
            violation = x - min(comps)
        if violation > max_violation:
            max_violation = violation
        x = 1.0 - x * x
        count = offset + 1
    return BoundingSequenceReport(
        start_index=start_index,
        tau_start=tau,
        from_inverse=from_inverse,
        pairs_checked=(count + 1) // 2,
        max_violation=max_violation,
        holds=max_violation <= SQUEEZE_SLACK,
    )
