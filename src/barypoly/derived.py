"""The derived parameter system, its conjugate, and orbit classification.

The derived system maps a parameter vector t to the vector of products
prod_{i != k} (1 - t_i).  Substituting u = 1 - t componentwise yields the
conjugate recurrence u'_k = 1 - prod_{i != k} u_i, which is the form the
p = 3 analysis works in.  Both systems start from a checked
:class:`ParamVector` and hold their orbits in :class:`DerivedTrace` as float
tuples; a conjugate entry's components are the u values.
:func:`classify_dynamics` names an orbit's regime and its lock-in index.
The paper's p = 3 claims (fixed points, linearisation, order preservation,
ratio contraction and the bounding-sequence squeeze) are checked by the
tests, on these orbits.

alpha_p is the unique root in [0, 1] of x**(p-1) + x - 1.  For p = 3 it is
the golden ratio conjugate (sqrt(5) - 1) / 2.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

from .barypolygon import ParamVector, complement_products, excluded_products

__all__ = [
    "DerivedTrace",
    "DynamicsVerdict",
    "DynamicsClass",
    "derived_step",
    "conjugate_step",
    "derived_trace",
    "conjugate_trace",
    "solve_alpha",
    "drift_slope_peak",
    "classify_dynamics",
]


def derived_step(t: Sequence[float]) -> tuple[float, ...]:
    """One step of the derived system: t'_k = prod_{i != k} (1 - t_i).

    The result lies in (0, 1)^p mathematically but may round to an endpoint
    in floats; a trace flags that through ``saturated_at``, not as an error.
    """
    return complement_products(t)


def conjugate_step(u: Sequence[float]) -> tuple[float, ...]:
    """One step of the conjugate recurrence: u'_k = 1 - prod_{i != k} u_i."""
    return _complement(excluded_products(u))


def _complement(values: Sequence[float]) -> tuple[float, ...]:
    return tuple([1.0 - v for v in values])


class DerivedTrace(NamedTuple):
    """Orbit t^(0), t^(1), ... of the derived system, or u_0, u_1, ... of
    its conjugate, as float tuples, entry 0 the start's; it stops at its first
    saturated entry, the only one outside :class:`ParamVector`'s (0, 1)."""

    params: tuple[tuple[float, ...], ...]
    saturated_at: int | None = None

    @property
    def size(self) -> int:
        return len(self.params[0])

    @property
    def steps(self) -> int:
        return len(self.params) - 1


def _orbit(start: tuple[float, ...], u: tuple[float, ...], steps: int, conjugate: bool):
    """A tuple of float tuples, start then one entry per step for up to
    ``steps`` steps, and the index of the first saturated entry (None if
    none), where recording stops.

    A step from the complement state u takes t = excluded_products(u), the
    next derived entry, then u = 1 - t, the next conjugate entry, and records
    the one ``conjugate`` picks.  Both step functions compute exactly this,
    so from u = 1 - t0 the conjugate orbit is the float 1 - t at every index.
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    if 0.0 in start or 1.0 in start:
        return (start,), 0
    entries = [start]
    for m in range(1, steps + 1):
        t = excluded_products(u)
        u = tuple([1.0 - x for x in t])
        entry = u if conjugate else t
        entries.append(entry)
        if 0.0 in entry or 1.0 in entry:
            return tuple(entries), m
    return tuple(entries), None


def derived_trace(t0: ParamVector, steps: int) -> DerivedTrace:
    """Run the derived system for up to ``steps`` steps from t0.

    Recording stops with the first entry holding a component rounded to
    exactly 0 or 1; its index is reported as ``saturated_at``.
    """
    return DerivedTrace(*_orbit(t0.t, _complement(t0.t), steps, False))


def conjugate_trace(u0: ParamVector, steps: int) -> DerivedTrace:
    """Run the conjugate recurrence for up to ``steps`` steps from u0; the
    entries are the u vectors, and ``saturated_at`` marks the first saturated one."""
    return DerivedTrace(*_orbit(u0.t, u0.t, steps, True))


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


class DynamicsVerdict(Enum):
    STATIONARY = "Stationary"
    PERIODIC2 = "Periodic2"
    ALTERNATING_DIVERGENT = "AlternatingDivergent"
    CONJECTURED_ALTERNATING = "ConjecturedAlternating"


class DynamicsClass(NamedTuple):
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
# an orbit this still is stationary; a p = 2 orbit this close to its
# two-step return is 2-periodic
STATIONARY_TOL = 1e-9
PERIODIC_TOL = 1e-9


def _side(values: Sequence[float], alpha: float, tie_tol: float) -> int:
    """-1 when all components sit strictly below alpha, +1 above, else 0.

    A component within tie_tol of alpha blocks the decision at this index.
    The nearest component decides that: the rounded v - alpha is monotone
    in v, and the rounded alpha - v is its negation.
    """
    lo, hi = min(values), max(values)
    if lo > alpha:
        return 1 if lo - alpha > tie_tol else 0
    if hi < alpha:
        return -1 if alpha - hi > tie_tol else 0
    return 0


def _lockin(states: Sequence[tuple[float, ...]], alpha: float, tie_tol: float,
            confirm_pairs: int) -> int | None:
    """First index of a conjugate orbit, as float tuples, whose state sits
    strictly on one side of alpha with the following entries alternating
    sides; None if never visible.

    Confirmation uses up to ``confirm_pairs`` even/odd pairs but accepts a
    shorter window when the orbit ends (saturation) first.
    """
    sides = [_side(state, alpha, tie_tol) for state in states]
    for m, side in enumerate(sides):
        window = sides[m:m + 2 * confirm_pairs + 1]
        if side and all(b == -a for a, b in zip(window, window[1:])):
            return m
    return None


def _max_gap(states: Sequence[tuple[float, ...]], lag: int) -> float:
    """Largest componentwise change between orbit entries ``lag`` steps apart."""
    gaps = [max(abs(a - b) for a, b in zip(states[m], states[m + lag]))
            for m in range(len(states) - lag)]
    return max(gaps, default=0.0)


_FLOAT_NOISE = 4e-16


def _stationary_window(p: int, alpha: float) -> int:
    """Longest evidence window binary64 can support at the stationary point.

    The regular derived map repels its fixed point with factor
    (p-1) * alpha**(p-2) per step, so quantisation noise grows past the
    stationarity tolerance after about log(tol / noise) / log(rate) steps;
    checking beyond that says nothing about the input.
    """
    rate = (p - 1) * alpha ** (p - 2)
    if rate <= 1.0:
        return STATIONARY_WINDOW
    cap = int(math.log(STATIONARY_TOL / _FLOAT_NOISE) / math.log(rate))
    return max(4, min(STATIONARY_WINDOW, cap))


def classify_dynamics(t0: ParamVector) -> DynamicsClass:
    """Classify the derived-system orbit started at t0.

    p = 2 is stationary exactly when t_2 = 1 - t_1 and 2-periodic otherwise.
    A regular start with p >= 3 is stationary exactly at t = 1 - alpha_p and
    otherwise alternates divergently, the side of alpha fixing which index
    parity tends to 0.  Irregular p = 3 orbits always alternate divergently;
    for irregular p >= 4 the same empirical procedure runs but the verdict is
    flagged as conjectured.  The tolerances are the constants STATIONARY_TOL,
    PERIODIC_TOL and REGULAR_TOL, so no caller can relabel a verdict.
    """
    p = t0.size
    alpha = solve_alpha(p)

    if p == 2:
        states, saturated_at = _orbit(t0.t, _complement(t0.t), STATIONARY_WINDOW, False)
        saturated = saturated_at is not None
        stationary_form = abs(t0.t[1] - (1.0 - t0.t[0])) <= STATIONARY_TOL
        if stationary_form and _max_gap(states, 1) <= STATIONARY_TOL:
            return DynamicsClass(DynamicsVerdict.STATIONARY, alpha, saturated=saturated)
        two_step = _max_gap(states, 2)
        if two_step > PERIODIC_TOL:
            raise ArithmeticError(
                f"p=2 orbit failed its two-step return ({two_step:g}); "
                "this contradicts the exact dynamics"
            )
        return DynamicsClass(DynamicsVerdict.PERIODIC2, alpha, saturated=saturated)

    regular = t0.spread <= REGULAR_TOL
    if regular and abs(t0.t[0] - (1.0 - alpha)) <= STATIONARY_TOL:
        window = _stationary_window(p, alpha)
        states, saturated_at = _orbit(t0.t, _complement(t0.t), window, False)
        if saturated_at is None and _max_gap(states, 1) <= STATIONARY_TOL:
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
