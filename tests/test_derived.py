"""Derived system: steps, traces, the alpha root, and the p = 3 analysis."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from barypoly.barypolygon import ParamVector, _orbit_entry, excluded_products
from barypoly.derived import (
    DerivedTrace,
    DynamicsClass,
    DynamicsVerdict,
    classify_dynamics,
    conjugate_step,
    conjugate_trace,
    derived_step,
    derived_trace,
    drift_slope_peak,
    solve_alpha,
)
from barypoly.derived import _complement, _lockin
from p3_claims import (
    EIGEN_TOL,
    JACOBIAN_TOL,
    double_step_drift,
    fixed_point_residuals,
    linearisation_errors,
    regular_map,
)


def _closed_params(values):
    """A ParamVector whose components may be exactly 0.0 or 1.0, built as the
    orbit kernel builds its entries; each must still be finite and in [0, 1]."""
    vals = tuple(map(float, values))
    assert len(vals) >= 2 and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals), vals
    return _orbit_entry(vals)


def _conjugate(t):
    """The conjugate state u = 1 - t of a parameter vector, unchecked as
    the orbit kernel forms it."""
    return _closed_params(_complement(t.t))


def test_derived_step_p2():
    out = derived_step(ParamVector((0.3, 0.5)))
    assert out.t == pytest.approx((0.5, 0.7), abs=1e-15)


def test_derived_step_regular_p4():
    out = derived_step(ParamVector((0.2, 0.2, 0.2, 0.2)))
    assert out.t == pytest.approx((0.512,) * 4, abs=1e-15)


def test_derived_step_p3():
    out = derived_step(ParamVector((0.2, 0.3, 0.4)))
    assert out.t == pytest.approx((0.42, 0.48, 0.56), abs=1e-15)


def test_conjugate_step_direct():
    out = conjugate_step(ParamVector((0.5, 0.6, 0.7)))
    assert out.t == pytest.approx((0.58, 0.65, 0.70), abs=1e-15)


def test_conjugate_fixed_points():
    a = solve_alpha(3)
    out = conjugate_step(ParamVector((a, a, a)))
    assert out.t == pytest.approx((a, a, a), abs=1e-14)
    corner = conjugate_step(_closed_params((1.0, 0.0, 1.0)))
    assert corner.t == (1.0, 0.0, 1.0)


@given(st.lists(st.floats(0.001, 0.999), min_size=2, max_size=8))
def test_conjugation_identity(ts):
    t = ParamVector(ts)
    u = _conjugate(t)
    lhs = conjugate_step(u).t
    rhs = tuple(1.0 - v for v in derived_step(t).t)
    assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= 1e-14


@given(st.lists(st.floats(0.001, 0.999), min_size=2, max_size=8))
def test_range_preservation(ts):
    out = derived_step(ParamVector(ts))
    assert all(0.0 < v < 1.0 for v in out.t)


@given(st.floats(0.001, 0.999), st.integers(2, 8))
def test_regularity_is_invariant(c, p):
    out = derived_step(ParamVector((c,) * p))
    assert len(set(out.t)) == 1


def test_derived_trace_zero_steps():
    t0 = ParamVector((0.3, 0.4))
    trace = derived_trace(t0, 0)
    assert trace.params == (t0,)
    assert trace.saturated_at is None


def test_derived_trace_stationary_at_complement_alpha():
    a = solve_alpha(3)
    t0 = ParamVector((1.0 - a,) * 3)
    trace = derived_trace(t0, 10)
    for entry in trace.params:
        assert entry.t == pytest.approx(t0.t, abs=1e-9)


def test_derived_trace_alternates_and_saturates():
    # even entries sink to 0 and odd entries rise to 1: the conjugate orbit
    # locks in below alpha at index 1, so odd conjugate components vanish
    trace = derived_trace(ParamVector((0.2, 0.3, 0.4)), 40)
    assert trace.saturated_at is not None
    assert trace.saturated_at <= 40
    evens = [trace.params[m] for m in range(0, trace.saturated_at - 1, 2)]
    odds = [trace.params[m] for m in range(1, trace.saturated_at - 1, 2)]
    assert max(evens[-1].t) < 1e-6
    assert min(odds[-1].t) > 1 - 1e-6
    assert max(evens[-1].t) < max(evens[0].t)
    assert min(odds[-1].t) > min(odds[0].t)


def _bisect_alpha(p: int) -> float:
    # independent oracle: plain bisection on x**(p-1) + x - 1
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** (p - 1) + mid - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_alpha_p2_exact():
    assert abs(solve_alpha(2) - 0.5) <= 1e-14


def test_alpha_p3_golden_ratio_conjugate():
    assert abs(solve_alpha(3) - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-12


def test_alpha_p4_against_bisection_oracle():
    assert abs(solve_alpha(4) - _bisect_alpha(4)) <= 1e-12


def test_alpha_residuals():
    for p in range(2, 21):
        a = solve_alpha(p)
        assert 0.0 < a < 1.0
        assert abs(a ** (p - 1) + a - 1.0) <= 1e-14


def test_alpha_rejects_small_p():
    with pytest.raises(ValueError):
        solve_alpha(1)


def test_regular_map_endpoints():
    # the regular conjugate step swaps the saturation states 0 and 1
    assert regular_map(3, 0.0) == 1.0
    assert regular_map(3, 1.0) == 0.0
    assert conjugate_step(_closed_params((0.0,) * 3)).t == (1.0,) * 3
    assert conjugate_step(_closed_params((1.0,) * 3)).t == (0.0,) * 3


def test_drift_zero_at_alpha():
    assert abs(double_step_drift(3, solve_alpha(3))) <= 1e-12


def test_drift_exact_rational_oracle():
    # hand arithmetic: 1 - 3/10 - (1 - 27/1000)**3 evaluated exactly
    expect = float(1 - Fraction(3, 10) - (1 - Fraction(27, 1000)) ** 3)
    assert double_step_drift(4, 0.3) == pytest.approx(expect, abs=1e-15)


@given(st.integers(3, 10), st.floats(0.0, 1.0))
def test_drift_is_double_step_minus_identity(p, x):
    via_map = regular_map(p, regular_map(p, x)) - x
    assert abs(double_step_drift(p, x) - via_map) <= 1e-14


def test_drift_slope_peak_p3():
    theta, mu = drift_slope_peak(3)
    assert theta == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert mu > 0.0


def test_drift_slope_peak_p4():
    theta, mu = drift_slope_peak(4)
    assert theta == pytest.approx(0.25 ** (1.0 / 3.0), abs=1e-12)
    assert mu > 0.0


def test_drift_slope_peak_positive_up_to_20():
    for p in range(3, 21):
        theta, mu = drift_slope_peak(p)
        assert 0.0 < theta < 1.0
        assert mu > 0.0


def test_drift_root_scan():
    # sign scan at 1e-4 resolution isolates exactly the roots 0, alpha_p, 1
    for p in (3, 4, 5):
        a = solve_alpha(p)
        xs = [i * 1e-4 for i in range(10_001)]
        values = [double_step_drift(p, x) for x in xs]
        assert values[0] == 0.0 and values[-1] == 0.0
        crossings = [
            0.5 * (xs[i] + xs[i + 1])
            for i in range(len(xs) - 1)
            if values[i] != 0.0 and values[i + 1] != 0.0
            and (values[i] < 0.0) != (values[i + 1] < 0.0)
        ]
        assert len(crossings) == 1
        assert abs(crossings[0] - a) <= 2e-4


def test_stability_report_fixed_points():
    # three corners and the interior point of each system; the corners are exact
    residuals = fixed_point_residuals()
    assert max(residuals) <= 1e-12
    assert residuals[:3] == residuals[4:7] == [0.0] * 3


def test_stability_report_linearisation():
    # the conjugate step's own derivatives: 0 on the diagonal, -a off it, so
    # the spectrum is {a, a, -2a}, and 2a > 1 makes the interior point repel
    entry_error, eigen_error = linearisation_errors()
    assert entry_error <= JACOBIAN_TOL
    assert eigen_error <= EIGEN_TOL
    assert 2.0 * solve_alpha(3) > 1.0


def test_regular_case_even_odd_dynamics():
    # scalar conjugate orbit: even and odd subsequences are monotone and
    # split toward {0, 1} according to the side of alpha
    for p in range(3, 9):
        a = solve_alpha(p)
        for u0 in (a - 0.17, a + 0.13):
            u = u0
            values = [u]
            for _ in range(200):
                u = regular_map(p, u)
                values.append(u)
                if u in (0.0, 1.0):
                    break
            evens, odds = values[0::2], values[1::2]
            if u0 < a:
                assert all(x >= y for x, y in zip(evens, evens[1:]))
                assert all(x <= y for x, y in zip(odds, odds[1:]))
                assert evens[-1] < 1e-3 and odds[-1] > 1 - 1e-3
            else:
                assert all(x <= y for x, y in zip(evens, evens[1:]))
                assert all(x >= y for x, y in zip(odds, odds[1:]))
                assert evens[-1] > 1 - 1e-3 and odds[-1] < 1e-3


def test_interior_fixed_point_is_unstable():
    a = solve_alpha(3)
    state = ParamVector((a + 1e-6, a + 1e-6, a + 1e-6))
    deviation = 0.0
    for step in range(1, 61):
        state = conjugate_step(state)
        deviation = max(abs(v - a) for v in state.t)
        if deviation > 1e-2:
            break
    assert deviation > 1e-2
    assert step <= 60


def test_conjugate_trace_saturation_flag():
    trace = conjugate_trace(ParamVector((0.2, 0.3, 0.4)), 400)
    assert trace.saturated_at is not None
    last = trace.params[trace.saturated_at]
    assert any(v in (0.0, 1.0) for v in last.t)
    for state in trace.params[: trace.saturated_at]:
        assert all(0.0 < v < 1.0 for v in state.t)


def test_derived_trace_is_the_step_recurrence():
    trace = derived_trace(ParamVector((0.15, 0.6, 0.4, 0.22)), 25)
    end = trace.saturated_at if trace.saturated_at is not None else len(trace.params) - 1
    for m in range(end):
        assert derived_step(trace.params[m]).t == trace.params[m + 1].t


def test_conjugate_round_trip_with_params():
    t = ParamVector((0.15, 0.6, 0.4))
    u = _conjugate(t)
    assert u.t == tuple(1.0 - v for v in t.t)
    assert _conjugate(u).t == tuple(1.0 - v for v in u.t)


def test_regular_divergence_saturates_within_100():
    # criterion-5 divergence clause: +-0.1 around the stationary parameter
    for p in range(3, 9):
        a = solve_alpha(p)
        for sign in (+1.0, -1.0):
            t0 = ParamVector(((1.0 - a) + sign * 0.1,) * p)
            ct = conjugate_trace(_conjugate(t0), 100)
            assert ct.saturated_at is not None and ct.saturated_at <= 100
            us = [s.t[0] for s in ct.params]
            evens, odds = us[0::2], us[1::2]
            if us[0] < a:
                assert all(x >= y for x, y in zip(evens, evens[1:]))
                assert all(x <= y for x, y in zip(odds, odds[1:]))
                assert evens[-1] < 1e-3 and odds[-1] > 1.0 - 1e-3
            else:
                assert all(x <= y for x, y in zip(evens, evens[1:]))
                assert all(x >= y for x, y in zip(odds, odds[1:]))
                assert evens[-1] > 1.0 - 1e-3 and odds[-1] < 1e-3


# The derived and conjugate orbits as they were computed before the steps
# built their results unchecked: every entry through the checked
# constructors, every product as a plain left-to-right loop.  Kept as the
# reference that the steps and traces must match bit for bit.
def _old_excluded_products(values):
    out = []
    for k in range(len(values)):
        prod = 1.0
        for i, v in enumerate(values):
            if i != k:
                prod *= v
        out.append(prod)
    return tuple(out)


def _old_derived_step(t):
    return _closed_params(_old_excluded_products(tuple(1.0 - v for v in t.t)))


def _old_conjugate_step(u):
    prods = _old_excluded_products(u.t)
    return _closed_params(tuple(1.0 - pr for pr in prods))


def _old_orbit(step, values, start, steps):
    entries = [start]
    saturated_at = 0 if any(v == 0.0 or v == 1.0 for v in values(start)) else None
    current = start
    if saturated_at is None:
        for m in range(1, steps + 1):
            current = step(current)
            entries.append(current)
            if any(v == 0.0 or v == 1.0 for v in values(current)):
                saturated_at = m
                break
    return tuple(entries), saturated_at


def _old_derived_trace(t0, steps):
    return DerivedTrace(*_old_orbit(_old_derived_step, lambda t: t.t, t0, steps))


def _old_conjugate_trace(u0, steps):
    return DerivedTrace(*_old_orbit(_old_conjugate_step, lambda u: u.t, u0, steps))


def _bits(entries, values):
    return [tuple(map(float.hex, values(e))) for e in entries]


# Full-precision, ordinary, near-endpoint and endpoint components; a start
# holding an endpoint is saturated at index 0.
_COMPONENT = st.one_of(
    st.integers(1, 2**53 - 1).map(lambda n: n / 2**53),
    st.floats(0.0, 1.0),
    st.floats(1e-300, 1e-6),
    st.floats(1.0 - 1e-6, 1.0),
    st.sampled_from([0.0, 1.0]),
)


@st.composite
def orbit_starts(draw):
    p = draw(st.integers(2, 6))
    if draw(st.booleans()):
        return (draw(_COMPONENT),) * p
    return tuple(draw(st.lists(_COMPONENT, min_size=p, max_size=p)))


# Explicit cases: no step, saturated starts, and caps at and one below the
# saturation index of each orbit from (0.2, 0.3, 0.4), 19 for the derived
# and 13 for the conjugate orbit.
@given(orbit_starts(), st.integers(0, 60))
@example((0.2, 0.3, 0.4), 0)
@example((0.0, 0.5, 0.5), 0)
@example((0.5, 1.0, 0.5), 7)
@example((0.2, 0.3, 0.4), 19)
@example((0.2, 0.3, 0.4), 18)
@example((0.2, 0.3, 0.4), 13)
@example((0.2, 0.3, 0.4), 12)
def test_traces_match_the_checked_reference_bit_for_bit(values, steps):
    t0 = _closed_params(values)
    new, old = derived_trace(t0, steps), _old_derived_trace(t0, steps)
    assert _bits(new.params, lambda t: t.t) == _bits(old.params, lambda t: t.t)
    assert new.saturated_at == old.saturated_at

    # the same components, read as a conjugate start u0
    new_c, old_c = conjugate_trace(t0, steps), _old_conjugate_trace(t0, steps)
    assert _bits(new_c.params, lambda u: u.t) == _bits(old_c.params, lambda u: u.t)
    assert new_c.saturated_at == old_c.saturated_at
    assert _conjugate(t0) == _closed_params(tuple(1.0 - v for v in values))


def test_traces_stop_at_saturation_or_at_the_step_cap():
    t0 = ParamVector((0.2, 0.3, 0.4))
    for trace, last in ((derived_trace, 19), (conjugate_trace, 13)):
        assert trace(t0, last).saturated_at == last
        capped = trace(t0, last - 1)
        assert capped.saturated_at is None and capped.steps == last - 1
    assert derived_trace(t0, 0).params == (t0,)
    done = _closed_params((0.0, 0.5, 0.5))
    assert derived_trace(done, 5).params == (done,)
    assert derived_trace(done, 5).saturated_at == 0
    with pytest.raises(ValueError, match="non-negative"):
        derived_trace(t0, -1)


def test_user_states_keep_every_check():
    for bad, message in (((0.5,), "at least two parameters"),
                         ((0.5, math.nan), "non-finite parameter"),
                         ((0.5, 1.0), "open interval")):
        with pytest.raises(ValueError, match=message):
            ParamVector(bad)


# Float entries for the products: exact 0 and 1, subnormal, tiny, ordinary
# and close to 1, so that products underflow, vanish or round at 1.
_PRODUCT_ENTRY = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308]),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(1e-300, 1e-6),
    st.floats(0.0, 1.0),
    st.floats(1.0 - 1e-6, 1.0),
)


@given(st.integers(2, 64).flatmap(
    lambda p: st.lists(_PRODUCT_ENTRY, min_size=p, max_size=p)))
def test_excluded_products_match_the_skipping_loop(values):
    new, old = excluded_products(values), _old_excluded_products(values)
    assert tuple(map(float.hex, new)) == tuple(map(float.hex, old))


@given(st.lists(_PRODUCT_ENTRY, min_size=3, max_size=3))
def test_excluded_products_at_p3_match_the_skipping_loop(values):
    new, old = excluded_products(values), _old_excluded_products(values)
    assert tuple(map(float.hex, new)) == tuple(map(float.hex, old))


# The lock-in search and classify_dynamics as they were before the orbit kernel:
# the lock-in read from a conjugate trace, the orbits through the checked
# reference above.
def _old_side(values, alpha, tie_tol):
    if any(abs(v - alpha) <= tie_tol for v in values):
        return 0
    if all(v > alpha for v in values):
        return 1
    if all(v < alpha for v in values):
        return -1
    return 0


def _old_find_lockin(trace, alpha, *, tie_tol=1e-15, confirm_pairs=3):
    states = trace.params
    n = len(states)
    for m in range(n):
        s = _old_side(states[m].t, alpha, tie_tol)
        if s == 0:
            continue
        window = min(n - 1 - m, 2 * confirm_pairs)
        confirmed = True
        for j in range(1, window + 1):
            expected = s if j % 2 == 0 else -s
            if _old_side(states[m + j].t, alpha, tie_tol) != expected:
                confirmed = False
                break
        if confirmed:
            return m
    return None


def _old_max_gap(trace, lag):
    params = trace.params
    gaps = [max(abs(a - b) for a, b in zip(params[m].t, params[m + lag].t))
            for m in range(len(params) - lag)]
    return max(gaps, default=0.0)


# classify_dynamics' settings when it took them as one config object
_OLD_CONFIG = SimpleNamespace(stationary_tol=1e-9, periodic_tol=1e-9, regular_tol=1e-12,
                              horizon=200, stationary_window=50, confirm_pairs=3,
                              alpha_tie_tol=1e-15)


def _old_stationary_window(p, alpha, config):
    rate = (p - 1) * alpha ** (p - 2)
    if rate <= 1.0:
        return config.stationary_window
    cap = int(math.log(config.stationary_tol / 4e-16) / math.log(rate))
    return max(4, min(config.stationary_window, cap))


def _old_classify_dynamics(t0, config=_OLD_CONFIG):
    p = t0.size
    alpha = solve_alpha(p)
    if p == 2:
        window = min(config.horizon, config.stationary_window)
        trace = _old_derived_trace(t0, window)
        saturated = trace.saturated_at is not None
        stationary_form = abs(t0.t[1] - (1.0 - t0.t[0])) <= config.stationary_tol
        if stationary_form and _old_max_gap(trace, 1) <= config.stationary_tol:
            return DynamicsClass(DynamicsVerdict.STATIONARY, alpha, saturated=saturated)
        two_step = _old_max_gap(trace, 2)
        if two_step > config.periodic_tol:
            raise ArithmeticError(
                f"p=2 orbit failed its two-step return ({two_step:g}); "
                "this contradicts the exact dynamics"
            )
        return DynamicsClass(DynamicsVerdict.PERIODIC2, alpha, saturated=saturated)
    regular = t0.spread <= config.regular_tol
    if regular and abs(t0.t[0] - (1.0 - alpha)) <= config.stationary_tol:
        trace = _old_derived_trace(t0, _old_stationary_window(p, alpha, config))
        if trace.saturated_at is None and _old_max_gap(trace, 1) <= config.stationary_tol:
            return DynamicsClass(DynamicsVerdict.STATIONARY, alpha)
    ctrace = _old_conjugate_trace(
        _closed_params(tuple(1.0 - v for v in t0.t)), config.horizon)
    m0 = _old_find_lockin(ctrace, alpha, tie_tol=config.alpha_tie_tol,
                          confirm_pairs=config.confirm_pairs)
    parity = None
    if regular:
        parity = "even" if 1.0 - t0.t[0] < alpha else "odd"
    elif m0 is not None:
        below = all(v < alpha for v in ctrace.params[m0].t)
        zero_on_even = (m0 % 2 == 0) if below else (m0 % 2 == 1)
        parity = "even" if zero_on_even else "odd"
    verdict = (DynamicsVerdict.ALTERNATING_DIVERGENT if regular or p == 3
               else DynamicsVerdict.CONJECTURED_ALTERNATING)
    return DynamicsClass(verdict, alpha, parity=parity, lockin_index=m0,
                         saturated=ctrace.saturated_at is not None)


# Valid starts: ordinary, full-precision and near-endpoint components.
_OPEN_COMPONENT = st.one_of(
    st.integers(1, 2**53 - 1).map(lambda n: n / 2**53),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1e-300, 1e-6),
    st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
)


@st.composite
def classify_starts(draw):
    """Regular, stationary (exactly or nearly) and irregular starts."""
    p = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["regular", "stationary", "irregular"]))
    if kind == "irregular":
        return tuple(draw(st.lists(_OPEN_COMPONENT, min_size=p, max_size=p)))
    if kind == "regular":
        return (draw(_OPEN_COMPONENT),) * p
    shift = draw(st.sampled_from([0.0, 1e-15, -1e-12, 1e-10, 1e-6]))
    if p == 2:
        x = draw(_OPEN_COMPONENT)
        return (x, min(max(1.0 - x + shift, 5e-324), 1.0 - 2**-53))
    return (1.0 - solve_alpha(p) + shift,) * p


def _outcome(run):
    try:
        return run()
    except ArithmeticError as exc:
        return type(exc), str(exc)


@given(classify_starts())
def test_classify_dynamics_matches_the_reference(values):
    t0 = ParamVector(values)
    new = _outcome(lambda: classify_dynamics(t0))
    assert new == _outcome(lambda: _old_classify_dynamics(t0))


@given(classify_starts(), st.integers(0, 60), st.sampled_from([0.0, 1e-15, 1e-3]),
       st.integers(0, 4))
def test_find_lockin_matches_the_reference(values, steps, tie_tol, confirm_pairs):
    u0 = _closed_params(tuple(1.0 - v for v in values))
    alpha = solve_alpha(len(values))
    new = _lockin([u.t for u in conjugate_trace(u0, steps).params], alpha, tie_tol,
                  confirm_pairs)
    old = _old_find_lockin(_old_conjugate_trace(u0, steps), alpha, tie_tol=tie_tol,
                           confirm_pairs=confirm_pairs)
    assert new == old


@st.composite
def lockin_traces(draw):
    """Conjugate traces that alternate about alpha except at a few defect
    entries, where some components swap sides; components sit 0-3 steps of
    2**-20 from alpha, so exact ties and tie-tolerance edges occur."""
    p, n = draw(st.integers(2, 4)), draw(st.integers(1, 14))
    alpha = solve_alpha(p)
    first = draw(st.sampled_from([-1, 1]))
    defects = draw(st.sets(st.integers(0, n - 1), max_size=3))
    states = []
    for m in range(n):
        side = first if m % 2 == 0 else -first
        ks = draw(st.lists(st.integers(0, 3), min_size=p, max_size=p))
        flips = [m in defects and draw(st.booleans()) for _ in range(p)]
        states.append(ParamVector(tuple(
            alpha + (-side if flip else side) * k * 2**-20 for k, flip in zip(ks, flips))))
    return alpha, DerivedTrace(tuple(states))


@given(lockin_traces(), st.sampled_from([0.0, 2**-20, 2**-19, 1e-15, -1.0]),
       st.integers(0, 4))
def test_find_lockin_matches_the_reference_on_built_traces(case, tie_tol, confirm_pairs):
    alpha, trace = case
    new = _lockin([u.t for u in trace.params], alpha, tie_tol, confirm_pairs)
    assert new == _old_find_lockin(trace, alpha, tie_tol=tie_tol, confirm_pairs=confirm_pairs)


@given(st.integers(2, 8).flatmap(
    lambda p: st.lists(_OPEN_COMPONENT, min_size=p, max_size=p)), st.integers(0, 80))
def test_conjugate_orbit_is_the_float_complement_of_the_derived_orbit(values, steps):
    t0 = ParamVector(values)
    derived = derived_trace(t0, steps)
    conjugate = conjugate_trace(_conjugate(t0), steps)
    assert len(conjugate.params) <= len(derived.params)
    for state, entry in zip(conjugate.params, derived.params):
        assert state.t == tuple(1.0 - v for v in entry.t)
    if derived.saturated_at is not None:
        assert conjugate.saturated_at is not None
        assert conjugate.saturated_at <= derived.saturated_at
