"""Order preservation, ratio contraction, the two-step identity, and the
bounding-sequence squeeze for p = 3."""

import random

import pytest
from hypothesis import given, strategies as st

from barypoly.barypolygon import ParamVector
from barypoly.derived import conjugate_trace, derived_trace, solve_alpha
from p3_claims import (
    SQUEEZE_SLACK,
    double_step_identity_residual,
    lockin,
    order_preserved,
    ratio_bound,
    squeeze,
)


def _trace(u0, steps=400):
    return conjugate_trace(ParamVector(u0), steps)


def test_order_check_ties():
    assert order_preserved(_trace((0.2, 0.2, 0.2), 50))


def test_order_check_sorted_start():
    assert order_preserved(_trace((0.5, 0.6, 0.7), 50))


@given(st.tuples(st.floats(0.05, 0.9), st.floats(0.05, 0.9), st.floats(0.05, 0.9)))
def test_order_preserved_for_any_sorted_start(raw):
    trace = _trace(tuple(sorted(raw)), 60)
    assert order_preserved(trace)


def test_ratio_bound_simple_case():
    gaps, _, holds = ratio_bound(_trace((0.5, 0.6, 0.7)))
    assert holds
    assert len(gaps) >= 12
    # the q = 0 gap is exactly w0/u0 - 1
    assert gaps[0] == pytest.approx(0.7 / 0.5 - 1.0, abs=1e-14)
    for q in range(1, len(gaps)):
        assert 0.0 < gaps[q] < 0.5**q * gaps[0]


def test_ratio_bound_wide_case():
    assert ratio_bound(_trace((0.1, 0.2, 0.9)))[2]


def test_ratio_bound_extreme_case():
    assert ratio_bound(_trace((0.01, 0.5, 0.99)))[2]


def test_ratio_bound_regular_flagged():
    assert ratio_bound(_trace((0.4, 0.4, 0.4))) == ((), None, True)


def test_ratio_bound_component_under_floor_at_start():
    # a start below the component floor yields no checkable pairs; the
    # check says so instead of inventing evidence
    assert ratio_bound(_trace((1e-8, 0.5, 0.9), 20))[:2] == ((), 0)


def test_ratio_bound_random_starts():
    rng = random.Random(20)
    for _ in range(40):
        u0 = tuple(sorted(rng.uniform(0.02, 0.98) for _ in range(3)))
        if u0[2] - u0[0] < 1e-9:
            continue
        assert ratio_bound(_trace(u0))[2]


def test_two_step_identity_at_fixed_point():
    a = solve_alpha(3)
    assert double_step_identity_residual((a, a, a)) <= 1e-14


def test_two_step_identity_examples():
    assert double_step_identity_residual((0.5, 0.6, 0.7)) <= 1e-12
    assert double_step_identity_residual((0.01, 0.5, 0.99)) <= 1e-12


@given(
    st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
)
def test_two_step_identity_everywhere(u0):
    assert double_step_identity_residual(u0) <= 1e-12


def test_odd_even_ratio_identity():
    # t ratios at odd steps equal conjugate ratios at the preceding even
    # step: t1/t2 = v/u, t2/t3 = w/v, t1/t3 = w/u
    t0 = ParamVector((0.2, 0.3, 0.4))
    steps = 10
    trace = conjugate_trace(ParamVector(tuple(1.0 - v for v in t0.t)), steps)
    dtrace = derived_trace(t0, steps)
    for q in range(4):
        u, v, w = trace.params[2 * q].t
        t_odd = dtrace.params[2 * q + 1].t
        assert t_odd[0] / t_odd[1] == pytest.approx(v / u, rel=1e-12)
        assert t_odd[1] / t_odd[2] == pytest.approx(w / v, rel=1e-12)
        assert t_odd[0] / t_odd[2] == pytest.approx(w / u, rel=1e-12)


def test_bounding_sequence_regular_start():
    violation, from_inverse = squeeze(_trace((0.3, 0.3, 0.3)), 0)
    assert violation <= SQUEEZE_SLACK
    assert from_inverse


def test_bounding_sequence_sorted_irregular():
    trace = _trace((0.3, 0.4, 0.5))
    assert squeeze(trace, 0)[0] <= SQUEEZE_SLACK
    # at least 5 even/odd pairs squeezed
    assert len(trace.params) >= 9


def test_bounding_sequence_flat_spread():
    assert squeeze(_trace((0.1, 0.15, 0.6)), 0)[0] <= SQUEEZE_SLACK


def test_bounding_sequence_after_lockin():
    rng = random.Random(6)
    a = solve_alpha(3)
    for _ in range(10):
        u0 = tuple(rng.uniform(0.05, 0.95) for _ in range(3))
        if max(u0) - min(u0) < 1e-9:
            continue
        trace = _trace(u0)
        m0 = lockin(trace)
        assert m0 is not None
        start = m0 if all(v < a for v in trace.params[m0].t) else m0 + 1
        if start + 1 >= len(trace.params):
            continue
        assert all(0.0 < v < a for v in trace.params[start].t)
        assert squeeze(trace, start)[0] <= SQUEEZE_SLACK
