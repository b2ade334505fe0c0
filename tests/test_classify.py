"""Orbit classification across the p = 2, regular, and irregular regimes."""

import pytest

from barypoly.barypolygon import ParamVector
from barypoly.derived import (
    DynamicsVerdict,
    classify_dynamics,
    solve_alpha,
)


def test_p2_stationary():
    result = classify_dynamics(ParamVector((0.3, 0.7)))
    assert result.verdict is DynamicsVerdict.STATIONARY
    assert result.alpha == 0.5


def test_p2_periodic():
    result = classify_dynamics(ParamVector((0.3, 0.5)))
    assert result.verdict is DynamicsVerdict.PERIODIC2


def test_p2_stationary_within_tolerance():
    result = classify_dynamics(ParamVector((0.3, 0.7 + 1e-12)))
    assert result.verdict is DynamicsVerdict.STATIONARY


def test_regular_p3_stationary():
    a = solve_alpha(3)
    result = classify_dynamics(ParamVector((1.0 - a,) * 3))
    assert result.verdict is DynamicsVerdict.STATIONARY
    assert not result.saturated


@pytest.mark.parametrize("p", range(3, 9))
def test_regular_stationary_all_p(p):
    a = solve_alpha(p)
    result = classify_dynamics(ParamVector((1.0 - a,) * p))
    assert result.verdict is DynamicsVerdict.STATIONARY


@pytest.mark.parametrize("p", range(3, 9))
def test_regular_divergent_parity(p):
    a = solve_alpha(p)
    below = classify_dynamics(ParamVector((1.0 - a + 0.1,) * p))
    assert below.verdict is DynamicsVerdict.ALTERNATING_DIVERGENT
    # u0 = a - 0.1 < a, so the even conjugate subsequence sinks to 0
    assert below.parity == "even"
    above = classify_dynamics(ParamVector((1.0 - a - 0.1,) * p))
    assert above.verdict is DynamicsVerdict.ALTERNATING_DIVERGENT
    assert above.parity == "odd"


def test_irregular_p3_lockin():
    result = classify_dynamics(ParamVector((0.2, 0.3, 0.4)))
    assert result.verdict is DynamicsVerdict.ALTERNATING_DIVERGENT
    assert result.lockin_index == 1
    # locked below alpha at the odd index 1: odd conjugate entries sink to 0
    assert result.parity == "odd"
    assert result.saturated


def test_irregular_p4_is_conjectured():
    result = classify_dynamics(ParamVector((0.2, 0.3, 0.4, 0.5)))
    assert result.verdict is DynamicsVerdict.CONJECTURED_ALTERNATING
    assert result.lockin_index is not None


def test_near_alpha_component_still_classified():
    # a component exactly at alpha blocks lock-in at index 0 but the orbit
    # still classifies from later indices
    a = solve_alpha(3)
    result = classify_dynamics(ParamVector((1.0 - a, 0.3, 0.4)))
    assert result.verdict is DynamicsVerdict.ALTERNATING_DIVERGENT
    assert result.lockin_index is not None
    assert result.lockin_index >= 1


def test_nearly_regular_is_divergent():
    a = solve_alpha(3)
    result = classify_dynamics(ParamVector((1.0 - a + 1e-6,) * 3))
    assert result.verdict is DynamicsVerdict.ALTERNATING_DIVERGENT


def test_custom_tolerances():
    # the tolerances are module constants: no caller can relabel a p = 2
    # orbit as stationary, or an irregular p >= 4 start as regular
    for keyword in ("stationary_tol", "periodic_tol", "regular_tol"):
        with pytest.raises(TypeError):
            classify_dynamics(ParamVector((0.3, 0.5)), **{keyword: 0.5})


def test_subnormal_parameter_saturates_immediately():
    # 1 - 1e-300 rounds to 1.0, so the p = 2 orbit saturates at step one but
    # still classifies from the closed form
    result = classify_dynamics(ParamVector((1e-300, 0.5)))
    assert result.verdict is DynamicsVerdict.PERIODIC2
    assert result.saturated
