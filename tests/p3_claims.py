"""The p = 3 claims of the paper, checked directly on float orbits.

Each function recomputes one claim from the package's steps and traces and
returns only what the tests assert on.  The ratio and squeeze slacks are
the values the package used when it held these checks; ROADMAP item 6 asks
for each to be derived from the float noise it covers.
"""

import math

from barypoly.barypolygon import complement_products, excluded_products
from barypoly.derived import ALPHA_TIE_TOL, CONFIRM_PAIRS, _lockin, conjugate_step, solve_alpha

# Even-index ratios stop at the first component under this floor: such values
# come out of the cancellation 1 - (product near 1), quantised to a few
# multiples of the float spacing near 1, so their ratios carry no information.
RATIO_COMPONENT_FLOOR = 1e-6
# how far an even-index ratio may rise and still count as non-increasing
RATIO_MONOTONE_SLACK = 1e-9
# how far the orbit may stray past the bounding sequence
SQUEEZE_SLACK = 1e-9

# Central-difference step of the linearisation.  (alpha +- h) is exact, and
# the conjugate map is affine in each input, so the difference quotient has
# no truncation error; each output rounds a product under 1/2 and then
# 1 - product above 1/2, so it is off by at most 3 * 2**-55, and a quotient by
# twice that over 2h.  Measured: 1.95e-14.  A product with an eigenvector
# adds two entries' errors and one rounding.
JACOBIAN_STEP = 2.0**-10
JACOBIAN_TOL = 3 * 2.0**-54 / (2 * JACOBIAN_STEP)
EIGEN_TOL = 2 * JACOBIAN_TOL + 2.0**-52


def regular_map(p, x):
    """One step of the regular conjugate recurrence: x -> 1 - x**(p-1)."""
    return 1.0 - x ** (p - 1)


def double_step_drift(p, x):
    """Displacement of x after two regular steps; zero exactly at 0, alpha_p, 1."""
    return 1.0 - x - (1.0 - x ** (p - 1)) ** (p - 1)


def fixed_points():
    """The four conjugate fixed points of p = 3, then the four derived ones."""
    a = solve_alpha(3)
    conjugate = ((1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (a, a, a))
    derived = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0 - a,) * 3)
    return conjugate, derived


def fixed_point_residuals():
    """Each fixed point's largest componentwise move under its system's step,
    in the order of :func:`fixed_points`."""
    conjugate, derived = fixed_points()
    return (
        [max(abs(v - (1.0 - pr)) for v, pr in zip(pt, excluded_products(pt))) for pt in conjugate]
        + [max(abs(v - pr) for v, pr in zip(pt, complement_products(pt))) for pt in derived]
    )


def linearisation_errors():
    """Central differences of ``conjugate_step`` at (alpha, alpha, alpha),
    measured against the linearisation of the paper.

    Returns how far the difference quotients are from 0 on the diagonal and
    -alpha off it, and how far (1, 1, 1), (1, -1, 0) and (0, 1, -1) are from
    eigenvectors for -2 alpha, alpha and alpha.  Three independent
    eigenvectors make those the roots of the characteristic polynomial.
    """
    a = solve_alpha(3)
    columns = []
    for j in range(3):
        up, down = [a] * 3, [a] * 3
        up[j] += JACOBIAN_STEP
        down[j] -= JACOBIAN_STEP
        hi, lo = conjugate_step(up), conjugate_step(down)
        columns.append([(x - y) / (2 * JACOBIAN_STEP) for x, y in zip(hi, lo)])
    rows = list(zip(*columns))
    entry_error = max(abs(rows[i][j] - (0.0 if i == j else -a))
                      for i in range(3) for j in range(3))
    eigen_error = max(
        abs(math.fsum(x * y for x, y in zip(row, v)) - lam * v[i])
        for lam, v in ((-2.0 * a, (1.0, 1.0, 1.0)), (a, (1.0, -1.0, 0.0)), (a, (0.0, 1.0, -1.0)))
        for i, row in enumerate(rows)
    )
    return entry_error, eigen_error


def order_preserved(trace):
    """Whether every entry of a p = 3 trace has ascending components."""
    return all(s[0] <= s[1] <= s[2] for s in trace.params)


def ratio_bound(trace):
    """Two-step ratio contraction along the even indices of a conjugate trace
    from a sorted p = 3 start.

    Returns the gaps w/u - 1, the pair index where the component floor
    stopped the check (None if it did not), and whether the claim holds: each
    gap is positive, gap q >= 1 is under (1/2)**q times gap 0, and v/u, w/v
    and w/u do not increase.  A regular start holds with no gaps.
    """
    states = trace.params
    u0 = states[0]
    if u0[2] == u0[0]:
        return (), None, True
    end = trace.saturated_at if trace.saturated_at is not None else len(states)
    ratios = []
    floor_at = None
    for q, m in enumerate(range(0, end, 2)):
        u, v, w = states[m]
        if u < RATIO_COMPONENT_FLOOR or w / u - 1.0 == 0.0:
            floor_at = q
            break
        ratios.append((v / u, w / v, w / u))
    gaps = tuple(wu - 1.0 for _, _, wu in ratios)
    holds = (
        all(g > 0.0 for g in gaps)
        and all(gaps[q] < 0.5**q * gaps[0] for q in range(1, len(gaps)))
        and all(b <= a + RATIO_MONOTONE_SLACK
                for before, after in zip(ratios, ratios[1:])
                for a, b in zip(before, after))
    )
    return gaps, floor_at, holds


def double_step_identity_residual(u0):
    """Defect of the two-step linear form against two conjugate steps.

    With k = v - u*v*w and c = u*w, two steps send the outer components to
    k*u + c and k*w + c exactly; the residual is pure float rounding.
    """
    u, v, w = u0
    two = conjugate_step(conjugate_step(u0))
    k = v - u * v * w
    c = u * w
    return max(abs(two[0] - (k * u + c)), abs(two[2] - (k * w + c)))


def lockin(trace):
    """The lock-in index of a p = 3 conjugate trace, as ``classify_dynamics``
    finds it on its own orbit."""
    return _lockin(trace.params, solve_alpha(3), ALPHA_TIE_TOL, CONFIRM_PAIRS)


def squeeze(trace, start):
    """Squeeze a p = 3 conjugate trace from ``start`` between iterates of the
    regular map x -> 1 - x**2.

    The components at ``start`` lie strictly inside (0, alpha), and an entry
    follows it.  tau starts at their largest, or at sqrt(1 - u) of the next
    entry's smallest component u when that makes the squeeze valid.  Entries
    at even offsets must stay at or below tau, entries at odd offsets at or
    above it.  Returns the largest violation and whether tau came from the
    next entry.
    """
    states = trace.params
    w0 = max(states[start])
    u1 = min(states[start + 1])
    from_inverse = not u1 > 1.0 - w0 * w0
    x = math.sqrt(1.0 - u1) if from_inverse else w0
    violation = 0.0
    for offset, state in enumerate(states[start:]):
        gap = max(state) - x if offset % 2 == 0 else x - min(state)
        violation = max(violation, gap)
        x = 1.0 - x * x
    return violation, from_inverse
