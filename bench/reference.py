"""High-precision references the benchmark checks the package against.

Everything here works in stdlib ``decimal`` at ``PRECISION`` significant
digits, starting from the exact values of the float inputs
(``Decimal(float)`` is exact), and shares no code with the package.  The
references run outside every timed region and outside the set-up time.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext

PRECISION = 60
# A float result that matches the reference exactly is credited with this
# many digits; one binary64 ulp is about 1.1e-16 relative.
MAX_DIGITS = 17.0


def _context():
    return localcontext(Context(prec=PRECISION))


def _excluded(values: list[Decimal]) -> list[Decimal]:
    n = len(values)
    prefix = [Decimal(1)] * (n + 1)
    for i, v in enumerate(values):
        prefix[i + 1] = prefix[i] * v
    out = [Decimal(0)] * n
    suffix = Decimal(1)
    for k in range(n - 1, -1, -1):
        out[k] = prefix[k] * suffix
        suffix *= values[k]
    return out


def _barycenter(rows: list[list[Decimal]], weights: list[Decimal]) -> list[Decimal]:
    total = sum(weights)
    return [sum(w * row[j] for w, row in zip(weights, rows)) / total
            for j in range(len(rows[0]))]


def _exact(rows) -> list[list[Decimal]]:
    return [[Decimal(c) for c in row] for row in rows]


def excluded_products(values) -> list[Decimal]:
    """prod_{i != k} v_i for every k, from prefix and suffix products: O(p)."""
    with _context():
        return _excluded([Decimal(v) for v in values])


def limit_point(rows, t) -> list[Decimal]:
    """Limit of the polygon iteration of ``rows`` under float parameters ``t``.

    Its barycentric weights are prod_{i != k} (1 - t_i).
    """
    with _context():
        return _barycenter(_exact(rows), _excluded([1 - Decimal(v) for v in t]))


def dual_points(rows, t0, count: int) -> list[list[Decimal]]:
    """Dual points G_0, ..., G_{count-1} of the exact derived orbit of ``t0``.

    G_m is the limit point for t^(m), so its weights are t^(m+1), and
    t^(m+1)_k = prod_{i != k} (1 - t^(m)_i).
    """
    with _context():
        exact = _exact(rows)
        entry = [Decimal(v) for v in t0]
        points = []
        for _ in range(count):
            entry = _excluded([1 - v for v in entry])
            points.append(_barycenter(exact, entry))
        return points


def alpha(p: int) -> Decimal:
    """The root in [0, 1] of x**(p-1) + x - 1, by Newton's method from 0.6."""
    with _context():
        x = Decimal("0.6")
        tiny = Decimal(10) ** (4 - PRECISION)
        for _ in range(200):
            step = (x ** (p - 1) + x - 1) / ((p - 1) * x ** (p - 2) + 1)
            x -= step
            if abs(step) < tiny:
                break
        return x


def scale(rows) -> float:
    """Bounding-box diagonal of a point family; the yardstick for errors."""
    return math.sqrt(sum(
        (max(r[j] for r in rows) - min(r[j] for r in rows)) ** 2
        for j in range(len(rows[0]))
    ))


def point_error(point, ref: list[Decimal]) -> Decimal:
    """Euclidean distance between a float point and a reference point."""
    with _context():
        return sum(((Decimal(c) - r) ** 2 for c, r in zip(point, ref)), Decimal(0)).sqrt()


def digits(error: Decimal, yardstick: float) -> float:
    """-log10(error / yardstick), capped at MAX_DIGITS."""
    if error == 0:
        return MAX_DIGITS
    with _context():
        return min(MAX_DIGITS, -float((error / Decimal(yardstick)).log10()))
