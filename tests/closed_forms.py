"""The test suite's reference for n = 3 and n = 4: closed forms for three
circles with two equilateral triangles and four circles with two squares.

They reach through triangle areas the verdicts and circumradii the package
reaches through power averages. Radii arguments are sorted ascending; every
gate is the default ``relative_eps`` times a length of the configuration.
``average_power`` reads a power average back in the family's units.
"""

import math
from typing import NamedTuple

from concentric_gons import DEFAULT_TOLERANCE, GeometryError

EPS = DEFAULT_TOLERANCE.relative_eps
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TriangleInequalityViolated(GeometryError):
    """The longest side exceeds the sum of the other two beyond tolerance."""


class SumConditionViolated(GeometryError):
    """Outer and inner squared-radius sums differ beyond tolerance."""


def heron_area(a: float, b: float, c: float) -> float:
    """Triangle area from side lengths by the cancellation-resistant sorted
    product form: exactly 0.0 for sides collinear within tolerance."""
    a, b, c = sorted((a, b, c), reverse=True)
    slack = b + c - a  # the only factor that can go negative
    if slack < 0.0:
        if -slack <= EPS * a:
            return 0.0
        raise TriangleInequalityViolated(f"side {a} exceeds {b} + {c} by {-slack}")
    # Parenthesization matters: keep the exact grouping of the stable form.
    product = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    if product <= 0.0:
        return 0.0
    return math.sqrt(product) / 4.0


class Fit(NamedTuple):
    exists: bool
    degenerate: bool
    larger: float
    smaller: float
    reason: str | None = None  # "sum_condition" or "associated_triangle" for squares


def triangle_feasibility(d1: float, d2: float, d3: float) -> Fit:
    """Do two equilateral triangles with one vertex on each circle exist?

    They do exactly when (d1, d2, d3) form a possibly degenerate triangle;
    the squared circumradii are ``(sum of squares +/- 4*sqrt(3)*area) / 6``. A
    collinear triple gives one triangle (larger == smaller).
    """
    slack = d1 + d2 - d3
    g = EPS * d3
    if slack < -g:
        return Fit(False, False, 0.0, 0.0)
    q1, q2, q3 = d1 * d1, d2 * d2, d3 * d3
    larger_sq = (q1 + q2 + q3 + 4.0 * SQRT3 * heron_area(d1, d2, d3)) / 6.0
    # larger^2 * smaller^2 is the sum of (q_i - q_j)^2 / 18 over pairs: exactly
    # 0 for a point triangle, where (sum of squares - spread) / 6 leaves
    # sqrt(u) of rounding in the smaller radius.
    product = ((q1 - q2) ** 2 + (q2 - q3) ** 2 + (q1 - q3) ** 2) / 18.0
    larger = math.sqrt(larger_sq)
    smaller = math.sqrt(product / larger_sq) if larger_sq > 0.0 else 0.0
    return Fit(True, abs(slack) <= g, larger, min(smaller, larger))


def triangle_circle_radii(r1: float, r2: float, d1: float) -> tuple[float, float]:
    """The other two radii, ascending, for triangles of circumradii r1 and r2
    when one radius is d1: their squares are
    ``(3(r1^2 + r2^2) - d1^2 -/+ 4*sqrt(3)*area(r1, r2, d1)) / 2``."""
    base = 3.0 * (r1 * r1 + r2 * r2) - d1 * d1
    spread = 4.0 * SQRT3 * heron_area(r1, r2, d1)
    d2 = math.sqrt(max((base - spread) / 2.0, 0.0))
    d3 = math.sqrt(max((base + spread) / 2.0, 0.0))
    return d2, d3


def _sums_balance(d1: float, d2: float, d3: float, d4: float) -> tuple[bool, float, float]:
    outer = d1 * d1 + d4 * d4
    inner = d2 * d2 + d3 * d3
    return abs(outer - inner) <= EPS * (d4 * d4), outer, inner


def square_feasibility(d1: float, d2: float, d3: float, d4: float) -> Fit:
    """Do two squares with one vertex on each circle exist?

    Requires the outer/inner square sums to balance (d1^2 + d4^2 ==
    d2^2 + d3^2) and the associated triangle (d1, d4, sqrt(2)*d2) to exist.
    The squared circumradii are ``(d1^2 + d4^2)/4 +/- area`` of it; a
    degenerate triangle gives one square.
    """
    balanced, outer, _ = _sums_balance(d1, d2, d3, d4)
    if not balanced:
        return Fit(False, False, 0.0, 0.0, reason="sum_condition")
    try:
        area = heron_area(d1, d4, SQRT2 * d2)
    except TriangleInequalityViolated:
        return Fit(False, False, 0.0, 0.0, reason="associated_triangle")
    sides = sorted((d1, d4, SQRT2 * d2), reverse=True)
    degenerate = abs(sides[1] + sides[2] - sides[0]) <= EPS * sides[0]
    larger = math.sqrt(outer / 4.0 + area)
    smaller = math.sqrt(max(outer / 4.0 - area, 0.0))
    return Fit(True, degenerate, larger, min(smaller, larger))


class CubicResidual(NamedTuple):
    residual: float
    triple_product: float  # residual == 3 * triple_product identically


def square_cubic_residual(d1: float, d2: float, d3: float, d4: float) -> CubicResidual:
    """Degree-six obstruction for four circles: the residual
    ``8*sum(d^6) + (sum(d^2))^3 - 6*sum(d^2)*sum(d^4)`` and the product of
    the three pairing differences ``d_i^2 + d_j^2 - d_k^2 - d_l^2``."""
    q = (d1 * d1, d2 * d2, d3 * d3, d4 * d4)
    p2 = math.fsum(q)
    p4 = math.fsum(x * x for x in q)
    p6 = math.fsum(x ** 3 for x in q)
    triple_product = (
        (q[0] + q[1] - q[2] - q[3])
        * (q[0] + q[2] - q[1] - q[3])
        * (q[0] + q[3] - q[1] - q[2])
    )
    return CubicResidual(8.0 * p6 + p2 ** 3 - 6.0 * p2 * p4, triple_product)


class AssociatedTriangleSet(NamedTuple):
    """The four equal-area triangles of a balanced family: two outer radii
    with sqrt(2) times an inner one and vice versa. ``chain_value``,
    ``3*(sum d^2)^2 - 8*sum d^4``, equals ``64 * area^2`` for each."""

    triples: tuple[tuple[float, float, float], ...]
    areas: tuple[float, ...]
    chain_value: float


def associated_triangles(d1: float, d2: float, d3: float, d4: float) -> AssociatedTriangleSet:
    """All four associated triangles; SumConditionViolated unless
    d1^2 + d4^2 == d2^2 + d3^2 within tolerance."""
    balanced, outer, inner = _sums_balance(d1, d2, d3, d4)
    if not balanced:
        raise SumConditionViolated(
            f"outer sum {outer} and inner sum {inner} differ beyond tolerance"
        )
    triples = (
        (d1, d4, SQRT2 * d2),
        (d1, d4, SQRT2 * d3),
        (d2, d3, SQRT2 * d4),
        (d2, d3, SQRT2 * d1),
    )
    p2 = math.fsum(x * x for x in (d1, d2, d3, d4))
    p4 = math.fsum(x ** 4 for x in (d1, d2, d3, d4))
    return AssociatedTriangleSet(
        triples, tuple(heron_area(*t) for t in triples), 3.0 * p2 * p2 - 8.0 * p4
    )


def square_circle_radii(r1: float, r2: float, d1: float) -> tuple[float, float, float]:
    """The other three radii for squares of circumradii r1 and r2 once one
    radius is d1: ``d2^2, d3^2 = r1^2 + r2^2 -/+ 4*area(r1, r2, d1)`` and
    ``d4^2 = 2(r1^2 + r2^2) - d1^2``, so the sums balance."""
    area = heron_area(r1, r2, d1)
    square_sum = r1 * r1 + r2 * r2
    d2 = math.sqrt(max(square_sum - 4.0 * area, 0.0))
    d3 = math.sqrt(square_sum + 4.0 * area)
    d4 = math.sqrt(max(2.0 * square_sum - d1 * d1, 0.0))
    return d2, d3, d4


def average_power(av, m: int) -> float:
    """The average of the 2m-th radius powers in the family's units, from
    averages kept in units of ``2^exponent`` (OverflowError where it
    exceeds a double)."""
    return math.ldexp(av.values[m - 1], 2 * m * av.exponent)
