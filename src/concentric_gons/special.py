"""Closed-form decision and construction paths for three circles with two
equilateral triangles and four circles with two squares.

These duplicate what the general moment machinery decides, through triangle
areas instead of power sums, and the test suite holds the two routes to each
other. Radii arguments must already be sorted ascending: the outer/inner
split for four circles depends on order, and silent sorting would hide
caller bugs.
"""

import math
from typing import NamedTuple

from .errors import SumConditionViolated, TriangleInequalityViolated
from .geom import DEFAULT_TOLERANCE, Tolerance, heron_area

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TriangleFit(NamedTuple):
    exists: bool
    degenerate: bool
    larger: float
    smaller: float


class SquareFit(NamedTuple):
    exists: bool
    degenerate: bool
    larger: float
    smaller: float
    reason: str | None  # "sum_condition" or "associated_triangle" when exists is False


def _require_ascending(values: tuple[float, ...]) -> None:
    if any(a > b for a, b in zip(values, values[1:])):
        raise ValueError(f"radii must be sorted ascending, got {values}")
    if any(v < 0.0 for v in values):
        raise ValueError(f"radii must be >= 0, got {values}")


def triangle_feasibility(
    d1: float, d2: float, d3: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> TriangleFit:
    """Do two equilateral triangles with one vertex on each circle exist?

    They do exactly when (d1, d2, d3) form a possibly degenerate triangle;
    the circumradii are ``(sum of squares +/- 4*sqrt(3)*area) / 6``. A
    collinear triple gives one triangle (larger == smaller).
    """
    _require_ascending((d1, d2, d3))
    slack = d1 + d2 - d3
    g = tol.relative_eps * d3
    if slack < -g:
        return TriangleFit(exists=False, degenerate=False, larger=0.0, smaller=0.0)
    degenerate = abs(slack) <= g
    area = heron_area(d1, d2, d3, tol)
    square_sum = d1 * d1 + d2 * d2 + d3 * d3
    spread = 4.0 * SQRT3 * area
    larger = math.sqrt((square_sum + spread) / 6.0)
    smaller_sq = (square_sum - spread) / 6.0
    smaller = math.sqrt(max(smaller_sq, 0.0))  # clamp fp dust at the equal-radii boundary
    return TriangleFit(exists=True, degenerate=degenerate, larger=larger, smaller=min(smaller, larger))


def triangle_circle_radii(
    r1: float, r2: float, d1: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[float, float]:
    """The other two circle radii once one radius d1 is chosen, for two
    equilateral triangles with circumradii r1 and r2.

    d1 must admit a triangle with sides (r1, r2, d1); the companions are
    ``(3(r1^2 + r2^2) - d1^2 -/+ 4*sqrt(3)*area) / 2``, returned ascending.
    """
    area = heron_area(r1, r2, d1, tol)
    base = 3.0 * (r1 * r1 + r2 * r2) - d1 * d1
    spread = 4.0 * SQRT3 * area
    d2 = math.sqrt(max((base - spread) / 2.0, 0.0))
    d3 = math.sqrt(max((base + spread) / 2.0, 0.0))
    return d2, d3


def square_feasibility(
    d1: float, d2: float, d3: float, d4: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> SquareFit:
    """Do two squares with one vertex on each circle exist?

    Requires the outer/inner square sums to balance (d1^2 + d4^2 ==
    d2^2 + d3^2) and the associated triangle (d1, d4, sqrt(2)*d2) to exist.
    The circumradii are ``(d1^2 + d4^2)/4 +/- area`` of that triangle; a
    degenerate triangle gives one square.
    """
    _require_ascending((d1, d2, d3, d4))
    outer = d1 * d1 + d4 * d4
    inner = d2 * d2 + d3 * d3
    if abs(outer - inner) > tol.relative_eps * (d4 * d4):
        return SquareFit(False, False, 0.0, 0.0, reason="sum_condition")
    try:
        area = heron_area(d1, d4, SQRT2 * d2, tol)
    except TriangleInequalityViolated:
        return SquareFit(False, False, 0.0, 0.0, reason="associated_triangle")
    sides = sorted((d1, d4, SQRT2 * d2), reverse=True)
    degenerate = abs(sides[1] + sides[2] - sides[0]) <= tol.relative_eps * sides[0]
    larger = math.sqrt(outer / 4.0 + area)
    smaller_sq = outer / 4.0 - area
    smaller = math.sqrt(max(smaller_sq, 0.0))
    return SquareFit(True, degenerate, larger, min(smaller, larger), reason=None)


class CubicResidual(NamedTuple):
    residual: float
    triple_product: float  # residual == 3 * triple_product identically


def square_cubic_residual(d1: float, d2: float, d3: float, d4: float) -> CubicResidual:
    """Degree-six obstruction for four circles, in two equivalent forms.

    The residual ``8*sum(d^6) + (sum(d^2))^3 - 6*sum(d^2)*sum(d^4)``
    factors as three times the product of the three pairing differences
    ``(d_i^2 + d_j^2 - d_k^2 - d_l^2)``; both are returned so callers and
    tests can confirm the factorization numerically.
    """
    if min(d1, d2, d3, d4) < 0.0:
        raise ValueError(f"radii must be >= 0, got {(d1, d2, d3, d4)}")
    q = (d1 * d1, d2 * d2, d3 * d3, d4 * d4)
    p2 = math.fsum(q)
    p4 = math.fsum(x * x for x in q)
    p6 = math.fsum(x ** 3 for x in q)
    residual = 8.0 * p6 + p2 ** 3 - 6.0 * p2 * p4
    triple_product = (
        (q[0] + q[1] - q[2] - q[3])
        * (q[0] + q[2] - q[1] - q[3])
        * (q[0] + q[3] - q[1] - q[2])
    )
    return CubicResidual(residual=residual, triple_product=triple_product)


class AssociatedTriangleSet(NamedTuple):
    """The four equal-area triangles attached to a balanced radii family.

    Two outer radii pair with sqrt(2) times an inner radius and vice versa;
    ``chain_value`` is ``3*(sum d^2)^2 - 8*sum d^4``, which equals
    ``64 * area^2`` for every member.
    """

    triples: tuple[tuple[float, float, float], ...]
    areas: tuple[float, ...]
    chain_value: float


def associated_triangles(
    d1: float, d2: float, d3: float, d4: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> AssociatedTriangleSet:
    """Build all four associated triangles of a balanced family.

    Raises SumConditionViolated unless d1^2 + d4^2 == d2^2 + d3^2 within
    tolerance; if one triple violates the triangle inequality they all do,
    and the heron error propagates.
    """
    _require_ascending((d1, d2, d3, d4))
    outer = d1 * d1 + d4 * d4
    inner = d2 * d2 + d3 * d3
    if abs(outer - inner) > tol.relative_eps * (d4 * d4):
        raise SumConditionViolated(
            f"outer sum {outer} and inner sum {inner} differ beyond tolerance"
        )
    triples = (
        (d1, d4, SQRT2 * d2),
        (d1, d4, SQRT2 * d3),
        (d2, d3, SQRT2 * d4),
        (d2, d3, SQRT2 * d1),
    )
    areas = tuple(heron_area(*t, tol) for t in triples)
    p2 = math.fsum(x * x for x in (d1, d2, d3, d4))
    p4 = math.fsum(x ** 4 for x in (d1, d2, d3, d4))
    chain_value = 3.0 * p2 * p2 - 8.0 * p4
    return AssociatedTriangleSet(triples=triples, areas=areas, chain_value=chain_value)


def square_circle_radii(
    r1: float, r2: float, d1: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[float, float, float]:
    """The other three circle radii once one radius d1 is chosen, for two
    squares with circumradii r1 and r2.

    ``d2^2, d3^2 = r1^2 + r2^2 -/+ 4*area(r1, r2, d1)`` and
    ``d4^2 = 2(r1^2 + r2^2) - d1^2``; the output always balances
    d1^2 + d4^2 == d2^2 + d3^2 up to rounding.
    """
    area = heron_area(r1, r2, d1, tol)
    square_sum = r1 * r1 + r2 * r2
    d2 = math.sqrt(max(square_sum - 4.0 * area, 0.0))
    d3 = math.sqrt(square_sum + 4.0 * area)
    d4 = math.sqrt(max(2.0 * square_sum - d1 * d1, 0.0))
    return d2, d3, d4
