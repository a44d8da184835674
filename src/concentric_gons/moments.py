"""Power averages of circle radii and the algebra that decides whether a
radii family can be realized by regular polygons, plus circumradius recovery.

The central facts, writing S(2m) for the average of the 2m-th powers of the
radii: a family of n radii comes from a regular n-gon observed from a fixed
point if and only if

  I.  2/3 <= S(2)^2 / S(4) <= 1, and
  II. every higher average S(2m), m = 3..n-1, is the polynomial in S(2) and
      S(4) produced by eliminating the two radii from the power-sum system.

When both hold, the two circumradii follow from S(2) and S(4) alone.

The families themselves (:class:`CircleFamily`) are plane values and live
in ``geom``, so that pairing, which builds them, never loads this algebra.

The library's verdict reads only S(2), S(4) (:func:`_leading`, O(n)):
the recovery discriminant's gate is condition I's lower bound, and the
placement built from the recovered circumradii must reproduce the radii
(``reconstruct``). Both read one copy of the radii divided by 2^e per call,
made by one multiply per radius (an ``ldexp`` per radius only where 2^-e
overflows a double).
The O(n^2) table of every order (:func:`cyclic_averages`) and condition II
feed the :class:`FeasibilityReport` alone.
"""

import math
import operator
from functools import reduce
from itertools import repeat

from .errors import InfeasibleMoments, InvalidMomentOrder
from .geom import DEFAULT_TOLERANCE, CircleFamily, Tolerance, _set, _Value

# A realizable family has max d^2 <= 2 S(2): the largest distance is
# R + r <= sqrt(2 (R^2 + r^2)). With the largest radius rescaled into
# [1/2, 1), S(2) >= 1/8, so each rescaled average and prediction of order 2m
# is at least 8^-m, a normal double for every m <= 340.
MAX_VERTEX_COUNT = 256


class LeadingAverages(_Value):
    """The averages S(2) and S(4) of n radii, in units of ``2^exponent``:
    all that the verdict and circumradius recovery read.

    ``values`` begins with S(2), S(4) of the radii divided by
    ``2^exponent``; :class:`CyclicAverages` continues it with the higher
    orders.
    """

    def __init__(self, n: int, values: tuple[float, ...], exponent: int = 0):
        if len(values) != 2:
            raise ValueError(f"expected 2 averages, got {len(values)}")
        _set(self, "n", n)
        _set(self, "values", values)
        _set(self, "exponent", exponent)


class CyclicAverages(LeadingAverages):
    """Averages of the 2m-th radius powers for m = 1..n-1, in units of
    ``2^exponent``.

    ``values[m-1]`` holds the order-2m average of the radii divided by
    ``2^exponent``; ``ldexp(values[m-1], 2*m*exponent)`` is the average in
    the family's units, where that fits a double.
    """

    def __init__(self, n: int, values: tuple[float, ...], exponent: int = 0):
        if len(values) != n - 1:
            raise ValueError(f"expected {n - 1} averages, got {len(values)}")
        _set(self, "n", n)
        _set(self, "values", values)
        _set(self, "exponent", exponent)


class RadiiPair(_Value):
    """Recovered circumradii, larger first."""

    def __init__(self, larger: float, smaller: float):
        if not larger >= smaller >= 0.0:
            raise ValueError(f"need larger >= smaller >= 0, got ({larger}, {smaller})")
        _set(self, "larger", larger)
        _set(self, "smaller", smaller)


class FeasibilityReport(_Value):
    """Outcome of both feasibility conditions for a radii family."""

    def __init__(
        self,
        condition1_ok: bool,
        condition1_ratio: float,
        condition2_ok: bool,
        condition2_residuals: tuple[float, ...],
        degenerate_single_polygon: bool,
    ):
        _set(self, "condition1_ok", condition1_ok)
        _set(self, "condition1_ratio", condition1_ratio)
        _set(self, "condition2_ok", condition2_ok)
        _set(self, "condition2_residuals", condition2_residuals)
        _set(self, "degenerate_single_polygon", degenerate_single_polygon)

    @property
    def feasible(self) -> bool:
        return self.condition1_ok and self.condition2_ok


def _leading(family: CircleFamily) -> tuple[LeadingAverages, tuple[float, ...]]:
    """S(2) and S(4) as compensated sums (``math.fsum``), from which the
    circumradii are recovered alone, and the radii in their units: divided
    by ``2^e``, ``e = math.frexp(largest radius)[1]``, once. The division
    is exact where the quotient is normal, and rounded once where it is
    subnormal, as ``math.ldexp`` rounds; every power of the quotients is at
    most 1, and every decision on them depends on shape alone. O(n). More
    than ``MAX_VERTEX_COUNT`` radii raise ValueError."""
    if family.n > MAX_VERTEX_COUNT:
        raise ValueError(f"vertex count {family.n} exceeds {MAX_VERTEX_COUNT}")
    exponent = math.frexp(family.radii[-1])[1]
    if exponent >= -1023:
        # One multiply by the exact power of two 2^-e rounds the exact
        # product once, as ldexp does, and costs less than an ldexp call per
        # radius. 2^-e is finite only for e >= -1023, so a family whose
        # largest radius lies below 2^-1024 keeps the ldexp pass.
        scale = math.ldexp(1.0, -exponent)
        radii = tuple([r * scale for r in family.radii])
    else:
        radii = tuple(map(math.ldexp, family.radii, repeat(-exponent)))
    squares = [r * r for r in radii]
    n = family.n
    # q * q, not q ** 2: libm's pow is not correctly rounded, and is slower.
    values = (math.fsum(squares) / n, math.fsum([q * q for q in squares]) / n)
    return LeadingAverages(n, values, exponent), radii


def cyclic_averages(family: CircleFamily) -> CyclicAverages:
    """Averages of the 2m-th radius powers, m = 1..n-1, of the radii divided
    by ``2^e``, ``e = math.frexp(largest radius)[1]``: exactly, so every
    power is at most 1 and every decision on them depends on shape alone.

    S(2) and S(4) are those of :func:`_leading`. Orders m >= 3 carry
    a running product of the squared radii and add it up in a fixed
    left-to-right fold (``sum`` of floats compensates from Python 3.12 on,
    so its bits would depend on the interpreter), each within a relative
    (m + n)u of exact, u = 2^-53 (about 1.4e-14 at n = 64, far below the
    condition-II gate). O(n^2): only the report reads it. More than
    ``MAX_VERTEX_COUNT`` radii raise ValueError.
    """
    leading, radii = _leading(family)
    squares = [r * r for r in radii]
    powers = [q * q for q in squares]  # correctly rounded, unlike libm's pow
    values = list(leading.values)
    for _ in range(3, family.n):
        powers = list(map(operator.mul, powers, squares))
        values.append(reduce(operator.add, powers) / family.n)
    return CyclicAverages(n=family.n, values=tuple(values), exponent=leading.exponent)


def _power_averages(a: float, h: float, top: int) -> list[float]:
    """Averages of (a + b cos t)^m over a period of t, for m = 1..top, where
    ``h = b^2 / (2 a^2)``.

    Laplace's first integral gives the order-m average as
    ``c^m P_m(a / c)`` with ``c^2 = a^2 - b^2`` and P_m the Legendre
    polynomial. Dividing Bonnet's recurrence for P_m by a^(m+1) gives the
    normalized averages ``nu_m = average / a^m``:
    ``nu_0 = nu_1 = 1``, ``(m+1) nu_(m+1) = (2m+1) nu_m - m (1 - 2h) nu_(m-1)``.
    The normalization keeps every intermediate at most 2^m. Unnormalized,
    the recurrence forms (2m+1) a times the order-m average, which
    overflows while the order-(m+1) average is still finite.
    """
    shrink = 1.0 - 2.0 * h
    nu_prev, nu = 1.0, 1.0
    scale = a
    averages = [a]
    for m in range(1, top):
        nu_prev, nu = nu, ((2 * m + 1) * nu - m * shrink * nu_prev) / (m + 1)
        scale *= a
        averages.append(nu * scale)
    return averages


def two_radius_power_sum(r1: float, r2: float, n: int, m: int) -> float:
    """Sum of the 2m-th powers of the n distances from the shared point to
    either polygon's vertices, expressed through the two circumradii.

    The squared distances are ``a - b cos t`` with ``a = r1^2 + r2^2`` and
    ``b = 2 r1 r2``, so the sum is n times the order-m average of
    :func:`_power_averages` at ``h = 2 r1^2 r2^2 / a^2``.
    """
    return n * _two_radius_averages(r1, r2, n, m)[m - 1]


def _two_radius_averages(r1: float, r2: float, n: int, top: int) -> list[float]:
    """The averages that :func:`two_radius_power_sum` multiplies by n, of
    every order m = 1..top, from one pass of the recurrence; ``top``
    outside 1..n-1 raises InvalidMomentOrder."""
    if r1 < 0.0 or r2 < 0.0:
        raise ValueError(f"radii must be >= 0, got ({r1}, {r2})")
    if not 1 <= top <= n - 1:
        raise InvalidMomentOrder(f"order m={top} outside 1..{n - 1}")
    square_sum = r1 * r1 + r2 * r2
    ratio = r1 * r2 / square_sum if square_sum > 0.0 else 0.0
    h = 2.0 * ratio * ratio
    return _power_averages(square_sum, h, top)


def condition_one(
    av: LeadingAverages, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[bool, float]:
    """First feasibility test: S(2)^2 / S(4) must lie in [2/3, 1].

    The lower bound is the sign of the discriminant ``3 S(2)^2 - 2 S(4)``,
    read through the gate :func:`recover_circumradii` uses, so a family
    that passes always yields circumradii. The upper bound holds
    automatically for real radii; checking it anyway guards against
    corrupted inputs.
    """
    s2, s4 = av.values[:2]
    if s4 <= 0.0:
        ratio = 1.0 if s2 <= 0.0 else math.inf  # all-zero radii are feasible
    else:
        ratio = (s2 * s2) / s4
    disc, g = _discriminant(av, tol)
    return (disc >= -g and ratio <= 1.0 + tol.relative_eps), ratio


def _predicted_averages(s2: float, s4: float, top: int) -> list[float]:
    """The averages of orders 1..top implied by the first two, for a
    realizable family.

    The squared distances of a realizable family are ``s2 - b cos t`` over
    a period, with ``b^2 = 2 (s4 - s2^2)``; the spread ``s4 - s2^2`` is
    clamped at zero. Their order-m average follows from Laplace's first
    integral and Bonnet's Legendre recurrence, normalized by s2^m
    (:func:`_power_averages` with ``h = spread / s2^2``).
    """
    spread = max(s4 - s2 * s2, 0.0)
    h = spread / s2 / s2 if s2 > 0.0 else 0.0
    return _power_averages(s2, h, top)


def condition_two(
    av: CyclicAverages, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[bool, tuple[float, ...]]:
    """Second feasibility test: each S(2m), m = 3..n-1, must match the value
    predicted from S(2) and S(4).

    The predictions come from one pass of the normalized Legendre/Bonnet
    recurrence (:func:`_predicted_averages`), O(1) per order.
    Residuals are relative: ``|S(2m) - predicted| / S(2m)`` (0 for all-zero
    radii), the same in every unit. For n = 3 the range is empty and the
    test passes vacuously.
    """
    predictions = _predicted_averages(av.values[0], av.values[1], av.n - 1)
    residuals = tuple(
        abs(actual - predicted) / (actual or 1.0)
        for actual, predicted in zip(av.values[2:], predictions[2:])
    )
    return all(r <= tol.relative_eps for r in residuals), residuals


def _discriminant(av: LeadingAverages, tol: Tolerance) -> tuple[float, float]:
    """(difference of squared circumradii)^2 from the first two averages,
    and the gate below which it counts as zero: ``relative_eps`` times its
    own scale, ``max(S(2)^2, S(4))``."""
    s2, s4 = av.values[:2]
    return 3.0 * s2 * s2 - 2.0 * s4, tol.relative_eps * max(s2 * s2, s4)


def recover_circumradii(
    av: LeadingAverages, tol: Tolerance = DEFAULT_TOLERANCE
) -> RadiiPair:
    """The two circumradii determined by the first two averages, in the
    family's units.

    ``larger^2, smaller^2 = (S(2) +/- sqrt(3 S(2)^2 - 2 S(4))) / 2``. A
    discriminant within tolerance of zero (one polygon,
    :attr:`FeasibilityReport.degenerate_single_polygon`) is still split:
    forcing the radii equal would drop up to sqrt(relative_eps) of their
    difference. Only a discriminant within rounding of zero (``2^-50`` of
    its scale) gives equal radii, since its root would be noise of about
    sqrt(u). Below ``-gate`` it raises InfeasibleMoments, as does a squared
    radius below ``-relative_eps * S(2)``.
    """
    s2, s4 = av.values[:2]
    disc, g = _discriminant(av, tol)
    if disc < -g:
        raise InfeasibleMoments(f"discriminant {disc} is negative beyond tolerance")
    root = math.sqrt(disc) if disc > 2.0 ** -50 * max(s2 * s2, s4) else 0.0
    larger_sq = (s2 + root) / 2.0
    smaller_sq = (s2 - root) / 2.0
    if smaller_sq < -tol.relative_eps * s2:
        raise InfeasibleMoments(f"squared radius {smaller_sq} is negative beyond tolerance")
    larger = math.sqrt(max(larger_sq, 0.0))
    smaller = min(math.sqrt(max(smaller_sq, 0.0)), larger)
    return RadiiPair(math.ldexp(larger, av.exponent), math.ldexp(smaller, av.exponent))


def assess_feasibility(
    av: CyclicAverages, tol: Tolerance = DEFAULT_TOLERANCE
) -> FeasibilityReport:
    """Run both conditions and flag the vanishing-discriminant case."""
    ok1, ratio = condition_one(av, tol)
    ok2, residuals = condition_two(av, tol)
    disc, g = _discriminant(av, tol)
    return FeasibilityReport(
        condition1_ok=ok1,
        condition1_ratio=ratio,
        condition2_ok=ok2,
        condition2_residuals=residuals,
        degenerate_single_polygon=abs(disc) <= g,
    )
