"""Circles-to-polygons direction: realize a feasible radii family as two
concrete regular polygons observed from the family center.

The verdict. A family is realizable when the recovery discriminant passes
its gate (condition I's lower bound) and the polygons placed from the
recovered circumradii reproduce the radii within
:meth:`Tolerance.multiset_gate` times the largest radius. The decision reads
S(2), S(4) and one placement, all from the radii divided by 2^e once per call
(``moments._leading``), so it costs O(n log n). The circumradii are recovered
and placed in those units and multiplied by 2^e once, after the placement, so
none is rounded into a subnormal before it is placed. A placement that misses
the gate by less than ``sqrt(relative_eps)`` of the largest radius is polished
by Gauss-Newton first: a discriminant inside its gate leaves the circumradii
uncertain by about that much. The mirror of the placement's opening angle
places the same distances bit for bit (the law-of-cosines kernel is exactly
even in the angle), so it is never placed, and the polish starts from the
one placement. The paper's conditions I and II take no part: their report,
``assess_feasibility(cyclic_averages(family), tol)``, costs an O(n^2) power
table and is built by whoever prints it.
:attr:`Reconstruction.residuals` is measured when first read: the polygons
are placed in Cartesian coordinates and their vertex distances compared with
the radii, independently of the law-of-cosines gate that decided the family.

Placement convention: with M the family center, both polygon centers go on
the +x axis from M, the first at distance ``smaller`` with circumradius
``larger`` and the second at distance ``larger`` with circumradius
``smaller``. Only distances are forced by the mathematics; fixing the
directions makes outputs deterministic and diffable.

Both polygons share one opening angle. The law of cosines that ties a
radius to an angle, ``d^2 = r^2 + l^2 - 2 r l cos(t)``, is symmetric in the
two arms, and so is its floating-point evaluation (``2.0 * r * l`` doubles
exactly and addition commutes): the angle found with arms (larger,
smaller) is the one a search with (smaller, larger) would find, bit for
bit. The search therefore runs once. ``geom`` holds both directions of the
law: :func:`geom.phase_candidates` solves it for the angle, as
``align_second_polygon`` does, and :func:`geom.law_of_cosines_distances`
evaluates it, as pairing's gate does.
"""

import math
from functools import cached_property

from .errors import InfeasibleFamily, InfeasibleMoments
from .geom import _set, _Value
from .geom import (
    DEFAULT_TOLERANCE,
    CircleFamily,
    PlanePoint,
    RegularPolygonSpec,
    Tolerance,
    distance_multiset,
    float_vertices,
    largest_gap,
    law_of_cosines_distances,
    multiset_close,
    normalize_angle,
    phase_candidates,
)
from .moments import RadiiPair, _leading, recover_circumradii
# Unused here; perfbench/tracing.py wraps reconstruct.assess_feasibility and
# reconstruct.cyclic_averages.
from .moments import assess_feasibility, cyclic_averages

# Gauss-Newton steps of the polish at most.
POLISH_STEPS = 4


class Reconstruction(_Value):
    """Two polygon placements realizing a radii family, with diagnostics.

    ``residuals`` is derived from ``family`` and the polygons, computed on
    first read and cached; it takes no part in ``repr`` or ``==``."""

    _hidden = ("family",)

    def __init__(
        self,
        polygon1: RegularPolygonSpec,
        polygon2: RegularPolygonSpec,
        circumradii: RadiiPair,
        point_polygon: bool,  # second polygon collapsed to a point
        family: CircleFamily,
    ):
        _set(self, "polygon1", polygon1)
        _set(self, "polygon2", polygon2)
        _set(self, "circumradii", circumradii)
        _set(self, "point_polygon", point_polygon)
        _set(self, "family", family)

    @cached_property
    def residuals(self) -> tuple[float, float]:
        """:func:`verify_reconstruction` of each polygon: its vertices placed
        in Cartesian coordinates and measured against the radii, when first
        read. The decision never reads it."""
        return (
            verify_reconstruction(self.family, self.polygon1),
            verify_reconstruction(self.family, self.polygon2),
        )


def verify_reconstruction(family: CircleFamily, poly: RegularPolygonSpec) -> float:
    """Largest elementwise gap between the polygon's sorted vertex distances
    from the family center and the family radii."""
    if poly.n != family.n:
        raise ValueError(f"vertex count {poly.n} does not match {family.n} radii")
    return largest_gap(distance_multiset(poly, family.center), family.radii)


def _relative_gap(distances: list[float], radii: tuple[float, ...]) -> float:
    """The largest elementwise gap of two ascending sequences, relative to
    their largest length, as :func:`geom.multiset_close` gates it."""
    return largest_gap(distances, radii) / max(distances[-1], radii[-1])


def _solve3(rows: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Cramer's rule for a 3x3 system; None when it is singular."""

    def det(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    whole = det(rows)
    if whole == 0.0 or not math.isfinite(whole):
        return None
    return [
        det([[rhs[i] if j == col else rows[i][j] for j in range(3)] for i in range(3)]) / whole
        for col in range(3)
    ]


def _polish(
    n: int, larger: float, smaller: float, t: float, radii: tuple[float, ...], tol: Tolerance
) -> tuple[float, float, float, float]:
    """Gauss-Newton on the placement against the unsquared residuals d_k -
    radii_k, matched in sorted order: ``(gap, t, larger, smaller)`` of the
    best iterate, with ``gap`` as :func:`_relative_gap` measures it.

    With u = R + r and v = R - r, ``d_k^2 = u^2 sin^2(theta_k / 2) + v^2
    cos^2(theta_k / 2)``, so the Jacobian row of d_k in (u, v, t) is ``(u
    sin^2, v cos^2, (u^2 - v^2) sin(theta_k) / 4) / d_k``; the 3x3 normal
    equations are solved directly. The gradient in v vanishes at v = 0, so
    v is seeded as the larger of its recovered value and the smaller of two
    bounds on it that hold when the discriminant sits inside its gate: the
    smallest radius (every distance is at least |R - r|) and
    ``sqrt(relative_eps) * u / 2``. Distances ascend as cos(theta_k)
    descends, so the vertices sorted by cosine line up with the sorted
    distances. Steps stop once one fails to shrink the gap or leaves |v| <= u.
    """
    u = larger + smaller
    v = max(larger - smaller, min(radii[0], math.sqrt(tol.relative_eps) * u / 2.0))
    best = None
    for _ in range(POLISH_STEPS + 1):
        placed = law_of_cosines_distances((u * u + v * v) / 2.0, (u * u - v * v) / 2.0, n, t)
        gap = _relative_gap(placed, radii)
        if best is not None and not (gap < best[0] and abs(v) <= u):
            break
        best = (gap, t, u, abs(v))
        unit = float_vertices(0.0, 0.0, 1.0, normalize_angle(t), n)
        angles = sorted(zip(*unit), reverse=True)
        normal = [[0.0] * 3 for _ in range(3)]
        gradient = [0.0] * 3
        for (cos_k, sin_k), d, target in zip(angles, placed, radii):
            if d == 0.0:
                continue
            row = (
                u * (1.0 - cos_k) / (2.0 * d),
                v * (1.0 + cos_k) / (2.0 * d),
                (u * u - v * v) * sin_k / (4.0 * d),
            )
            for i in range(3):
                gradient[i] -= row[i] * (d - target)
                for j in range(3):
                    normal[i][j] += row[i] * row[j]
        # A damping of 2^-40 of the trace keeps the system solvable where v
        # drops out (v = 0 against a zero radius) and barely moves the rest.
        damping = 2.0 ** -40 * (normal[0][0] + normal[1][1] + normal[2][2])
        for i in range(3):
            normal[i][i] += damping
        step = _solve3(normal, gradient)
        if step is None:
            break
        u, v, t = u + step[0], v + step[1], t + step[2]
    gap, t, u, v = best
    return gap, t, (u + v) / 2.0, (u - v) / 2.0


def _find_phase(
    n: int, r: float, l: float, radii: tuple[float, ...], tol: Tolerance
) -> tuple[float, float, float]:
    """An opening angle t and arms ``(larger, smaller)`` whose law-of-cosines
    distances match the (ascending) radii within
    :meth:`Tolerance.multiset_gate` times the largest.

    Places the first of the largest radius's phase candidates with the arms
    as given; a largest radius out of the arms' reach puts a vertex at the far
    (t = pi) or near (t = 0) point instead. The other candidate, the mirror
    -t, places the same distances bit for bit
    (:func:`geom.law_of_cosines_distances` is even in t), so it is never
    placed. A miss is polished (:func:`_polish`) if it misses by at most
    ``sqrt(relative_eps)``: acos loses half the digits of an angle near 0 or
    pi, and a discriminant inside its gate leaves the arms uncertain by
    about that much. Otherwise, or when the polished placement still misses,
    InfeasibleFamily names the smaller relative gap seen and whether the
    polish ran.
    """
    accept = tol.multiset_gate()
    a, b = r * r + l * l, 2.0 * r * l
    larger, smaller = max(r, l), min(r, l)
    candidates = phase_candidates(r, l, radii[-1], tol) if smaller > 0.0 else ()
    t = candidates[0] if candidates else (math.pi if radii[-1] > larger + smaller else 0.0)
    distances = law_of_cosines_distances(a, b, n, t)
    if multiset_close(distances, radii, accept):
        return t, larger, smaller
    gap = _relative_gap(distances, radii)
    polished = gap <= math.sqrt(tol.relative_eps)
    if polished:
        polished_gap, t, larger, smaller = _polish(n, larger, smaller, t, radii, tol)
        a, b = larger * larger + smaller * smaller, 2.0 * larger * smaller
        if multiset_close(law_of_cosines_distances(a, b, n, t), radii, accept):
            return t, larger, smaller
        gap = min(gap, polished_gap)
    raise InfeasibleFamily(
        f"no placement reproduces the radii: best relative gap {gap:.3g} against "
        f"the gate {accept.relative_eps:.3g}, "
        + ("polished without reaching the gate" if polished else "too far to polish")
    )


def reconstruct_polygons(
    family: CircleFamily, tol: Tolerance = DEFAULT_TOLERANCE
) -> Reconstruction:
    """Build the two regular polygons whose vertex distances from the family
    center reproduce the family radii.

    Raises InfeasibleFamily when the discriminant fails its gate or no
    placement reproduces the radii (see the module docstring). When the
    smaller recovered circumradius vanishes and one polygon centered on the
    family reproduces the radii, the second polygon degenerates to a point
    at distance ``larger`` from the center and the phase search is skipped.
    """
    # Decisions and the placement run in the units of the averages, where
    # every gate is relative and no square under- or overflows.
    averages, radii, exponent = _leading(family)
    try:
        pair = recover_circumradii(averages, tol)
    except InfeasibleMoments as exc:
        raise InfeasibleFamily(f"radii family fails condition I: {exc}") from None
    center = family.center
    n = family.n
    larger, smaller = pair.larger, pair.smaller
    gate = tol.multiset_gate().relative_eps * max(larger, radii[-1])
    # A vanishing smaller circumradius is tested on squares: recovery ends in a square root.
    point_polygon = (
        smaller * smaller <= tol.relative_eps * (larger * larger)
        and radii[-1] - larger <= gate
        and larger - radii[0] <= gate
    )
    if point_polygon:
        # The first polygon is centered on the family, the second is a point.
        phase = 0.0
    else:
        t, larger, smaller = _find_phase(n, larger, smaller, radii, tol)
        # Each center sits on the +x axis, so the direction back to the
        # family center is pi; vertex angles are measured from that line.
        # One angle serves both polygons (see the module docstring).
        phase = normalize_angle(math.pi + t)
    pair = RadiiPair(math.ldexp(larger, exponent), math.ldexp(smaller, exponent))
    second = 0.0 if point_polygon else pair.smaller
    poly1 = RegularPolygonSpec(n, PlanePoint(center.x + second, center.y), pair.larger, phase)
    poly2 = RegularPolygonSpec(n, PlanePoint(center.x + pair.larger, center.y), second, phase)
    return Reconstruction(poly1, poly2, pair, point_polygon, family)
