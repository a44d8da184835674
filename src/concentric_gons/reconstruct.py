"""Circles-to-polygons direction: realize a feasible radii family as two
concrete regular polygons observed from the family center.

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
bit. The search therefore runs once. Solving that law for the angle is
:func:`geom.phase_candidates`, which pairing's rotation step shares.
"""

import math
from dataclasses import dataclass

from .errors import InfeasibleFamily, PhaseSearchFailed
from .geom import (
    DEFAULT_TOLERANCE,
    TWO_PI,
    PlanePoint,
    RegularPolygonSpec,
    Tolerance,
    distance_multiset,
    multiset_close,
    normalize_angle,
    phase_candidates,
)
from .moments import (
    CircleFamily,
    FeasibilityReport,
    RadiiPair,
    assess_feasibility,
    cyclic_averages,
    recover_circumradii,
)


@dataclass(frozen=True)
class Reconstruction:
    """Two polygon placements realizing a radii family, with diagnostics."""

    polygon1: RegularPolygonSpec
    polygon2: RegularPolygonSpec
    report: FeasibilityReport
    circumradii: RadiiPair
    point_polygon: bool  # second polygon collapsed to a point
    residuals: tuple[float, float]


def verify_reconstruction(family: CircleFamily, poly: RegularPolygonSpec) -> float:
    """Largest elementwise gap between the polygon's sorted vertex distances
    from the family center and the family radii."""
    if poly.n != family.n:
        raise ValueError(f"vertex count {poly.n} does not match {family.n} radii")
    measured = distance_multiset(poly, family.center)
    return max(abs(a - b) for a, b in zip(measured, family.radii))


def smaller_vanishes(larger: float, smaller: float, tol: Tolerance) -> bool:
    """Whether the second polygon is a point: ``smaller^2 <= relative_eps *
    larger^2``, on squares because recovery ends in a square root. Pass the
    radii in the units of the averages, where no square underflows."""
    return smaller * smaller <= tol.relative_eps * (larger * larger)


def _generated_distances(n: int, r: float, l: float, t: float) -> tuple[float, ...]:
    step = TWO_PI / n
    return tuple(
        sorted(
            math.sqrt(max(r * r + l * l - 2.0 * r * l * math.cos(t + step * k), 0.0))
            for k in range(n)
        )
    )


def _find_phase(
    n: int, r: float, l: float, radii: tuple[float, ...], tol: Tolerance
) -> float:
    """An opening angle whose full generated multiset matches the radii.

    Tries the largest radius first (its cosine is nearest -1 and best
    conditioned), then smaller ones, + branch before -, and accepts at
    :meth:`Tolerance.multiset_gate`.
    """
    accept = tol.multiset_gate()
    for d in sorted(radii, reverse=True):
        for t in phase_candidates(r, l, d, tol):
            if multiset_close(_generated_distances(n, r, l, t), radii, accept):
                return t
    raise PhaseSearchFailed(
        f"no phase reproduced the radii for arms ({r}, {l}); this indicates a "
        "tolerance mismatch, not mathematical impossibility"
    )


def reconstruct_polygons(
    family: CircleFamily, tol: Tolerance = DEFAULT_TOLERANCE
) -> Reconstruction:
    """Build the two regular polygons whose vertex distances from the family
    center reproduce the family radii.

    Raises InfeasibleFamily (report attached) when either feasibility
    condition fails. When the smaller recovered circumradius vanishes, the
    second polygon degenerates to a point at distance ``larger`` from the
    center and the phase search is skipped.
    """
    averages = cyclic_averages(family)
    report = assess_feasibility(averages, tol)
    if not report.feasible:
        raise InfeasibleFamily("radii family fails the feasibility conditions", report)
    pair = recover_circumradii(averages, tol)
    center = family.center
    n = family.n
    # Decisions and the phase search run in the units of the averages,
    # where every gate is relative and no square under- or overflows.
    larger, smaller = averages.scaled(pair.larger), averages.scaled(pair.smaller)
    point_polygon = smaller_vanishes(larger, smaller, tol)
    if point_polygon:
        # The first polygon is centered on the family, the second is a point.
        second, phase = 0.0, 0.0
    else:
        second = pair.smaller
        t = _find_phase(n, larger, smaller, tuple(map(averages.scaled, family.radii)), tol)
        # Each center sits on the +x axis, so the direction back to the
        # family center is pi; vertex angles are measured from that line.
        # One angle serves both polygons (see the module docstring).
        phase = normalize_angle(math.pi + t)
    poly1 = RegularPolygonSpec(n, PlanePoint(center.x + second, center.y), pair.larger, phase)
    poly2 = RegularPolygonSpec(n, PlanePoint(center.x + pair.larger, center.y), second, phase)
    residuals = (
        verify_reconstruction(family, poly1),
        verify_reconstruction(family, poly2),
    )
    return Reconstruction(
        polygon1=poly1,
        polygon2=poly2,
        report=report,
        circumradii=pair,
        point_polygon=point_polygon,
        residuals=residuals,
    )
