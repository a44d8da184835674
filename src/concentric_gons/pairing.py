"""Polygons-to-circles direction: find the points from which two regular
n-gons show identical vertex-distance multisets, and the circles they share.

The working point must sit at distance R2 from the first center and R1 from
the second (the circumradii swap roles), so candidates are intersections of
the two auxiliary circles. Rotating the second polygon until one distance
pair agrees then forces the whole multisets to agree; both rotation branches
are produced and each result is re-verified against the full multiset. The
rotation's opening angle solves the law of cosines with
:func:`geom.phase_candidates`, the solve reconstruction uses too. Vertex
distances come from :func:`geom.vertex_offsets`; the first polygon is
measured once per candidate point, for its multiset and reference vertex.
"""

import math
import warnings
from dataclasses import dataclass

from .errors import (
    CoincidentAuxiliaryCircles,
    CoincidentCircles,
    MismatchedOrder,
    NotACandidateCenter,
)
from .geom import (
    DEFAULT_TOLERANCE,
    TWO_PI,
    PlanePoint,
    RegularPolygonSpec,
    Tolerance,
    circle_circle_intersection,
    distance_multiset,
    multiset_close,
    normalize_angle,
    phase_candidates,
    vertex_offsets,
)
from .geom import vertices  # unused here; perfbench/tracing.py wraps pairing.vertices
from .moments import CircleFamily


@dataclass(frozen=True)
class PairingResult:
    """One common-distance configuration.

    ``center`` carries the concentric circles whose radii are the shared
    multiset; ``aligned_second`` is the second polygon after rotation;
    ``matched_vertex_pair`` names the vertex of the first polygon used as
    distance reference and the vertex of the rotated second polygon placed
    at that distance (always vertex 0 by construction).
    """

    center: PlanePoint
    aligned_second: RegularPolygonSpec
    circles: CircleFamily
    matched_vertex_pair: tuple[int, int]


def _require_same_order(p1: RegularPolygonSpec, p2: RegularPolygonSpec) -> None:
    if p1.n != p2.n:
        raise MismatchedOrder(f"vertex counts differ: {p1.n} vs {p2.n}")


# Pairing squares lengths up to twice the largest length L (the working
# point is within R1 + R2 of every vertex) and adds three such squares. With
# L in [2^(e-1), 2^e), |e| <= 510 keeps each such sum below 2^(2e+4) <= 2^1024
# and L^2 >= 2^(2e-2) >= 2^-1022 normal. A length far below L can still have
# a subnormal square; the intersection height then squares at its own scale.
MAX_LENGTH_EXPONENT = 510


def auxiliary_circles(
    p1: RegularPolygonSpec, p2: RegularPolygonSpec
) -> tuple[tuple[PlanePoint, float], tuple[PlanePoint, float]]:
    """Each polygon's center paired with the other polygon's circumradius."""
    _require_same_order(p1, p2)
    return (p1.center, p2.circumradius), (p2.center, p1.circumradius)


def candidate_centers(
    p1: RegularPolygonSpec, p2: RegularPolygonSpec, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[PlanePoint, ...]:
    """Intersection points of the auxiliary circles (0, 1, or 2 points)."""
    (c1, rad1), (c2, rad2) = auxiliary_circles(p1, p2)
    try:
        return circle_circle_intersection(c1, rad1, c2, rad2, tol)
    except CoincidentCircles as exc:
        raise CoincidentAuxiliaryCircles(
            "auxiliary circles coincide; every point on them qualifies"
        ) from exc


def align_second_polygon(
    p1: RegularPolygonSpec,
    p2: RegularPolygonSpec,
    point: PlanePoint,
    ref_vertex: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[RegularPolygonSpec, ...]:
    """Rotate the second polygon about its own center so one of its vertices
    lands at the same distance from ``point`` as the reference vertex of the
    first polygon.

    The opening angle comes from the law of cosines; its mirror gives a
    second solution unless the reference distance is extremal. The rotated
    polygon always presents vertex 0 at the matched distance.
    """
    _require_same_order(p1, p2)
    r1, r2 = p1.circumradius, p2.circumradius
    arm = point.distance_to(p2.center)
    scale = max(r1, r2)
    if abs(arm - r1) > tol.relative_eps * scale:
        raise NotACandidateCenter(
            f"point sits {arm} from the second center, expected {r1}"
        )
    (dx,), (dy,) = vertex_offsets(p1, point, (ref_vertex,))
    d_star = math.hypot(dx, dy)
    if min(r1, r2) <= tol.relative_eps * scale:
        # One polygon is a point: every vertex of the second already sits at
        # the only achievable distance, so no rotation is needed.
        return (p2,)
    openings = phase_candidates(r1, r2, d_star, tol)
    if not openings:
        raise NotACandidateCenter(
            f"reference distance {d_star} is unreachable from the second polygon"
        )
    toward_point = math.atan2(point.y - p2.center.y, point.x - p2.center.x)
    plus = RegularPolygonSpec(p2.n, p2.center, r2, normalize_angle(toward_point + openings[0]))
    if len(openings) == 1:
        return (plus,)
    minus = RegularPolygonSpec(p2.n, p2.center, r2, normalize_angle(toward_point + openings[1]))
    return (plus, minus)


def _best_conditioned_vertex(
    p1: RegularPolygonSpec, p2: RegularPolygonSpec, distances: list[float]
) -> int:
    """Reference vertex whose opening cosine is nearest zero, from the
    distances of the first polygon's vertices in vertex order.

    The rotation angle is recovered through an arccos whose error grows as
    1/sin(angle); a reference distance near either extreme (for example the
    nearest vertex when the point sits close to the center line) loses up
    to half the working precision. Vertex angles are spaced 2*pi/n, so a
    mid-range cosine always exists.
    """
    r1, r2 = p1.circumradius, p2.circumradius
    if r1 * r2 <= 0.0:
        return 0
    cosines = [abs((r1 * r1 + r2 * r2 - d * d) / (2.0 * r1 * r2)) for d in distances]
    return cosines.index(min(cosines))


def _phases_coincide(a: float, b: float, period: float, tol: Tolerance) -> bool:
    diff = math.fmod(abs(a - b), period)
    return min(diff, period - diff) <= tol.relative_eps


def _is_duplicate(result: PairingResult, seen: list[PairingResult], tol: Tolerance) -> bool:
    period = TWO_PI / result.aligned_second.n
    center_gap = tol.relative_eps * result.circles.radii[-1]
    for other in seen:
        if (
            result.center.distance_to(other.center) <= center_gap
            and multiset_close(result.circles.radii, other.circles.radii, tol)
            and _phases_coincide(
                result.aligned_second.phase, other.aligned_second.phase, period, tol
            )
        ):
            return True
    return False


def pair_polygons(
    p1: RegularPolygonSpec, p2: RegularPolygonSpec, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[PairingResult]:
    """All concentric-circle configurations shared by the two polygons.

    For each auxiliary intersection point and each rotation branch the full
    distance multisets are compared; matching one reference pair is known to
    force full agreement, so a verification failure is reported as a
    numerical diagnostic rather than silently dropped. Identical concentric
    polygons admit a continuum of valid points and raise
    CoincidentAuxiliaryCircles instead of picking one arbitrarily. A largest
    length outside ``[2^-511, 2^510)`` raises ValueError.
    """
    _require_same_order(p1, p2)
    larger = max(p1.circumradius, p2.circumradius)
    center_distance = p1.center.distance_to(p2.center)
    largest = max(larger, center_distance)
    if not (math.isfinite(largest) and abs(math.frexp(largest)[1]) <= MAX_LENGTH_EXPONENT):
        raise ValueError(
            f"largest length {largest} of the polygon pair lies outside "
            f"[2^{-MAX_LENGTH_EXPONENT - 1}, 2^{MAX_LENGTH_EXPONENT}), where its squares "
            "stay finite normal doubles"
        )
    center_gap = tol.relative_eps * larger
    if center_distance <= center_gap and abs(p1.circumradius - p2.circumradius) <= center_gap:
        raise CoincidentAuxiliaryCircles(
            "concentric polygons with equal circumradius: every point at that "
            "distance from the shared center works"
        )
    results: list[PairingResult] = []
    gate = tol.multiset_gate()
    for point in candidate_centers(p1, p2, tol):
        distances = list(map(math.hypot, *vertex_offsets(p1, point, range(p1.n))))
        first_distances = tuple(sorted(distances))
        ref_vertex = _best_conditioned_vertex(p1, p2, distances)
        for candidate in align_second_polygon(p1, p2, point, ref_vertex, tol):
            second_distances = distance_multiset(candidate, point)
            if not multiset_close(first_distances, second_distances, gate):
                warnings.warn(
                    "aligned distance pair did not propagate to the full "
                    f"multiset at {point}; largest gap "
                    f"{max(abs(a - b) for a, b in zip(first_distances, second_distances))}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            result = PairingResult(
                center=point,
                aligned_second=candidate,
                circles=CircleFamily(center=point, radii=first_distances),
                matched_vertex_pair=(ref_vertex, 0),
            )
            if not _is_duplicate(result, results, tol):
                results.append(result)
    return results

