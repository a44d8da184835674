"""Polygons-to-circles direction: find the points from which two regular
n-gons show identical vertex-distance multisets, and the circles they share.

The working point P must sit at distance R2 from the first center and R1
from the second (the circumradii swap roles), so candidates are
intersections of the two auxiliary circles. From P both polygons then show
vertex k at the distance sqrt(R1^2 + R2^2 - 2 R1 R2 cos(phase_i + 2 pi k/n
- alpha_i)), alpha_i the angle of P - c_i. Rotating the second polygon
until its vertex 0 agrees with the first polygon's reference vertex ref
therefore has the closed form phase2 = alpha2 +/- (phase1 + 2 pi ref/n -
alpha1), and it forces the whole multisets to agree; both branches are
produced, and one check of the full multiset at the opening angle
re-verifies both, since the law-of-cosines kernel is exactly even in it.

Pairing runs on plain floats in the first center's frame, in units of 2^e,
e the binary exponent of the largest length L = max(R1, R2, |c1c2|): every
length is then below 2 and every gate is relative, so a pair and its
scaling by a power of two take the same decisions on the same bits, a
translation reaches pairing only through the rounding of c2 - c1, and a
square underflows only for a length below about 2^-511 L. Validated objects
are built once, for accepted results only, in the caller's units.
"""

import warnings
from math import atan2, fmod, frexp, hypot, isfinite, ldexp, remainder

from .errors import (
    CoincidentAuxiliaryCircles,
    CoincidentCircles,
    MismatchedOrder,
    NotACandidateCenter,
)
from .geom import _set, _Value
from .geom import (
    DEFAULT_TOLERANCE,
    TWO_PI,
    CircleFamily,
    PlanePoint,
    RegularPolygonSpec,
    Tolerance,
    float_circle_intersection,
    float_vertex_offsets,
    largest_gap,
    law_of_cosines_distances,
    multiset_close,
    normalize_angle,
    opening_cosines,
    phase_candidates,
)
# Unused here; perfbench/tracing.py wraps pairing.distance_multiset and
# pairing.vertices.
from .geom import distance_multiset, vertices


class PairingResult(_Value):
    """One common-distance configuration.

    ``center`` carries the concentric circles whose radii are the shared
    multiset; ``aligned_second`` is the second polygon after rotation;
    ``matched_vertex_pair`` names the vertex of the first polygon used as
    distance reference and the vertex of the rotated second polygon placed
    at that distance (always vertex 0 by construction).
    """

    def __init__(
        self,
        center: PlanePoint,
        aligned_second: RegularPolygonSpec,
        circles: CircleFamily,
        matched_vertex_pair: tuple[int, int],
    ):
        _set(self, "center", center)
        _set(self, "aligned_second", aligned_second)
        _set(self, "circles", circles)
        _set(self, "matched_vertex_pair", matched_vertex_pair)


def _require_same_order(p1: RegularPolygonSpec, p2: RegularPolygonSpec) -> None:
    if p1.n != p2.n:
        raise MismatchedOrder(f"vertex counts differ: {p1.n} vs {p2.n}")


# Pairing runs in units of 2^e, e the binary exponent of the largest length
# L (see _in_units): there every length is below 2, and a square underflows
# only for a length below about 2^-511 L, whatever e is. So a pair scales bit
# for bit over the whole range, down to L = 2^-511. The range bounds the
# caller's units, where the results are returned: with L in [2^(e-1), 2^e)
# and |e| <= 510, squares of lengths up to twice L, and sums of three, stay
# below 2^(2e+4) <= 2^1024, and L^2 >= 2^(2e-2) >= 2^-1022 stays normal.
MAX_LENGTH_EXPONENT = 510


def _largest_length(p1: RegularPolygonSpec, p2: RegularPolygonSpec) -> float:
    return max(p1.circumradius, p2.circumradius, p1.center.distance_to(p2.center))


def _in_range(largest: float) -> float:
    """The largest length of a polygon pair, once checked to lie in the range
    where pairing returns its results (ValueError otherwise)."""
    if not (isfinite(largest) and abs(frexp(largest)[1]) <= MAX_LENGTH_EXPONENT):
        raise ValueError(
            f"largest length {largest} of the polygon pair lies outside "
            f"[2^{-MAX_LENGTH_EXPONENT - 1}, 2^{MAX_LENGTH_EXPONENT}), where its squares "
            "stay finite normal doubles"
        )
    return largest


def _in_units(
    p1: RegularPolygonSpec, p2: RegularPolygonSpec, largest: float
) -> tuple[int, float, float, float, float]:
    """The binary exponent e of the largest length, then the second center
    relative to the first and both circumradii, each divided by 2^e:
    (e, dx, dy, r1, r2)."""
    c1, c2 = p1.center, p2.center
    e = frexp(largest)[1]
    return (
        e,
        ldexp(c2.x - c1.x, -e), ldexp(c2.y - c1.y, -e),
        ldexp(p1.circumradius, -e), ldexp(p2.circumradius, -e),
    )


def _meeting_points(
    dx: float, dy: float, r1: float, r2: float, eps: float
) -> tuple[tuple[float, ...], ...]:
    """The auxiliary circles' intersections, relative to the first center:
    each center, the first at the origin and the second at (dx, dy), with
    the other polygon's circumradius."""
    try:
        return float_circle_intersection(0.0, 0.0, r2, dx, dy, r1, eps)
    except CoincidentCircles as exc:
        raise CoincidentAuxiliaryCircles(
            "auxiliary circles coincide; every point on them qualifies"
        ) from exc


def candidate_centers(
    p1: RegularPolygonSpec, p2: RegularPolygonSpec, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[PlanePoint, ...]:
    """Intersection points of the auxiliary circles (0, 1, or 2 points). A
    largest length outside ``[2^-511, 2^510)`` raises ValueError."""
    _require_same_order(p1, p2)
    e, *units = _in_units(p1, p2, _in_range(_largest_length(p1, p2)))
    c1 = p1.center
    return tuple(
        PlanePoint(c1.x + ldexp(x, e), c1.y + ldexp(y, e))
        for x, y in _meeting_points(*units, tol.relative_eps)
    )


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
    polygon always presents vertex 0 at the matched distance. A point off
    the auxiliary circles, or an unreachable distance, raises
    NotACandidateCenter.
    """
    _require_same_order(p1, p2)
    # Checked in the caller's units: a point far off would overflow in units.
    arm, scale = point.distance_to(p2.center), max(p1.circumradius, p2.circumradius)
    if abs(arm - p1.circumradius) > tol.relative_eps * scale:
        raise NotACandidateCenter(
            f"point sits {arm} from the second center, expected {p1.circumradius}"
        )
    if min(p1.circumradius, p2.circumradius) <= tol.relative_eps * scale:
        # One polygon is a point: every vertex of the second already sits at
        # the only achievable distance, so no rotation is needed.
        return (p2,)
    e, dx, dy, r1, r2 = _in_units(p1, p2, _largest_length(p1, p2))
    c1 = p1.center
    px, py = ldexp(point.x - c1.x, -e), ldexp(point.y - c1.y, -e)
    (ox,), (oy,) = float_vertex_offsets(0.0, 0.0, r1, p1.phase, p1.n, px, py, (ref_vertex,))
    reference = hypot(ox, oy)
    openings = phase_candidates(r1, r2, reference, tol)
    if not openings:
        raise NotACandidateCenter(
            f"reference distance {ldexp(reference, e)} is unreachable from the second polygon"
        )
    toward_point = atan2(py - dy, px - dx)
    return tuple(
        RegularPolygonSpec(p2.n, p2.center, p2.circumradius, toward_point + t) for t in openings
    )


def _best_conditioned_vertex(a: float, b: float, distances: list[float]) -> int:
    """Reference vertex whose opening cosine is nearest zero, from the
    distances of the first polygon's vertices in vertex order, with
    a = r1^2 + r2^2 and b = 2 r1 r2.

    Every vertex gives the same configurations; the choice fixes the vertex
    that ``matched_vertex_pair`` names, and with it the aligned phase. At
    even n vertex k + n/2 is the antipode of vertex k, its opening cosine
    negated: the two tie, and rounding, which moves with the frame, would
    pick one. So only k < n/2 is searched there.
    """
    if b <= 0.0:
        return 0
    if len(distances) % 2 == 0:
        distances = distances[: len(distances) // 2]
    cosines = list(map(abs, opening_cosines(a, b, distances)))
    return cosines.index(min(cosines))


def _phases_coincide(a: float, b: float, period: float, tol: Tolerance) -> bool:
    diff = fmod(abs(a - b), period)
    return min(diff, period - diff) <= tol.relative_eps


def _is_duplicate(found: tuple, kept: list[tuple], tol: Tolerance) -> bool:
    """Whether ``found``, a (px, py, first distances, second phase) tuple in
    units, repeats one in ``kept`` within tolerance. The cheap phase test
    runs before the O(n) ones."""
    px, py, first, phase = found
    period = TWO_PI / len(first)
    center_gap = tol.relative_eps * first[-1]
    for qx, qy, other, other_phase in kept:
        if (
            _phases_coincide(phase, other_phase, period, tol)
            and hypot(px - qx, py - qy) <= center_gap
            and multiset_close(first, other, tol)
        ):
            return True
    return False


def pair_polygons(
    p1: RegularPolygonSpec, p2: RegularPolygonSpec, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[PairingResult]:
    """All concentric-circle configurations shared by the two polygons.

    At each auxiliary intersection point the second polygon takes both
    closed-form phases (a point polygon keeps its own), and the first
    polygon's distances are the radii. The second polygon's, from the law
    of cosines at the opening angle, must match them within the multiset
    gate, checked once for both phases; the closed form forces that, so a
    miss is reported as a numerical diagnostic (a RuntimeWarning per point)
    rather than silently dropped. Identical concentric polygons admit a
    continuum of valid points and raise
    CoincidentAuxiliaryCircles instead of picking one arbitrarily. A largest
    length outside ``[2^-511, 2^510)`` raises ValueError.
    """
    _require_same_order(p1, p2)
    larger = max(p1.circumradius, p2.circumradius)
    center_distance = p1.center.distance_to(p2.center)
    largest = _in_range(max(larger, center_distance))
    center_gap = tol.relative_eps * larger
    if center_distance <= center_gap and abs(p1.circumradius - p2.circumradius) <= center_gap:
        raise CoincidentAuxiliaryCircles(
            "concentric polygons with equal circumradius: every point at that "
            "distance from the shared center works"
        )
    e, dx, dy, r1, r2 = _in_units(p1, p2, largest)
    n, phase1, c1 = p1.n, p1.phase, p1.center
    a, b = r1 * r1 + r2 * r2, 2.0 * r1 * r2
    # A point polygon sees every vertex of the other at one distance.
    rotates = min(r1, r2) > tol.relative_eps * max(r1, r2)
    gate = tol.multiset_gate()
    results: list[PairingResult] = []
    kept: list[tuple] = []  # (px, py, first, phase) of each result, in units
    for px, py in _meeting_points(dx, dy, r1, r2, tol.relative_eps):
        offsets = float_vertex_offsets(0.0, 0.0, r1, phase1, n, px, py, range(n))
        distances = list(map(hypot, *offsets))
        first = sorted(distances)
        ref_vertex = _best_conditioned_vertex(a, b, distances)
        toward_point, arm = atan2(py - dy, px - dx), hypot(px - dx, py - dy)
        t = abs(remainder(phase1 + TWO_PI / n * ref_vertex - atan2(py, px), TWO_PI))
        phases = (toward_point + t, toward_point - t) if rotates else (p2.phase,)
        x, y = c1.x + ldexp(px, e), c1.y + ldexp(py, e)
        opening = t if rotates else p2.phase - toward_point
        second = law_of_cosines_distances(r2 * r2 + arm * arm, 2.0 * r2 * arm, n, opening)
        if not multiset_close(first, second, gate):
            gap = largest_gap(first, second)
            warnings.warn(
                "aligned distance pair did not propagate to the full multiset at "
                f"{PlanePoint(x, y)}; largest gap {ldexp(gap, e)}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        circles = None
        for phase in map(normalize_angle, phases):
            found = (px, py, first, phase)
            if _is_duplicate(found, kept, tol):
                continue
            kept.append(found)
            if circles is None:
                center = PlanePoint(x, y)
                circles = CircleFamily(center=center, radii=[ldexp(d, e) for d in first])
            aligned = RegularPolygonSpec(n, p2.center, p2.circumradius, phase)
            results.append(PairingResult(center, aligned, circles, (ref_vertex, 0)))
    return results
