"""Polygons-to-circles direction: find the points from which two regular
n-gons show identical vertex-distance multisets, and the circles they share.

The working point must sit at distance R2 from the first center and R1 from
the second (the circumradii swap roles), so candidates are intersections of
the two auxiliary circles. Rotating the second polygon until one distance
pair agrees then forces the whole multisets to agree; both rotation branches
are produced and each result is re-verified against the full multiset. The
rotation's opening angle solves the law of cosines with
:func:`geom.phase_candidates`, the solve reconstruction uses too.

Pairing runs on plain floats in units of 2^e, e the binary exponent of the
largest length L = max(R1, R2, |c1c2|): every length is then below 2 and
every gate is relative, so a pair and its scaling by a power of two take
the same decisions on the same bits; a square underflows only for a length
below about 2^-511 L. The geom float kernels place the vertices and
intersect the circles; the first polygon is measured once per candidate
point, for its multiset and reference vertex. Validated objects are built
once, for accepted results only, in the caller's units.
"""

import warnings
from math import atan2, fmod, frexp, hypot, isfinite, ldexp

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


def _in_units(
    p1: RegularPolygonSpec, p2: RegularPolygonSpec, largest: float, *coordinates: float
) -> tuple[int, float, float, float, float, float, float]:
    """The binary exponent e of the largest length, then both centers and
    circumradii divided by 2^e: (e, x1, y1, r1, x2, y2, r2).

    The centers' coordinates, and any others given, must stay finite in
    those units; where one exceeds 2^(e + 1020), e rises to match. Such a
    pair has lost its shape to rounding in the caller's units already."""
    c1, c2 = p1.center, p2.center
    far = max(abs(c1.x), abs(c1.y), abs(c2.x), abs(c2.y), *map(abs, coordinates))
    e = max(frexp(largest)[1], frexp(far)[1] - 1020)
    return (
        e,
        ldexp(c1.x, -e), ldexp(c1.y, -e), ldexp(p1.circumradius, -e),
        ldexp(c2.x, -e), ldexp(c2.y, -e), ldexp(p2.circumradius, -e),
    )


def _meeting_points(
    x1: float, y1: float, r1: float, x2: float, y2: float, r2: float, eps: float
) -> tuple[tuple[float, ...], ...]:
    """The auxiliary circles' intersections: each center (x1, y1), (x2, y2)
    with the other polygon's circumradius."""
    try:
        return float_circle_intersection(x1, y1, r2, x2, y2, r1, eps)
    except CoincidentCircles as exc:
        raise CoincidentAuxiliaryCircles(
            "auxiliary circles coincide; every point on them qualifies"
        ) from exc


def candidate_centers(
    p1: RegularPolygonSpec, p2: RegularPolygonSpec, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[PlanePoint, ...]:
    """Intersection points of the auxiliary circles (0, 1, or 2 points)."""
    _require_same_order(p1, p2)
    e, *units = _in_units(p1, p2, _largest_length(p1, p2))
    return tuple(
        PlanePoint(ldexp(x, e), ldexp(y, e))
        for x, y in _meeting_points(*units, tol.relative_eps)
    )


def _second_phases(
    p2: RegularPolygonSpec, units: tuple, px: float, py: float, reference: float, tol: Tolerance
) -> tuple[float, ...]:
    """The phases of the second polygon rotated about its center so that its
    vertex 0 sits ``reference`` from the point (px, py). ``units`` is what
    :func:`_in_units` returns; lengths are in its units, and errors report
    them in the caller's.

    The opening angle comes from the law of cosines; its mirror gives a
    second solution unless the reference distance is extremal.
    """
    e, _, _, r1, x2, y2, r2 = units
    arm = hypot(px - x2, py - y2)
    scale = max(r1, r2)
    if abs(arm - r1) > tol.relative_eps * scale:
        raise NotACandidateCenter(
            f"point sits {ldexp(arm, e)} from the second center, expected {ldexp(r1, e)}"
        )
    if min(r1, r2) <= tol.relative_eps * scale:
        # One polygon is a point: every vertex of the second already sits at
        # the only achievable distance, so no rotation is needed.
        return (p2.phase,)
    openings = phase_candidates(r1, r2, reference, tol)
    if not openings:
        raise NotACandidateCenter(
            f"reference distance {ldexp(reference, e)} is unreachable from the second polygon"
        )
    toward_point = atan2(py - y2, px - x2)
    plus = normalize_angle(toward_point + openings[0])
    if len(openings) == 1:
        return (plus,)
    return (plus, normalize_angle(toward_point + openings[1]))


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
    units = _in_units(p1, p2, _largest_length(p1, p2), point.x, point.y)
    e, x1, y1, r1 = units[:4]
    px, py = ldexp(point.x, -e), ldexp(point.y, -e)
    (dx,), (dy,) = float_vertex_offsets(x1, y1, r1, p1.phase, p1.n, px, py, (ref_vertex,))
    phases = _second_phases(p2, units, px, py, hypot(dx, dy), tol)
    return tuple(RegularPolygonSpec(p2.n, p2.center, p2.circumradius, t) for t in phases)


def _best_conditioned_vertex(a: float, b: float, distances: list[float]) -> int:
    """Reference vertex whose opening cosine is nearest zero, from the
    distances of the first polygon's vertices in vertex order, with
    a = r1^2 + r2^2 and b = 2 r1 r2.

    The rotation angle is recovered through an arccos whose error grows as
    1/sin(angle); a reference distance near either extreme (for example the
    nearest vertex when the point sits close to the center line) loses up
    to half the working precision. Vertex angles are spaced 2*pi/n, so a
    mid-range cosine always exists.
    """
    if b <= 0.0:
        return 0
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
    if not (isfinite(largest) and abs(frexp(largest)[1]) <= MAX_LENGTH_EXPONENT):
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
    units = _in_units(p1, p2, largest)
    e, x1, y1, r1, x2, y2, r2 = units
    n, phase1 = p1.n, p1.phase
    a, b = r1 * r1 + r2 * r2, 2.0 * r1 * r2
    gate = tol.multiset_gate()
    results: list[PairingResult] = []
    kept: list[tuple] = []  # (px, py, first, phase) of each result, in units
    for px, py in _meeting_points(x1, y1, r1, x2, y2, r2, tol.relative_eps):
        offsets = float_vertex_offsets(x1, y1, r1, phase1, n, px, py, range(n))
        distances = list(map(hypot, *offsets))
        first = sorted(distances)
        ref_vertex = _best_conditioned_vertex(a, b, distances)
        circles = None
        for phase in _second_phases(p2, units, px, py, distances[ref_vertex], tol):
            offsets = float_vertex_offsets(x2, y2, r2, phase, n, px, py, range(n))
            second = sorted(map(hypot, *offsets))
            if not multiset_close(first, second, gate):
                gap = largest_gap(first, second)
                warnings.warn(
                    "aligned distance pair did not propagate to the full multiset at "
                    f"{PlanePoint(ldexp(px, e), ldexp(py, e))}; largest gap {ldexp(gap, e)}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            found = (px, py, first, phase)
            if _is_duplicate(found, kept, tol):
                continue
            kept.append(found)
            if circles is None:
                center = PlanePoint(ldexp(px, e), ldexp(py, e))
                circles = CircleFamily(center=center, radii=[ldexp(d, e) for d in first])
            aligned = RegularPolygonSpec(n, p2.center, p2.circumradius, phase)
            results.append(PairingResult(center, aligned, circles, (ref_vertex, 0)))
    return results
