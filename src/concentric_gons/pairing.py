"""Polygons-to-circles direction: find the points from which two regular
n-gons show identical vertex-distance multisets, and the circles they share.

The working point P must sit at distance R2 from the first center and R1
from the second (the circumradii swap roles), so candidates are
intersections of the two auxiliary circles. From P both polygons then show
vertex k at the distance sqrt(R1^2 + R2^2 - 2 R1 R2 cos(phase_i + 2 pi k/n
- alpha_i)), alpha_i the angle of P - c_i. Rotating the second polygon
until its vertex 0 agrees with the first polygon's vertex 0 therefore has
the closed form phase2 = alpha2 +/- (phase1 - alpha1), and it forces the
whole multisets to agree; both branches are produced, once where they
coincide modulo 2 pi/n, and one check of the full multiset at the opening
angle re-verifies both, since the law-of-cosines kernel is exactly even in
it.

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
    phase_candidates,
)
# Unused here; perfbench/tracing.py wraps pairing.distance_multiset and
# pairing.vertices.
from .geom import distance_multiset, vertices


class PairingResult(_Value):
    """One common-distance configuration.

    ``center`` carries the concentric circles whose radii are the shared
    multiset; ``aligned_second`` is the second polygon after rotation, its
    vertex 0 at the distance of the first polygon's vertex 0 from ``center``.
    """

    def __init__(
        self, center: PlanePoint, aligned_second: RegularPolygonSpec, circles: CircleFamily
    ):
        _set(self, "center", center)
        _set(self, "aligned_second", aligned_second)
        _set(self, "circles", circles)


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
    first polygon, its index taken modulo n.

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
    vertex = (ref_vertex % p1.n,)
    (ox,), (oy,) = float_vertex_offsets(0.0, 0.0, r1, p1.phase, p1.n, px, py, vertex)
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


def _phases_coincide(a: float, b: float, period: float, tol: Tolerance) -> bool:
    diff = fmod(abs(a - b), period)
    return min(diff, period - diff) <= tol.relative_eps


def pair_polygons(
    p1: RegularPolygonSpec, p2: RegularPolygonSpec, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[PairingResult]:
    """All concentric-circle configurations shared by the two polygons.

    At each auxiliary intersection point the second polygon takes both
    closed-form phases, or one where they coincide modulo 2 pi/n (a point
    polygon keeps its own), and the first polygon's distances are the
    radii. The second polygon's, from the law of cosines at the opening
    angle, must match them within the multiset gate, checked once for both
    phases; the closed form forces that, so a miss is reported as a
    numerical diagnostic (a RuntimeWarning per point) rather than silently
    dropped. Identical concentric polygons admit a continuum of valid points
    and raise CoincidentAuxiliaryCircles instead of picking one arbitrarily.
    A largest length outside ``[2^-511, 2^510)`` raises ValueError.
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
    # A point polygon sees every vertex of the other at one distance.
    rotates = min(r1, r2) > tol.relative_eps * max(r1, r2)
    gate = tol.multiset_gate()
    scale = ldexp(1.0, e)
    results: list[PairingResult] = []
    for px, py in _meeting_points(dx, dy, r1, r2, tol.relative_eps):
        offsets = float_vertex_offsets(0.0, 0.0, r1, phase1, n, px, py, range(n))
        first = sorted(map(hypot, *offsets))
        toward_point, arm = atan2(py - dy, px - dx), hypot(px - dx, py - dy)
        t = abs(remainder(phase1 - atan2(py, px), TWO_PI))
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
        if not rotates:
            phases = [normalize_angle(p2.phase)]
        else:
            phases = [normalize_angle(toward_point + t), normalize_angle(toward_point - t)]
            if _phases_coincide(*phases, TWO_PI / n, tol):
                del phases[1]
        center = PlanePoint(x, y)
        # |e| <= MAX_LENGTH_EXPONENT, so 2^e is a normal double and each
        # product is ldexp(d, e): exact, or rounded once where subnormal.
        circles = CircleFamily(center, tuple([d * scale for d in first]))
        for phase in phases:
            aligned = RegularPolygonSpec(n, p2.center, p2.circumradius, phase)
            results.append(PairingResult(center, aligned, circles))
    return results
