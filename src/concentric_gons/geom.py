"""Plane primitives: points, regular polygons, distances, circle
intersection, the law of cosines in both directions, and tolerance-aware
multiset comparison. Vertex placement (:func:`vertex_offsets`) and the law
of cosines (:func:`law_of_cosines_distances` forward,
:func:`phase_candidates` inverse) are written out here and nowhere else.

Everything here is a pure function over immutable values. Tolerances are
explicit and relative: comparisons accept a :class:`Tolerance` and default
to :data:`DEFAULT_TOLERANCE`.
"""

import math
import sys
from dataclasses import dataclass
from math import cos, isfinite, sin, sqrt

from .errors import CoincidentCircles, DegenerateGeometry

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Tolerance:
    """Relative comparison slack.

    A gate on lengths is ``relative_eps`` times a length of the same
    configuration; a gate on a cosine, ratio or angle is ``relative_eps``
    itself. No gate has an absolute part, so decisions depend on shape,
    not units.
    """

    relative_eps: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.relative_eps < 1e-3:
            raise ValueError(f"relative_eps must lie in (0, 1e-3), got {self.relative_eps}")

    def multiset_gate(self) -> "Tolerance":
        """The 10x looser gate for comparing whole distance multisets.

        Distances generated from a recovered angle carry trig rounding from
        each of the n vertices, and a tangency point is rounded by up to one
        gate; a single gate would read either as misalignment.
        ``relative_eps`` stays below its validity ceiling.
        """
        return Tolerance(min(self.relative_eps * 10.0, 9.9e-4))


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class PlanePoint:
    """A Cartesian point in the Euclidean plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "PlanePoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "PlanePoint":
        return PlanePoint(self.x + dx, self.y + dy)


def normalize_angle(angle: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class RegularPolygonSpec:
    """A regular n-gon given by vertex count, center, circumradius and phase.

    Vertex k sits at ``center + circumradius * (cos(phase + 2*pi*k/n),
    sin(phase + 2*pi*k/n))``. The phase is normalized to [0, 2*pi) on
    construction.
    """

    n: int
    center: PlanePoint
    circumradius: float
    phase: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise ValueError(f"vertex count must be an integer >= 3, got {self.n}")
        if not (math.isfinite(self.circumradius) and self.circumradius >= 0.0):
            raise ValueError(f"circumradius must be finite and >= 0, got {self.circumradius}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")
        object.__setattr__(self, "phase", normalize_angle(self.phase))


def vertex_offsets(
    poly: RegularPolygonSpec, point: PlanePoint, ks: range | tuple[int, ...]
) -> tuple[list[float], list[float]]:
    """The x and y offsets from ``point`` of each vertex k in ``ks``, placed
    as :class:`RegularPolygonSpec` says. Offsets from the origin are the
    coordinates, signed zeros included; a non-finite vertex raises the
    ValueError that building its :class:`PlanePoint` would."""
    cx, cy, radius, phase = poly.center.x, poly.center.y, poly.circumradius, poly.phase
    px, py = point.x, point.y
    step = TWO_PI / poly.n
    dxs, dys = [], []
    for k in ks:
        angle = phase + step * k
        x = cx + radius * cos(angle)
        y = cy + radius * sin(angle)
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"coordinates must be finite, got ({x}, {y})")
        dxs.append(x - px)
        dys.append(y - py)
    return dxs, dys


def vertices(poly: RegularPolygonSpec) -> tuple[PlanePoint, ...]:
    """The n vertices, counterclockwise, starting at angle ``poly.phase``."""
    return tuple(map(PlanePoint, *vertex_offsets(poly, PlanePoint(0.0, 0.0), range(poly.n))))


def circle_circle_intersection(
    c1: PlanePoint,
    r1: float,
    c2: PlanePoint,
    r2: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[PlanePoint, ...]:
    """Intersection points of two circles.

    Returns two points for transversal intersection (the point on the
    positive side of the c1->c2 axis first), one point for tangency within
    tolerance, and none when the circles are disjoint. Coincident circles
    of positive radius raise CoincidentCircles.
    """
    if r1 < 0.0 or r2 < 0.0:
        raise ValueError(f"radii must be >= 0, got ({r1}, {r2})")
    dist = c1.distance_to(c2)
    g = tol.relative_eps * max(r1 + r2, dist)
    if dist <= g:
        if abs(r1 - r2) <= g:
            if r1 <= g and r2 <= g:
                # Two point-circles at the same spot intersect in that point.
                return (PlanePoint((c1.x + c2.x) / 2.0, (c1.y + c2.y) / 2.0),)
            raise CoincidentCircles(f"circles share center and radius {r1}")
        return ()
    if dist > r1 + r2 + g or dist < abs(r1 - r2) - g:
        return ()
    ux = (c2.x - c1.x) / dist
    uy = (c2.y - c1.y) / dist
    along = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist)
    foot = PlanePoint(c1.x + along * ux, c1.y + along * uy)
    if abs(dist - (r1 + r2)) <= g or abs(dist - abs(r1 - r2)) <= g:
        return (foot,)
    height_sq = r1 * r1 - along * along
    e = 0
    if height_sq < sys.float_info.min:
        # A subnormal square has lost its digits: square at r1's binary scale.
        e = math.frexp(r1)[1]
        r1_e, along_e = math.ldexp(r1, -e), math.ldexp(along, -e)
        height_sq = r1_e * r1_e - along_e * along_e
    height = math.ldexp(math.sqrt(height_sq), e) if height_sq > 0.0 else 0.0
    # (-uy, ux) is the counterclockwise normal: positive half-plane first.
    return (
        PlanePoint(foot.x - height * uy, foot.y + height * ux),
        PlanePoint(foot.x + height * uy, foot.y - height * ux),
    )


def distance_multiset(poly: RegularPolygonSpec, point: PlanePoint) -> tuple[float, ...]:
    """Distances from a point to every vertex, sorted ascending; each is
    :meth:`PlanePoint.distance_to` of the built vertex, bit for bit."""
    return tuple(sorted(map(math.hypot, *vertex_offsets(poly, point, range(poly.n)))))


def law_of_cosines_distances(a: float, b: float, n: int, t: float) -> list[float]:
    """The sorted distances ``sqrt(max(a - b cos(t + 2*pi*k/n), 0))``, k < n.

    With a = r^2 + l^2 and b = 2rl these are the vertex distances of a
    regular n-gon of circumradius r seen from a point l from its center,
    vertex 0 opening the angle t at the center; the clamp absorbs rounding
    where a distance vanishes. The only place that evaluates this law
    forward.
    """
    step = TWO_PI / n
    squares = [a - b * cos(t + step * k) for k in range(n)]
    if min(squares) < 0.0:
        squares = [max(v, 0.0) for v in squares]
    return sorted(map(sqrt, squares))


def phase_candidates(
    r: float, l: float, d: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[float, ...]:
    """Opening angles t with d^2 = r^2 + l^2 - 2 r l cos(t).

    Returns the +/- pair, one angle at the extremes (d equal to r + l or
    |r - l| within tolerance), and nothing when d is out of range. Zero arm
    lengths leave the angle underdetermined and raise DegenerateGeometry.
    """
    if r <= 0.0 or l <= 0.0:
        raise DegenerateGeometry(
            f"arm lengths must be positive, got ({r}, {l}): any angle works "
            "when d equals |r - l|, none otherwise"
        )
    cos_t = (r * r + l * l - d * d) / (2.0 * r * l)
    if abs(cos_t) > 1.0 + tol.relative_eps:
        return ()
    cos_t = max(-1.0, min(1.0, cos_t))
    t = math.acos(cos_t)
    if abs(cos_t) >= 1.0 - tol.relative_eps:  # the mirror coincides at 0 and pi
        return (t,)
    return (t, -t)


def multiset_close(
    a: tuple[float, ...] | list[float],
    b: tuple[float, ...] | list[float],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> bool:
    """Elementwise comparison of two ascending sequences of lengths, each
    pair within ``relative_eps`` times the largest length of either."""
    if len(a) != len(b):
        return False
    g = tol.relative_eps * max(a[-1], b[-1]) if a else 0.0
    return all(abs(x - y) <= g for x, y in zip(a, b))
