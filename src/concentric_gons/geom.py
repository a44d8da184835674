"""Plane primitives: points, regular polygons, concentric circle families
(:class:`CircleFamily`, the value both directions of the correspondence
share), distances, circle intersection, the law of cosines in both
directions, and tolerance-aware multiset comparison. Vertex placement
(:func:`float_vertices`), the sorted vertex distances
(:func:`float_vertex_distances`), the squared distances from the origin in
vertex order (:func:`float_vertex_squares`), the circle intersection
(:func:`float_circle_intersection`), the law of cosines
(:func:`law_of_cosines_distances` forward, :func:`opening_cosines` inverse)
and the largest gap between two sequences (:func:`largest_gap`) are written
out here and nowhere else; the ``float_`` kernels take plain floats, so
that a caller can run them in units of its own choosing. The vertex
kernels read their angles ``2*pi/n * k`` from one bounded cache of per-n
tables (:func:`_angle_table`): each entry is the product the kernels would
form, so a table changes no bit, only how often it is computed.

Everything here is a pure function over immutable values: :class:`_Value`
subclasses, frozen dataclasses without ``dataclasses``, whose fields are
the ``__init__`` parameters, checked there and stored with ``_set``.
:func:`_polygon` and :func:`_family` store fields that a caller has
already checked, without the checks.
Tolerances are explicit and relative: comparisons accept a
:class:`Tolerance` and default to :data:`DEFAULT_TOLERANCE`.
"""

import functools
import math
from math import copysign, cos, hypot, isfinite, sin, sqrt
from operator import le

from .errors import CoincidentCircles, DegenerateGeometry

TWO_PI = 2.0 * math.pi
_set = object.__setattr__  # stores a field past the frozen __setattr__
_new = object.__new__  # with _set, builds a value without its checks


class _Value:
    """Compared and hashed as the field tuple, within one class; shown as
    ``Name(field=value, ...)`` without the ``_hidden`` fields."""

    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = [name for name in self._fields if name not in self._hidden]
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Tolerance(_Value):
    """Relative comparison slack.

    A gate on lengths is ``relative_eps`` times a length of the same
    configuration; a gate on a cosine, ratio or angle is ``relative_eps``
    itself. No gate has an absolute part, so decisions depend on shape,
    not units. The floor 1e-13 keeps every gate above rounding: condition
    II's averages are within (m + n)u of exact, about 5.7e-14 at n = 256.
    """

    def __init__(self, relative_eps: float = 1e-9):
        if not 1e-13 <= relative_eps < 1e-3:
            raise ValueError(f"relative_eps must lie in [1e-13, 1e-3), got {relative_eps}")
        _set(self, "relative_eps", relative_eps)

    def multiset_gate(self) -> "Tolerance":
        """The 10x looser gate for comparing whole distance multisets.

        Distances generated from a recovered angle carry trig rounding from
        each of the n vertices, and a tangency point is rounded by up to one
        gate; a single gate would read either as misalignment.
        ``relative_eps`` stays below its validity ceiling. Built once per
        tolerance: the decision paths ask for it on every call.
        """
        return self._multiset_gate

    @functools.cached_property
    def _multiset_gate(self) -> "Tolerance":
        return Tolerance(min(self.relative_eps * 10.0, 9.9e-4))


DEFAULT_TOLERANCE = Tolerance()


class PlanePoint(_Value):
    """A Cartesian point in the Euclidean plane."""

    def __init__(self, x: float, y: float):
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"coordinates must be finite, got ({x}, {y})")
        _set(self, "x", x)
        _set(self, "y", y)

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


class RegularPolygonSpec(_Value):
    """A regular n-gon given by vertex count, center, circumradius and phase.

    Vertex k sits at ``center + circumradius * (cos(phase + 2*pi*k/n),
    sin(phase + 2*pi*k/n))``. The phase is normalized to [0, 2*pi) on
    construction.
    """

    def __init__(self, n: int, center: PlanePoint, circumradius: float, phase: float):
        if not isinstance(n, int) or n < 3:
            raise ValueError(f"vertex count must be an integer >= 3, got {n}")
        if not (isfinite(circumradius) and circumradius >= 0.0):
            raise ValueError(f"circumradius must be finite and >= 0, got {circumradius}")
        if not isfinite(phase):
            raise ValueError(f"phase must be finite, got {phase}")
        _set(self, "n", n)
        _set(self, "center", center)
        _set(self, "circumradius", circumradius)
        _set(self, "phase", normalize_angle(phase))


def _polygon(n: int, center: PlanePoint, circumradius: float, phase: float) -> RegularPolygonSpec:
    """The polygon that ``RegularPolygonSpec`` builds from fields that
    already pass its checks, the phase already in [0, 2*pi)."""
    poly = _new(RegularPolygonSpec)
    _set(poly, "n", n)
    _set(poly, "center", center)
    _set(poly, "circumradius", circumradius)
    _set(poly, "phase", phase)
    return poly


# The angle tables: at most ANGLE_TABLES of them, for n <= ANGLE_TABLE_MAX_N
# alone, so the cache holds at most 64 tuples of 256 floats, about 0.53 MB
# on a 64-bit build, whatever vertex counts callers pass. A deck of a few
# vertex counts uses up to three windows each (k from 0, and the kernel's
# two centred ones), far fewer than 64. A larger n gets a fresh table.
ANGLE_TABLES = 64
ANGLE_TABLE_MAX_N = 256


def _angles(n: int, low: int) -> tuple[float, ...]:
    """``step * k`` with ``step = 2*pi/n``, for the n consecutive k from
    ``low``: the vertex angles before the phase is added."""
    step = TWO_PI / n
    return tuple([step * k for k in range(low, low + n)])


_angle_table = functools.lru_cache(maxsize=ANGLE_TABLES)(_angles)


class CircleFamily(_Value):
    """Concentric circles: a common center and ascending radii."""

    def __init__(self, center: PlanePoint, radii: tuple[float, ...]):
        # copysign(r, r) is float(r) that refuses text, as PlanePoint does.
        radii = tuple(radii)
        radii = tuple(map(copysign, radii, radii))
        if len(radii) < 3:
            raise ValueError(f"need at least 3 radii, got {len(radii)}")
        # Ascending from >= 0 to a finite last radius: all are finite and >= 0.
        if not (radii[0] >= 0.0 and isfinite(radii[-1]) and all(map(le, radii, radii[1:]))):
            bad = next((r for r in radii if not (isfinite(r) and r >= 0.0)), None)
            if bad is not None:
                raise ValueError(f"radii must be finite and >= 0, got {bad}")
            raise ValueError("radii must be sorted ascending")
        _set(self, "center", center)
        _set(self, "radii", radii)

    @property
    def n(self) -> int:
        return len(self.radii)


def _family(center: PlanePoint, radii: tuple[float, ...]) -> CircleFamily:
    """The family that ``CircleFamily`` builds from a tuple of at least 3
    floats that are finite, >= 0 and ascending."""
    family = _new(CircleFamily)
    _set(family, "center", center)
    _set(family, "radii", radii)
    return family


def float_vertices(
    cx: float, cy: float, radius: float, phase: float, n: int
) -> tuple[list[float], list[float]]:
    """The x and y coordinates of the n vertices, vertex 0 first, of the
    n-gon with center (cx, cy), circumradius ``radius`` and phase ``phase``,
    placed as :class:`RegularPolygonSpec` says. The one placement: a
    non-finite vertex raises here the ValueError that building its
    :class:`PlanePoint` would, and nowhere else. Vertex k's angle is
    ``phase + step * k`` with the product read from the k-from-0 angle
    table, the product a per-vertex multiply would give, so the bits are
    the same."""
    # Rounding is monotone, so every vertex is finite when |c| + radius is.
    checked = not (isfinite(abs(cx) + abs(radius)) and isfinite(abs(cy) + abs(radius)))
    xs, ys = [], []
    for a in (_angle_table if n <= ANGLE_TABLE_MAX_N else _angles)(n, 0):
        angle = phase + a
        x = cx + radius * cos(angle)
        y = cy + radius * sin(angle)
        if checked and not (isfinite(x) and isfinite(y)):
            raise ValueError(f"coordinates must be finite, got ({x}, {y})")
        xs.append(x)
        ys.append(y)
    return xs, ys


def float_vertex_distances(
    cx: float, cy: float, radius: float, phase: float, n: int, px: float, py: float
) -> list[float]:
    """The distances from (px, py) to the n vertices that
    :func:`float_vertices` places, sorted ascending, bit for bit, in one
    pass. A non-finite vertex raises its ValueError."""
    if not (isfinite(abs(cx) + abs(radius)) and isfinite(abs(cy) + abs(radius))):
        float_vertices(cx, cy, radius, phase, n)  # raises if a vertex overflows
    angles = (_angle_table if n <= ANGLE_TABLE_MAX_N else _angles)(n, 0)
    return sorted([
        hypot(cx + radius * cos(phase + a) - px, cy + radius * sin(phase + a) - py)
        for a in angles
    ])


def float_vertex_squares(
    cx: float, cy: float, radius: float, phase: float, n: int
) -> list[float]:
    """The squared distances ``x*x + y*y`` from the origin to the n vertices
    that :func:`float_vertices` places, vertex 0 first, bit for bit, in one
    pass. A caller that measures from another point moves the polygon
    first, as the oracle does; a point argument would cost two subtractions
    of 0.0 per vertex there. A non-finite vertex raises its ValueError."""
    if not (isfinite(abs(cx) + abs(radius)) and isfinite(abs(cy) + abs(radius))):
        float_vertices(cx, cy, radius, phase, n)  # raises if a vertex overflows
    squares = []
    for a in (_angle_table if n <= ANGLE_TABLE_MAX_N else _angles)(n, 0):
        x = cx + radius * cos(phase + a)
        y = cy + radius * sin(phase + a)
        squares.append(x * x + y * y)
    return squares


def vertices(poly: RegularPolygonSpec) -> tuple[PlanePoint, ...]:
    """The n vertices, counterclockwise, starting at angle ``poly.phase``."""
    c = poly.center
    return tuple(map(PlanePoint, *float_vertices(c.x, c.y, poly.circumradius, poly.phase, poly.n)))


def float_circle_intersection(
    x1: float, y1: float, r1: float, x2: float, y2: float, r2: float, eps: float
) -> tuple[tuple[float, ...], ...]:
    """Intersection points, as (x, y) pairs, of the circles centered at
    (x1, y1) and (x2, y2), with relative tolerance ``eps``.

    Returns two points for transversal intersection (the point on the
    positive side of the center-1 -> center-2 axis first), one point for
    tangency within tolerance or where the height of the intersection
    rounds to 0, and none when the circles are disjoint.
    Coincident circles of positive radius raise CoincidentCircles. Lengths
    far below the largest one lose their squares to underflow, so a caller
    near the bottom of the float range passes them in units of that largest
    length. The only place that intersects two circles.
    """
    if r1 < 0.0 or r2 < 0.0:
        raise ValueError(f"radii must be >= 0, got ({r1}, {r2})")
    dist = math.hypot(x1 - x2, y1 - y2)
    g = eps * max(r1 + r2, dist)
    if dist <= g:
        if abs(r1 - r2) <= g:
            if r1 <= g and r2 <= g:
                # Two point-circles at the same spot intersect in that point.
                return (((x1 + x2) / 2.0, (y1 + y2) / 2.0),)
            raise CoincidentCircles(f"circles share center and radius {r1}")
        return ()
    if dist > r1 + r2 + g or dist < abs(r1 - r2) - g:
        return ()
    ux = (x2 - x1) / dist
    uy = (y2 - y1) / dist
    along = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist)
    fx = x1 + along * ux
    fy = y1 + along * uy
    if abs(dist - (r1 + r2)) <= g or abs(dist - abs(r1 - r2)) <= g:
        return ((fx, fy),)
    height_sq = r1 * r1 - along * along
    if height_sq <= 0.0:
        return ((fx, fy),)
    height = sqrt(height_sq)
    # (-uy, ux) is the counterclockwise normal: positive half-plane first.
    return ((fx - height * uy, fy + height * ux), (fx + height * uy, fy - height * ux))


def distance_multiset(poly: RegularPolygonSpec, point: PlanePoint) -> tuple[float, ...]:
    """Distances from a point to every vertex, sorted ascending; each is
    :meth:`PlanePoint.distance_to` of the built vertex, bit for bit."""
    c = poly.center
    return tuple(float_vertex_distances(
        c.x, c.y, poly.circumradius, poly.phase, poly.n, point.x, point.y
    ))


def law_of_cosines_distances(a: float, b: float, n: int, t: float) -> list[float]:
    """The sorted distances ``sqrt(max(a - b cos(t + 2*pi*k/n), 0))``, n
    consecutive k from ``-((n - 1) // 2)``, or ``-(n // 2)`` at even n and t < 0.

    With a = r^2 + l^2 and b = 2rl these are the vertex distances of a
    regular n-gon of circumradius r seen from a point l from its center,
    vertex 0 opening the angle t at the center; the clamp absorbs rounding
    where a distance vanishes. The squares are sorted before their roots are
    taken: sqrt is monotone and correctly rounded, so that gives the list
    that sorting the roots would, and only the smallest square needs
    checking for the clamp. The window of k, centred on 0, makes the
    angles at -t exactly the negations of those at t, and cos is even, so t
    and its mirror -t give the same list bit for bit: one evaluation decides
    both. The angles ``step * k`` come from the window's angle table, the
    same products a per-vertex multiply gives, so the bits are the same.
    The only place that evaluates this law forward.
    """
    low = -((n - 1) // 2) if n % 2 or t >= 0.0 else -(n // 2)
    angles = (_angle_table if n <= ANGLE_TABLE_MAX_N else _angles)(n, low)
    squares = sorted([a - b * cos(t + angle) for angle in angles])
    if squares[0] < 0.0:
        squares = [max(v, 0.0) for v in squares]
    return list(map(sqrt, squares))


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
    (cos_t,) = opening_cosines(r * r + l * l, 2.0 * r * l, (d,))
    if abs(cos_t) > 1.0 + tol.relative_eps:
        return ()
    cos_t = max(-1.0, min(1.0, cos_t))
    t = math.acos(cos_t)
    if abs(cos_t) >= 1.0 - tol.relative_eps:  # the mirror coincides at 0 and pi
        return (t,)
    return (t, -t)


def opening_cosines(
    a: float, b: float, distances: tuple[float, ...] | list[float]
) -> list[float]:
    """The cosines ``(a - d^2) / b`` of the opening angles at which each
    distance d is seen, in the order given.

    With a = r^2 + l^2 and b = 2rl, cos(t) = (a - d^2) / b solves
    d^2 = r^2 + l^2 - 2 r l cos(t) for the angle t between arms r and l;
    rounding can carry a cosine just past +/-1. The only place that
    inverts this law.
    """
    return [(a - d * d) / b for d in distances]


def largest_gap(
    a: tuple[float, ...] | list[float], b: tuple[float, ...] | list[float]
) -> float:
    """``max |a_k - b_k|`` over the pairs of two nonempty sequences, in order."""
    if not (a and b):
        raise ValueError("largest_gap needs two nonempty sequences")
    # This and multiset_close are loops, not maps: 3.11 specializes float loops.
    best = abs(a[0] - b[0])
    for x, y in zip(a, b):
        gap = abs(x - y)
        if gap > best:  # as max does: a first NaN stays, a later one is passed
            best = gap
    return best


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
    for x, y in zip(a, b):
        if not abs(x - y) <= g:  # a NaN gap fails
            return False
    return True
