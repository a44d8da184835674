"""Independent checks: direct power-sum evaluation against the library's
closed form, a phase search over the law-of-cosines distances, and
reproducible random instances, with the ``verify --seed`` sweep over them.

Vertices and law-of-cosines distances come from ``geom``, so the library's
own formulas are checked. What stays independent of the paths certified:
the power sums add Cartesian squared distances where condition II uses the
closed form, and the phase comes from the Chebyshev product identity over
all n distances where reconstruction solves for one radius at a time.
Randomness comes from splitmix64, a fixed, documented recurrence, so
instances reproduce bit-for-bit anywhere. One kernel computes the
power-sum identity, for one order (``power_identity_residual``), for every
order of a polygon at once (``power_identity_residuals``) and for each
instance of the sweep.
"""

import math
import sys
from array import array
from collections import namedtuple
from itertools import repeat
from math import cos, frexp, fsum, hypot, ldexp, sin

from .geom import TWO_PI, CircleFamily, PlanePoint, RegularPolygonSpec, distance_multiset
from .geom import normalize_angle
from .geom import float_vertex_squares, largest_gap, law_of_cosines_distances, opening_cosines
from .geom import vertices  # unused here; perfbench/tracing.py wraps oracle.vertices
from .moments import MAX_VERTEX_COUNT, _two_radius_averages

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# The low word of each 128-bit lane, in an array("Q") read as one native int.
_LOW_WORDS = slice(0, None, 2) if sys.byteorder == "little" else slice(-1, None, -2)
# The SplitMix64 outputs that one two-polygon random instance reads.
_INSTANCE_DRAWS = 9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_POLISH_STEPS = 60


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; output is the state mixed by
    two xor-shift-multiply rounds. Tiny, seedable, and language-independent.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        return _uniform(self.next_u64(), lo, hi)


def _uniform(u: int, lo: float, hi: float) -> float:
    """The float in [lo, hi) that a 64-bit output's top 53 bits give."""
    return lo + (hi - lo) * ((u >> 11) * 2.0 ** -53)


def _splitmix64_outputs(seeds, count: int) -> array:
    """The first ``count`` outputs of ``SplitMix64(seed)`` for each seed,
    seed after seed: the generator's streams, flattened.

    Each 64-bit state sits in the low half of its own 128-bit lane of one
    int, so each add, xor-shift and multiply of a step runs once for every
    seed. A right shift carries the next lane's low bits into a lane's
    padding, so the lanes are masked back to 64 bits before each multiply;
    a 64-bit lane times a 64-bit constant then fills its lane without
    carrying into the next.
    """
    lanes = len(seeds)
    words = array("Q", bytes(16 * lanes))
    words[_LOW_WORDS] = array("Q", [1]) * lanes
    ones = int.from_bytes(words, sys.byteorder)
    mask, gamma = ones * _MASK64, ones * _GAMMA
    words[_LOW_WORDS] = array("Q", [seed & _MASK64 for seed in seeds])
    state = int.from_bytes(words, sys.byteorder)
    outputs = array("Q", bytes(8 * lanes * count))
    for k in range(count):
        state = (state + gamma) & mask
        z = (((state ^ (state >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
        z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
        words = array("Q", (z ^ (z >> 31)).to_bytes(16 * lanes, sys.byteorder))
        outputs[k::count] = words[_LOW_WORDS]
    return outputs


def power_identity_residual(
    poly: RegularPolygonSpec, point: PlanePoint, m: int
) -> float:
    """Relative gap between the directly summed 2m-th powers of the vertex
    distances and their closed form in the circumradius and the distance
    from the point to the polygon center.

    The closed form is the library's own :func:`two_radius_power_sum`, the
    recurrence condition II runs on; the direct side sums Cartesian vertex
    offsets from the point. Both run on lengths divided by 2^e (e from the
    larger arm, exactly), so no power overflows and the residual is
    unit-free; a translation reaches it only through the rounding of the
    center minus the point. This is an identity for every regular polygon,
    point, and m in 1..n-1 (other orders raise InvalidMomentOrder); the
    residual certifies the arithmetic, not the input. More than
    ``MAX_VERTEX_COUNT`` vertices raise ValueError.
    """
    c = poly.center
    (residual,) = _identity_residuals(
        c.x, c.y, poly.circumradius, poly.phase, poly.n, point.x, point.y, (m,)
    )
    return residual


def power_identity_residuals(poly: RegularPolygonSpec, point: PlanePoint) -> list[float]:
    """:func:`power_identity_residual` of every order m = 1..n-1, in order,
    bit for bit, from one placement of the vertices and one pass of the
    closed form's recurrence."""
    c = poly.center
    return _identity_residuals(
        c.x, c.y, poly.circumradius, poly.phase, poly.n, point.x, point.y, range(1, poly.n)
    )


def _identity_residuals(
    cx: float, cy: float, r: float, phase: float, n: int, px: float, py: float, orders
) -> list[float]:
    """The power-identity residual of each order in ``orders`` for the
    n-gon (cx, cy, r, phase) seen from (px, py): the one place the identity
    is computed. The polygon is moved so that the point is the origin and
    divided by 2^e, exactly in the normal range; its squares come from one
    placement, and the closed forms of every order up to the largest from
    one pass of the recurrence. The checks run in this order: the vertex
    count, a non-finite vertex (the ValueError of
    :func:`geom.float_vertex_squares`), a distance that overflows, the
    orders.
    """
    if n > MAX_VERTEX_COUNT:
        raise ValueError(f"vertex count {n} exceeds {MAX_VERTEX_COUNT}")
    dx, dy = cx - px, cy - py
    arm = hypot(dx, dy)
    e = -frexp(max(r, arm))[1]
    r = ldexp(r, e)
    squares = float_vertex_squares(ldexp(dx, e), ldexp(dy, e), r, phase, n)
    if arm == math.inf:  # after the placement, which names an infinite difference
        raise ValueError(f"distance from the point to the polygon center overflows: ({dx}, {dy})")
    averages = _two_radius_averages(r, ldexp(arm, e), n, max(orders))
    residuals = []
    for m in orders:
        closed = n * averages[m - 1]
        residuals.append(abs(fsum(map(pow, squares, repeat(m))) - closed) / (closed or 1.0))
    return residuals


SweepResult = namedtuple("SweepResult", ["best_phase", "best_residual"])


def angle_sweep(r: float, l: float, n: int, target: tuple[float, ...]) -> SweepResult:
    """The phase in [0, pi/n] whose law-of-cosines distances best match a
    target, and their largest gap from it.

    With a = r^2 + l^2 and b = 2rl, the x_k = (a - d_k^2) / b of
    :func:`geom.opening_cosines` are the cosines cos(t + 2*pi*k/n) in some
    order, so the Chebyshev product identity
    prod_k (y - cos(t + 2*pi*k/n)) = 2^(1-n) (T_n(y) - cos(nt)) gives cos(nt)
    at any y0; the midpoint of the widest gap among the x_k keeps every
    factor away from 0. ``acos`` loses half the digits where cos(nt) is near
    +/-1, so golden-section steps polish t within period/360, and the best
    phase probed is reported: on a target no phase reaches, an upper bound
    on the smallest residual. Phases t and -t tie exactly (the kernel is
    even in t), so the mirror 2*pi/n - t fits as well up to rounding; the
    arms enter only through a and b, and b = 0 gives phase 0. ``target``
    must hold exactly n distances.
    """
    if len(target) != n:
        raise ValueError(f"target must hold n = {n} distances, got {len(target)}")
    period = TWO_PI / n
    a = r * r + l * l
    b = 2.0 * r * l

    def residual(t: float) -> float:
        return largest_gap(law_of_cosines_distances(a, b, n, t), target)

    if b == 0.0:
        return SweepResult(0.0, residual(0.0))
    cosines = sorted(max(-1.0, min(1.0, c)) for c in opening_cosines(a, b, target))
    edges = [-1.0, *cosines, 1.0]
    _, left, right = max((right - left, left, right) for left, right in zip(edges, edges[1:]))
    y0 = (left + right) / 2.0
    cos_nt = cos(n * math.acos(y0)) - ldexp(math.prod(y0 - x for x in cosines), n - 1)
    t0 = math.acos(max(-1.0, min(1.0, cos_nt))) / n
    # The residual is symmetric about 0 and pi/n, so the bracket stays
    # inside; golden section never probes its ends, which are candidates too.
    bracket = (max(0.0, t0 - period / 360.0), min(period / 2.0, t0 + period / 360.0))
    lo, hi = bracket
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = residual(x1)
    f2 = residual(x2)
    for _ in range(_POLISH_STEPS):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = residual(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = residual(x2)
    return min(
        (SweepResult(t, residual(t)) for t in (t0, (lo + hi) / 2.0, *bracket)),
        key=lambda result: result.best_residual,
    )


class RandomInstance(namedtuple("RandomInstance", ["polygon1", "polygon2", "point"])):
    """Two regular polygons and a point whose vertex distances coincide.

    ``family``, the circles through the point's distances to the first
    polygon's vertices, is computed when read.
    """

    __slots__ = ()

    @property
    def family(self) -> CircleFamily:
        return CircleFamily(center=self.point, radii=distance_multiset(self.polygon1, self.point))


def random_instance(n: int, seed: int, zero_smaller_radius: bool = False) -> RandomInstance:
    """A reproducible pair of regular polygons sharing a distance multiset.

    Circumradii are drawn in [0.1, 10], the observation point in [-5, 5]^2,
    and each polygon center is placed at the other circumradius's distance
    from the point in a random direction. The second polygon's vertex angles
    mirror or shift the first's, which is exactly the freedom that preserves
    the multiset. With ``zero_smaller_radius`` the second circumradius is 0
    and every distance collapses to the first circumradius. The numbers come
    from ``SplitMix64(seed)`` by :func:`_instance_from`, the recipe that
    :func:`worst_identity_residuals` reads from a lane-packed batch of the
    same streams.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    draws = iter(SplitMix64(seed).next_u64, None)
    (px, py), *polygons = _instance_from(n, draws, zero_smaller_radius)
    polygon1, polygon2 = (
        RegularPolygonSpec(n, PlanePoint(cx, cy), r, phase) for cx, cy, r, phase in polygons
    )
    return RandomInstance(polygon1=polygon1, polygon2=polygon2, point=PlanePoint(px, py))


def _instance_from(n: int, draws, zero_smaller_radius: bool = False) -> tuple:
    """The point (px, py), then (cx, cy, circumradius, phase) of each
    polygon, phases in [0, 2*pi), from an iterator of SplitMix64 outputs.

    It reads ``_INSTANCE_DRAWS`` outputs, one fewer with
    ``zero_smaller_radius``, so consecutive instances can share one stream.
    """
    r1 = _uniform(next(draws), 0.1, 10.0)
    r2 = 0.0 if zero_smaller_radius else _uniform(next(draws), 0.1, 10.0)
    px, py = _uniform(next(draws), -5.0, 5.0), _uniform(next(draws), -5.0, 5.0)
    dir1 = _uniform(next(draws), 0.0, TWO_PI)
    dir2 = _uniform(next(draws), 0.0, TWO_PI)
    relative = _uniform(next(draws), 0.0, TWO_PI)
    mirror = -1.0 if next(draws) & 1 else 1.0
    shift = next(draws) % n
    # The angle from each center back to the point anchors the vertex phases.
    phase1 = normalize_angle(dir1 + math.pi + relative)
    phase2 = normalize_angle(dir2 + math.pi + mirror * relative + TWO_PI * shift / n)
    polygon1 = (px + r2 * cos(dir1), py + r2 * sin(dir1), r1, phase1)
    polygon2 = (px + r1 * cos(dir2), py + r1 * sin(dir2), r2, phase2)
    return (px, py), polygon1, polygon2


def worst_identity_residuals(seed: int, orders, samples: int) -> dict[int, float]:
    """The sweep behind ``verify --seed``: the worst power-identity residual
    of each vertex count's random instances, with no points or polygons built.

    Instance ``index`` of vertex count n is ``random_instance(n, seed *
    100003 + n * 1009 + index)``, and both its polygons are tested at the
    order m = 1 + index % (n - 1). The draws of one vertex count's instances
    come from one lane-packed batch of SplitMix64 streams. Each polygon's
    residual comes from the kernel behind :func:`power_identity_residual`,
    on the drawn floats."""
    worst_by_n = {}
    for n in orders:
        first = seed * 100003 + n * 1009
        draws = iter(_splitmix64_outputs(range(first, first + samples), _INSTANCE_DRAWS))
        worst = 0.0
        for index in range(samples):
            (px, py), *polygons = _instance_from(n, draws)
            order = (1 + index % (n - 1),)
            for cx, cy, r, phase in polygons:
                worst = max(worst, *_identity_residuals(cx, cy, r, phase, n, px, py, order))
        worst_by_n[n] = worst
    return worst_by_n
