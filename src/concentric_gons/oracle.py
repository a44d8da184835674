"""Independent checks: direct power-sum evaluation against the library's
closed form, a phase search over the law-of-cosines distances, and
reproducible random instances.

Vertices and law-of-cosines distances come from ``geom``, so the library's
own formulas are checked. What stays independent of the paths certified:
the power sums add Cartesian squared distances where condition II uses the
closed form, and the phase comes from the Chebyshev product identity over
all n distances where reconstruction solves for one radius at a time.
Randomness comes from splitmix64, a fixed, documented recurrence, so
instances reproduce bit-for-bit anywhere.
"""

import functools
import math
from math import cos, ldexp
from operator import sub
from typing import NamedTuple

from .geom import TWO_PI, PlanePoint, RegularPolygonSpec, distance_multiset, normalize_angle
from .geom import law_of_cosines_distances, vertex_offsets
from .geom import vertices  # unused here; perfbench/tracing.py wraps oracle.vertices
from .moments import MAX_VERTEX_COUNT, CircleFamily, two_radius_power_sum

_MASK64 = (1 << 64) - 1
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_POLISH_STEPS = 60


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; output is the state mixed by
    two xor-shift-multiply rounds. Tiny, seedable, and language-independent.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0 ** -53)

    def angle(self) -> float:
        return self.uniform(0.0, TWO_PI)

    def below(self, n: int) -> int:
        return self.next_u64() % n


def power_identity_residual(
    poly: RegularPolygonSpec, point: PlanePoint, m: int
) -> float:
    """Relative gap between the directly summed 2m-th powers of the vertex
    distances and their closed form in the circumradius and the distance
    from the point to the polygon center.

    The closed form is the library's own :func:`two_radius_power_sum`, the
    recurrence condition II runs on; the direct side sums Cartesian vertex
    coordinates. Both run on lengths divided by 2^e (e from the larger arm,
    exactly), so no power overflows and the residual is unit-free. This is
    an identity for every regular polygon, point, and m in 1..n-1 (other
    orders raise InvalidMomentOrder); the residual certifies the
    arithmetic, not the input. More than ``MAX_VERTEX_COUNT`` vertices
    raise ValueError. The squared vertex distances are kept for the last
    (polygon, point), so the orders of one polygon share one pass of trig.
    """
    if poly.n > MAX_VERTEX_COUNT:
        raise ValueError(f"vertex count {poly.n} exceeds {MAX_VERTEX_COUNT}")
    e, arm, squares = _scaled_squares(poly, point)
    closed = two_radius_power_sum(ldexp(poly.circumradius, e), ldexp(arm, e), poly.n, m)
    direct = math.fsum(q ** m for q in squares)
    return abs(direct - closed) / (closed or 1.0)


@functools.lru_cache(maxsize=1)
def _scaled_squares(
    poly: RegularPolygonSpec, point: PlanePoint
) -> tuple[int, float, tuple[float, ...]]:
    """The exponent e = -frexp(larger arm), the distance from the point to
    the polygon center, and the squared distances from the point to every
    vertex, each coordinate difference divided by 2^e.

    A non-finite vertex raises the ValueError of
    :func:`geom.vertex_offsets`. A key equal up to the sign of a zero gives
    the same squares.
    """
    arm = point.distance_to(poly.center)
    e = -math.frexp(max(poly.circumradius, arm))[1]
    dxs, dys = vertex_offsets(poly, point, range(poly.n))
    squares = [ldexp(dx, e) ** 2 + ldexp(dy, e) ** 2 for dx, dy in zip(dxs, dys)]
    return e, arm, tuple(squares)


class SweepResult(NamedTuple):
    best_phase: float
    best_residual: float


def angle_sweep(r: float, l: float, n: int, target: tuple[float, ...]) -> SweepResult:
    """The phase in [0, pi/n] whose law-of-cosines distances best match a
    target, and their largest gap from it.

    With a = r^2 + l^2 and b = 2rl, x_k = (a - d_k^2) / b are the cosines
    cos(t + 2*pi*k/n) in some order, so the Chebyshev product identity
    prod_k (y - cos(t + 2*pi*k/n)) = 2^(1-n) (T_n(y) - cos(nt)) gives cos(nt)
    at any y0; the midpoint of the widest gap among the x_k keeps every
    factor away from 0. ``acos`` loses half the digits where cos(nt) is near
    +/-1, so golden-section steps polish t within period/360, and the best
    phase probed is reported: on a target no phase reaches, an upper bound
    on the smallest residual. Phases t and -t tie, so the mirror 2*pi/n - t
    fits equally well; the arms enter only through a and b, and b = 0 gives
    phase 0. ``target`` must hold exactly n distances.
    """
    if len(target) != n:
        raise ValueError(f"target must hold n = {n} distances, got {len(target)}")
    period = TWO_PI / n
    a = r * r + l * l
    b = 2.0 * r * l

    def residual(t: float) -> float:
        return max(map(abs, map(sub, law_of_cosines_distances(a, b, n, t), target)))

    if b == 0.0:
        return SweepResult(0.0, residual(0.0))
    cosines = sorted(max(-1.0, min(1.0, (a - d * d) / b)) for d in target)
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


class RandomInstance(NamedTuple):
    """Two regular polygons and a point whose vertex distances coincide.

    ``family``, the circles through the point's distances to the first
    polygon's vertices, is computed when read.
    """

    polygon1: RegularPolygonSpec
    polygon2: RegularPolygonSpec
    point: PlanePoint

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
    and every distance collapses to the first circumradius.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    rng = SplitMix64(seed)
    r1 = rng.uniform(0.1, 10.0)
    r2 = 0.0 if zero_smaller_radius else rng.uniform(0.1, 10.0)
    point = PlanePoint(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
    dir1 = rng.angle()
    dir2 = rng.angle()
    relative = rng.angle()
    mirror = -1.0 if rng.next_u64() & 1 else 1.0
    shift = rng.below(n)
    center1 = PlanePoint(point.x + r2 * math.cos(dir1), point.y + r2 * math.sin(dir1))
    center2 = PlanePoint(point.x + r1 * math.cos(dir2), point.y + r1 * math.sin(dir2))
    # The angle from each center back to the point anchors the vertex phases.
    phase1 = normalize_angle(dir1 + math.pi + relative)
    phase2 = normalize_angle(dir2 + math.pi + mirror * relative + TWO_PI * shift / n)
    polygon1 = RegularPolygonSpec(n, center1, r1, phase1)
    polygon2 = RegularPolygonSpec(n, center2, r2, phase2)
    return RandomInstance(polygon1=polygon1, polygon2=polygon2, point=point)
