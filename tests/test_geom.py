import math
import random
import tracemalloc
from itertools import repeat
from operator import ge, sub

import pytest
from hypothesis import given, strategies as st

from concentric_gons import (
    DEFAULT_TOLERANCE,
    CoincidentCircles,
    PlanePoint,
    RegularPolygonSpec,
    Tolerance,
    distance_multiset,
    multiset_close,
    random_instance,
    vertices,
)
from concentric_gons.geom import (
    ANGLE_TABLE_MAX_N,
    ANGLE_TABLES,
    _angle_table,
    float_circle_intersection,
    float_vertex_offsets,
    largest_gap,
    law_of_cosines_distances,
    opening_cosines,
)

from closed_forms import TriangleInequalityViolated, heron_area

SQRT3 = math.sqrt(3.0)

lengths = st.floats(min_value=0.1, max_value=10.0)
coords = st.floats(min_value=-10.0, max_value=10.0)
orders = st.integers(min_value=3, max_value=12)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)


# ---------------------------------------------------------------- vertices


def test_axis_aligned_square_vertices():
    square = RegularPolygonSpec(4, PlanePoint(0, 0), 1.0, 0.0)
    expected = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for v, (x, y) in zip(vertices(square), expected):
        assert v.x == pytest.approx(x, abs=1e-15)
        assert v.y == pytest.approx(y, abs=1e-15)


def test_unit_triangle_vertices():
    tri = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.0)
    expected = [(1, 0), (-0.5, SQRT3 / 2), (-0.5, -SQRT3 / 2)]
    for v, (x, y) in zip(vertices(tri), expected):
        assert v.x == pytest.approx(x, abs=1e-15)
        assert v.y == pytest.approx(y, abs=1e-15)


def test_reflected_triangle_vertices():
    tri = RegularPolygonSpec(3, PlanePoint(2, 0), 1.0, math.pi)
    expected = [(1, 0), (2.5, -SQRT3 / 2), (2.5, SQRT3 / 2)]
    for v, (x, y) in zip(vertices(tri), expected):
        assert v.x == pytest.approx(x, abs=1e-14)
        assert v.y == pytest.approx(y, abs=1e-14)


@given(orders, coords, coords, lengths, angles)
def test_vertices_sit_on_the_circumcircle(n, cx, cy, radius, phase):
    poly = RegularPolygonSpec(n, PlanePoint(cx, cy), radius, phase)
    for v in vertices(poly):
        assert poly.center.distance_to(v) == pytest.approx(radius, rel=1e-12, abs=1e-12)


def test_polygon_validation():
    with pytest.raises(ValueError):
        RegularPolygonSpec(2, PlanePoint(0, 0), 1.0, 0.0)
    with pytest.raises(ValueError):
        RegularPolygonSpec(3, PlanePoint(0, 0), -1.0, 0.0)
    with pytest.raises(ValueError):
        PlanePoint(math.nan, 0.0)
    # phase normalizes into [0, 2*pi)
    assert RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, -math.pi).phase == pytest.approx(math.pi)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(relative_eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(relative_eps=1e-2)
    # Below 1e-13 a gate falls under the rounding of condition II's averages,
    # (m + n)u, about 5.7e-14 at n = 256.
    with pytest.raises(ValueError, match=r"must lie in \[1e-13, 1e-3\), got 1e-14"):
        Tolerance(relative_eps=1e-14)
    assert Tolerance(1e-13).relative_eps == 1e-13
    # One relative field: there is no absolute floor to set.
    with pytest.raises(TypeError):
        Tolerance(absolute_floor=1e-12)


def test_multiset_gate_is_ten_times_looser():
    assert Tolerance().multiset_gate() == Tolerance(1e-9 * 10.0)
    assert Tolerance(relative_eps=2e-6).multiset_gate() == Tolerance(2e-6 * 10.0)


def test_multiset_gate_clamps_below_the_validity_ceiling():
    assert Tolerance(relative_eps=5e-4).multiset_gate() == Tolerance(9.9e-4)


# ---------------------------------------------------------------- heron


def test_heron_right_triangle():
    assert heron_area(3, 4, 5) == pytest.approx(6.0, abs=1e-12)


def test_heron_collinear_is_exactly_zero():
    assert heron_area(1, 1, 2) == 0.0


def test_heron_derived_half():
    # 16*area^2 = 2(a^2 b^2 + b^2 c^2 + c^2 a^2) - a^4 - b^4 - c^4 = 4 here
    assert heron_area(2, 1, math.sqrt(5 - 2 * SQRT3)) == pytest.approx(0.5, abs=1e-12)


def test_heron_rejects_impossible_sides():
    with pytest.raises(TriangleInequalityViolated):
        heron_area(1, 1, 3)


@given(lengths, lengths, lengths)
def test_heron_symmetric_in_all_orders(a, b, c):
    try:
        reference = heron_area(a, b, c)
    except TriangleInequalityViolated:
        reference = None
    for sides in [(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
        if reference is None:
            with pytest.raises(TriangleInequalityViolated):
                heron_area(*sides)
        else:
            assert heron_area(*sides) == pytest.approx(reference, rel=1e-12, abs=1e-15)


# ------------------------------------------------- circle intersection


EPS = DEFAULT_TOLERANCE.relative_eps


def test_externally_tangent_circles():
    points = float_circle_intersection(0, 0, 1, 2, 0, 1, EPS)
    assert len(points) == 1
    (x, y), = points
    assert x == pytest.approx(1.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)


def test_a_tangency_the_height_rounds_away_gives_one_point():
    # The circles miss tangency by 9e-9 of the larger radius, past the
    # 1e-9 gate, yet the height squared rounds to 0: one point, not two
    # copies of the foot.
    assert float_circle_intersection(0.0, 0.0, 1.0, 1.0000000089999999, 0.0, 1e-8, 1e-9) == (
        (1.0, 0.0),
    )


def test_two_point_intersection_order():
    points = float_circle_intersection(0, 0, 1, 2, 0, 2, EPS)
    assert len(points) == 2
    first, second = points
    assert first[0] == pytest.approx(0.25, abs=1e-12)
    assert first[1] == pytest.approx(math.sqrt(15) / 4, abs=1e-12)
    assert second[1] == pytest.approx(-math.sqrt(15) / 4, abs=1e-12)


def test_disjoint_circles():
    assert float_circle_intersection(0, 0, 1, 5, 0, 1, EPS) == ()


def test_concentric_distinct_radii():
    assert float_circle_intersection(0, 0, 1, 0, 0, 2, EPS) == ()


def test_coincident_circles_raise():
    with pytest.raises(CoincidentCircles):
        float_circle_intersection(0, 0, 1, 0, 0, 1, EPS)


def test_contained_circle_no_intersection():
    assert float_circle_intersection(0, 0, 5, 1, 0, 1, EPS) == ()


def test_internally_tangent_circles():
    points = float_circle_intersection(0, 0, 3, 1, 0, 2, EPS)
    assert len(points) == 1
    (x, y), = points
    assert x == pytest.approx(3.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)


@given(coords, coords, lengths, coords, coords, lengths)
def test_intersection_points_lie_on_both_circles(x1, y1, r1, x2, y2, r2):
    try:
        points = float_circle_intersection(x1, y1, r1, x2, y2, r2, EPS)
        swapped = float_circle_intersection(x2, y2, r2, x1, y1, r1, EPS)
    except CoincidentCircles:
        return
    for px, py in points:
        assert math.hypot(px - x1, py - y1) == pytest.approx(r1, rel=1e-9, abs=1e-9)
        assert math.hypot(px - x2, py - y2) == pytest.approx(r2, rel=1e-9, abs=1e-9)
    assert len(points) == len(swapped)
    # Match within 1e-9 rather than after rounding to 9 decimals: a
    # coordinate near a rounding boundary would split otherwise equal points.
    for ours, theirs in ((points, swapped), (swapped, points)):
        for p in ours:
            assert min(math.dist(p, q) for q in theirs) <= 1e-9


# ------------------------------------------------- distance multiset


def test_square_distance_multiset_worked_values():
    square = RegularPolygonSpec(4, PlanePoint(0, 0), 2.0, 0.0)
    m = PlanePoint(math.cos(math.pi / 6), math.sin(math.pi / 6))
    expected = (
        math.sqrt(5 - 2 * SQRT3),
        SQRT3,
        math.sqrt(7),
        math.sqrt(5 + 2 * SQRT3),
    )
    for got, want in zip(distance_multiset(square, m), expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_triangle_distances_from_centroid():
    tri = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.0)
    assert distance_multiset(tri, PlanePoint(0, 0)) == pytest.approx((1, 1, 1))


def test_triangle_distances_from_antipode():
    tri = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.0)
    assert distance_multiset(tri, PlanePoint(-1, 0)) == pytest.approx((1, 1, 2))


@given(orders, coords, coords, lengths, angles, coords, coords)
def test_multiset_equals_distances_to_built_vertices(n, cx, cy, radius, phase, px, py):
    poly = RegularPolygonSpec(n, PlanePoint(cx, cy), radius, phase)
    point = PlanePoint(px, py)
    built = tuple(sorted(point.distance_to(v) for v in vertices(poly)))
    assert distance_multiset(poly, point) == built


def test_multiset_rejects_non_finite_vertices():
    poly = RegularPolygonSpec(4, PlanePoint(1e308, 0.0), 1e308, 0.0)
    with pytest.raises(ValueError, match="coordinates must be finite"):
        distance_multiset(poly, PlanePoint(0.0, 0.0))


@given(orders, coords, coords, lengths, angles, coords, coords)
def test_multiset_invariant_under_vertex_relabeling(n, cx, cy, radius, phase, px, py):
    center = PlanePoint(cx, cy)
    point = PlanePoint(px, py)
    base = distance_multiset(RegularPolygonSpec(n, center, radius, phase), point)
    shifted = distance_multiset(
        RegularPolygonSpec(n, center, radius, phase + 2 * math.pi / n), point
    )
    assert base == pytest.approx(shifted, rel=1e-9, abs=1e-9)


@given(orders, lengths, angles, coords, coords, angles, coords, coords)
def test_multiset_invariant_under_rigid_motion(n, radius, phase, px, py, spin, dx, dy):
    poly = RegularPolygonSpec(n, PlanePoint(0, 0), radius, phase)
    point = PlanePoint(px, py)
    base = distance_multiset(poly, point)

    def move(p):
        return PlanePoint(
            p.x * math.cos(spin) - p.y * math.sin(spin) + dx,
            p.x * math.sin(spin) + p.y * math.cos(spin) + dy,
        )

    moved_poly = RegularPolygonSpec(n, move(poly.center), radius, phase + spin)
    moved = distance_multiset(moved_poly, move(point))
    assert base == pytest.approx(moved, rel=1e-9, abs=1e-9)


# ------------------------------------------------- the two kernels


def _bits(values):
    """Exact bit patterns, so that -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


def _offsets(poly, point, ks):
    """The kernel's offsets from ``point`` of the vertices ``ks`` of ``poly``."""
    c = poly.center
    return float_vertex_offsets(
        c.x, c.y, poly.circumradius, poly.phase, poly.n, point.x, point.y, ks
    )


def _written_out_offsets(poly, point):
    """Vertex placement and offsets with the expressions the kernel keeps."""
    step = 2.0 * math.pi / poly.n
    dxs, dys = [], []
    for k in range(poly.n):
        x = poly.center.x + poly.circumradius * math.cos(poly.phase + step * k)
        y = poly.center.y + poly.circumradius * math.sin(poly.phase + step * k)
        dxs.append(x - point.x)
        dys.append(y - point.y)
    return dxs, dys


def _written_out_vertices(poly):
    step = 2.0 * math.pi / poly.n
    return [
        (
            poly.center.x + poly.circumradius * math.cos(poly.phase + step * k),
            poly.center.y + poly.circumradius * math.sin(poly.phase + step * k),
        )
        for k in range(poly.n)
    ]


def _kernel_cases():
    """(polygon, point): signed-zero centers, points and a point polygon;
    random pairs scaled by 2^0 and 2^+-600; and n = 256."""
    for cx in (0.0, -0.0):
        for radius in (0.0, 1.0):
            poly = RegularPolygonSpec(4, PlanePoint(cx, -cx), radius, 0.0)
            for point in (PlanePoint(0.0, 0.0), PlanePoint(-0.0, -0.0), PlanePoint(-0.0, 0.0)):
                yield poly, point
    for n in (3, 12, 256):
        inst = random_instance(n, 5)
        for k in (0, 600, -600):
            point = PlanePoint(math.ldexp(inst.point.x, k), math.ldexp(inst.point.y, k))
            for poly in (inst.polygon1, inst.polygon2):
                center = PlanePoint(math.ldexp(poly.center.x, k), math.ldexp(poly.center.y, k))
                scaled = RegularPolygonSpec(
                    n, center, math.ldexp(poly.circumradius, k), poly.phase
                )
                yield scaled, point


def _evict_angle_tables():
    """Fill the kernels' angle-table cache past its bound with vertex counts
    that the kernel checks do not use, so that theirs are built again."""
    for n in range(100, 100 + ANGLE_TABLES):
        law_of_cosines_distances(2.0, 1.0, n, 0.3)
        law_of_cosines_distances(2.0, 1.0, n, -0.3)
        float_vertex_offsets(0.0, 0.0, 1.0, 0.0, n, 0.0, 0.0, (0,))
    assert _angle_table.cache_info().currsize == ANGLE_TABLES


def test_vertex_kernel_matches_the_written_out_placement_bit_for_bit():
    # The second round runs on angle tables built again after eviction.
    for evict in (False, True):
        if evict:
            _evict_angle_tables()
        for poly, point in _kernel_cases():
            dxs, dys = _offsets(poly, point, range(poly.n))
            want_x, want_y = _written_out_offsets(poly, point)
            assert (_bits(dxs), _bits(dys)) == (_bits(want_x), _bits(want_y)), (poly, point)
            for k in (0, poly.n - 1):
                (dx,), (dy,) = _offsets(poly, point, (k,))
                assert _bits((dx, dy)) == _bits((dxs[k], dys[k]))
            built = [(v.x, v.y) for v in vertices(poly)]
            want = _written_out_vertices(poly)
            assert [_bits(v) for v in built] == [_bits(v) for v in want], poly
            assert _bits(distance_multiset(poly, point)) == _bits(
                sorted(math.hypot(point.x - x, point.y - y) for x, y in want)
            )


def test_angle_tables_stay_within_their_memory_bound():
    # Every vertex count up to twice the cached range, each in all three
    # windows: the cache keeps at most ANGLE_TABLES tables of at most
    # ANGLE_TABLE_MAX_N angles, about 0.53 MB, and a larger n leaves it alone.
    assert (ANGLE_TABLES, ANGLE_TABLE_MAX_N) == (64, 256)
    _angle_table.cache_clear()
    tracemalloc.start()
    try:
        for n in range(3, 2 * ANGLE_TABLE_MAX_N):
            law_of_cosines_distances(2.0, 1.0, n, 0.3)
            law_of_cosines_distances(2.0, 1.0, n, -0.3)
            float_vertex_offsets(0.0, 0.0, 1.0, 0.0, n, 0.0, 0.0, (0,))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    info = _angle_table.cache_info()
    assert info.currsize == info.maxsize == ANGLE_TABLES
    assert held < 600_000
    law_of_cosines_distances(2.0, 1.0, 10_000, 0.3)
    assert _angle_table.cache_info() == info


def test_vertex_kernel_keeps_the_non_finite_vertex_error():
    poly = RegularPolygonSpec(4, PlanePoint(1e308, 0.0), 1e308, 0.0)
    with pytest.raises(ValueError, match=r"coordinates must be finite, got \(inf, "):
        _offsets(poly, PlanePoint(0.0, 0.0), range(4))
    # Vertex 2 points away from the overflow.
    assert _offsets(poly, PlanePoint(0.0, 0.0), (2,))[0] == [1e308 - 1e308]


def _written_out_squares(n, r, l, t):
    """Squared law-of-cosines distances with the expressions the kernel
    keeps, over vertex indices from -((n - 1) // 2) to n // 2, negated for
    t < 0."""
    step = 2.0 * math.pi / n
    ks = range(-((n - 1) // 2), n // 2 + 1)
    return [
        r * r + l * l - 2.0 * r * l * math.cos(t + step * k)
        for k in (ks if t >= 0.0 else [-k for k in ks])
    ]


def _written_out_distances(n, r, l, t):
    """Sorted law-of-cosines distances: each square clamped at 0 and rooted,
    then sorted."""
    return sorted(math.sqrt(max(v, 0.0)) for v in _written_out_squares(n, r, l, t))


# Near-equal arms at a mirror phase (t = 0): the square of the distance to
# vertex 0 rounds below 0 and must be clamped.
MIRROR_ARMS = ((7.4007673759475265, 7.40076737594752), (3.534615757169955, 3.534615757169953))


@pytest.mark.parametrize("n", [3, 4, 16, 256])
def test_law_of_cosines_kernel_matches_the_written_out_law_bit_for_bit(n):
    arms = [*MIRROR_ARMS, (2.0, 0.7), (1.0, 1.0), (1.5, 0.0), (0.0, 0.0)]
    # Arms scaled by 2^+-300 put a and b at 2^+-600.
    arms += [(math.ldexp(r, k), math.ldexp(l, k)) for r, l in arms[:3] for k in (300, -300)]
    for r, l in arms:
        for t in (0.0, -0.0, math.pi / n, 0.3, -1.2):
            got = law_of_cosines_distances(r * r + l * l, 2.0 * r * l, n, t)
            assert _bits(got) == _bits(_written_out_distances(n, r, l, t)), (r, l, t)


def test_law_of_cosines_kernel_matches_the_written_out_law_on_a_seeded_sweep():
    # The kernel roots the squares after sorting them and clamps only when
    # the smallest is negative: sqrt is monotone and correctly rounded, so
    # the list must be the written-out one, which clamps and roots each
    # square before the sort.
    rng = random.Random(35)
    sizes = [*range(3, 13), 32, 64, 256]
    cases = []
    for _ in range(2000):
        n = rng.choice(sizes)
        r = rng.uniform(0.0, 4.0)
        # Near-equal arms put a square near zero, and t = 0 or +-pi/n puts a
        # vertex on the mirror line.
        l = rng.choice((rng.uniform(0.0, 4.0), r * (1.0 + rng.uniform(-4e-16, 4e-16))))
        step = math.pi / n
        t = rng.choice((0.0, step, -step, rng.uniform(-math.pi, math.pi), rng.uniform(-9.0, 9.0)))
        k = rng.choice((0, 300, -300))
        cases.append((n, math.ldexp(r, k), math.ldexp(l, k), t))
    for n in sizes:
        for r, l in MIRROR_ARMS:
            for k in (0, 300, -300):
                for t in (0.0, math.pi / n, -math.pi / n):
                    cases.append((n, math.ldexp(r, k), math.ldexp(l, k), t))
    # The second round runs on angle tables built again after eviction.
    for evict in (False, True):
        if evict:
            _evict_angle_tables()
        clamped = 0
        for n, r, l, t in cases:
            a, b = r * r + l * l, 2.0 * r * l
            got = law_of_cosines_distances(a, b, n, t)
            assert _bits(got) == _bits(_written_out_distances(n, r, l, t)), (n, r, l, t)
            clamped += min(_written_out_squares(n, r, l, t)) < 0.0
        # 102 of the 2,234 cases clamp a square that rounds below 0.
        assert clamped >= 90


@pytest.mark.parametrize("n", [*range(3, 65), 256])
def test_law_of_cosines_kernel_is_exactly_even_in_the_angle(n):
    # cos is even, so the opening angles t and -t place the same distances;
    # the kernel must place them bit for bit, so that one placement decides
    # both.
    rng = random.Random(n)
    arms = [(1.0, 1.0), (2.0, 0.7), *MIRROR_ARMS]
    arms += [(math.ldexp(r, k), math.ldexp(l, k)) for r, l in arms[:2] for k in (300, -300)]
    step = math.pi / n
    angles = (0.0, -0.0, 1e-9, -1e-9, step, -step, rng.uniform(-math.pi, math.pi), rng.uniform(-9, 9))
    for r, l in arms:
        a, b = r * r + l * l, 2.0 * r * l
        for t in angles:
            plus = law_of_cosines_distances(a, b, n, t)
            assert _bits(law_of_cosines_distances(a, b, n, -t)) == _bits(plus), (r, l, t)


@pytest.mark.parametrize("n", [3, 4, 16, 256])
def test_inverse_law_kernel_matches_the_three_written_out_inverses_bit_for_bit(n):
    # The expressions phase_candidates, the pairing reference vertex and
    # angle_sweep each wrote out before they shared opening_cosines.
    arms = [*MIRROR_ARMS, (2.0, 0.7), (1.0, 1.0), (0.3, 1e-8)]
    arms += [(math.ldexp(r, k), math.ldexp(l, k)) for r, l in arms[:3] for k in (300, -300)]
    for r, l in arms:
        a, b = r * r + l * l, 2.0 * r * l
        distances = law_of_cosines_distances(a, b, n, 0.3) + [0.0, abs(r - l), r + l, 3.0 * r]
        got = _bits(opening_cosines(a, b, distances))
        assert got == _bits([(r * r + l * l - d * d) / (2.0 * r * l) for d in distances]), (r, l)
        assert got == _bits([(a - d * d) / b for d in distances]), (r, l)


def test_largest_gap_matches_the_four_written_out_gaps_bit_for_bit():
    # reconstruct's relative gap, verify_reconstruction and the pairing gate
    # warning wrote out the generator; angle_sweep's residual the map form.
    rng = random.Random(14)
    specials = (0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300)
    for _ in range(200):
        n = rng.randint(1, 12)
        a = sorted(rng.choice(specials) if rng.random() < 0.3 else rng.random() for _ in range(n))
        b = [rng.choice((x, x, -x, 0.0, -0.0, x + rng.random())) for x in a]
        for first, second in ((a, b), (b, a), (tuple(a), a), (a, a)):
            got = largest_gap(first, second)
            assert got.hex() == max(abs(x - y) for x, y in zip(first, second)).hex()
            assert got.hex() == max(map(abs, map(sub, first, second))).hex()


def map_chain_largest_gap(a, b):
    """The reference for :func:`largest_gap`'s loop: ``max`` over a chain of
    maps, whose NaN handling the loop must keep."""
    return max(map(abs, map(sub, a, b)))


def map_chain_multiset_close(a, b, tol=DEFAULT_TOLERANCE):
    """The reference for :func:`multiset_close`'s loop: ``all`` over a chain
    of maps, in which a NaN gap fails the gate."""
    if len(a) != len(b):
        return False
    g = tol.relative_eps * max(a[-1], b[-1]) if a else 0.0
    return all(map(ge, repeat(g), map(abs, map(sub, a, b))))


def _outcome(kernel, *args):
    """A kernel's result as exact text (``float.hex`` keeps NaN and signed
    zeros apart), or the type of what it raised."""
    try:
        result = kernel(*args)
    except (IndexError, ValueError) as exc:
        return type(exc)
    return result.hex() if isinstance(result, float) else result


def gate_kernel_cases():
    """Sequence pairs for the gate kernels: random ascending lengths with
    copies off by nothing, by a fraction of the gate or by more; specials
    (NaN, +-0.0, +-inf, the smallest subnormal) in any position; pairs of
    different lengths, empty ones included."""
    rng = random.Random(18)
    specials = (math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1e300)
    for _ in range(3000):
        n = rng.randint(1, 12)
        a = sorted(rng.random() * 10.0 ** rng.randint(-5, 5) for _ in range(n))
        slip = rng.choice((0.0, 1e-12, 5e-10, 2e-9, 1e-6))
        b = [x + slip * rng.uniform(-1.0, 1.0) * a[-1] for x in a]
        for seq in (a, b):
            if rng.random() < 0.3:
                seq[rng.randrange(n)] = rng.choice(specials)
        if rng.random() < 0.1:
            b = b[: rng.randrange(n)] if rng.random() < 0.5 else b + [a[-1]]
        yield a, b
    yield [], []
    yield [1.0], []
    yield [math.nan], [math.nan]
    yield [0.0, -0.0], [-0.0, 0.0]
    yield [math.inf], [math.inf]
    yield [1.0, math.inf], [1.0, -math.inf]


def test_gate_kernels_agree_with_their_map_chain_forms():
    # The loops must keep every bit and every NaN verdict of the maps: a
    # NaN gap fails the gate, and the largest gap is the first NaN or
    # largest one, as max keeps it.
    tolerances = (DEFAULT_TOLERANCE, Tolerance(1e-12), Tolerance(9e-4))
    cases = 0
    for a, b in gate_kernel_cases():
        for first, second in ((a, b), (b, a), (tuple(a), b)):
            assert _outcome(largest_gap, first, second) == _outcome(
                map_chain_largest_gap, first, second
            ), (first, second)
            for tol in tolerances:
                assert _outcome(multiset_close, first, second, tol) == _outcome(
                    map_chain_multiset_close, first, second, tol
                ), (first, second, tol)
            cases += 1
    assert cases == 9018


def test_mirror_phase_squares_round_below_zero():
    r, l = MIRROR_ARMS[0]
    a, b = r * r + l * l, 2.0 * r * l
    assert a - b * math.cos(0.0) < 0.0
    assert law_of_cosines_distances(a, b, 4, 0.0)[0] == 0.0


# ------------------------------------------------- multiset comparison


def test_multiset_close_basic():
    tol = Tolerance()
    assert multiset_close((1, 1, 2), (1, 1, 2), tol)
    assert not multiset_close((1, 1, 2), (1, 2, 2), tol)
    assert not multiset_close((1, 1), (1, 1, 1), tol)


def test_multiset_close_respects_tolerance_scale():
    tol = Tolerance(relative_eps=1e-9)
    for largest in (1e-12, 1.0, 100.0, 1e12):
        assert multiset_close((largest,), (largest * (1.0 + 5e-10),), tol)
        assert not multiset_close((largest,), (largest * (1.0 + 5e-8),), tol)
        # Every pair is gated by the largest element, so a zero distance
        # still compares within the gate.
        assert multiset_close((0.0, largest), (5e-10 * largest, largest), tol)
        assert not multiset_close((0.0, largest), (5e-8 * largest, largest), tol)
