import math

import pytest
from hypothesis import given, settings, strategies as st

from concentric_gons import (
    CircleFamily,
    InvalidMomentOrder,
    PlanePoint,
    RegularPolygonSpec,
    SplitMix64,
    angle_sweep,
    condition_one,
    condition_two,
    cyclic_averages,
    distance_multiset,
    power_identity_residual,
    random_instance,
    recover_circumradii,
    reconstruct_polygons,
    two_radius_power_sum,
    vertices,
)

SQRT3 = math.sqrt(3.0)

TRIANGLE_FAMILY = tuple(
    sorted((math.sqrt(5 - 2 * SQRT3), math.sqrt(5), math.sqrt(5 + 2 * SQRT3)))
)


# -------------------------------------------------------------- splitmix64


def test_splitmix64_reference_stream():
    # Known-answer stream for seed 0 (reference vectors for splitmix64).
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_uniform_range():
    rng = SplitMix64(42)
    values = [rng.uniform(0.1, 10.0) for _ in range(1000)]
    assert all(0.1 <= v < 10.0 for v in values)


# ------------------------------------------------------- power identity


def test_identity_worked_square():
    square = RegularPolygonSpec(4, PlanePoint(0, 0), 2.0, 0.0)
    point = PlanePoint(math.cos(math.pi / 6), math.sin(math.pi / 6))
    # direct sixth-power sum is 980 = 4 * (125 + 6 * 4 * 5)
    assert power_identity_residual(square, point, 3) <= 1e-12


def test_identity_at_the_center_collapses():
    for n in (3, 5, 8):
        poly = RegularPolygonSpec(n, PlanePoint(1, -2), 3.0, 0.7)
        for m in range(1, n):
            assert power_identity_residual(poly, poly.center, m) <= 1e-15


def test_identity_triangle_antipode():
    tri = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.0)
    point = PlanePoint(-1, 0)
    # distances (1, 1, 2): fourth powers sum to 18 = 3 * ((1+1)^2 + 2)
    assert power_identity_residual(tri, point, 2) <= 1e-14


def test_identity_order_validation():
    tri = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.0)
    with pytest.raises(InvalidMomentOrder):
        power_identity_residual(tri, PlanePoint(1, 1), 3)


@pytest.mark.parametrize("k", [-900, -40, 40, 900])
def test_identity_residual_is_the_same_in_every_unit(k):
    for n in (3, 8, 64, 256):
        inst = random_instance(n, 2)
        poly = inst.polygon1
        scaled = RegularPolygonSpec(
            n,
            PlanePoint(math.ldexp(poly.center.x, k), math.ldexp(poly.center.y, k)),
            math.ldexp(poly.circumradius, k),
            poly.phase,
        )
        point = PlanePoint(math.ldexp(inst.point.x, k), math.ldexp(inst.point.y, k))
        for m in (1, n // 2, n - 1):
            residual = power_identity_residual(poly, inst.point, m)
            assert residual <= 1e-12
            assert power_identity_residual(scaled, point, m) == residual


def _vertex_power_identity_residual(poly, point, m):
    """The identity residual summed over built vertices: the reference the
    library's memoised squares must match bit for bit."""
    arm = point.distance_to(poly.center)
    e = -math.frexp(max(poly.circumradius, arm))[1]
    closed = two_radius_power_sum(
        math.ldexp(poly.circumradius, e), math.ldexp(arm, e), poly.n, m
    )
    direct = math.fsum(
        (math.ldexp(v.x - point.x, e) ** 2 + math.ldexp(v.y - point.y, e) ** 2) ** m
        for v in vertices(poly)
    )
    return abs(direct - closed) / (closed or 1.0)


def _scaled(poly, point, k):
    def move(p):
        return PlanePoint(math.ldexp(p.x, k), math.ldexp(p.y, k))

    return (
        RegularPolygonSpec(poly.n, move(poly.center), math.ldexp(poly.circumradius, k), poly.phase),
        move(point),
    )


def _identity_cases(n):
    """(polygon, point) pairs of one size: both random polygons, scaled by
    2^k, a point polygon, and the point at the polygon's center."""
    inst = random_instance(n, 17)
    for k in (0, 600, -600):
        for poly in (inst.polygon1, inst.polygon2):
            yield _scaled(poly, inst.point, k)
    point_polygon = random_instance(n, 17, zero_smaller_radius=True).polygon2
    yield point_polygon, inst.point
    yield inst.polygon1, inst.polygon1.center


@pytest.mark.parametrize("n", [3, 12, 64, 256])
def test_identity_matches_the_vertex_reference_bit_for_bit(n):
    cases = list(_identity_cases(n))
    orders = sorted({1, 2, n // 2, n - 1})
    # Repeating one (polygon, point) over every order reads the kept squares ...
    for poly, point in cases:
        for m in orders:
            assert power_identity_residual(poly, point, m) == (
                _vertex_power_identity_residual(poly, point, m)
            ), (poly, point, m)
    # ... and alternating polygons recomputes them on every call.
    for m in orders:
        for poly, point in cases:
            assert power_identity_residual(poly, point, m) == (
                _vertex_power_identity_residual(poly, point, m)
            ), (poly, point, m)


def test_identity_is_the_same_for_keys_equal_up_to_signed_zeros():
    # -0.0 == 0.0, so these keys share one memo entry; every coordinate is
    # squared, so the residual does not depend on which sign filled it.
    signed = [
        (RegularPolygonSpec(5, PlanePoint(zx, zy), 2.0, zp), PlanePoint(1.0, zy))
        for zx in (0.0, -0.0)
        for zy in (0.0, -0.0)
        for zp in (0.0, -0.0)
    ]
    signed.append((RegularPolygonSpec(5, PlanePoint(1.0, 2.0), -0.0, 0.3), PlanePoint(0.0, -0.0)))
    signed.append((RegularPolygonSpec(5, PlanePoint(1.0, 2.0), 0.0, 0.3), PlanePoint(-0.0, 0.0)))
    for first, second in zip(signed, signed[1:]):
        for m in (1, 4):
            power_identity_residual(*first, m)
            assert power_identity_residual(*second, m) == (
                _vertex_power_identity_residual(*second, m)
            )


@pytest.mark.parametrize("n", [257, 1000])
def test_identity_rejects_more_vertices_than_the_moment_core(n):
    poly = RegularPolygonSpec(n, PlanePoint(0.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValueError, match=f"vertex count {n} exceeds 256"):
        power_identity_residual(poly, PlanePoint(1.5, 0.0), 1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=3, max_value=12),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.data(),
)
def test_identity_holds_for_arbitrary_configurations(n, radius, phase, px, py, data):
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    poly = RegularPolygonSpec(n, PlanePoint(0, 0), radius, phase)
    assert power_identity_residual(poly, PlanePoint(px, py), m) <= 1e-10


# ------------------------------------------------------------ angle sweep


def test_sweep_locates_worked_triangle_phase():
    result = angle_sweep(2.0, 1.0, 3, TRIANGLE_FAMILY)
    assert result.best_residual <= 1e-8
    period = 2 * math.pi / 3
    # the valid phases are +/- pi/6 modulo the period
    candidates = (math.pi / 6, period - math.pi / 6)
    assert min(abs(result.best_phase - c) for c in candidates) <= 1e-6


def test_sweep_recovers_self_generated_phase():
    r, l, n = 1.0, 0.5, 4
    true_phase = 0.61
    target = tuple(
        sorted(
            math.sqrt(r * r + l * l - 2 * r * l * math.cos(true_phase + 2 * math.pi * k / n))
            for k in range(n)
        )
    )
    result = angle_sweep(r, l, n, target)
    period = 2 * math.pi / n
    mirrored = period - true_phase % period
    best = min(
        abs(result.best_phase - true_phase % period), abs(result.best_phase - mirrored)
    )
    assert best <= 1e-6
    assert result.best_residual <= 1e-9


def test_sweep_unreachable_target_stays_bounded_away():
    # No phase can realize an arithmetic-progression family; arms come from
    # the clamped first-two-average recovery (discriminant forced to zero).
    target = (1.0, 2.0, 3.0, 4.0)
    s2 = sum(r * r for r in target) / 4.0
    arm = math.sqrt(s2 / 2.0)
    result = angle_sweep(arm, arm, 4, target)
    assert result.best_residual > 0.01


def test_sweep_validates_grid():
    # The phase comes in closed form: there is no grid to size or refine.
    with pytest.raises(TypeError):
        angle_sweep(1.0, 0.5, 3, TRIANGLE_FAMILY, grid_size=3600)
    with pytest.raises(TypeError):
        angle_sweep(1.0, 0.5, 3, TRIANGLE_FAMILY, refine_iters=40)


def test_sweep_rejects_target_of_wrong_length():
    with pytest.raises(ValueError, match="3"):
        angle_sweep(2.0, 1.0, 3, (1.0, 1.0))
    with pytest.raises(ValueError):
        angle_sweep(2.0, 1.0, 3, (1.0, 1.0, 2.0, 3.0))


def _full_grid_sweep(r, l, n, target, grid_size=3600, refine_iters=40):
    """The sweep as first written: every grid cell, one residual expression."""
    period = 2.0 * math.pi / n

    def residual(t):
        generated = sorted(
            math.sqrt(max(r * r + l * l - 2.0 * r * l * math.cos(t + period * k), 0.0))
            for k in range(n)
        )
        return max(abs(a - b) for a, b in zip(generated, target))

    step = period / grid_size
    best_i, best = 0, math.inf
    for i in range(grid_size):
        res = residual(i * step)
        if res < best:
            best, best_i = res, i
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = (best_i - 1) * step, (best_i + 1) * step
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1, f2 = residual(x1), residual(x2)
    for _ in range(refine_iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = residual(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = residual(x2)
    mid = (lo + hi) / 2.0
    phase = math.fmod(mid, period)
    if phase < 0.0:
        phase += period
    return phase, min(residual(mid), best)


def _sweep_cases():
    for n in (3, 4, 5, 8, 12, 32):
        for seed in (1, 2):
            inst = random_instance(n, seed)
            r1, r2 = inst.polygon1.circumradius, inst.polygon2.circumradius
            yield n, r1, r2, inst.family.radii
            yield n, r2, r1, inst.family.radii
    # No phase reaches an arithmetic progression.
    yield 4, 2.0, 0.8, (1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("n, r, l, target", list(_sweep_cases()))
def test_half_grid_sweep_matches_full_grid_reference(n, r, l, target):
    period = 2.0 * math.pi / n
    step = period / 3600
    ref_phase, ref_residual = _full_grid_sweep(r, l, n, target)
    result = angle_sweep(r, l, n, target)
    if ref_residual > 0.01:
        # No phase reaches the target. The grid found the smallest residual;
        # the closed-form phase only bounds it from above.
        assert ref_residual <= result.best_residual
        return
    assert abs(result.best_residual - ref_residual) <= 1e-12 * max(1.0, max(target))
    # The reported phase is the reference or its mirror, modulo the period.
    gaps = (
        abs(math.remainder(result.best_phase - ref_phase, period)),
        abs(math.remainder(result.best_phase - (period - ref_phase), period)),
    )
    assert min(gaps) <= 1e-9
    # ... and always the first-half representative: in [-step, period/2 + step]
    # modulo the period.
    phase = result.best_phase
    assert 0.0 <= phase < period
    assert phase <= period / 2.0 + step or phase >= period - step


def _generated(r, l, n, t):
    period = 2.0 * math.pi / n
    return tuple(
        sorted(
            math.sqrt(max(r * r + l * l - 2.0 * r * l * math.cos(t + period * k), 0.0))
            for k in range(n)
        )
    )


def _assert_no_worse_than_grid(r, l, n, target):
    """The closed-form sweep's residual is at most the full grid's, up to
    1e-13 relative, and its phase is the representative in [0, pi/n]."""
    result = angle_sweep(r, l, n, target)
    _, ref_residual = _full_grid_sweep(r, l, n, target)
    assert result.best_residual <= ref_residual + 1e-13 * max(1.0, max(target))
    assert 0.0 <= result.best_phase <= math.pi / n
    return result


@pytest.mark.parametrize("swap", [False, True], ids=["larger-first", "smaller-first"])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 32, 64, 256])
def test_closed_form_phase_is_no_worse_than_the_grid(n, swap):
    inst = random_instance(n, 3)
    arms = (inst.polygon1.circumradius, inst.polygon2.circumradius)
    r, l = reversed(arms) if swap else arms
    _assert_no_worse_than_grid(r, l, n, inst.family.radii)


MIRROR_ARMS = {"equal": (1.0, 1.0), "unequal": (2.0, 0.7), "micro-apart": (1.0, 1.0 - 1e-6)}


@pytest.mark.parametrize("arms", MIRROR_ARMS.values(), ids=MIRROR_ARMS.keys())
@pytest.mark.parametrize("n", [3, 4, 12, 64])
def test_closed_form_phase_at_the_mirror_boundary(n, arms):
    # cos(nt) = +/-1 at t = 0 and t = pi/n, where acos loses half the digits.
    r, l = arms
    for t in (0.0, 1e-9, -1e-9, math.pi / n, math.pi / n - 1e-9, math.pi / n + 1e-9):
        result = _assert_no_worse_than_grid(r, l, n, _generated(r, l, n, t))
        assert result.best_residual <= 1e-14 * (r + l), t
    # Golden section never probes its bracket's ends; on the mirror boundary
    # they are the generating phase, computed here with the same arithmetic.
    for t in (0.0, math.pi / n):
        assert angle_sweep(r, l, n, _generated(r, l, n, t)).best_residual == 0.0


@pytest.mark.parametrize("relative", [1e-9, 1e-8, 1e-7, 1e-6])
@pytest.mark.parametrize("n", [3, 4, 8, 32])
def test_closed_form_phase_on_noisy_targets(n, relative):
    inst = random_instance(n, 11)
    rng = SplitMix64(n)
    target = tuple(
        sorted(d * (1.0 + relative * rng.uniform(-1.0, 1.0)) for d in inst.family.radii)
    )
    r, l = inst.polygon1.circumradius, inst.polygon2.circumradius
    _assert_no_worse_than_grid(r, l, n, target)


def test_zero_arm_returns_phase_zero():
    # b = 2rl = 0: every phase generates the same distances.
    target = (1.0, 1.5, 2.0, 2.5, 3.0)
    for r, l in ((1.5, 0.0), (0.0, 1.5)):
        result = angle_sweep(r, l, 5, target)
        assert result.best_phase == 0.0
        assert result.best_residual == 1.5
    assert angle_sweep(0.0, 0.0, 3, (0.0, 0.0, 0.0)) == (0.0, 0.0)


def _unreachable_cases():
    yield 4, 2.0, 0.8, (1.0, 2.0, 3.0, 4.0)
    arm = math.sqrt(sum(r * r for r in (1.0, 2.0, 3.0, 4.0)) / 8.0)
    yield 4, arm, arm, (1.0, 2.0, 3.0, 4.0)
    for n in (3, 8, 32):
        inst = random_instance(n, 4)
        radii = list(inst.family.radii)
        radii[n // 2] *= 1.2
        yield n, inst.polygon1.circumradius, inst.polygon2.circumradius, tuple(sorted(radii))


@pytest.mark.parametrize("n, r, l, target", list(_unreachable_cases()))
def test_unreachable_target_stays_above_the_grid(n, r, l, target):
    result = angle_sweep(r, l, n, target)
    _, ref_residual = _full_grid_sweep(r, l, n, target)
    assert result.best_residual > 0.01
    assert result.best_residual >= ref_residual


def test_sweep_is_symmetric_in_the_arms():
    for n in (3, 8, 32):
        inst = random_instance(n, 5)
        r1, r2 = inst.polygon1.circumradius, inst.polygon2.circumradius
        assert angle_sweep(r1, r2, n, inst.family.radii) == angle_sweep(
            r2, r1, n, inst.family.radii
        )


def test_sweep_agrees_with_reconstruction_phase_search():
    fam = CircleFamily(PlanePoint(0, 0), TRIANGLE_FAMILY)
    rec = reconstruct_polygons(fam)
    sweep = angle_sweep(
        rec.circumradii.larger, rec.circumradii.smaller, fam.n, fam.radii
    )
    assert abs(sweep.best_residual - rec.residuals[0]) <= 1e-6


# -------------------------------------------------------- random instances


def test_random_instance_reproducible():
    a = random_instance(5, 1234)
    b = random_instance(5, 1234)
    assert a == b
    c = random_instance(5, 1235)
    assert c != a


@pytest.mark.parametrize("zero", [False, True], ids=["two-polygons", "point-polygon"])
@pytest.mark.parametrize("n", [3, 8, 64, 256])
def test_random_instance_family_is_the_eager_construction(n, zero):
    for seed in range(5):
        inst = random_instance(n, seed, zero_smaller_radius=zero)
        assert inst.family == CircleFamily(
            center=inst.point, radii=distance_multiset(inst.polygon1, inst.point)
        )
        assert inst._fields == ("polygon1", "polygon2", "point")


def test_random_instance_satisfies_center_distance_swap():
    for seed in range(25):
        inst = random_instance(4, seed)
        r1 = inst.polygon1.circumradius
        r2 = inst.polygon2.circumradius
        assert inst.point.distance_to(inst.polygon1.center) == pytest.approx(
            r2, rel=1e-12, abs=1e-12
        )
        assert inst.point.distance_to(inst.polygon2.center) == pytest.approx(
            r1, rel=1e-12, abs=1e-12
        )


def test_random_instance_polygons_share_the_multiset():
    for n in (3, 4, 6, 9):
        for seed in range(10):
            inst = random_instance(n, seed)
            first = distance_multiset(inst.polygon1, inst.point)
            second = distance_multiset(inst.polygon2, inst.point)
            for a, b in zip(first, second):
                assert a == pytest.approx(b, rel=1e-10, abs=1e-10)
            assert first == pytest.approx(inst.family.radii)


def test_random_instance_families_are_feasible():
    for n in (3, 4, 5, 8):
        for seed in range(10):
            inst = random_instance(n, seed)
            av = cyclic_averages(inst.family)
            assert condition_one(av)[0]
            ok2, residuals = condition_two(av)
            assert ok2, residuals
            pair = recover_circumradii(av)
            hi = max(inst.polygon1.circumradius, inst.polygon2.circumradius)
            lo = min(inst.polygon1.circumradius, inst.polygon2.circumradius)
            assert pair.larger == pytest.approx(hi, rel=1e-8)
            assert pair.smaller == pytest.approx(lo, rel=1e-8, abs=1e-8)


def test_random_instance_square_families_balance_sums():
    for seed in range(20):
        inst = random_instance(4, seed)
        d = inst.family.radii
        outer = d[0] ** 2 + d[3] ** 2
        inner = d[1] ** 2 + d[2] ** 2
        assert outer == pytest.approx(inner, abs=1e-10 * max(1.0, outer))


def test_random_instance_zero_smaller_radius():
    inst = random_instance(6, 77, zero_smaller_radius=True)
    r1 = inst.polygon1.circumradius
    assert inst.polygon2.circumradius == 0.0
    for d in inst.family.radii:
        assert d == pytest.approx(r1, rel=1e-12)


def test_random_instance_rejects_tiny_order():
    with pytest.raises(ValueError):
        random_instance(2, 1)


def test_random_instance_radii_match_the_vertex_construction_bit_for_bit():
    for n in range(3, 13):
        for seed in range(50):
            inst = random_instance(n, seed)
            built = tuple(sorted(inst.point.distance_to(v) for v in vertices(inst.polygon1)))
            assert inst.family.radii == built
