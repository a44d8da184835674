"""The decision depends only on the shape of the configuration.

Scaling by a power of two is exact in binary floating point, so the whole
circles-to-polygons and polygons-to-circles results must scale with it bit
for bit. Any other scale, a translation or a reordering of the input must
leave the verdict alone, and ``check`` must say feasible exactly when
``reconstruct`` succeeds.
"""

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from concentric_gons import (
    DEFAULT_TOLERANCE,
    CircleFamily,
    InfeasibleFamily,
    PairingResult,
    PlanePoint,
    RadiiPair,
    RegularPolygonSpec,
    Reconstruction,
    assess_feasibility,
    candidate_centers,
    cyclic_averages,
    multiset_close,
    pair_polygons,
    random_instance,
    reconstruct_polygons,
)
from concentric_gons.cli import main

SIZES = (3, 4, 8, 16, 32, 64, 256)
KINDS = ("feasible", "perturbed", "point")


def sample_family(n: int, kind: str, seed: int = 1) -> CircleFamily:
    inst = random_instance(n, seed, zero_smaller_radius=kind == "point")
    radii = inst.family.radii
    if kind == "perturbed":
        radii = radii[:-1] + (radii[-1] * 1.01,)
    return CircleFamily(inst.family.center, radii)


def outcome(family: CircleFamily):
    """The reconstruction, or the report of an infeasible verdict."""
    try:
        return reconstruct_polygons(family)
    except InfeasibleFamily:
        return assess_feasibility(cyclic_averages(family))


def ldexp_point(p: PlanePoint, k: int) -> PlanePoint:
    return PlanePoint(math.ldexp(p.x, k), math.ldexp(p.y, k))


def ldexp_family(family: CircleFamily, k: int) -> CircleFamily:
    return CircleFamily(
        ldexp_point(family.center, k), tuple(math.ldexp(r, k) for r in family.radii)
    )


def ldexp_polygon(poly: RegularPolygonSpec, k: int) -> RegularPolygonSpec:
    return RegularPolygonSpec(
        poly.n, ldexp_point(poly.center, k), math.ldexp(poly.circumradius, k), poly.phase
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("k", [-900, -500, -3, 7, 500, 900])
def test_power_of_two_scaling_scales_every_length_bit_for_bit(k, n, kind):
    family = sample_family(n, kind)
    base = outcome(family)
    if kind == "perturbed" and n > 3:
        assert not isinstance(base, Reconstruction)
    else:
        assert isinstance(base, Reconstruction)
        assert base.point_polygon == (kind == "point")
    scaled_family = ldexp_family(family, k)
    scaled = outcome(scaled_family)
    if not isinstance(base, Reconstruction):
        assert scaled == base
        return
    report = assess_feasibility(cyclic_averages(family))
    assert assess_feasibility(cyclic_averages(scaled_family)) == report
    assert scaled.point_polygon == base.point_polygon
    pair = base.circumradii
    assert scaled.circumradii == RadiiPair(math.ldexp(pair.larger, k), math.ldexp(pair.smaller, k))
    assert scaled.polygon1 == ldexp_polygon(base.polygon1, k)
    assert scaled.polygon2 == ldexp_polygon(base.polygon2, k)
    assert scaled.residuals == tuple(math.ldexp(r, k) for r in base.residuals)


def verdict(family: CircleFamily) -> bool:
    """True for a reconstruction, False for an infeasible verdict; any other
    exception fails the test."""
    return isinstance(outcome(family), Reconstruction)


VERDICT_CASES = [(n, kind) for n in (3, 4, 5, 8, 16, 32, 64) for kind in KINDS]
SCALES = (1e-6, 1e-3, 0.01, 0.37, 1.0, 10.0, 1e3, 1e6)


@pytest.mark.parametrize("n, kind", VERDICT_CASES)
def test_verdict_is_invariant_under_scale_and_translation(n, kind):
    family = sample_family(n, kind, seed=2)
    expected = verdict(family)
    for scale in SCALES:
        for shift in ((0.0, 0.0), (3.5, -1e3)):
            moved = CircleFamily(
                PlanePoint(family.center.x * scale + shift[0], family.center.y * scale + shift[1]),
                tuple(r * scale for r in family.radii),
            )
            assert verdict(moved) == expected, (scale, shift)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


CLI_FAMILIES = {
    "small5": (0.01, 0.013, 0.02, 0.022, 0.026),
    "unit5": (1.0, 1.3, 2.0, 2.2, 2.6),
    "tiny3": (1e-100, 1e-100, 2e-100),
    "tinier3": (1e-200, 1e-200, 2e-200),
    "huge3": (1e308, 1e308, 1.5e308),
    **{
        f"{kind}{n}": sample_family(n, kind, seed=3).radii
        for n in (4, 8, 32)
        for kind in KINDS
    },
    # Just past a vanishing discriminant: condition I's lower edge.
    **{
        f"edge{delta:g}{tag}": tuple(math.ldexp(r, k) for r in (1.0, 1.0, 2.0 + delta))
        for delta in (1e-9, 1.5e-9, 2e-9, 3e-9)
        for tag, k in (("", 0), ("x2^600", 600), ("x2^-600", -600))
    },
}


@pytest.mark.parametrize("radii", CLI_FAMILIES.values(), ids=CLI_FAMILIES.keys())
def test_check_is_feasible_iff_reconstruct_succeeds_and_order_is_irrelevant(radii):
    text = ",".join(map(repr, radii))
    check = run_cli("check", "--radii", text)[0]
    assert check in (0, 2)
    assert run_cli("reconstruct", "--radii", text)[0] == check
    shuffled = list(radii)
    random.Random(len(radii)).shuffle(shuffled)
    assert run_cli("check", "--radii", ",".join(map(repr, shuffled)))[0] == check


@pytest.mark.parametrize("base", [(1.0, 1.3, 2.0, 2.2, 2.6), (1.0, 1.0, 2.0)])
@pytest.mark.parametrize("scale", [1e-6, 1e-2, 1e2, 1e6])
def test_worked_families_are_decided_by_shape(base, scale):
    expected = run_cli("check", "--radii", ",".join(map(repr, base)))[0]
    scaled = ",".join(repr(r * scale) for r in base)
    assert run_cli("check", "--radii", scaled)[0] == expected
    assert run_cli("reconstruct", "--radii", scaled)[0] == expected


NEAR_EQUAL_GAPS = (1e-2, 1e-3, 1e-4, 3e-5, 1e-5, 1e-6, 1e-7, 1e-8, 1e-10, 1e-12, 0.0)


def near_equal_radii(n: int, gap: float, k: int) -> tuple[float, ...]:
    """A regular n-gon of circumradius 2^k seen from (1 - gap) 2^k off its
    center: the two circumradii of the family differ by ``gap`` relative."""
    arm = 1.0 - gap
    period = 2.0 * math.pi / n
    radii = sorted(
        math.sqrt(1.0 + arm * arm - 2.0 * arm * math.cos(0.3 + period * j)) for j in range(n)
    )
    return tuple(math.ldexp(r, k) for r in radii)


@pytest.mark.parametrize("k", [-600, 0, 600])
@pytest.mark.parametrize("n", [3, 4, 16, 64, 256])
def test_near_equal_circumradii_check_iff_reconstruct(n, k):
    for gap in NEAR_EQUAL_GAPS:
        text = ",".join(map(repr, near_equal_radii(n, gap, k)))
        check = run_cli("check", "--radii", text)[0]
        assert check == 0, gap
        assert run_cli("reconstruct", "--radii", text)[0] == check, gap


def test_circumradii_eight_ppm_apart_reconstruct():
    # Circumradii 0.3356639 and 0.3356612: the n = 16 family of the circles
    # benchmark at seed 202, operation 345.
    radii = (
        0.00031828091826347946, 0.06517232831881586, 0.06579665299832516,
        0.1281583985500307, 0.12874649953875766, 0.18621941340211506,
        0.18674869030878818, 0.2371241206316053, 0.23757423364151,
        0.27891628088660436, 0.2792699324091927, 0.30998984488556963,
        0.3102334442911569, 0.3291506729901685, 0.3292748588902094,
        0.3356624253218104,
    )
    rec = reconstruct_polygons(CircleFamily(PlanePoint(0.0, 0.0), radii))
    assert max(rec.residuals) <= 1e-12
    assert rec.circumradii.larger > rec.circumradii.smaller


# ------------------------------------------------------------------ pairing

PAIR_SIZES = (3, 4, 5, 8, 12)
PAIR_SEEDS = (1, 2, 3)


def ldexp_result(result: PairingResult, k: int) -> PairingResult:
    return PairingResult(
        center=ldexp_point(result.center, k),
        aligned_second=ldexp_polygon(result.aligned_second, k),
        circles=ldexp_family(result.circles, k),
    )


@pytest.mark.parametrize("point", [False, True], ids=["two_polygons", "point_polygon"])
@pytest.mark.parametrize("n", PAIR_SIZES)
@pytest.mark.parametrize("k", [-500, -40, -3, 3, 40, 500])
def test_pairing_scales_every_length_bit_for_bit(k, n, point):
    for seed in PAIR_SEEDS:
        inst = random_instance(n, seed, zero_smaller_radius=point)
        base = pair_polygons(inst.polygon1, inst.polygon2)
        assert base, seed
        scaled = pair_polygons(ldexp_polygon(inst.polygon1, k), ldexp_polygon(inst.polygon2, k))
        assert scaled == [ldexp_result(result, k) for result in base], seed


def moved_polygon(
    poly: RegularPolygonSpec, scale: float, shift=(0.0, 0.0)
) -> RegularPolygonSpec:
    center = PlanePoint(poly.center.x * scale + shift[0], poly.center.y * scale + shift[1])
    return RegularPolygonSpec(poly.n, center, poly.circumradius * scale, poly.phase)


PAIR_SCALES = (1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12)


@pytest.mark.parametrize("scale", PAIR_SCALES)
def test_pairing_count_is_the_same_at_every_scale(scale):
    inst = random_instance(5, 2)
    p1, p2 = (moved_polygon(p, scale) for p in (inst.polygon1, inst.polygon2))
    assert len(pair_polygons(p1, p2)) == 4


@pytest.mark.parametrize("scale", PAIR_SCALES)
@pytest.mark.parametrize("n", PAIR_SIZES)
def test_pairing_survives_translation(n, scale):
    inst = random_instance(n, 2)
    base = pair_polygons(*(moved_polygon(p, scale) for p in (inst.polygon1, inst.polygon2)))
    gate = DEFAULT_TOLERANCE.multiset_gate()
    for shift in ((3.5, -1e3), (-0.25, 0.5)):
        shift = (shift[0] * scale, shift[1] * scale)
        moved = pair_polygons(
            *(moved_polygon(p, scale, shift) for p in (inst.polygon1, inst.polygon2))
        )
        assert len(moved) == len(base), shift
        for a, b in zip(base, moved):
            assert multiset_close(a.circles.radii, b.circles.radii, gate), shift


def test_pairing_count_survives_a_shift_of_1e9_largest_lengths():
    # Pairing runs in the first center's frame, so a shift reaches it only
    # through the rounding of the shifted centers.
    for n in PAIR_SIZES:
        for seed in PAIR_SEEDS:
            inst = random_instance(n, seed)
            p1, p2 = inst.polygon1, inst.polygon2
            largest = max(p1.circumradius, p2.circumradius, p1.center.distance_to(p2.center))
            shift = (1e9 * largest, 0.0)
            moved = pair_polygons(*(moved_polygon(p, 1.0, shift) for p in (p1, p2)))
            assert len(moved) == len(pair_polygons(p1, p2)), (n, seed)


def largest_length(p1: RegularPolygonSpec, p2: RegularPolygonSpec) -> float:
    return max(p1.circumradius, p2.circumradius, p1.center.distance_to(p2.center))


def snapped(p1: RegularPolygonSpec, p2: RegularPolygonSpec, shift: float):
    """The pair with its centers moved to where adding ``shift`` to x is
    exact. A point polygon's partner takes the moved center distance as its
    circumradius, so that the pair still meets."""
    c1, c2 = (PlanePoint((p.center.x + shift) - shift, p.center.y) for p in (p1, p2))
    r1 = c1.distance_to(c2) if p2.circumradius == 0.0 else p1.circumradius
    return (
        RegularPolygonSpec(p1.n, c1, r1, p1.phase),
        RegularPolygonSpec(p2.n, c2, p2.circumradius, p2.phase),
    )


def motion(name: str, largest: float):
    """The motion ``name`` as (point map, length factor, phase map,
    positional slack of the mapped centers)."""
    same_phase = lambda t: t  # noqa: E731
    if name.startswith("shift"):
        shift = float(name[len("shift"):]) * largest
        return (lambda x, y: (x + shift, y)), 1.0, same_phase, 4 * math.ulp(shift)
    if name == "rotation":
        c, s = math.cos(0.7), math.sin(0.7)
        rotated = lambda x, y: (c * x - s * y, s * x + c * y)  # noqa: E731
        return rotated, 1.0, (lambda t: t + 0.7), 0.0
    if name == "reflection":
        return (lambda x, y: (x, -y)), 1.0, (lambda t: -t), 0.0
    return (lambda x, y: (0.37 * x, 0.37 * y)), 0.37, same_phase, 0.0


def same_polygon_phase(a: float, b: float, n: int) -> bool:
    return abs(math.remainder(a - b, 2 * math.pi / n)) <= 1e-9


def moved_by(poly: RegularPolygonSpec, point_map, factor, phase_map) -> RegularPolygonSpec:
    center = PlanePoint(*point_map(poly.center.x, poly.center.y))
    return RegularPolygonSpec(poly.n, center, poly.circumradius * factor, phase_map(poly.phase))


@pytest.mark.parametrize("point", [False, True], ids=["two_polygons", "point_polygon"])
@pytest.mark.parametrize("n", PAIR_SIZES)
@pytest.mark.parametrize(
    "name", ["shift1e7", "shift1e9", "shift1e12", "rotation", "reflection", "scale"]
)
def test_pairing_follows_a_rigid_motion_or_a_scaling(name, n, point):
    # Each configuration of the moved pair is the motion of one of the
    # pair's own. A shift is made exact by moving the pair first to where
    # its centers' x plus the shift are floats.
    for seed in PAIR_SEEDS:
        inst = random_instance(n, seed, zero_smaller_radius=point)
        p1, p2 = inst.polygon1, inst.polygon2
        largest = largest_length(p1, p2)
        point_map, factor, phase_map, slack = motion(name, largest)
        if name.startswith("shift"):
            p1, p2 = snapped(p1, p2, point_map(0.0, 0.0)[0])
        base = pair_polygons(p1, p2)
        moved = pair_polygons(*(moved_by(p, point_map, factor, phase_map) for p in (p1, p2)))
        assert len(moved) == len(base) >= 1, seed
        gap = 1e-12 * largest * factor
        for res in base:
            cx, cy = point_map(res.center.x, res.center.y)
            phase = phase_map(res.aligned_second.phase)
            (hit,) = [
                other
                for other in moved
                if math.hypot(other.center.x - cx, other.center.y - cy) <= gap + slack
                and same_polygon_phase(other.aligned_second.phase, phase, n)
            ]
            radii = zip(hit.circles.radii, res.circles.radii)
            assert max(abs(a - factor * b) for a, b in radii) <= gap


@pytest.mark.parametrize("point", [False, True], ids=["two_polygons", "point_polygon"])
@pytest.mark.parametrize("n", PAIR_SIZES)
def test_swapping_the_polygons_keeps_the_count_and_the_circles(n, point):
    # With the polygons swapped the first polygon's multiset gives the
    # circles, so a configuration comes back with its aligned polygon held
    # and the other one rotated: to the original first polygon, up to a
    # rotation by 2 pi/n. The matched vertex then names a vertex of the
    # other polygon and has no counterpart.
    for seed in PAIR_SEEDS:
        inst = random_instance(n, seed, zero_smaller_radius=point)
        p1, p2 = inst.polygon1, inst.polygon2
        gap = 1e-12 * largest_length(p1, p2)
        base = pair_polygons(p1, p2)
        assert len(pair_polygons(p2, p1)) == len(base) >= 1, seed
        for res in base:
            swapped = pair_polygons(res.aligned_second, p1)
            assert len(swapped) == len(base), seed
            (hit,) = [
                other
                for other in swapped
                if other.center.distance_to(res.center) <= gap
                and same_polygon_phase(other.aligned_second.phase, p1.phase, n)
            ]
            assert max(abs(a - b) for a, b in zip(hit.circles.radii, res.circles.radii)) <= gap


def test_a_tiny_pair_far_from_the_origin_keeps_its_four_configurations():
    # A pair of largest length about 1e-11 shifted by 1e5 in x.
    inst = random_instance(5, 2)
    p1, p2 = (moved_polygon(p, 1e-12, (1e5, 0.0)) for p in (inst.polygon1, inst.polygon2))
    assert len(pair_polygons(p1, p2)) == 4


def test_pair_far_from_the_origin_stays_finite_in_units_of_its_largest_length():
    # Centers near 1e308 and circumradii near 1e-3: divided by the largest
    # length's 2^e the coordinates would overflow, so the units give way.
    inst = random_instance(5, 2)
    p1, p2 = (moved_polygon(p, 1e-3, (1e308, 0.0)) for p in (inst.polygon1, inst.polygon2))
    points = candidate_centers(p1, p2)
    assert [point.x for point in points] == [1e308, 1e308]
    assert points[0].y == pytest.approx(0.0034955152539872967, rel=1e-12)


def write_pair_file(path, p1: RegularPolygonSpec, p2: RegularPolygonSpec) -> str:
    payload = {
        "format": "concentric-gons/1",
        "kind": "polygon_pair",
        "polygons": [
            {"n": p.n, "center": [p.center.x, p.center.y],
             "circumradius": p.circumradius, "phase": p.phase}
            for p in (p1, p2)
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_pairs_and_verifies_a_tiny_pair_file(tmp_path):
    inst = random_instance(5, 2)
    path = write_pair_file(
        tmp_path / "tiny.json", *(moved_polygon(p, 1e-12) for p in (inst.polygon1, inst.polygon2))
    )
    code, out, _ = run_cli("pair", "--input", path, "--json")
    assert code == 0
    assert json.loads(out)["count"] == 4
    code, out, _ = run_cli("verify", "--input", path, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pairing_count"] == 4
    assert len(result["round_trips"]) == 4
    assert all(trip["circumradii"] is not None for trip in result["round_trips"])
    assert result["pass"] is True


@pytest.mark.parametrize("n, seed", [(5, 2), (8, 3), (3, 7)])
def test_cli_verifies_a_pair_file_shifted_by_1e7_largest_lengths(tmp_path, n, seed):
    # The identity residual depends only on lengths seen from the point, so
    # an exact shift must leave every verify row within its gate. Past about
    # 1e8 largest lengths the rounding of the returned center dominates.
    inst = random_instance(n, seed)
    shift = 1e7 * largest_length(inst.polygon1, inst.polygon2)
    p1, p2 = snapped(inst.polygon1, inst.polygon2, shift)
    path = write_pair_file(
        tmp_path / "shifted.json", *(moved_polygon(p, 1.0, (shift, 0.0)) for p in (p1, p2))
    )
    code, out, _ = run_cli("verify", "--input", path, "--json")
    assert code == 0
    assert json.loads(out)["result"]["pass"] is True


@pytest.mark.parametrize("k", [-900, -600, 600, 900])
def test_lengths_out_of_range_are_usage_errors(tmp_path, k):
    inst = random_instance(5, 2)
    p1, p2 = (ldexp_polygon(p, k) for p in (inst.polygon1, inst.polygon2))
    with pytest.raises(ValueError, match=r"2\^"):
        pair_polygons(p1, p2)
    path = write_pair_file(tmp_path / "scaled.json", p1, p2)
    for argv in (
        ("pair", "--input", path),
        ("verify", "--input", path, "--json"),
        ("render", "--input", path, "--svg", str(tmp_path / "out.svg")),
    ):
        code, _, err = run_cli(*argv)
        assert code == 1, argv
        assert "largest length" in err and "2^" in err, argv


@pytest.mark.parametrize("k, accepted", [(-513, False), (-512, True), (508, True), (509, False)])
def test_length_range_edges(k, accepted):
    # The largest length is 2 (exponent 2): 2^(k+1) must have an exponent
    # k + 2 in [-510, 510].
    p1 = RegularPolygonSpec(3, PlanePoint(0.0, 0.0), math.ldexp(2.0, k), 0.0)
    p2 = RegularPolygonSpec(3, PlanePoint(math.ldexp(2.0, k), 0.0), math.ldexp(1.0, k), 0.5)
    if accepted:
        assert len(pair_polygons(p1, p2)) == 4
    else:
        with pytest.raises(ValueError, match="largest length"):
            pair_polygons(p1, p2)


@pytest.mark.parametrize("k", [0, -300, -500, -511])
def test_small_ratio_pair_keeps_its_count_at_the_lower_edge(k):
    # Circumradii 1 and 1e-8: at 2^-511 (largest-length exponent -510) the
    # squares of the short lengths fall below the normal range in the
    # caller's units, where the height of the auxiliary intersection would
    # collapse to zero; in units of the largest length they do not.
    p1 = RegularPolygonSpec(3, PlanePoint(0.0, 0.0), math.ldexp(1.0, k), 0.0)
    p2 = RegularPolygonSpec(
        3, PlanePoint(math.ldexp(1.0 - 0.4e-8, k), 0.0), math.ldexp(1e-8, k), 0.5
    )
    assert len(pair_polygons(p1, p2)) == 4


def assert_pairing_scales_bit_for_bit_to_exponent(exponent, n, point):
    """Random pairs scaled so that their largest length has the binary
    exponent ``exponent`` pair exactly as the unscaled ones, scaled."""
    for seed in range(1, 11):
        inst = random_instance(n, seed, zero_smaller_radius=point)
        p1, p2 = inst.polygon1, inst.polygon2
        largest = max(p1.circumradius, p2.circumradius, p1.center.distance_to(p2.center))
        k = exponent - math.frexp(largest)[1]
        base = pair_polygons(p1, p2)
        scaled = pair_polygons(ldexp_polygon(p1, k), ldexp_polygon(p2, k))
        assert scaled == [ldexp_result(result, k) for result in base], seed


@pytest.mark.parametrize("point", [False, True], ids=["two_polygons", "point_polygon"])
@pytest.mark.parametrize("n", PAIR_SIZES)
def test_pairing_scales_bit_for_bit_down_to_largest_exponent_minus_508(n, point):
    # Short lengths have subnormal squares here in the caller's units.
    assert_pairing_scales_bit_for_bit_to_exponent(-508, n, point)


@pytest.mark.parametrize("point", [False, True], ids=["two_polygons", "point_polygon"])
@pytest.mark.parametrize("n", PAIR_SIZES)
@pytest.mark.parametrize("exponent", [-509, -510])
def test_pairing_scales_bit_for_bit_down_to_largest_exponent_minus_510(exponent, n, point):
    # The bottom of the accepted range: pairing in units of the largest
    # length keeps every bit of the result down to 2^-511.
    assert_pairing_scales_bit_for_bit_to_exponent(exponent, n, point)


@pytest.mark.parametrize("point", [False, True], ids=["two_polygons", "point_polygon"])
@pytest.mark.parametrize("n", PAIR_SIZES)
def test_pairing_scales_bit_for_bit_up_to_largest_exponent_510(n, point):
    # The top of the accepted range: the shared radii return to the caller's
    # units by 2^510 without a bit lost.
    assert_pairing_scales_bit_for_bit_to_exponent(510, n, point)
