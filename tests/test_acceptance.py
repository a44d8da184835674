"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected number below was produced by an independent route (direct
power sums, hand alg, or the brute-force oracle) before being frozen.
"""

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from concentric_gons import (
    PlanePoint,
    RegularPolygonSpec,
    SplitMix64,
    assess_feasibility,
    condition_two,
    cyclic_averages,
    distance_multiset,
    pair_polygons,
    power_identity_residual,
    random_instance,
    reconstruct_polygons,
    recover_circumradii,
    vertices,
)
from concentric_gons import CircleFamily
from concentric_gons.cli import main

from closed_forms import (
    associated_triangles,
    square_circle_radii,
    square_feasibility,
    triangle_circle_radii,
    triangle_feasibility,
)

SQRT3 = math.sqrt(3.0)
TRIANGLE_FAMILY = (math.sqrt(5 - 2 * SQRT3), math.sqrt(5), math.sqrt(5 + 2 * SQRT3))
SQUARE_FAMILY = (math.sqrt(5 - 2 * SQRT3), SQRT3, math.sqrt(7), math.sqrt(5 + 2 * SQRT3))


def announce(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_power_identity_certification():
    started = time.perf_counter()
    worst = 0.0
    per_n = 1000
    for n in range(3, 13):
        rng = SplitMix64(1000 + n)
        for _ in range(per_n):
            poly = RegularPolygonSpec(
                n,
                PlanePoint(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                rng.uniform(0.1, 10.0),
                rng.angle(),
            )
            point = PlanePoint(rng.uniform(-12, 12), rng.uniform(-12, 12))
            m = 1 + rng.below(n - 1)
            worst = max(worst, power_identity_residual(poly, point, m))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10, worst
    assert elapsed < 5.0, elapsed
    announce(1, f"power identity residual <= 1e-10 over 10x{per_n} triples "
                f"(worst {worst:.3e}, {elapsed:.2f}s)")


def test_criterion_2_worked_three_circle_family():
    fit = triangle_feasibility(*TRIANGLE_FAMILY)
    assert fit.exists
    assert abs(fit.larger - 2.0) <= 1e-12
    assert abs(fit.smaller - 1.0) <= 1e-12
    pair = recover_circumradii(cyclic_averages(CircleFamily(PlanePoint(0, 0), TRIANGLE_FAMILY)))
    assert abs(pair.larger - 2.0) <= 1e-12
    assert abs(pair.smaller - 1.0) <= 1e-12
    rec = reconstruct_polygons(CircleFamily(PlanePoint(0, 0), TRIANGLE_FAMILY))
    assert max(rec.residuals) <= 1e-9
    announce(2, "three-circle family recovers (2, 1) on both routes and "
                f"reconstructs with residual {max(rec.residuals):.3e}")


def test_criterion_3_worked_four_circle_family():
    d = SQUARE_FAMILY
    outer = d[0] ** 2 + d[3] ** 2
    inner = d[1] ** 2 + d[2] ** 2
    assert abs(outer - inner) <= 1e-12
    triangles = associated_triangles(*d)
    for area in triangles.areas:
        assert abs(area - 1.5) <= 1e-12
    fit = square_feasibility(*d)
    assert abs(fit.larger - 2.0) <= 1e-12
    assert abs(fit.smaller - 1.0) <= 1e-12
    pair = recover_circumradii(cyclic_averages(CircleFamily(PlanePoint(0, 0), d)))
    assert abs(pair.larger - 2.0) <= 1e-12
    assert abs(pair.smaller - 1.0) <= 1e-12
    ok, residuals = condition_two(cyclic_averages(CircleFamily(PlanePoint(0, 0), d)))
    assert ok and residuals[0] <= 1e-12
    announce(3, "four-circle family: balanced sums, four areas 1.5, radii "
                f"(2, 1), third-order residual {residuals[0]:.3e}")


def test_criterion_4_degenerate_boundaries():
    collinear = CircleFamily(PlanePoint(0, 0), (1.0, 1.0, 2.0))
    sums2 = sum(r * r for r in collinear.radii)
    sums4 = sum(r ** 4 for r in collinear.radii)
    assert abs(3 * sums2 ** 2 - 2 * 3 * sums4) <= 1e-12  # vanishing discriminant
    av = cyclic_averages(collinear)
    pair = recover_circumradii(av)
    assert assess_feasibility(av).degenerate_single_polygon
    assert abs(pair.larger - 1.0) <= 1e-12
    rec = reconstruct_polygons(collinear)
    assert max(rec.residuals) <= 1e-9

    equal = CircleFamily(PlanePoint(0, 0), (1.0, 1.0, 1.0, 1.0))
    pair4 = recover_circumradii(cyclic_averages(equal))
    assert abs(pair4.larger - 1.0) <= 1e-12
    assert abs(pair4.smaller) <= 1e-12
    rec4 = reconstruct_polygons(equal)
    assert rec4.point_polygon
    assert max(rec4.residuals) <= 1e-9
    announce(4, "degenerate boundaries: single triangle at (1,1,2), point "
                "polygon at (1,1,1,1), both reconstruct under 1e-9")


def test_criterion_5_negative_control():
    fam = CircleFamily(PlanePoint(0, 0), (1.0, 2.0, 3.0, 4.0))
    ok, residuals = condition_two(cyclic_averages(fam))
    assert not ok
    # Direct power sums give S(6) = 4890/4 = 1222.5 and a predicted value
    # of 1147.5, hence a relative residual of exactly 75/1222.5.
    direct = sum(r ** 6 for r in fam.radii) / 4.0
    predicted = 7.5 ** 3 + 3.0 * (88.5 - 7.5 ** 2) * 7.5
    expected = abs(direct - predicted) / direct
    assert abs(residuals[0] - expected) <= 1e-3
    assert abs(expected - 75.0 / 1222.5) <= 1e-15
    fit = square_feasibility(1.0, 2.0, 3.0, 4.0)
    assert not fit.exists and fit.reason == "sum_condition"
    code, _, _ = run_cli("check", "--radii", "1,2,3,4", "--json")
    assert code == 2
    announce(5, f"(1,2,3,4) rejected: third-order residual {residuals[0]:.6f}, "
                "unbalanced square sums, exit code 2")


def test_criterion_6_round_trip_property():
    started = time.perf_counter()
    worst_multiset = 0.0
    worst_radii = 0.0
    per_n = 500
    for n in range(3, 9):
        for index in range(per_n):
            inst = random_instance(n, 20_000 + 1000 * n + index)
            rec = reconstruct_polygons(inst.family)
            hi = max(inst.polygon1.circumradius, inst.polygon2.circumradius)
            lo = min(inst.polygon1.circumradius, inst.polygon2.circumradius)
            worst_radii = max(
                worst_radii,
                abs(rec.circumradii.larger - hi) / hi,
                abs(rec.circumradii.smaller - lo) / lo,
            )
            worst_multiset = max(worst_multiset, max(rec.residuals) / inst.family.radii[-1])
    elapsed = time.perf_counter() - started
    assert worst_multiset <= 1e-8, worst_multiset
    assert worst_radii <= 1e-8, worst_radii
    assert elapsed < 30.0, elapsed
    announce(6, f"6x{per_n} round trips: multiset {worst_multiset:.3e}, "
                f"radii {worst_radii:.3e}, {elapsed:.2f}s")


def test_criterion_7_pairing_property():
    worst_swap = 0.0
    worst_multiset = 0.0
    per_n = 200
    for n in (3, 4, 5):
        rng = SplitMix64(777 + n)
        for _ in range(per_n):
            r1 = rng.uniform(0.1, 5.0)
            r2 = rng.uniform(0.1, 5.0)
            frac = rng.uniform(0.05, 0.95)
            dist = abs(r1 - r2) + frac * ((r1 + r2) - abs(r1 - r2))
            c1 = PlanePoint(rng.uniform(-3, 3), rng.uniform(-3, 3))
            heading = rng.angle()
            p1 = RegularPolygonSpec(n, c1, r1, rng.angle())
            p2 = RegularPolygonSpec(
                n,
                PlanePoint(c1.x + dist * math.cos(heading), c1.y + dist * math.sin(heading)),
                r2,
                rng.angle(),
            )
            results = pair_polygons(p1, p2)
            assert results
            for res in results:
                worst_swap = max(
                    worst_swap,
                    abs(res.center.distance_to(p1.center) - r2),
                    abs(res.center.distance_to(p2.center) - r1),
                )
                for poly in (p1, res.aligned_second):
                    gaps = [
                        abs(a - b)
                        for a, b in zip(distance_multiset(poly, res.center), res.circles.radii)
                    ]
                    worst_multiset = max(worst_multiset, max(gaps))
    assert worst_swap <= 1e-9, worst_swap
    assert worst_multiset <= 1e-9, worst_multiset

    # shared-vertex constructions always pair
    for n in (3, 4, 5):
        rng = SplitMix64(31_000 + n)
        for _ in range(per_n):
            p1 = RegularPolygonSpec(
                n,
                PlanePoint(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                rng.uniform(0.1, 5.0),
                rng.angle(),
            )
            shared = vertices(p1)[0]
            r2 = rng.uniform(0.1, 5.0)
            heading = rng.angle()
            center2 = PlanePoint(
                shared.x + r2 * math.cos(heading), shared.y + r2 * math.sin(heading)
            )
            phase2 = math.atan2(shared.y - center2.y, shared.x - center2.x)
            p2 = RegularPolygonSpec(n, center2, r2, phase2)
            assert len(pair_polygons(p1, p2)) >= 1
    announce(7, f"3x{per_n} pairings: center-distance swap {worst_swap:.3e}, "
                f"multiset {worst_multiset:.3e}; shared-vertex pairs nonempty")


def test_criterion_8_closed_forms_agree_with_general_path():
    worst = 0.0
    rng = SplitMix64(4242)
    for _ in range(1000):
        r1 = rng.uniform(0.1, 10.0)
        r2 = rng.uniform(0.1, 10.0)
        frac = rng.uniform(0.0, 1.0)
        lo, hi = abs(r1 - r2), r1 + r2
        d1 = lo + frac * (hi - lo)
        fam3 = tuple(sorted((d1, *triangle_circle_radii(r1, r2, d1))))
        fit3 = triangle_feasibility(*fam3)
        assert fit3.exists
        worst = max(
            worst,
            abs(fit3.larger - max(r1, r2)) / max(r1, r2),
            abs(fit3.smaller - min(r1, r2)) / min(r1, r2),
        )
        fam4 = tuple(sorted((d1, *square_circle_radii(r1, r2, d1))))
        fit4 = square_feasibility(*fam4)
        assert fit4.exists
        worst = max(
            worst,
            abs(fit4.larger - max(r1, r2)) / max(r1, r2),
            abs(fit4.smaller - min(r1, r2)) / min(r1, r2),
        )
    assert worst <= 1e-9, worst
    announce(8, f"1000 triples, both orders: closed forms re-recover the "
                f"generating radii (worst {worst:.3e})")


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    radii = ",".join(repr(r) for r in TRIANGLE_FAMILY)
    first = run_cli("check", "--radii", radii, "--json")
    second = run_cli("check", "--radii", radii, "--json")
    assert first == second
    rec_a, rec_b = tmp_path / "a.svg", tmp_path / "b.svg"
    ra = run_cli("reconstruct", "--radii", radii, "--json", "--svg", str(rec_a))
    rb = run_cli("reconstruct", "--radii", radii, "--json", "--svg", str(rec_b))
    assert ra == rb
    assert rec_a.read_bytes() == rec_b.read_bytes()

    feasible_code, _, _ = run_cli("check", "--radii", "1,1,2", "--json")
    infeasible_code, _, _ = run_cli("check", "--radii", "1,2,3,4", "--json")
    usage_code, _, _ = run_cli("check", "--radii", "not-numbers", "--json")
    assert feasible_code == 0
    assert infeasible_code == 2
    assert usage_code == 1
    assert len({feasible_code, infeasible_code, usage_code}) == 3
    announce(9, "byte-identical JSON and SVG; exit codes 0/2/1 distinct")
