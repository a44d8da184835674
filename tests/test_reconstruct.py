import hashlib
import io
import json
import math
import pickle
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from concentric_gons import (
    CircleFamily,
    DegenerateGeometry,
    InfeasibleFamily,
    InfeasibleMoments,
    PlanePoint,
    RegularPolygonSpec,
    Tolerance,
    angle_sweep,
    assess_feasibility,
    cyclic_averages,
    distance_multiset,
    multiset_close,
    phase_candidates,
    random_instance,
    reconstruct_polygons,
    recover_circumradii,
    verify_reconstruction,
)
from concentric_gons import reconstruct
from concentric_gons.cli import main
from concentric_gons.geom import law_of_cosines_distances
from concentric_gons.moments import _leading

SQRT3 = math.sqrt(3.0)

TRIANGLE_FAMILY = (math.sqrt(5 - 2 * SQRT3), math.sqrt(5), math.sqrt(5 + 2 * SQRT3))


# -------------------------------------------------------- phase candidates


arms = st.floats(min_value=1e-3, max_value=1e3)


@given(arms, arms, st.floats(min_value=0.0, max_value=2e3))
def test_phase_candidates_symmetric_in_the_arms(r, l, d):
    assert phase_candidates(r, l, d) == phase_candidates(l, r, d)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=100_000))
def test_phase_search_symmetric_in_the_arms(n, seed):
    # The reconstruction searches once and uses the angle for both
    # polygons; swapping the arms must give the very same angle.
    from concentric_gons.reconstruct import _find_phase

    inst = random_instance(n, seed)
    r, l = inst.polygon1.circumradius, inst.polygon2.circumradius
    radii = inst.family.radii
    assert _find_phase(n, r, l, radii, Tolerance()) == _find_phase(n, l, r, radii, Tolerance())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=100_000))
def test_both_polygons_share_the_phase(n, seed):
    rec = reconstruct_polygons(random_instance(n, seed).family)
    assert not rec.point_polygon
    assert rec.polygon1.phase == rec.polygon2.phase


def test_phase_candidates_worked_pair():
    angles = phase_candidates(2, 1, math.sqrt(5 - 2 * SQRT3))
    assert len(angles) == 2
    assert angles[0] == pytest.approx(math.pi / 6, abs=1e-12)
    assert angles[1] == pytest.approx(-math.pi / 6, abs=1e-12)


def test_phase_candidates_far_point():
    assert phase_candidates(2, 1, 3) == pytest.approx((math.pi,))


def test_phase_candidates_near_point():
    assert phase_candidates(2, 1, 1) == pytest.approx((0.0,))


def test_phase_candidates_out_of_range():
    assert phase_candidates(2, 1, 3.5) == ()
    assert phase_candidates(2, 1, 0.5) == ()


def test_phase_candidates_degenerate_arms():
    with pytest.raises(DegenerateGeometry):
        phase_candidates(0, 1, 1)
    with pytest.raises(DegenerateGeometry):
        phase_candidates(1, 0, 1)


# ----------------------------------------------------------- reconstruction


def test_reconstruct_worked_triangle_family():
    fam = CircleFamily(PlanePoint(0, 0), TRIANGLE_FAMILY)
    rec = reconstruct_polygons(fam)
    assert rec.circumradii.larger == pytest.approx(2.0, abs=1e-12)
    assert rec.circumradii.smaller == pytest.approx(1.0, abs=1e-12)
    assert rec.polygon1.circumradius == pytest.approx(2.0, abs=1e-12)
    assert rec.polygon1.center.distance_to(fam.center) == pytest.approx(1.0, abs=1e-12)
    assert rec.polygon2.circumradius == pytest.approx(1.0, abs=1e-12)
    assert rec.polygon2.center.distance_to(fam.center) == pytest.approx(2.0, abs=1e-12)
    assert not rec.point_polygon
    assert max(rec.residuals) <= 1e-9


def test_reconstruct_all_equal_family():
    fam = CircleFamily(PlanePoint(0, 0), (1.0, 1.0, 1.0, 1.0))
    rec = reconstruct_polygons(fam)
    assert rec.point_polygon
    assert rec.polygon1.center == fam.center
    assert rec.polygon1.circumradius == pytest.approx(1.0, abs=1e-12)
    assert rec.polygon2.circumradius == 0.0
    assert rec.polygon2.center.distance_to(fam.center) == pytest.approx(1.0, abs=1e-12)
    assert max(rec.residuals) <= 1e-9


def test_reconstruct_degenerate_collinear_family():
    fam = CircleFamily(PlanePoint(0, 0), (1.0, 1.0, 2.0))
    rec = reconstruct_polygons(fam)
    assert assess_feasibility(cyclic_averages(fam)).degenerate_single_polygon
    assert rec.circumradii.larger == pytest.approx(1.0, abs=1e-12)
    assert max(rec.residuals) <= 1e-9


def test_reconstruct_rejects_infeasible_family():
    fam = CircleFamily(PlanePoint(0, 0), (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(InfeasibleFamily) as excinfo:
        reconstruct_polygons(fam)
    report = assess_feasibility(cyclic_averages(fam))
    assert not report.condition2_ok
    # Direct power sums: S(6) = 1222.5 against the predicted 1147.5.
    assert report.condition2_residuals[0] == pytest.approx(75.0 / 1222.5, abs=1e-12)


def test_reconstruct_translation_covariance():
    base = CircleFamily(PlanePoint(0, 0), TRIANGLE_FAMILY)
    moved = CircleFamily(PlanePoint(3.5, -1.25), TRIANGLE_FAMILY)
    rec0 = reconstruct_polygons(base)
    rec1 = reconstruct_polygons(moved)
    assert rec1.polygon1.center.x == pytest.approx(rec0.polygon1.center.x + 3.5, abs=1e-12)
    assert rec1.polygon1.center.y == pytest.approx(rec0.polygon1.center.y - 1.25, abs=1e-12)
    assert rec1.polygon1.phase == pytest.approx(rec0.polygon1.phase, abs=1e-12)
    assert rec1.polygon2.phase == pytest.approx(rec0.polygon2.phase, abs=1e-12)


def test_both_reconstructed_polygons_realize_the_family():
    fam = CircleFamily(PlanePoint(1.0, 2.0), TRIANGLE_FAMILY)
    rec = reconstruct_polygons(fam)
    for poly in (rec.polygon1, rec.polygon2):
        measured = distance_multiset(poly, fam.center)
        assert measured == pytest.approx(fam.radii, abs=1e-9)


# ------------------------------------------------------------- verification


def test_verify_reconstruction_exact_and_perturbed():
    fam = CircleFamily(PlanePoint(0, 0), TRIANGLE_FAMILY)
    rec = reconstruct_polygons(fam)
    assert verify_reconstruction(fam, rec.polygon1) <= 1e-9
    solution = rec.polygon1
    wrong = RegularPolygonSpec(
        solution.n, solution.center, solution.circumradius, solution.phase + 0.1
    )
    assert verify_reconstruction(fam, wrong) > 0.01
    relabeled = RegularPolygonSpec(
        solution.n,
        solution.center,
        solution.circumradius,
        solution.phase + 2 * math.pi / solution.n,
    )
    assert verify_reconstruction(fam, relabeled) == pytest.approx(
        verify_reconstruction(fam, solution), abs=1e-12
    )


def test_verify_reconstruction_checks_count():
    fam = CircleFamily(PlanePoint(0, 0), TRIANGLE_FAMILY)
    square = RegularPolygonSpec(4, PlanePoint(0, 0), 1.0, 0.0)
    with pytest.raises(ValueError):
        verify_reconstruction(fam, square)


# --------------------------------------------------------------- round trips


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=0, max_value=100_000),
)
def test_round_trip_polygons_to_circles_to_polygons(n, seed):
    instance = random_instance(n, seed)
    rec = reconstruct_polygons(instance.family)
    r_hi = max(instance.polygon1.circumradius, instance.polygon2.circumradius)
    r_lo = min(instance.polygon1.circumradius, instance.polygon2.circumradius)
    assert rec.circumradii.larger == pytest.approx(r_hi, rel=1e-8)
    assert rec.circumradii.smaller == pytest.approx(r_lo, rel=1e-8, abs=1e-8)
    assert max(rec.residuals) <= 1e-8 * max(1.0, instance.family.radii[-1])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=0, max_value=100_000),
)
def test_round_trip_circles_to_polygons_to_circles(n, seed):
    instance = random_instance(n, seed)
    rec = reconstruct_polygons(instance.family)
    for poly in (rec.polygon1, rec.polygon2):
        measured = distance_multiset(poly, instance.family.center)
        for got, want in zip(measured, instance.family.radii):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=10.0), min_size=3, max_size=8))
@example([3.078125, 3.078125, 3.078125, 3.080078125])
@example([1.0, 1.0, 2.0, 2.00001])
def test_reconstruct_never_returns_junk(radii):
    # Arbitrary radii either reconstruct to within the acceptance gate or
    # raise the typed rejection; no silent bad output. The oracle checks a
    # refusal: the averages admit no circumradii, or the sweep at the
    # recovered ones finds no phase within the multiset gate. The report's
    # conditions do not decide it: both examples pass them and are refused.
    fam = CircleFamily(PlanePoint(0, 0), tuple(sorted(radii)))
    try:
        rec = reconstruct_polygons(fam)
    except InfeasibleFamily:
        averages, units, _ = _leading(fam)
        try:
            pair = recover_circumradii(averages)
        except InfeasibleMoments:
            return
        sweep = angle_sweep(pair.larger, pair.smaller, fam.n, units)
        assert sweep.best_residual > Tolerance().multiset_gate().relative_eps * units[-1]
        return
    assert max(rec.residuals) <= 1e-7 * max(1.0, fam.radii[-1])


# Families the placement refuses at a best relative gap of 1.1e-8, just
# above its 1e-8 gate, although the oracle's sweep at the same circumradii
# finds a phase within the multiset gate.
REFUSAL_BAND = [
    (5.801320362361583, 5.919679918223922, 6.1902958663829875, 6.4371565518240885,
     6.747112327125089, 6.929887614827332, 7.059888375506102),
    (0.6059932067248046, 0.6690852842259963, 0.7312857893322713, 0.8538126208079334,
     0.9231356075530427, 1.0229352060144932, 1.0646596751147546, 1.1017928733414348),
]


@pytest.mark.xfail(strict=True, raises=InfeasibleFamily)
@pytest.mark.parametrize("radii", REFUSAL_BAND, ids=["n7", "n8"])
def test_a_family_the_sweep_places_within_the_gate_is_reconstructed(radii):
    family = CircleFamily(PlanePoint(0.0, 0.0), radii)
    averages, units, _ = _leading(family)
    pair = recover_circumradii(averages)
    larger, smaller = pair.larger, pair.smaller
    sweep = angle_sweep(larger, smaller, family.n, units)
    placed = law_of_cosines_distances(
        larger * larger + smaller * smaller, 2.0 * larger * smaller, family.n, sweep.best_phase
    )
    assert multiset_close(sorted(placed), units, Tolerance().multiset_gate())
    reconstruct_polygons(family)


@pytest.mark.parametrize(
    "k", [-1040, -1050, -1060, -1070, -1073], ids=lambda k: f"k{k}"
)
def test_a_family_scaled_into_the_subnormal_range_keeps_its_placement(k):
    # (0.5, 1, 1.5) times 2^k is exact down to k = -1073 (at -1074 the 0.5
    # rounds to 0), so the verdict and the phase must be those of scale 1,
    # although the circumradii keep only 24 bits at 2^-1050 and 1 at
    # 2^-1073: they are placed before they are scaled into the family's units.
    unit = reconstruct_polygons(CircleFamily(PlanePoint(0.0, 0.0), (0.5, 1.0, 1.5)))
    assert unit.polygon1.phase == 5.902934100486652
    radii = tuple(math.ldexp(r, k) for r in (0.5, 1.0, 1.5))
    rec = reconstruct_polygons(CircleFamily(PlanePoint(0.0, 0.0), radii))
    assert rec.polygon1.phase == rec.polygon2.phase == unit.polygon1.phase


def test_reconstruct_all_zero_family():
    fam = CircleFamily(PlanePoint(2.0, -1.0), (0.0, 0.0, 0.0))
    rec = reconstruct_polygons(fam)
    assert rec.point_polygon
    assert rec.circumradii.larger == 0.0
    assert max(rec.residuals) == 0.0


def test_phase_search_failure_is_reported():
    # Target radii no phase can generate for the given arms: the largest
    # radius is out of reach, so the search must reject the family with the
    # typed error rather than return a junk placement.
    from concentric_gons.reconstruct import _find_phase
    from concentric_gons import Tolerance

    with pytest.raises(InfeasibleFamily, match="best relative gap 0.75 .* too far to polish"):
        _find_phase(4, 1.0, 0.5, (2.0, 2.0, 2.0, 2.0), Tolerance())


def test_reconstruct_zero_smaller_radius_instances():
    for n in (3, 5, 7):
        instance = random_instance(n, seed=9, zero_smaller_radius=True)
        spread = max(instance.family.radii) - min(instance.family.radii)
        assert spread <= 1e-12
        rec = reconstruct_polygons(instance.family)
        assert rec.point_polygon
        assert max(rec.residuals) <= 1e-9


# ------------------------------------------------------- lazy diagnostics


def lazy_families():
    """Families of every kind reconstruct_polygons accepts: generated at n = 3,
    8 and 64, a point polygon, and a boundary family (R = 1, r = 1 - 3e-8)
    that only the polish places."""
    boundary = law_of_cosines_distances(1.0 + (1.0 - 3e-8) ** 2, 2.0 * (1.0 - 3e-8), 16, 0.0)
    return [
        *(random_instance(n, 3).family for n in (3, 8, 64)),
        random_instance(5, 9, zero_smaller_radius=True).family,
        CircleFamily(PlanePoint(0.0, 0.0), tuple(sorted(boundary))),
    ]


def counting(monkeypatch):
    """Count the calls to reconstruct.verify_reconstruction."""
    calls = []

    def counted(family, poly):
        calls.append(poly)
        return verify_reconstruction(family, poly)

    monkeypatch.setattr(reconstruct, "verify_reconstruction", counted)
    return calls


def test_the_decision_measures_no_residuals(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the decision measured the residuals")

    monkeypatch.setattr(reconstruct, "verify_reconstruction", forbidden)
    families = lazy_families()
    recs = [reconstruct_polygons(fam) for fam in families]
    assert recs[3].point_polygon
    assert assess_feasibility(cyclic_averages(families[4])).degenerate_single_polygon
    monkeypatch.undo()
    calls = counting(monkeypatch)
    for fam, rec in zip(families, recs):
        eager = (
            verify_reconstruction(fam, rec.polygon1),
            verify_reconstruction(fam, rec.polygon2),
        )
        assert [r.hex() for r in rec.residuals] == [r.hex() for r in eager]
        assert rec.residuals is rec.residuals
    assert len(calls) == 2 * len(families)


def run_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


def test_check_and_verify_measure_no_residuals(monkeypatch, tmp_path):
    fam = CircleFamily(PlanePoint(0.0, 0.0), random_instance(8, 3).family.radii)
    source = tmp_path / "circles.json"
    source.write_text(json.dumps({
        "format": "concentric-gons/1",
        "kind": "circles",
        "circles": {"center": [0.0, 0.0], "radii": list(fam.radii)},
    }), encoding="utf-8")
    radii = "--radii=" + ",".join(map(repr, fam.radii))
    calls = counting(monkeypatch)
    assert run_json("check", radii, "--json")[1]["feasible"]
    assert run_json("verify", "--input", str(source), "--json")[1]["result"]["pass"]
    assert calls == []
    code, payload = run_json("reconstruct", radii, "--json")
    assert code == 0 and len(calls) == 2
    assert payload["residuals"] == list(reconstruct_polygons(fam).residuals)


def test_reconstruction_survives_pickling_before_and_after_reading():
    rec = reconstruct_polygons(random_instance(8, 3).family)
    fresh = pickle.loads(pickle.dumps(rec))
    assert fresh == rec
    residuals = rec.residuals
    read = pickle.loads(pickle.dumps(rec))
    for copy in (fresh, read):
        assert copy == rec
        assert copy.residuals == residuals


def test_infeasible_family_survives_pickling():
    with pytest.raises(InfeasibleFamily) as excinfo:
        reconstruct_polygons(CircleFamily(PlanePoint(0, 0), (1.0, 2.0, 3.0, 4.0)))
    exc = excinfo.value
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is InfeasibleFamily
    assert str(copy) == str(exc)


# ------------------------------------------------- bits of the circles path


def circles_path_families():
    """Families shaped like the circles benchmark: 50 for each n in {3, 4, 8,
    16, 32, 64}, each scaled by a random mantissa times 2^k, k in [-1000,
    1000], one in twelve a point polygon and one in four perturbed as the
    benchmark perturbs them; then one family per n whose largest radius sits
    near 2^-1020, so that its smaller radii are subnormal."""
    rng = random.Random(18)
    for n in (3, 4, 8, 16, 32, 64):
        for i in range(51):
            inst = random_instance(n, rng.getrandbits(63), zero_smaller_radius=i % 12 == 1)
            k = -1030 if i == 50 else rng.randint(-1000, 1000)
            scale = math.ldexp(1.0 + rng.random(), k)
            radii = sorted(r * scale for r in inst.family.radii)
            if i % 4 == 3:
                if n == 3:
                    radii[2] = 1.1 * (radii[0] + radii[1])
                else:
                    radii[rng.randrange(n)] *= 1.1
                radii.sort()
            center = PlanePoint(inst.point.x * scale, inst.point.y * scale)
            yield CircleFamily(center, tuple(radii))


def circles_path_record(family):
    """The bits reconstruct_polygons gives a family, or its refusal."""
    try:
        rec = reconstruct_polygons(family)
    except InfeasibleFamily as exc:
        return f"infeasible: {exc}"
    p1, p2 = rec.polygon1, rec.polygon2
    values = (
        p1.phase, p2.phase, p1.center.x, p1.center.y, p2.center.x, p2.center.y,
        p1.circumradius, p2.circumradius,
    )
    return " ".join(value.hex() for value in values) + f" point={rec.point_polygon}"


def test_a_circles_path_family_below_2_to_the_minus_1000_places_as_its_scaling():
    # Scaling a family by 2^1000 keeps the bits of its radii in their units,
    # so the placement and its phase must keep theirs, and each circumradius
    # must be that of the scaling times 2^-1000, rounded once where it is
    # subnormal.
    tiny = [f for f in circles_path_families() if f.radii[-1] < math.ldexp(1.0, -1000)]
    assert [family.n for family in tiny] == [3, 4, 8, 16, 32, 64]
    moved = []
    for family in tiny:
        scaled = CircleFamily(
            PlanePoint(math.ldexp(family.center.x, 1000), math.ldexp(family.center.y, 1000)),
            tuple(math.ldexp(r, 1000) for r in family.radii),
        )
        rec, big = reconstruct_polygons(family), reconstruct_polygons(scaled)
        got = (rec.polygon1.phase, rec.polygon2.phase,
               rec.circumradii.larger, rec.circumradii.smaller)
        want = (big.polygon1.phase, big.polygon2.phase,
                math.ldexp(big.circumradii.larger, -1000),
                math.ldexp(big.circumradii.smaller, -1000))
        if got != want:
            moved.append(family.n)
    assert moved == []


def test_circles_path_bits_are_pinned():
    # Every phase, center, circumradius and refusal message, bit for bit: a
    # change to how the decision scales or gates the radii must leave them.
    records = [circles_path_record(family) for family in circles_path_families()]
    assert len(records) == 306
    assert sum(record.startswith("infeasible") for record in records) == 72
    assert sum(record.endswith("point=True") for record in records) == 30
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert digest == "61e37a3d76cf64f93af28b065b8a2b45bf1fc7a789f1f5c027d73406b6fc7b97"
