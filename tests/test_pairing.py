import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from concentric_gons import (
    CircleFamily,
    CoincidentAuxiliaryCircles,
    MismatchedOrder,
    NotACandidateCenter,
    PlanePoint,
    RegularPolygonSpec,
    align_second_polygon,
    candidate_centers,
    condition_one,
    condition_two,
    cyclic_averages,
    distance_multiset,
    multiset_close,
    normalize_angle,
    pair_polygons,
    phase_candidates,
    random_instance,
    recover_circumradii,
    vertices,
)
from concentric_gons import pairing

SQRT3 = math.sqrt(3.0)


def triangle(cx, cy, radius, phase=0.0):
    return RegularPolygonSpec(3, PlanePoint(cx, cy), radius, phase)


def test_mismatched_order_rejected_everywhere():
    p1 = triangle(0, 0, 1)
    p2 = RegularPolygonSpec(4, PlanePoint(2, 0), 1, 0.0)
    for op in (candidate_centers, pair_polygons):
        with pytest.raises(MismatchedOrder):
            op(p1, p2)


# ------------------------------------------------------ candidate centers


def test_candidate_centers_two_points():
    points = candidate_centers(triangle(0, 0, 2), triangle(2, 0, 1))
    assert len(points) == 2
    for p in points:
        assert p.x == pytest.approx(0.25, abs=1e-12)
    assert points[0].y == pytest.approx(math.sqrt(15) / 4, abs=1e-12)
    assert points[1].y == pytest.approx(-math.sqrt(15) / 4, abs=1e-12)
    for p in points:
        assert p.distance_to(PlanePoint(0, 0)) == pytest.approx(1.0, abs=1e-12)
        assert p.distance_to(PlanePoint(2, 0)) == pytest.approx(2.0, abs=1e-12)


def test_candidate_centers_tangent_shared_vertex():
    points = candidate_centers(triangle(0, 0, 1), triangle(2, 0, 1, math.pi))
    assert len(points) == 1
    assert points[0].x == pytest.approx(1.0, abs=1e-12)
    assert points[0].y == pytest.approx(0.0, abs=1e-12)


def test_candidate_centers_near_tangent_give_one_point():
    # The auxiliary circles miss tangency past the gate, but the height of
    # their intersection rounds to 0.
    p1 = RegularPolygonSpec(3, PlanePoint(0.0, 0.0), 1e-8, 0.0)
    p2 = RegularPolygonSpec(3, PlanePoint(1.0000000089, 0.0), 1.0, 0.3)
    assert candidate_centers(p1, p2) == (PlanePoint(1.0, 0.0),)


def test_candidate_centers_of_two_point_polygons_at_one_spot():
    p1 = RegularPolygonSpec(3, PlanePoint(1.0, 2.0), 0.0, 0.0)
    p2 = RegularPolygonSpec(3, PlanePoint(1.0, 2.0), 0.0, 0.3)
    assert candidate_centers(p1, p2) == (PlanePoint(1.0, 2.0),)


def test_candidate_centers_disjoint():
    assert candidate_centers(triangle(0, 0, 2), triangle(4, 0, 1)) == ()


def test_candidate_centers_coincident_raise():
    p = triangle(0, 0, 1)
    with pytest.raises(CoincidentAuxiliaryCircles):
        candidate_centers(p, triangle(0, 0, 1, 0.5))


def test_candidate_centers_and_pairing_share_one_range_check():
    # The center distance overflows although each center is finite.
    p1, p2 = triangle(-1e308, 0, 1), triangle(1e308, 0, 1)
    messages = []
    for op in (candidate_centers, pair_polygons):
        with pytest.raises(ValueError, match="largest length inf of the polygon pair") as caught:
            op(p1, p2)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


# ------------------------------------------------------------- alignment


def test_alignment_worked_opening_angle():
    # d*^2 = 5 - 2*sqrt(3) gives cos(opening) = sqrt(3)/2: two branches.
    p1 = triangle(0, 0, 2)
    m = PlanePoint(math.cos(math.pi / 6), math.sin(math.pi / 6))
    p2_center = PlanePoint(m.x + 2.0, m.y)
    p2 = RegularPolygonSpec(3, p2_center, 1.0, 0.0)
    d_star = min(m.distance_to(v) for v in vertices(p1))
    assert d_star ** 2 == pytest.approx(5 - 2 * SQRT3, abs=1e-12)
    ref = min(range(3), key=lambda k: m.distance_to(vertices(p1)[k]))
    aligned = align_second_polygon(p1, p2, m, ref)
    assert len(aligned) == 2
    # The reference vertex is an index modulo n.
    assert align_second_polygon(p1, p2, m, ref + 3) == aligned
    assert align_second_polygon(p1, p2, m, ref - 6) == aligned
    toward = math.atan2(m.y - p2_center.y, m.x - p2_center.x)
    openings = sorted(
        min(abs(a.phase - toward) % (2 * math.pi), 2 * math.pi - abs(a.phase - toward) % (2 * math.pi))
        for a in aligned
    )
    for opening in openings:
        assert opening == pytest.approx(math.pi / 6, abs=1e-12)
    for a in aligned:
        assert m.distance_to(vertices(a)[0]) == pytest.approx(d_star, abs=1e-12)


def test_alignment_extremes_give_single_solution():
    p1 = triangle(0, 0, 2)
    # Point on the segment between the centers: the nearest vertex of p1 can
    # sit at the inner extreme |r1 - r2| when phases line up.
    m = PlanePoint(1, 0)
    p2 = RegularPolygonSpec(3, PlanePoint(m.x + 2.0, 0), 1.0, 0.3)
    # ref vertex 0 of p1 is at (2, 0): distance 1 = |2 - 1| -> opening 0
    aligned = align_second_polygon(p1, p2, m, 0)
    assert len(aligned) == 1
    assert m.distance_to(vertices(aligned[0])[0]) == pytest.approx(1.0, abs=1e-12)


def test_alignment_farthest_vertex_single_solution():
    # vertex 0 of p1 sits at (-2, 0), diametrically across the point (1, 0):
    # its distance 3 = r1 + r2 forces the opening to pi, one solution.
    p1 = triangle(0, 0, 2, math.pi)
    m = PlanePoint(1, 0)
    p2 = RegularPolygonSpec(3, PlanePoint(m.x + 2.0, 0), 1.0, 0.3)
    assert m.distance_to(vertices(p1)[0]) == pytest.approx(3.0, abs=1e-12)
    aligned = align_second_polygon(p1, p2, m, 0)
    assert len(aligned) == 1
    assert m.distance_to(vertices(aligned[0])[0]) == pytest.approx(3.0, abs=1e-12)


def test_alignment_rejects_wrong_point():
    p1 = triangle(0, 0, 2)
    p2 = triangle(2, 0, 1)
    with pytest.raises(NotACandidateCenter):
        align_second_polygon(p1, p2, PlanePoint(10, 10), 0)


def test_alignment_rejects_unreachable_reference_distance():
    # (8, 0) sits r1 = 2 from the second center, but vertex 0 of p1 at
    # (2, 0) is 6 away, beyond r1 + r2 = 3: the opening-angle solve is empty.
    p1 = triangle(0, 0, 2)
    p2 = triangle(10, 0, 1)
    with pytest.raises(NotACandidateCenter, match="unreachable"):
        align_second_polygon(p1, p2, PlanePoint(8, 0), 0)


def test_alignment_errors_report_lengths_in_the_callers_units():
    # Alignment runs in units of the largest length; its messages do not.
    k = -300
    p1 = triangle(0, 0, math.ldexp(2.0, k))
    p2 = triangle(math.ldexp(10.0, k), 0, math.ldexp(1.0, k))
    far = PlanePoint(math.ldexp(10.0, k), math.ldexp(10.0, k))
    expected = (
        f"point sits {math.ldexp(10.0, k)} from the second center, "
        f"expected {math.ldexp(2.0, k)}"
    )
    with pytest.raises(NotACandidateCenter, match=re.escape(expected)):
        align_second_polygon(p1, p2, far, 0)
    expected = f"reference distance {math.ldexp(6.0, k)} is unreachable"
    with pytest.raises(NotACandidateCenter, match=re.escape(expected)):
        align_second_polygon(p1, p2, PlanePoint(math.ldexp(8.0, k), 0), 0)


def test_alignment_rejects_a_point_too_far_off_for_the_units():
    # In units of the largest length 1e300 overflows; the message does not.
    p1 = triangle(0, 0, 2e-300)
    p2 = triangle(2e-300, 0, 1e-300)
    expected = f"point sits {1e300} from the second center, expected {2e-300}"
    with pytest.raises(NotACandidateCenter, match=re.escape(expected)):
        align_second_polygon(p1, p2, PlanePoint(1e300, 0), 0)


# ---------------------------------------------------------------- pairing


def test_pair_worked_configuration():
    # Build the pair so one intersection point lands at relative angle 30
    # degrees from the first polygon: the shared multiset is then the
    # worked three-circle family.
    p1 = triangle(0, 0, 2)
    m = PlanePoint(math.cos(math.pi / 6), math.sin(math.pi / 6))
    direction = -0.35
    p2_center = PlanePoint(m.x + 2 * math.cos(direction), m.y + 2 * math.sin(direction))
    p2_phase = direction + math.pi - math.pi / 6
    p2 = RegularPolygonSpec(3, p2_center, 1.0, p2_phase)
    results = pair_polygons(p1, p2)
    assert 1 <= len(results) <= 4
    worked = tuple(
        sorted((math.sqrt(5 - 2 * SQRT3), math.sqrt(5), math.sqrt(5 + 2 * SQRT3)))
    )
    hit = [r for r in results if multiset_close(r.circles.radii, worked)]
    assert hit, [r.circles.radii for r in results]
    # Eq-style placement constraints hold for every result.
    for res in results:
        assert res.center.distance_to(p1.center) == pytest.approx(1.0, abs=1e-9)
        assert res.center.distance_to(p2.center) == pytest.approx(2.0, abs=1e-9)
        assert multiset_close(
            distance_multiset(p1, res.center), res.circles.radii
        )
        assert multiset_close(
            distance_multiset(res.aligned_second, res.center), res.circles.radii
        )


def test_pair_generic_instance_counts():
    # Generic placement: two candidate centers, two alignments each.
    p1 = triangle(0, 0, 2, 0.1)
    p2 = triangle(2.2, 0.3, 1, 0.7)
    results = pair_polygons(p1, p2)
    assert len(results) == 4


def test_pair_identical_polygons_degenerate_continuum():
    p = triangle(0.5, -0.25, 1.3, 0.2)
    with pytest.raises(CoincidentAuxiliaryCircles):
        pair_polygons(p, p)


def test_pair_far_apart_is_empty():
    assert pair_polygons(triangle(0, 0, 2), triangle(10, 0, 1)) == []


def test_pair_results_recover_both_circumradii():
    p1 = triangle(0, 0, 2, 0.4)
    p2 = triangle(1.8, -0.4, 1, 1.1)
    for res in pair_polygons(p1, p2):
        av = cyclic_averages(res.circles)
        assert condition_one(av)[0]
        assert condition_two(av)[0]
        pair = recover_circumradii(av)
        assert pair.larger == pytest.approx(2.0, rel=1e-9)
        assert pair.smaller == pytest.approx(1.0, rel=1e-9)


def test_pair_matched_vertex_distances_agree():
    # The closed form matches vertex 0 of the first polygon with vertex 0
    # of the aligned second one, at every configuration.
    for n in (*range(3, 13), 32, 64):
        for seed in range(1, 13):
            inst = random_instance(n, seed, zero_smaller_radius=seed % 4 == 0)
            p1 = inst.polygon1
            for res in pair_polygons(p1, inst.polygon2):
                d1 = res.center.distance_to(vertices(p1)[0])
                d2 = res.center.distance_to(vertices(res.aligned_second)[0])
                assert abs(d1 - d2) <= 1e-12 * res.circles.radii[-1], (n, seed)


@pytest.mark.parametrize("n", [4, 6, 8, 12, 32, 64])
def test_matched_vertex_survives_a_shift_of_1e9_largest_lengths(n):
    # The shift rounds the centers by about 1e-7 of the largest length, and
    # the phases move by up to about 1e-6 here; a different matched vertex
    # would move the aligned second polygon by a multiple of 2 pi/n.
    for seed in range(1, 21):
        inst = random_instance(n, seed)
        p1, p2 = inst.polygon1, inst.polygon2
        shift = 1e9 * max(p1.circumradius, p2.circumradius, p1.center.distance_to(p2.center))
        moved = pair_polygons(
            *(
                RegularPolygonSpec(n, p.center.translated(shift, 0.0), p.circumradius, p.phase)
                for p in (p1, p2)
            )
        )
        base = pair_polygons(p1, p2)
        assert len(moved) == len(base), seed
        for res, other in zip(base, moved):
            gap = math.remainder(other.aligned_second.phase - res.aligned_second.phase, math.tau)
            assert abs(gap) <= 1e-4, seed


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
def test_pair_recovers_generated_instances(n, seed):
    instance = random_instance(n, seed)
    results = pair_polygons(instance.polygon1, instance.polygon2)
    assert results
    hit = [
        r
        for r in results
        if multiset_close(r.circles.radii, instance.family.radii)
        and r.center.distance_to(instance.point) <= 1e-6
    ]
    assert hit, (instance.point, [r.center for r in results])
    r1 = instance.polygon1.circumradius
    r2 = instance.polygon2.circumradius
    for res in results:
        assert res.center.distance_to(instance.polygon1.center) == pytest.approx(
            r2, rel=1e-9, abs=1e-9
        )
        assert res.center.distance_to(instance.polygon2.center) == pytest.approx(
            r1, rel=1e-9, abs=1e-9
        )


# A point where the auxiliary circles touch can miss the gate, as in
# test_triangles_tangent_at_their_shared_vertex_pair; only repeats count here.
@pytest.mark.filterwarnings("ignore:aligned distance pair:RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.integers(min_value=3, max_value=12),
    st.floats(min_value=-9.0, max_value=0.0),
    st.floats(min_value=-3e-8, max_value=3e-8),
    st.booleans(),
    st.booleans(),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_near_tangent_pairs_repeat_no_configuration(
    n, log_ratio, miss, inside, swap, direction, phase1, phase2
):
    # Auxiliary circles that touch, or miss touching by a few gates, at
    # circumradius ratios from 1e-9 to 1: each meeting point gives its one
    # or two phases once, and no two points coincide.
    r1, r2 = 1.0, 10.0 ** log_ratio
    if swap:
        r1, r2 = r2, r1
    distance = (abs(r1 - r2) if inside else r1 + r2) * (1.0 + miss)
    center2 = PlanePoint(distance * math.cos(direction), distance * math.sin(direction))
    p1 = RegularPolygonSpec(n, PlanePoint(0.0, 0.0), r1, phase1)
    p2 = RegularPolygonSpec(n, center2, r2, phase2)
    try:
        results = pair_polygons(p1, p2)
    except CoincidentAuxiliaryCircles:
        return
    per_point = {}
    for res in results:
        per_point.setdefault(res.center, []).append(res.aligned_second.phase)
    assert len(per_point) <= 2
    period = 2 * math.pi / n
    for phases in per_point.values():
        assert len(phases) in (1, 2)
        if len(phases) == 2:
            assert abs(math.remainder(phases[0] - phases[1], period)) > 1e-9


def test_pair_with_point_polygon():
    # One polygon collapsed to a point: the other must be observed from its
    # own center, so every shared distance equals the live circumradius.
    p1 = RegularPolygonSpec(4, PlanePoint(0, 0), 1.5, 0.25)
    p2 = RegularPolygonSpec(4, PlanePoint(1.5, 0), 0.0, 0.0)
    results = pair_polygons(p1, p2)
    assert len(results) == 1
    res = results[0]
    assert res.center.distance_to(p1.center) == pytest.approx(0.0, abs=1e-12)
    assert res.circles.radii == pytest.approx((1.5, 1.5, 1.5, 1.5), abs=1e-12)


# ---------------------------------------------------------- shared vertex
# A shared vertex puts the point on both auxiliary circles with one distance
# pair (the vertex against itself) already equal, so pair_polygons always
# finds at least one configuration.


def test_shared_vertex_tangent_triangles():
    p1 = triangle(0, 0, 1)
    p2 = triangle(2, 0, 1, math.pi)  # vertex 0 of both sits at (1, 0)
    results = pair_polygons(p1, p2)
    assert len(results) == 1
    res = results[0]
    assert res.center.x == pytest.approx(1.0, abs=1e-12)
    assert res.center.y == pytest.approx(0.0, abs=1e-12)
    assert res.circles.radii == pytest.approx((0.0, SQRT3, SQRT3), abs=1e-12)


def test_shared_vertex_squares():
    # Two squares sharing the vertex (0, 1), different circumradii.
    p1 = RegularPolygonSpec(4, PlanePoint(0, 0), 1.0, math.pi / 2)
    shared = PlanePoint(0, 1)
    direction = 0.9
    r2 = 1.7
    center2 = PlanePoint(
        shared.x + r2 * math.cos(direction), shared.y + r2 * math.sin(direction)
    )
    phase2 = math.atan2(shared.y - center2.y, shared.x - center2.x)
    p2 = RegularPolygonSpec(4, center2, r2, phase2)
    assert any(
        v1.distance_to(v2) <= 1e-12 for v1 in vertices(p1) for v2 in vertices(p2)
    )
    results = pair_polygons(p1, p2)
    assert results
    for res in results:
        assert multiset_close(
            distance_multiset(p1, res.center), res.circles.radii
        )
        assert multiset_close(
            distance_multiset(res.aligned_second, res.center), res.circles.radii
        )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_shared_vertex_always_pairs(n, r1, r2, phase1, direction):
    # Construct a genuine shared vertex: pin vertex 0 of both polygons to
    # the same plane point.
    p1 = RegularPolygonSpec(n, PlanePoint(0, 0), r1, phase1)
    shared = vertices(p1)[0]
    center2 = PlanePoint(
        shared.x + r2 * math.cos(direction), shared.y + r2 * math.sin(direction)
    )
    phase2 = math.atan2(shared.y - center2.y, shared.x - center2.x)
    p2 = RegularPolygonSpec(n, center2, r2, phase2)
    results = pair_polygons(p1, p2)
    assert len(results) >= 1


@pytest.mark.xfail(
    strict=True,
    reason="at a shared vertex the law of cosines loses half the digits of a zero distance",
)
@pytest.mark.parametrize(
    "radius, phase",
    [(3.0, 5.249078480359137), (1.0939570482651175, 2.867409793139052)],
    ids=["r3", "r1.09"],
)
def test_triangles_tangent_at_their_shared_vertex_pair(radius, phase):
    # The auxiliary circles touch at the shared vertex, where one distance is
    # 0: a - b cos(t) cancels, and its root misses the gate, by 6e-8 of 5.2
    # at r = 3 and by 2.1e-8 at the example test_shared_vertex_always_pairs
    # drew (r1 = r2 = radius, phase1 = direction = phase).
    p1 = RegularPolygonSpec(3, PlanePoint(0, 0), radius, phase)
    shared = vertices(p1)[0]
    center2 = PlanePoint(
        shared.x + radius * math.cos(phase), shared.y + radius * math.sin(phase)
    )
    p2 = RegularPolygonSpec(
        3, center2, radius, math.atan2(shared.y - center2.y, shared.x - center2.x)
    )
    assert len(pair_polygons(p1, p2)) >= 1


def test_alignment_builds_only_the_reference_vertex(monkeypatch):
    # Alignment measures in the first center's frame, in units of 2^e, e the
    # largest length's binary exponent. The reference distance uses the
    # expressions of geom.vertices and PlanePoint.distance_to there, so the
    # rotations are bit-identical to those from the built vertex.
    inst = random_instance(8, 7)
    p1, p2, point = inst.polygon1, inst.polygon2, inst.point
    c1, c2 = p1.center, p2.center
    e = math.frexp(max(p1.circumradius, p2.circumradius, c1.distance_to(c2)))[1]
    r1, r2 = math.ldexp(p1.circumradius, -e), math.ldexp(p2.circumradius, -e)
    px, py = math.ldexp(point.x - c1.x, -e), math.ldexp(point.y - c1.y, -e)
    dx, dy = math.ldexp(c2.x - c1.x, -e), math.ldexp(c2.y - c1.y, -e)
    toward = math.atan2(py - dy, px - dx)
    at_origin = RegularPolygonSpec(p1.n, PlanePoint(0.0, 0.0), r1, p1.phase)
    expected = [
        tuple(
            normalize_angle(toward + t)
            for t in phase_candidates(r1, r2, PlanePoint(px, py).distance_to(vertex))
        )
        for vertex in vertices(at_origin)
    ]

    def no_vertices(poly):
        raise AssertionError("all vertices built")

    monkeypatch.setattr(pairing, "vertices", no_vertices)
    phases = [
        tuple(poly.phase for poly in align_second_polygon(p1, p2, point, k))
        for k in range(p1.n)
    ]
    assert phases == expected


def test_pairing_builds_validated_objects_only_for_its_results(monkeypatch):
    # One circle family and one center per candidate point, shared by both
    # rotation branches, and one polygon per accepted branch: no validated
    # object per vertex or per rejected branch. A value is counted where its
    # constructor runs, or where pairing builds it from checked fields.
    inst = random_instance(8, 7)
    p1, p2 = inst.polygon1, inst.polygon2
    built = {PlanePoint: 0, RegularPolygonSpec: 0, CircleFamily: 0}

    def counted(cls, original):
        def counting(*args, **kwargs):
            built[cls] += 1
            return original(*args, **kwargs)

        return counting

    for cls in built:
        monkeypatch.setattr(cls, "__init__", counted(cls, cls.__init__))
    for cls, builder in ((RegularPolygonSpec, "_polygon"), (CircleFamily, "_family")):
        monkeypatch.setattr(pairing, builder, counted(cls, getattr(pairing, builder)))
    results = pair_polygons(p1, p2)
    assert len(results) == 4
    points = len({id(result.center) for result in results})
    assert points == 2
    assert built == {PlanePoint: points, RegularPolygonSpec: len(results), CircleFamily: points}


def test_pairing_gates_each_meeting_point_once(monkeypatch):
    # The law-of-cosines kernel is even in the opening angle, so one gate
    # decides both rotation branches at a meeting point.
    p1, p2 = random_instance(8, 7)[:2]
    forward, calls = pairing.law_of_cosines_distances, []

    def counted(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(pairing, "law_of_cosines_distances", counted)
    results = pair_polygons(p1, p2)
    points = {result.center for result in results}
    assert len(results) == 4 and len(points) == 2
    assert len(calls) == len(points)


def test_gate_warning_points_at_the_caller_in_the_callers_units(monkeypatch):
    # A branch that fails the full-multiset gate is reported, not dropped;
    # the warning names the caller's line and the caller's lengths.
    k = -300
    inst = random_instance(8, 7)
    p1, p2 = (
        RegularPolygonSpec(
            p.n,
            PlanePoint(math.ldexp(p.center.x, k), math.ldexp(p.center.y, k)),
            math.ldexp(p.circumradius, k),
            p.phase,
        )
        for p in (inst.polygon1, inst.polygon2)
    )
    points = candidate_centers(p1, p2)
    monkeypatch.setattr(pairing, "multiset_close", lambda *args: False)
    with pytest.warns(RuntimeWarning) as caught:
        assert pair_polygons(p1, p2) == []
    assert len(caught) == len(points) == 2  # one gate decides both branches
    for warning, point in zip(caught, points):
        assert warning.filename == __file__
        head = f"aligned distance pair did not propagate to the full multiset at {point}; "
        message = str(warning.message)
        assert message.startswith(head + "largest gap ")
        assert 0.0 <= float(message[len(head + "largest gap "):]) <= 1e-12 * p1.circumradius


def result_pairs():
    """Polygon pairs from random_instance, point polygons included, as drawn,
    scaled so that the largest length has binary exponent 510 or -510, and
    shifted by 1e9 largest lengths."""
    for n in (*range(3, 13), 32, 64, 257):
        for point in (False, True):
            inst = random_instance(n, n, zero_smaller_radius=point)
            p1, p2 = inst.polygon1, inst.polygon2
            largest = max(p1.circumradius, p2.circumradius, p1.center.distance_to(p2.center))
            e = math.frexp(largest)[1]
            yield p1, p2
            for k in (510 - e, -510 - e):
                yield tuple(
                    RegularPolygonSpec(
                        n,
                        PlanePoint(math.ldexp(p.center.x, k), math.ldexp(p.center.y, k)),
                        math.ldexp(p.circumradius, k),
                        p.phase,
                    )
                    for p in (p1, p2)
                )
            yield tuple(
                RegularPolygonSpec(
                    n, PlanePoint(p.center.x + 1e9 * largest, p.center.y), p.circumradius, p.phase
                )
                for p in (p1, p2)
            )


def test_pairing_results_hold_what_their_constructors_accept_unchanged():
    # Each family and aligned polygon is the value its public constructor
    # builds from the same fields: sorted finite float radii, a phase in
    # [0, 2 pi).
    count = 0
    for p1, p2 in result_pairs():
        for result in pair_polygons(p1, p2):
            count += 1
            circles, aligned = result.circles, result.aligned_second
            assert CircleFamily(circles.center, circles.radii) == circles
            assert circles.center is result.center
            assert all(type(r) is float for r in circles.radii)
            rebuilt = RegularPolygonSpec(
                aligned.n, aligned.center, aligned.circumradius, aligned.phase
            )
            assert rebuilt == aligned
            assert 0.0 <= aligned.phase < 2.0 * math.pi
            assert (aligned.n, aligned.center, aligned.circumradius) == (
                p2.n, p2.center, p2.circumradius
            )
            assert type(aligned.circumradius) is float and type(aligned.phase) is float
    assert count > 200
