"""The paper's identities for triangles and squares in ``closed_forms``,
and their agreement with the moment path."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, strategies as st

from closed_forms import (
    SumConditionViolated,
    TriangleInequalityViolated,
    associated_triangles,
    heron_area,
    square_circle_radii,
    square_cubic_residual,
    square_feasibility,
    triangle_circle_radii,
    triangle_feasibility,
)
from concentric_gons import (
    CircleFamily,
    PlanePoint,
    condition_two,
    cyclic_averages,
    recover_circumradii,
)
from concentric_gons.cli import main

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

TRIANGLE_FAMILY = (math.sqrt(5 - 2 * SQRT3), math.sqrt(5), math.sqrt(5 + 2 * SQRT3))
SQUARE_FAMILY = (math.sqrt(5 - 2 * SQRT3), SQRT3, math.sqrt(7), math.sqrt(5 + 2 * SQRT3))

circum = st.floats(min_value=0.1, max_value=10.0)


# ------------------------------------------------------- triangles


def test_triangle_worked_family():
    fit = triangle_feasibility(*TRIANGLE_FAMILY)
    assert fit.exists and not fit.degenerate
    assert fit.larger == pytest.approx(2.0, abs=1e-12)
    assert fit.smaller == pytest.approx(1.0, abs=1e-12)


def test_triangle_collinear_family_is_degenerate():
    fit = triangle_feasibility(1, 1, 2)
    assert fit.exists and fit.degenerate
    assert fit.larger == pytest.approx(1.0, abs=1e-12)
    assert fit.smaller == pytest.approx(1.0, abs=1e-12)


def test_triangle_infeasible_family():
    fit = triangle_feasibility(1, 1, 3)
    assert not fit.exists


def test_triangle_circle_radii_worked():
    d2, d3 = triangle_circle_radii(2, 1, math.sqrt(5 - 2 * SQRT3))
    assert d2 == pytest.approx(math.sqrt(5), abs=1e-12)
    assert d3 == pytest.approx(math.sqrt(5 + 2 * SQRT3), abs=1e-12)


def test_triangle_circle_radii_degenerate():
    assert triangle_circle_radii(1, 1, 2) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_triangle_circle_radii_point_polygon():
    assert triangle_circle_radii(4.0, 0.0, 4.0) == pytest.approx((4.0, 4.0), abs=1e-12)


def test_triangle_circle_radii_rejects_unreachable_first_radius():
    with pytest.raises(TriangleInequalityViolated):
        triangle_circle_radii(2, 1, 4)


@given(circum, circum, st.floats(min_value=0.001, max_value=0.999))
def test_triangle_closed_form_round_trip(r1, r2, fraction):
    # Recovery conditioning degrades as sqrt(eps) when the circumradii
    # coincide; the well-separated regime must hit full precision.
    assume(abs(r1 - r2) >= 1e-3)
    lo, hi = abs(r1 - r2), r1 + r2
    d1 = lo + fraction * (hi - lo)
    d2, d3 = triangle_circle_radii(r1, r2, d1)
    fam = tuple(sorted((d1, d2, d3)))
    fit = triangle_feasibility(*fam)
    assert fit.exists
    assert fit.larger == pytest.approx(max(r1, r2), rel=1e-9, abs=1e-9)
    assert fit.smaller == pytest.approx(min(r1, r2), rel=1e-9, abs=1e-9)


def test_triangle_closed_form_equal_radii_boundary():
    # Equal circumradii collapse the recovery discriminant: accuracy drops
    # to the square root of machine epsilon but existence must still hold.
    for r in (0.1, 1.0, 7.5):
        d1 = 0.8 * r
        fam = tuple(sorted((d1, *triangle_circle_radii(r, r, d1))))
        fit = triangle_feasibility(*fam)
        assert fit.exists
        assert fit.larger == pytest.approx(r, rel=1e-7)
        assert fit.smaller == pytest.approx(r, rel=1e-7)


@given(circum, circum, st.floats(min_value=0.001, max_value=0.999))
def test_triangle_fit_matches_general_recovery(r1, r2, fraction):
    assume(abs(r1 - r2) >= 1e-3)
    lo, hi = abs(r1 - r2), r1 + r2
    d1 = lo + fraction * (hi - lo)
    fam = tuple(sorted((d1, *triangle_circle_radii(r1, r2, d1))))
    fit = triangle_feasibility(*fam)
    pair = recover_circumradii(cyclic_averages(CircleFamily(PlanePoint(0, 0), fam)))
    assert fit.larger == pytest.approx(pair.larger, rel=1e-9, abs=1e-9)
    assert fit.smaller == pytest.approx(pair.smaller, rel=1e-9, abs=1e-9)


@given(st.lists(circum, min_size=3, max_size=3))
def test_triangle_fit_square_sum_identity(radii):
    fam = tuple(sorted(radii))
    fit = triangle_feasibility(*fam)
    if not fit.exists:
        return
    square_sum = sum(r * r for r in fam)
    assert fit.larger ** 2 + fit.smaller ** 2 == pytest.approx(square_sum / 3.0, rel=1e-12)
    spread_sq = 3.0 * (square_sum / 3.0) ** 2 - 2.0 * sum(r ** 4 for r in fam) / 3.0
    assert (fit.larger ** 2 - fit.smaller ** 2) ** 2 == pytest.approx(
        spread_sq, rel=1e-8, abs=1e-9
    )


# ------------------------------------------------------- squares


def test_square_worked_family():
    fit = square_feasibility(*SQUARE_FAMILY)
    assert fit.exists and not fit.degenerate
    assert fit.larger == pytest.approx(2.0, abs=1e-12)
    assert fit.smaller == pytest.approx(1.0, abs=1e-12)
    assert fit.reason is None


def test_square_all_equal_family_has_point_polygon():
    fit = square_feasibility(1, 1, 1, 1)
    assert fit.exists and not fit.degenerate
    assert fit.larger == pytest.approx(1.0, abs=1e-12)
    assert fit.smaller == pytest.approx(0.0, abs=1e-12)


def test_square_sum_condition_failure():
    fit = square_feasibility(1, 2, 3, 4)
    assert not fit.exists
    assert fit.reason == "sum_condition"


def test_square_associated_triangle_failure():
    # Balanced sums but an impossible associated triangle.
    d1, d2, d4 = 1.0, 2.0, 10.0
    d3 = math.sqrt(d1 * d1 + d4 * d4 - d2 * d2)
    fit = square_feasibility(d1, d2, d3, d4)
    assert not fit.exists
    assert fit.reason == "associated_triangle"


def test_cubic_residual_worked_family_vanishes():
    result = square_cubic_residual(*SQUARE_FAMILY)
    assert result.residual == pytest.approx(0.0, abs=1e-9)
    assert result.triple_product == pytest.approx(0.0, abs=1e-10)


def test_cubic_residual_arithmetic_progression():
    result = square_cubic_residual(1, 2, 3, 4)
    assert result.residual == pytest.approx(2400.0, abs=1e-9)
    assert result.triple_product == pytest.approx(800.0, abs=1e-10)


def test_cubic_residual_all_equal():
    result = square_cubic_residual(2.5, 2.5, 2.5, 2.5)
    assert result.residual == pytest.approx(0.0, abs=1e-9)
    assert result.triple_product == 0.0


@given(st.lists(circum, min_size=4, max_size=4))
def test_cubic_residual_equals_three_times_product(radii):
    result = square_cubic_residual(*radii)
    scale = max(1.0, max(radii) ** 6)
    assert result.residual == pytest.approx(3.0 * result.triple_product, abs=1e-9 * scale)


def test_associated_triangles_worked_family():
    tri_set = associated_triangles(*SQUARE_FAMILY)
    assert len(tri_set.triples) == 4
    for area in tri_set.areas:
        assert area == pytest.approx(1.5, abs=1e-12)
    assert tri_set.chain_value == pytest.approx(144.0, abs=1e-9)


def test_associated_triangles_all_equal():
    tri_set = associated_triangles(1, 1, 1, 1)
    for triple, area in zip(tri_set.triples, tri_set.areas):
        assert sorted(triple) == pytest.approx(sorted((1, 1, SQRT2)))
        assert area == pytest.approx(0.5, abs=1e-12)


def test_associated_triangles_degenerate_chain():
    # Built from equal circumradii: the associated triangle collapses. A
    # collinear area is only determined to sqrt(eps) times its scale.
    d1 = 0.5
    fam = tuple(sorted((d1, *square_circle_radii(1, 1, d1))))
    tri_set = associated_triangles(*fam)
    for area in tri_set.areas:
        assert area == pytest.approx(0.0, abs=1e-7 * max(1.0, fam[3] ** 2))


def test_associated_triangles_requires_balanced_sums():
    with pytest.raises(SumConditionViolated):
        associated_triangles(1, 2, 3, 4)


@given(circum, circum, st.floats(min_value=0.001, max_value=0.999))
def test_associated_areas_all_equal_and_match_chain(r1, r2, fraction):
    lo, hi = abs(r1 - r2), r1 + r2
    d1 = lo + fraction * (hi - lo)
    fam = tuple(sorted((d1, *square_circle_radii(r1, r2, d1))))
    tri_set = associated_triangles(*fam)
    reference = tri_set.areas[0]
    scale = max(1.0, max(fam) ** 2)
    for area in tri_set.areas[1:]:
        assert area == pytest.approx(reference, abs=1e-7 * scale)
    assert 64.0 * reference ** 2 == pytest.approx(
        tri_set.chain_value, abs=1e-8 * max(1.0, max(fam) ** 4)
    )


def test_square_circle_radii_worked():
    d2, d3, d4 = square_circle_radii(2, 1, math.sqrt(5 - 2 * SQRT3))
    assert d2 == pytest.approx(SQRT3, abs=1e-12)
    assert d3 == pytest.approx(math.sqrt(7), abs=1e-12)
    assert d4 == pytest.approx(math.sqrt(5 + 2 * SQRT3), abs=1e-12)


def test_square_circle_radii_antipodal_point():
    d2, d3, d4 = square_circle_radii(1, 1, 2)
    assert d2 == pytest.approx(SQRT2, abs=1e-12)
    assert d3 == pytest.approx(SQRT2, abs=1e-12)
    assert d4 == pytest.approx(0.0, abs=1e-7)


def test_square_circle_radii_point_polygon():
    assert square_circle_radii(3.0, 0.0, 3.0) == pytest.approx((3.0, 3.0, 3.0), abs=1e-12)


@given(circum, circum, st.floats(min_value=0.001, max_value=0.999))
def test_square_closed_form_round_trip(r1, r2, fraction):
    assume(abs(r1 - r2) >= 1e-3)
    lo, hi = abs(r1 - r2), r1 + r2
    d1 = lo + fraction * (hi - lo)
    fam = tuple(sorted((d1, *square_circle_radii(r1, r2, d1))))
    fit = square_feasibility(*fam)
    assert fit.exists, fam
    assert fit.larger == pytest.approx(max(r1, r2), rel=1e-9, abs=1e-9)
    assert fit.smaller == pytest.approx(min(r1, r2), rel=1e-9, abs=1e-9)


def test_square_closed_form_equal_radii_boundary():
    for r in (0.1, 1.0, 7.5):
        d1 = 0.8 * r
        fam = tuple(sorted((d1, *square_circle_radii(r, r, d1))))
        fit = square_feasibility(*fam)
        assert fit.exists
        assert fit.degenerate
        assert fit.larger == pytest.approx(r, rel=1e-7)
        assert fit.smaller == pytest.approx(r, rel=1e-7)


@given(circum, circum, st.floats(min_value=0.001, max_value=0.999))
def test_square_output_balances_sums_exactly(r1, r2, fraction):
    lo, hi = abs(r1 - r2), r1 + r2
    d1 = lo + fraction * (hi - lo)
    d2, d3, d4 = square_circle_radii(r1, r2, d1)
    outer_candidates = sorted((d1, d2, d3, d4))
    outer = outer_candidates[0] ** 2 + outer_candidates[3] ** 2
    inner = outer_candidates[1] ** 2 + outer_candidates[2] ** 2
    assert outer == pytest.approx(inner, rel=1e-12, abs=1e-10)


@given(circum, circum, st.floats(min_value=0.001, max_value=0.999))
def test_square_families_pass_general_moment_identity(r1, r2, fraction):
    lo, hi = abs(r1 - r2), r1 + r2
    d1 = lo + fraction * (hi - lo)
    fam = tuple(sorted((d1, *square_circle_radii(r1, r2, d1))))
    ok, residuals = condition_two(cyclic_averages(CircleFamily(PlanePoint(0, 0), fam)))
    assert ok, residuals


def test_mismatched_area_route_agrees_with_heron():
    # The closed forms lean on heron_area; spot-check one associated triple.
    sides = (SQUARE_FAMILY[0], SQUARE_FAMILY[3], SQRT2 * SQUARE_FAMILY[1])
    assert heron_area(*sides) == pytest.approx(1.5, abs=1e-12)


# ------------------------------------------------------- three routes


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        return main(list(argv)), out.getvalue()


# Circumradii 1 and 1: a balanced family on the edge of its associated triangle.
EQUAL_SQUARES = tuple(sorted((0.3, *square_circle_radii(1.0, 1.0, 0.3))))


def spread_inner(rel):
    """EQUAL_SQUARES, inner squares moved ``rel * d4^2`` together; sums stay balanced."""
    d1, d2, d3, d4 = EQUAL_SQUARES
    return (d1, math.sqrt(d2 * d2 + rel * d4 * d4), math.sqrt(d3 * d3 - rel * d4 * d4), d4)


# A zero discriminant is a ratio S(2)^2 / S(4) of exactly 2/3. Each route gates
# a boundary miss in its own quantity: the closed forms accept a triangle-
# inequality miss up to 1e-9 of the longest side and a sum miss up to 1e-9 of
# d4^2, the moment path up to 0.56e-9 of the longest side for (1, 1, 2) and
# 9.6e-9 of d4^2 for SQUARE_FAMILY. The verdicts differ between those gates,
# so a miss sits 1e-9 inside a boundary or 1e-7 outside it, past every gate.
BOUNDARY_CASES = {
    "n3-zero-discriminant": (1.0, 1.0, 2.0),
    "n3-ratio-two-thirds": (1.0, 2.0, 3.0),
    "n3-point-polygon": (1.0, 1.0, 1.0),
    "n3-triangle-inequality-inside": (1.0, 1.0, 2.0 * (1.0 - 1e-9)),
    "n3-triangle-inequality-outside": (1.0, 1.0, 2.0 * (1.0 + 1e-7)),
    "n4-zero-discriminant": (0.0, SQRT2, SQRT2, 2.0),
    "n4-ratio-two-thirds": EQUAL_SQUARES,
    "n4-point-polygon": (1.0, 1.0, 1.0, 1.0),
    "n4-associated-triangle-inside": spread_inner(1e-9),
    "n4-associated-triangle-outside": spread_inner(-1e-7),
    "n4-sum-condition-above": SQUARE_FAMILY[:3] + (SQUARE_FAMILY[3] * math.sqrt(1.0 + 1e-7),),
    "n4-sum-condition-below": SQUARE_FAMILY[:3] + (SQUARE_FAMILY[3] * math.sqrt(1.0 - 1e-7),),
}


@pytest.mark.parametrize("radii", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES.keys())
def test_three_routes_one_verdict_on_the_boundary_cases(radii):
    fit = (triangle_feasibility if len(radii) == 3 else square_feasibility)(*radii)
    text = "--radii=" + ",".join(map(repr, radii))
    code, out = run_cli("reconstruct", text, "--json")
    assert run_cli("check", text)[0] == code == (0 if fit.exists else 2)
    if fit.exists:
        found = json.loads(out)["circumradii"]
        assert abs(found["larger"] - fit.larger) <= 1e-9 * fit.larger
        assert abs(found["smaller"] - fit.smaller) <= 1e-9 * fit.larger
