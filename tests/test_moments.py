import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from concentric_gons import (
    CircleFamily,
    InfeasibleMoments,
    InvalidMomentOrder,
    PlanePoint,
    RegularPolygonSpec,
    assess_feasibility,
    condition_one,
    condition_two,
    cyclic_averages,
    distance_multiset,
    random_instance,
    reconstruct_polygons,
    recover_circumradii,
    two_radius_power_sum,
)
from concentric_gons.moments import _predicted_averages

from closed_forms import average_power

SQRT3 = math.sqrt(3.0)

TRIANGLE_FAMILY = (math.sqrt(5 - 2 * SQRT3), math.sqrt(5), math.sqrt(5 + 2 * SQRT3))
SQUARE_FAMILY = (math.sqrt(5 - 2 * SQRT3), SQRT3, math.sqrt(7), math.sqrt(5 + 2 * SQRT3))

radii_values = st.floats(min_value=0.05, max_value=10.0)
orders = st.integers(min_value=3, max_value=12)


def family(*radii):
    return CircleFamily(PlanePoint(0, 0), tuple(sorted(radii)))


def brute_force_average(radii, m):
    """Independent route: plain Python sum over exact squared radii."""
    return sum(r ** (2 * m) for r in radii) / len(radii)


# ------------------------------------------------------------ averages


def test_averages_small_triangle_family():
    av = cyclic_averages(family(1, 1, 2))
    assert average_power(av, 1) == pytest.approx(2.0, abs=1e-15)
    assert average_power(av, 2) == pytest.approx(6.0, abs=1e-15)


def test_averages_worked_square_family():
    av = cyclic_averages(family(*SQUARE_FAMILY))
    assert average_power(av, 1) == pytest.approx(5.0, abs=1e-12)
    assert average_power(av, 2) == pytest.approx(33.0, abs=1e-12)
    assert average_power(av, 3) == pytest.approx(245.0, abs=1e-11)


def test_averages_all_equal():
    av = cyclic_averages(family(1, 1, 1, 1))
    # frexp(1.0) = (0.5, 1): the averages are those of radii 1/2.
    assert av.exponent == 1
    assert av.values == (0.25, 0.0625, 0.015625)
    assert [average_power(av, m) for m in (1, 2, 3)] == [1.0, 1.0, 1.0]


@given(st.lists(radii_values, min_size=3, max_size=10))
def test_averages_match_brute_force(radii):
    fam = family(*radii)
    av = cyclic_averages(fam)
    for m in range(1, fam.n):
        assert average_power(av, m) == pytest.approx(
            brute_force_average(fam.radii, m), rel=1e-12, abs=1e-12
        )


@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=3, max_size=24))
def test_first_two_averages_are_compensated_sums(radii):
    # The averages are those of the radii divided by 2^e, e the binary
    # exponent of the largest radius; a largest fourth power below the
    # smallest normal double (Hypothesis found 0, 0, 7.6e-218) is no
    # longer an error.
    fam = family(*radii)
    av = cyclic_averages(fam)
    assert av.exponent == math.frexp(fam.radii[-1])[1]
    # x * x, as the library squares: libm's pow can round x ** 2 differently
    # (Hypothesis found 0, 0, 790.255843953794).
    squares = [x * x for x in (math.ldexp(r, -av.exponent) for r in fam.radii)]
    assert av.values[0] == math.fsum(squares) / fam.n
    assert av.values[1] == math.fsum(q * q for q in squares) / fam.n


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (4, 8, 33, 64, 256) for seed in (1, 2)])
def test_higher_averages_are_a_left_to_right_fold(n, seed):
    # sum() of floats compensates from Python 3.12 on; the averages of
    # orders m >= 3 must not depend on the interpreter.
    fam = random_instance(n, seed).family
    av = cyclic_averages(fam)
    squares = [x * x for x in (math.ldexp(r, -av.exponent) for r in fam.radii)]
    powers = [q * q for q in squares]
    for m in range(3, n):
        powers = [p * q for p, q in zip(powers, squares)]
        total = powers[0]
        for p in powers[1:]:
            total += p
        assert av.values[m - 1] == total / n, m


def test_leading_averages_are_the_first_two_cyclic_averages():
    from concentric_gons.moments import _leading

    fam = random_instance(64, 5).family
    (leading, _), full = _leading(fam), cyclic_averages(fam)
    assert (leading.n, leading.values, leading.exponent) == (full.n, full.values[:2], full.exponent)
    with pytest.raises(ValueError, match="vertex count 257 exceeds 256"):
        _leading(CircleFamily(PlanePoint(0, 0), (1.0,) * 257))


def test_fourth_powers_are_correctly_rounded_squares_of_the_squares():
    # libm's pow, behind q ** 2, is not correctly rounded; q * q is. On this
    # family glibc 2.36's pow(q, 2.0) rounds the repeated radius's fourth
    # power down, and S(4) then misses the fsum of the correctly rounded ones.
    from concentric_gons.moments import _leading

    fam = CircleFamily(PlanePoint(0, 0), (0.6592780056592958, 0.6592780056592958, 0.75))
    av, radii = _leading(fam)
    squares = [r * r for r in radii]
    want = math.fsum(float(Fraction(q) ** 2) for q in squares) / 3
    assert want == 0.2314143763155266
    assert av.values[1] == want
    assert cyclic_averages(fam).values[1] == want


@pytest.mark.parametrize(
    "radii",
    [
        (1e6,) * 64,  # overflows from order 2m = 52 on
        (10 ** 51.5,) * 4,  # only the top order, 2m = 6, overflows
    ],
)
def test_overflowing_powers_raise_overflow_error(radii):
    """Radius powers that overflow a double in the family's units: the top
    average raises OverflowError once moved back into them. The averages
    are kept in units of 2^exponent, so the family is decided by its shape
    (equal radii: one polygon and a point)."""
    fam = family(*radii)
    av = cyclic_averages(fam)
    assert all(0.0 < v < 1.0 for v in av.values)
    with pytest.raises(OverflowError):
        average_power(av, fam.n - 1)
    rec = reconstruct_polygons(fam)
    assert rec.point_polygon
    assert rec.circumradii.larger == pytest.approx(radii[0], rel=1e-15)


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 5e-78])
def test_underflowing_radius_powers_raise(scale):
    """Fourth powers below the smallest normal double, once an error: the
    averages are kept in units of 2^exponent, so nothing underflows and the
    family 1, 1, 2 keeps its shape (feasible, one polygon of circumradius
    1) at any scale."""
    fam = family(scale, scale, 2 * scale)
    report = assess_feasibility(cyclic_averages(fam))
    assert report.feasible and report.degenerate_single_polygon
    assert report.condition1_ratio == pytest.approx(2.0 / 3.0, rel=1e-12)
    # The discriminant of a single polygon is zero up to rounding. Its
    # square root would split the circumradius by about sqrt(u), so a
    # discriminant within rounding gives two equal circumradii sqrt(S(2)/2),
    # and the radii are reproduced to rounding.
    rec = reconstruct_polygons(fam)
    assert rec.circumradii.larger == rec.circumradii.smaller == pytest.approx(scale, rel=1e-15)
    assert max(rec.residuals) <= 2e-15 * scale


@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e-76])
def test_smallest_representable_scale_keeps_the_shape(scale):
    report = assess_feasibility(cyclic_averages(family(scale, scale, 2 * scale)))
    assert report.feasible
    assert report.condition1_ratio == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_all_zero_radii_stay_feasible():
    averages = cyclic_averages(family(0.0, 0.0, 0.0, 0.0))
    assert averages.values == (0.0, 0.0, 0.0)
    assert assess_feasibility(averages).feasible


def test_vertex_count_cap():
    fam = CircleFamily(PlanePoint(0, 0), tuple(1.0 + k / 1000.0 for k in range(256)))
    assert cyclic_averages(fam).n == 256
    with pytest.raises(ValueError, match="vertex count 257 exceeds 256"):
        cyclic_averages(CircleFamily(PlanePoint(0, 0), fam.radii + (2.0,)))
    with pytest.raises(TypeError):
        cyclic_averages(fam, max_n=512)


# ------------------------------------------------- two-radius power sums


def test_power_sum_first_order():
    assert two_radius_power_sum(2, 1, 4, 1) == pytest.approx(20.0, abs=1e-12)


def test_power_sum_third_order():
    assert two_radius_power_sum(2, 1, 4, 3) == pytest.approx(980.0, abs=1e-9)


def test_power_sum_degenerate_second_radius():
    for n in (3, 5, 8):
        for m in range(1, n):
            assert two_radius_power_sum(3.0, 0.0, n, m) == pytest.approx(
                n * 3.0 ** (2 * m), rel=1e-13
            )


def test_power_sum_order_validation():
    with pytest.raises(InvalidMomentOrder):
        two_radius_power_sum(1, 1, 4, 4)
    with pytest.raises(InvalidMomentOrder):
        two_radius_power_sum(1, 1, 4, 0)


@given(radii_values, radii_values, orders, st.data())
def test_power_sum_symmetric_in_the_radii(r1, r2, n, data):
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert two_radius_power_sum(r1, r2, n, m) == pytest.approx(
        two_radius_power_sum(r2, r1, n, m), rel=1e-13
    )


@given(radii_values, radii_values, orders, st.data())
def test_power_sum_matches_direct_vertex_summation(r1, r2, n, data):
    # Independent geometric route: put the point at distance r2 from the
    # center of a circumradius-r1 polygon and sum distance powers directly.
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    phase = data.draw(st.floats(min_value=0.0, max_value=2 * math.pi))
    poly = RegularPolygonSpec(n, PlanePoint(0, 0), r1, phase)
    point = PlanePoint(r2, 0)
    direct = math.fsum(d ** (2 * m) for d in distance_multiset(poly, point))
    assert two_radius_power_sum(r1, r2, n, m) == pytest.approx(direct, rel=1e-11)


# ------------------------------------------------------------ condition I


def test_condition_one_boundary_collinear():
    ok, ratio = condition_one(cyclic_averages(family(1, 1, 2)))
    assert ok
    assert ratio == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_condition_one_boundary_all_equal():
    ok, ratio = condition_one(cyclic_averages(family(1, 1, 1, 1)))
    assert ok
    assert ratio == pytest.approx(1.0, abs=1e-15)


def test_condition_one_rejects_spread_radii():
    ok, ratio = condition_one(cyclic_averages(family(1, 1, 10)))
    assert not ok
    assert ratio == pytest.approx(1156.0 / 3334.0, abs=1e-12)


@given(st.lists(radii_values, min_size=3, max_size=8), st.floats(min_value=0.1, max_value=100.0))
def test_condition_one_ratio_is_scale_invariant(radii, scale):
    base = condition_one(cyclic_averages(family(*radii)))[1]
    scaled = condition_one(cyclic_averages(family(*(scale * r for r in radii))))[1]
    assert scaled == pytest.approx(base, rel=1e-9)


@given(st.lists(radii_values, min_size=3, max_size=8))
def test_condition_one_ratio_never_exceeds_one(radii):
    _, ratio = condition_one(cyclic_averages(family(*radii)))
    assert 0.0 <= ratio <= 1.0 + 1e-12


# ----------------------------------------------------------- condition II


def test_condition_two_worked_square_family():
    ok, residuals = condition_two(cyclic_averages(family(*SQUARE_FAMILY)))
    assert ok
    assert len(residuals) == 1
    assert residuals[0] <= 1e-14


def test_condition_two_vacuous_for_three_circles():
    ok, residuals = condition_two(cyclic_averages(family(1, 1, 2)))
    assert ok
    assert residuals == ()


def test_condition_two_rejects_arithmetic_progression():
    # Independent arithmetic: S(2)=7.5, S(4)=88.5, S(6)=4890/4=1222.5 and the
    # predicted value is 7.5^3 + 3*(88.5 - 56.25)*7.5 = 1147.5, so the
    # relative residual is 75/1222.5.
    ok, residuals = condition_two(cyclic_averages(family(1, 2, 3, 4)))
    assert not ok
    assert residuals[0] == pytest.approx(75.0 / 1222.5, abs=1e-12)


def higher_average_prediction(s2: float, s4: float, m: int) -> float:
    """The order-2m average condition II predicts from the first two."""
    return _predicted_averages(s2, s4, m)[m - 1]


def binomial_prediction(s2: float, s4: float, m: int) -> Fraction:
    """Reference: the order-2m prediction as the exact binomial sum
    ``s2^m + sum_k C(m,2k) C(2k,k) / 2^k (s4 - s2^2)^k s2^(m-2k)``."""
    s2, s4 = Fraction(s2), Fraction(s4)
    spread = max(s4 - s2 * s2, Fraction(0))
    return sum(
        Fraction(math.comb(m, 2 * k) * math.comb(2 * k, k), 2 ** k)
        * spread ** k
        * s2 ** (m - 2 * k)
        for k in range(m // 2 + 1)
    )


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=0.5),
    st.integers(min_value=3, max_value=63),
)
def test_prediction_matches_binomial_form(s2, h, m):
    s4 = s2 * s2 * (1.0 + h)
    exact = binomial_prediction(s2, s4, m)
    assert higher_average_prediction(s2, s4, m) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("h", [0.0, 0.1, 0.25, 0.4, 0.5])
def test_prediction_matches_binomial_form_near_the_largest_double(h):
    # S(2) chosen so the exact prediction sits just below DBL_MAX: the
    # normalized recurrence must neither overflow nor lose accuracy there.
    for m in range(3, 64):
        ratio = binomial_prediction(1.0, 1.0 + h, m)
        s2 = (sys.float_info.max / 4.0 / float(ratio)) ** (1.0 / m)
        s4 = s2 * s2 * (1.0 + h)
        exact = float(binomial_prediction(s2, s4, m))
        assert exact > sys.float_info.max / 8.0
        assert higher_average_prediction(s2, s4, m) == pytest.approx(exact, rel=1e-12)


def test_prediction_of_all_zero_radii():
    assert higher_average_prediction(0.0, 0.0, 5) == 0.0
    assert two_radius_power_sum(0.0, 0.0, 8, 7) == 0.0


def test_feasible_family_with_averages_near_the_largest_double():
    # n = 64 with radii 144 to 275: S(126) is about 2.3e306. A recurrence
    # on unnormalized averages overflows here and calls the family
    # infeasible.
    scale = 25.71799092463461
    fam = CircleFamily(
        PlanePoint(0, 0),
        tuple(r * scale for r in random_instance(64, 7730298120121206983).family.radii),
    )
    av = cyclic_averages(fam)
    assert 1e306 < average_power(av, 63) < 1e307
    assert assess_feasibility(av).feasible
    rec = reconstruct_polygons(fam)
    assert max(rec.residuals) <= 1e-9 * fam.radii[-1]


# -------------------------------------------------------------- recovery


def test_recover_worked_triangle_family():
    av = cyclic_averages(family(*TRIANGLE_FAMILY))
    pair = recover_circumradii(av)
    assert pair.larger == pytest.approx(2.0, abs=1e-12)
    assert pair.smaller == pytest.approx(1.0, abs=1e-12)
    assert not assess_feasibility(av).degenerate_single_polygon


def test_recover_degenerate_family():
    av = cyclic_averages(family(1, 1, 2))
    pair = recover_circumradii(av)
    assert assess_feasibility(av).degenerate_single_polygon
    assert pair.larger == pytest.approx(1.0, abs=1e-12)
    assert pair.smaller == pytest.approx(1.0, abs=1e-12)


def test_recover_all_equal_family():
    av = cyclic_averages(family(1, 1, 1, 1))
    pair = recover_circumradii(av)
    assert pair.larger == pytest.approx(1.0, abs=1e-12)
    assert pair.smaller == pytest.approx(0.0, abs=1e-12)
    assert not assess_feasibility(av).degenerate_single_polygon


def test_recover_rejects_infeasible_averages():
    with pytest.raises(InfeasibleMoments):
        recover_circumradii(cyclic_averages(family(1, 1, 10)))


@given(radii_values, radii_values, orders)
def test_round_trip_power_sums_to_radii(r1, r2, n):
    values = tuple(
        two_radius_power_sum(r1, r2, n, m) / n for m in range(1, n)
    )
    from concentric_gons import CyclicAverages

    av = CyclicAverages(n=n, values=values)
    ok2, residuals = condition_two(av)
    assert ok2, residuals
    pair = recover_circumradii(av)
    assert pair.larger == pytest.approx(max(r1, r2), rel=1e-7, abs=1e-9)
    assert pair.smaller == pytest.approx(min(r1, r2), rel=1e-7, abs=1e-6)


@given(
    orders,
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_geometric_multisets_always_pass_and_recover(n, radius, arm, phase, direction):
    # Any polygon observed from any point: averages must satisfy the higher
    # identities and recovery must return the circumradius and the arm.
    poly = RegularPolygonSpec(n, PlanePoint(0, 0), radius, phase)
    point = PlanePoint(arm * math.cos(direction), arm * math.sin(direction))
    fam = CircleFamily(point, distance_multiset(poly, point))
    av = cyclic_averages(fam)
    ok1, _ = condition_one(av)
    ok2, residuals = condition_two(av)
    assert ok1
    assert ok2, residuals
    pair = recover_circumradii(av)
    assert pair.larger == pytest.approx(max(radius, arm), rel=1e-7, abs=1e-7)
    assert pair.smaller == pytest.approx(min(radius, arm), rel=1e-7, abs=1e-6)


@given(radii_values, radii_values, orders)
def test_recovered_pair_satisfies_spread_identities(r1, r2, n):
    values = tuple(two_radius_power_sum(r1, r2, n, m) / n for m in range(1, n))
    from concentric_gons import CyclicAverages

    av = CyclicAverages(n=n, values=values)
    s2, s4 = average_power(av, 1), average_power(av, 2)
    hi, lo = max(r1, r2), min(r1, r2)
    assert 3 * s2 * s2 - 2 * s4 == pytest.approx((hi * hi - lo * lo) ** 2, rel=1e-9, abs=1e-9)
    assert s4 - s2 * s2 == pytest.approx(2 * hi * hi * lo * lo, rel=1e-9, abs=1e-9)


def test_feasibility_report_shape():
    report = assess_feasibility(cyclic_averages(family(1, 2, 3, 4)))
    assert not report.feasible
    assert not report.condition1_ok
    assert not report.condition2_ok
    assert len(report.condition2_residuals) == 1
    good = assess_feasibility(cyclic_averages(family(1, 1, 2)))
    assert good.feasible
    assert good.degenerate_single_polygon
