"""The decision depends only on the shape of the circle family.

Scaling by a power of two is exact in binary floating point, so the whole
circles-to-polygons result must scale with it bit for bit. Any other scale,
a translation or a reordering of the input must leave the verdict alone,
and ``check`` must say feasible exactly when ``reconstruct`` succeeds.
"""

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from concentric_gons import (
    CircleFamily,
    InfeasibleFamily,
    PlanePoint,
    RadiiPair,
    RegularPolygonSpec,
    Reconstruction,
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
    except InfeasibleFamily as exc:
        return exc.report


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
    scaled = outcome(ldexp_family(family, k))
    if not isinstance(base, Reconstruction):
        assert scaled == base
        return
    assert scaled.report == base.report
    assert scaled.point_polygon == base.point_polygon
    pair = base.circumradii
    assert scaled.circumradii == RadiiPair(
        math.ldexp(pair.larger, k), math.ldexp(pair.smaller, k), pair.degenerate
    )
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
