"""One verdict for a circles family: the recovery discriminant's gate, then
the placement's length gate, polished by Gauss-Newton when it barely misses.
``check``, ``reconstruct`` and ``verify --input`` all read it. The paper's
conditions I and II are a report that only the CLI builds, with
``assess_feasibility(cyclic_averages(family), tol)``, and they agree with
the verdict outside a measured band."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from concentric_gons import (
    CircleFamily,
    InfeasibleFamily,
    PlanePoint,
    SplitMix64,
    assess_feasibility,
    cyclic_averages,
    random_instance,
    reconstruct_polygons,
)
from concentric_gons import moments, reconstruct
from concentric_gons.cli import main
from concentric_gons.geom import DEFAULT_TOLERANCE, law_of_cosines_distances

GATE = DEFAULT_TOLERANCE.multiset_gate().relative_eps
SQRT3 = math.sqrt(3.0)
SQUARE_FAMILY = (math.sqrt(5 - 2 * SQRT3), SQRT3, math.sqrt(7), math.sqrt(5 + 2 * SQRT3))


def generated(n, larger, smaller, t):
    """The family of arms (larger, smaller) at phase t, from the library's
    own law-of-cosines kernel."""
    return tuple(law_of_cosines_distances(larger ** 2 + smaller ** 2, 2 * larger * smaller, n, t))


def family(radii):
    return CircleFamily(PlanePoint(0.0, 0.0), tuple(sorted(radii)))


def run(*argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


def circles_file(path, radii):
    path.write_text(
        json.dumps({
            "format": "concentric-gons/1",
            "kind": "circles",
            "circles": {"center": [0.0, 0.0], "radii": list(radii)},
        }),
        encoding="utf-8",
    )
    return str(path)


def verdicts(path, radii):
    """Exit codes of check, reconstruct and verify --input on one family."""
    text = "--radii=" + ",".join(map(repr, radii))
    source = circles_file(path, radii)
    return run("check", text), run("reconstruct", text), run("verify", "--input", source)


# R = 1 and r = 1 - 3e-8: the discriminant sits at the rounding threshold,
# so recovery returns R = r exactly and only the polish finds the placement.
BOUNDARY = [(n, t) for n in (4, 8, 16, 64) for t in (0.0, 1e-9)]


@pytest.mark.parametrize("n, t", BOUNDARY)
def test_boundary_families_are_feasible_on_every_route(tmp_path, n, t):
    radii = generated(n, 1.0, 1.0 - 3e-8, t)
    assert verdicts(tmp_path / "circles.json", radii) == (0, 0, 0)
    rec = reconstruct_polygons(family(radii))
    assert max(rec.residuals) <= GATE * radii[-1]
    assert assess_feasibility(cyclic_averages(family(radii))).degenerate_single_polygon


SWEEP_DELTAS = (0.0, *(10.0 ** -k for k in range(3, 14)), 3e-7, 3e-8, 3e-9)


@pytest.mark.parametrize("n", (3, 4, 5, 8, 16, 64, 256))
def test_sweep_near_equal_arms_gives_one_verdict(tmp_path, n):
    # Every family is generated, so every route must call it feasible.
    phases = (0.0, math.pi / n, 1e-9, 0.3, 0.7, math.pi / n - 1e-9)
    path = tmp_path / "circles.json"
    for delta in SWEEP_DELTAS:
        for t in phases:
            radii = generated(n, 1.0, 1.0 - delta, t)
            assert verdicts(path, radii) == (0, 0, 0), (delta, t)


@pytest.mark.parametrize("n, t", [(5, 0.0), (6, 0.3), (8, 0.0), (8, 1e-9), (64, 0.0)])
@pytest.mark.parametrize("smaller", [1e-5, 2e-5])
def test_a_small_second_circumradius_is_placed_within_the_gate(n, t, smaller):
    # smaller^2 is below relative_eps, but a point polygon would miss the
    # radii by about smaller: the placement must pass the gate instead. At
    # t = 0 and even n the largest radius is R + r, out of reach of the
    # recovered arms by rounding, so the placement puts a vertex there.
    radii = generated(n, 1.0, smaller, t)
    rec = reconstruct_polygons(family(radii))
    assert not rec.point_polygon
    assert max(rec.residuals) <= GATE * radii[-1]
    assert rec.circumradii.smaller == pytest.approx(smaller, rel=1e-6)


def test_the_decision_builds_no_power_table(monkeypatch):
    feasible = random_instance(64, 3).family
    perturbed = family(feasible.radii[:-1] + (feasible.radii[-1] * 1.01,))

    def forbidden(*args):
        raise AssertionError("the decision read the O(n^2) power table")

    monkeypatch.setattr(moments, "condition_two", forbidden)
    monkeypatch.setattr(reconstruct, "cyclic_averages", forbidden)
    reconstruct_polygons(feasible)
    with pytest.raises(InfeasibleFamily):
        reconstruct_polygons(perturbed)
    monkeypatch.undo()
    assert assess_feasibility(cyclic_averages(feasible)).feasible
    assert not assess_feasibility(cyclic_averages(perturbed)).feasible


def test_a_miss_names_its_gap_and_whether_the_polish_ran():
    far = SQUARE_FAMILY[:3] + (SQUARE_FAMILY[3] * 1.01,)
    with pytest.raises(InfeasibleFamily, match=r"best relative gap .* too far to polish"):
        reconstruct_polygons(family(far))
    near = SQUARE_FAMILY[:3] + (SQUARE_FAMILY[3] * math.sqrt(1.0 + 1e-7),)
    with pytest.raises(InfeasibleFamily, match=r"gap 2\.\d+e-08 .* polished without reaching"):
        reconstruct_polygons(family(near))


# ----------------------------------------------- the band against condition II


def noisy(n):
    """random_instance(n, 1) with relative noise eps * u_k on radius k, u_k
    uniform in [-1, 1] from SplitMix64(n), as the output corpus's noisy file."""
    radii = random_instance(n, 1).family.radii
    rng = SplitMix64(n)
    weights = [rng.uniform(-1.0, 1.0) for _ in radii]
    return lambda eps: [d * (1.0 + eps * w) for d, w in zip(radii, weights)]


def paper_feasible(radii):
    return assess_feasibility(cyclic_averages(family(radii))).feasible


def verdict(radii):
    try:
        reconstruct_polygons(family(radii))
    except InfeasibleFamily:
        return False
    return True


def edge(perturbed, accepts):
    """The largest perturbation ``accepts`` still takes, by bisection on a
    log scale between 1e-12 (taken) and 1e-3 (refused)."""
    lo, hi = 1e-12, 1e-3
    assert accepts(perturbed(lo)) and not accepts(perturbed(hi))
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if accepts(perturbed(mid)) else (lo, mid)
    return lo


# Measured edges: (condition I and II, the verdict). Between them the
# paper's conditions refuse what the placement reproduces within its gate;
# outside, both agree. On (1, 1, 2(1 + x)) both gate the same discriminant.
BAND = {
    "triangle": (lambda x: (1.0, 1.0, 2.0 * (1.0 + x)), 5.625e-10, 5.625e-10),
    "square_above": (lambda x: SQUARE_FAMILY[:3] + (SQUARE_FAMILY[3] * math.sqrt(1.0 + x),),
                     9.649e-9, 4.726e-8),
    "square_below": (lambda x: SQUARE_FAMILY[:3] + (SQUARE_FAMILY[3] * math.sqrt(1.0 - x),),
                     9.649e-9, 4.726e-8),
    "noise_n8": (noisy(8), 1.803e-9, 1.168e-8),
    "noise_n64": (noisy(64), 3.398e-10, 1.339e-8),
}


@pytest.mark.parametrize("perturbed, paper_edge, verdict_edge", BAND.values(), ids=BAND.keys())
def test_condition_two_agrees_with_the_verdict_outside_the_measured_band(
    perturbed, paper_edge, verdict_edge
):
    assert edge(perturbed, paper_feasible) == pytest.approx(paper_edge, rel=1e-3)
    assert edge(perturbed, verdict) == pytest.approx(verdict_edge, rel=1e-3)
    for x in (paper_edge / 2, verdict_edge * 2):
        assert paper_feasible(perturbed(x)) == verdict(perturbed(x))


def test_the_noisy_corpus_family_sits_in_the_band():
    radii = noisy(8)(1e-8)
    assert not paper_feasible(radii)
    rec = reconstruct_polygons(family(radii))
    assert max(rec.residuals) <= GATE * max(radii)
