"""The mirror phase candidate: never placed.

:func:`geom.phase_candidates` returns an opening angle t and its mirror -t.
cos is even, and :func:`geom.law_of_cosines_distances` is exactly even in
t, so the mirror places the same distance multiset as t bit for bit, and
``reconstruct._find_phase`` places t alone. These tests count the
placements, compare every verdict with a loop that always tries both, and
measure the gap between the two placements, which is 0.
"""

import math
import random

import pytest

from concentric_gons import (
    CircleFamily,
    InfeasibleFamily,
    PlanePoint,
    Tolerance,
    random_instance,
    reconstruct_polygons,
)
from concentric_gons import reconstruct
from concentric_gons.geom import largest_gap, law_of_cosines_distances
from concentric_gons.oracle import SplitMix64

SIZES = (3, 4, 5, 8, 12, 16, 32, 64)


def far_family(seed: int) -> CircleFamily:
    """``random_instance(64, seed)`` with one radius grown by 10%, as the
    circles benchmark makes a family infeasible."""
    radii = sorted(random_instance(64, seed).family.radii)
    radii[random.Random(seed).randrange(64)] *= 1.1
    return CircleFamily(PlanePoint(0.0, 0.0), tuple(sorted(radii)))


def noisy_family() -> CircleFamily:
    """The output corpus's n = 8 family with 1e-8 relative noise: its
    placements miss the gate inside the polish band."""
    noisy = random_instance(8, 1)
    rng = SplitMix64(8)
    radii = sorted(d * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0)) for d in noisy.family.radii)
    return CircleFamily(noisy.point, tuple(radii))


def placements(monkeypatch):
    """Record each law-of-cosines placement the phase search makes, by its
    angle, and ``"polish"`` where the polish starts."""
    calls = []
    forward, polish = reconstruct.law_of_cosines_distances, reconstruct._polish

    def counted(a, b, n, t):
        calls.append(t)
        return forward(a, b, n, t)

    def marked(*args):
        calls.append("polish")
        return polish(*args)

    monkeypatch.setattr(reconstruct, "law_of_cosines_distances", counted)
    monkeypatch.setattr(reconstruct, "_polish", marked)
    return calls


def test_a_far_refusal_places_once(monkeypatch):
    calls = placements(monkeypatch)
    for seed in (2, 3, 4, 5):
        calls.clear()
        with pytest.raises(InfeasibleFamily, match="too far to polish"):
            reconstruct_polygons(far_family(seed))
        assert len(calls) == 1 and calls[0] > 0.0


def test_a_polish_band_family_polishes_its_one_placement(monkeypatch):
    family = noisy_family()
    expected = repr(reconstruct_polygons(family))
    calls = placements(monkeypatch)
    assert repr(reconstruct_polygons(family)) == expected
    t = calls[0]
    assert calls[:2] == [t, "polish"]


def find_phase_trying_both(n, r, l, radii, tol):
    """The phase search as it ran while it evaluated the mirror candidate
    after every miss: the reference the skip must agree with."""
    accept = tol.multiset_gate()
    a, b = r * r + l * l, 2.0 * r * l
    larger, smaller = max(r, l), min(r, l)
    candidates = reconstruct.phase_candidates(r, l, radii[-1], tol) if smaller > 0.0 else ()
    best = None
    for t in candidates or (math.pi if radii[-1] > larger + smaller else 0.0,):
        distances = law_of_cosines_distances(a, b, n, t)
        if reconstruct.multiset_close(distances, radii, accept):
            return t, larger, smaller
        gap = reconstruct._relative_gap(distances, radii)
        if best is None or gap < best[0]:
            best = (gap, t)
    gap = best[0]
    polished = gap <= math.sqrt(tol.relative_eps)
    if polished:
        polished_gap, t, larger, smaller = reconstruct._polish(
            n, larger, smaller, best[1], radii, tol
        )
        a, b = larger * larger + smaller * smaller, 2.0 * larger * smaller
        if reconstruct.multiset_close(law_of_cosines_distances(a, b, n, t), radii, accept):
            return t, larger, smaller
        gap = min(gap, polished_gap)
    raise InfeasibleFamily(
        f"no placement reproduces the radii: best relative gap {gap:.3g} against "
        f"the gate {accept.relative_eps:.3g}, "
        + ("polished without reaching the gate" if polished else "too far to polish")
    )


def nudged_families(n: int):
    """Seeded families with one radius scaled by 1 +/- 10^u, u drawn from
    [-10, -0.5]: random instances, one in eight a point polygon, and equal
    arms placed at a vertex angle or half way between, where one distance is
    0 or the mirror coincides."""
    rng = random.Random(n)
    step = 2.0 * math.pi / n
    for i in range(48):
        if i % 8 == 7:
            r = rng.uniform(0.1, 10.0)
            t = (rng.randrange(n) + rng.choice((0.0, 0.5))) * step
            radii = law_of_cosines_distances(2.0 * r * r, 2.0 * r * r, n, t)
        else:
            radii = list(random_instance(n, rng.getrandbits(63), zero_smaller_radius=i % 8 == 3)
                         .family.radii)
        radii[rng.randrange(n)] *= 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10, -0.5)
        yield CircleFamily(PlanePoint(0.0, 0.0), tuple(sorted(radii)))


def outcome(family, tol):
    try:
        rec = reconstruct_polygons(family, tol)
    except InfeasibleFamily as exc:
        return f"infeasible: {exc}"
    return repr(rec)


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(1e-13)], ids=["default", "1e-13"])
@pytest.mark.parametrize("n", SIZES)
def test_skipping_the_mirror_changes_no_verdict(monkeypatch, n, tol):
    # Tolerance(1e-13) narrows the polish band to 3.2e-7.
    families = list(nudged_families(n))
    now = [outcome(family, tol) for family in families]
    monkeypatch.setattr(reconstruct, "_find_phase", find_phase_trying_both)
    before = [outcome(family, tol) for family in families]
    assert now == before
    # Both sides of the skip are taken: refusals too far to polish, and
    # families inside the band, accepted or polished. Nudged n = 3 families
    # end inside the band or fail condition I.
    assert any(o.endswith("too far to polish") for o in now) == (n > 3)
    assert any(not o.endswith("too far to polish") for o in now)


def mirror_gap(r: float, l: float, n: int, t: float) -> float:
    """The largest gap between the placements at t and -t, relative to the
    largest distance, as the gate measures gaps: 0 for an even kernel."""
    a, b = r * r + l * l, 2.0 * r * l
    plus = law_of_cosines_distances(a, b, n, t)
    minus = law_of_cosines_distances(a, b, n, -t)
    return largest_gap(plus, minus) / max(plus[-1], minus[-1])


@pytest.mark.parametrize("n", SIZES)
def test_the_mirror_placement_differs_by_rounding_within_the_margin(n):
    rng = random.Random(100 + n)
    step = 2.0 * math.pi / n
    worst = 0.0
    for _ in range(300):
        r = rng.uniform(0.1, 1.0)
        for l in (rng.uniform(0.1, 1.0), r):  # seeded and equal arms
            angles = [rng.uniform(-math.pi, math.pi)]
            # A vertex angle, and angles within sqrt(u) of one, where equal
            # arms put a distance at or near 0 and rounding of its square
            # grows by a square root.
            vertex = rng.randrange(n) * step
            angles += [vertex, *(vertex + rng.uniform(-3e-8, 3e-8) for _ in range(3))]
            for t in angles:
                worst = max(worst, mirror_gap(r, l, n, math.remainder(t, 2.0 * math.pi)))
    assert mirror_gap(1.0, 1.0, n, 0.0) == 0.0
    assert worst == 0.0
