"""Three routes, one verdict: ``check`` and ``reconstruct`` (recovery and
placement) and ``verify`` on a circles file (placement, then the
law-of-cosines oracle) agree on random families in
every unit, feasible or made infeasible. Pairing feeds the same routes:
every configuration ``pair_polygons`` returns passes ``check`` and
reconstructs the two polygons' circumradii."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from concentric_gons import PlanePoint, RegularPolygonSpec, pair_polygons, random_instance
from concentric_gons.cli import main


def _run(*argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        return main(list(argv)), out.getvalue()


def _exit_code(*argv):
    return _run(*argv)[0]


def _perturbed(radii, index):
    """Infeasible by construction, as the benchmark's twins are: for n = 3
    the largest radius exceeds the sum of the other two by 10%; for n >= 4
    one radius grows by 10%."""
    radii = sorted(radii)
    if len(radii) == 3:
        radii[2] = 1.1 * (radii[0] + radii[1])
    else:
        radii[index % len(radii)] *= 1.1
    return sorted(radii)


@pytest.fixture(scope="module")
def circles_path(tmp_path_factory):
    return tmp_path_factory.mktemp("routes") / "circles.json"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=-600, max_value=600),
    infeasible=st.booleans(),
    index=st.integers(min_value=0, max_value=63),
)
def test_check_reconstruct_and_the_oracle_agree(circles_path, n, seed, k, infeasible, index):
    radii = list(random_instance(n, seed).family.radii)
    if infeasible:
        radii = _perturbed(radii, index)
    radii = [math.ldexp(r, k) for r in radii]
    circles_path.write_text(
        json.dumps({
            "format": "concentric-gons/1",
            "kind": "circles",
            "circles": {"center": [0.0, 0.0], "radii": radii},
        }),
        encoding="utf-8",
    )
    path = str(circles_path)
    verdicts = (
        _exit_code("check", "--input", path),
        _exit_code("reconstruct", "--input", path),
        _exit_code("verify", "--input", path),
    )
    assert verdicts == ((2, 2, 2) if infeasible else (0, 0, 0))


# Auxiliary circles as ``random_instance`` places them, tangent (center
# distance R1 + R2), and 1e-7 short of tangent.
AUXILIARY_GAPS = {"instance": None, "tangent": 0.0, "near_tangent": 1e-7}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    point=st.booleans(),
    auxiliary=st.sampled_from(sorted(AUXILIARY_GAPS)),
    direction=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_every_pairing_passes_check_and_reconstructs_the_circumradii(
    n, seed, point, auxiliary, direction, phase
):
    inst = random_instance(n, seed, zero_smaller_radius=point)
    p1, p2 = inst.polygon1, inst.polygon2
    gap = AUXILIARY_GAPS[auxiliary]
    if gap is not None:
        reach = p1.circumradius + p2.circumradius - gap
        center = PlanePoint(
            p1.center.x + reach * math.cos(direction), p1.center.y + reach * math.sin(direction)
        )
        p2 = RegularPolygonSpec(n, center, p2.circumradius, phase)
    results = pair_polygons(p1, p2)
    # A point polygon's auxiliary circle is its center, which the other
    # circle misses when it is 1e-7 short of tangent.
    assert results or (point and auxiliary == "near_tangent")
    larger = max(p1.circumradius, p2.circumradius)
    for result in results:
        radii = ",".join(map(repr, result.circles.radii))
        assert _exit_code("check", "--radii", radii) == 0, radii
        code, out = _run("reconstruct", "--radii", radii, "--json")
        assert code == 0, radii
        circumradii = json.loads(out)["circumradii"]
        assert abs(circumradii["larger"] - larger) <= 1e-7 * larger
        assert abs(circumradii["smaller"] - min(p1.circumradius, p2.circumradius)) <= 1e-7 * larger


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_identical_concentric_polygons_keep_their_verdicts(tmp_path_factory, n, seed):
    poly = random_instance(n, seed).polygon1
    record = {
        "n": n, "center": [poly.center.x, poly.center.y],
        "circumradius": poly.circumradius, "phase": poly.phase,
    }
    path = tmp_path_factory.mktemp("identical") / "pair.json"
    path.write_text(
        json.dumps({
            "format": "concentric-gons/1", "kind": "polygon_pair", "polygons": [record, record],
        }),
        encoding="utf-8",
    )
    code, out = _run("pair", "--input", str(path), "--json")
    assert code == 2
    assert json.loads(out)["degenerate_continuum"] is True
    code, out = _run("verify", "--input", str(path), "--json")
    assert code == 0
    assert json.loads(out)["result"]["pairing_count"] == 0
    assert _exit_code("render", "--input", str(path), "--svg", str(path.with_suffix(".svg"))) == 0
