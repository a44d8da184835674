"""Three routes, one verdict: ``check`` (the moment conditions),
``reconstruct`` (recovery and phase search) and ``verify`` on a circles
file (the Cartesian law-of-cosines oracle) agree on random families in
every unit, feasible or made infeasible."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from concentric_gons import random_instance
from concentric_gons.cli import main


def _exit_code(*argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


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
