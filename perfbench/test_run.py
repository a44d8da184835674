"""Smoke runs of the benchmark at tiny size, so that it cannot rot.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Per-layer metrics that count work rather than time it: for one seed they
# must repeat exactly.
COUNT_UNITS = ("count", "bytes", "ratio")


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_all_present_and_nonzero(workload):
    deck = run.build_deck(workload, 3, tiny=True)
    counts, values = run.end_to_end(workload, 3, 0.0, deck, setup_samples=1)
    result = run.result(SPEC["end_to_end"], counts, values)
    assert result["correct"]
    assert result["attempted"] == len(deck)
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0.0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        deck = run.build_deck(workload, 5, tiny=True)
        counts, values = run.per_layer(workload, 5, 0.0, deck, import_samples=1)
        runs.append(run.result(SPEC["per_layer"], counts, values))
    first, second = (r["metrics"] for r in runs)
    assert set(first) == _names("per_layer")
    for name, metric in first.items():
        if metric["unit"] in COUNT_UNITS:
            assert metric["value"] == second[name]["value"], name
    exercised = {
        "circles": "moments.condition2_orders_per_op",
        "polygons": "pairing.multiset_close.calls_per_op",
        "cli": "oracle.angle_sweep.calls_per_op",
    }[workload]
    assert first[exercised]["value"] > 0.0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "circles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
