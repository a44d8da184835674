#!/usr/bin/env python3
"""Benchmark of concentric_gons: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload circles --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. One process and one thread run a closed loop over a deck of
operations built from ``--seed``: run one operation, grade it against the
generating geometry, then start the next. The deck repeats until
``--seconds`` have passed, one whole pass at a time; the first pass warms up
and is graded but not timed. A fixed reference kernel (``reference.py``) is
timed between every two operations, and each operation's latency is scaled
by the kernel's time next to it, so that the host's changing speed cancels.
Each operation's latency is the median of its scaled repeats, one per pass.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json. With ``--trace 1`` untraced and traced passes
alternate, and the object holds the per-layer metrics instead: span times
and counts from the traced passes, and the tracing overhead as the drop in
ops/s from the untraced passes. Spans are written to
``.perfbench_out/spans-<workload>-<seed>.tsv.gz``.

``attempted`` counts the deck's operations; every pass grades each of them
again. ``correct`` is false when any operation answered against the truth: a
wrong verdict, wrong radii or placement, an SVG that does not parse, or
output that differs when an argv repeats. ``failed`` counts those plus
operations that raised instead of answering, in any pass; ``failed /
attempted`` is the wrong fraction. For one seed both counts repeat exactly.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from reference import REFERENCE_NS, reference_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("circles", "polygons", "cli")
# Inputs per vertex count: 2016 operations per pass for circles and
# polygons, 55 for cli.
PER_N = {"circles": 336, "polygons": 336, "cli": 2}
TAIL_BEYOND = 10
# Passes whose latencies are kept; earlier ones are overwritten.
DEPTH = 64
SETUP_SAMPLES = 25
IMPORT_SAMPLES = 5
# Spans are kept in memory, 40 bytes each; tracing stops beyond this many.
SPAN_CAP = 400_000
CLI_SUBCOMMANDS = ("check", "reconstruct", "pair", "render", "verify")
OK = "ok"
# Grades from best to worst.
RANK = {OK: 0, "raised": 1, "wrong": 2}

# First call of each workload, timed with the import in a fresh interpreter.
FIRST_CALL = {
    "circles": (
        "import concentric_gons as c\n"
        "c.reconstruct_polygons(c.CircleFamily(c.PlanePoint(0.0, 0.0), (1.0, 1.0, 2.0)))\n"
    ),
    "polygons": (
        "import concentric_gons as c\n"
        "c.pair_polygons(c.RegularPolygonSpec(3, c.PlanePoint(0.0, 0.0), 1.0, 0.0),\n"
        "                c.RegularPolygonSpec(3, c.PlanePoint(1.5, 0.0), 1.0, 0.3))\n"
    ),
    "cli": (
        "import concentric_gons.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    c.main(['check', '--radii', '1,1,2', '--json'])\n"
    ),
}


def _fresh_python(args: list[str]) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {done.stderr.strip()}")
    return done


def setup_sample(workload: str) -> tuple[float, float]:
    """Import plus first call, timed inside a fresh interpreter: wall seconds,
    and seconds scaled by the reference kernel timed right after it in the
    same interpreter. The kernel is imported only after the timed part, so
    that the modules it shares with the library are not loaded early."""
    code = (
        f"import contextlib, io, sys, time\nsys.path.insert(0, {str(SRC)!r})\n"
        "started = time.perf_counter()\n"
        f"{FIRST_CALL[workload]}"
        "took = time.perf_counter() - started\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import reference, statistics\n"
        "kernel = [reference.reference_ns() for _ in range(60)][20:]\n"
        "print(took, took * reference.REFERENCE_NS / statistics.median(kernel))\n"
    )
    wall, scaled = _fresh_python(["-c", code]).stdout.split()
    return float(wall), float(scaled)


def import_breakdown_ms(samples: int) -> dict[str, float]:
    """Cumulative import time of the package and of the CLI module, from
    ``-X importtime`` in fresh interpreters (median)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import concentric_gons.cli"
    found = {"concentric_gons": [], "concentric_gons.cli": []}
    for _ in range(samples):
        for line in _fresh_python(["-X", "importtime", "-c", code]).stderr.splitlines():
            parts = [part.strip() for part in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                found[parts[2]].append(int(parts[1]) / 1000.0)
    return {
        "import.package_ms": statistics.median(found["concentric_gons"]),
        "import.cli_ms": statistics.median(found["concentric_gons.cli"]),
    }


def build_deck(workload: str, seed: int, tiny: bool = False):
    import workloads

    if workload == "cli":
        sizes = workloads.CLI_SIZES[:1] if tiny else workloads.CLI_SIZES
        return workloads.cli_deck(seed, OUT / f"cli-{seed}", sizes, 1 if tiny else PER_N["cli"])
    per_n = 4 if tiny else PER_N[workload]
    deck = workloads.circles_deck if workload == "circles" else workloads.polygons_deck
    return deck(seed, per_n)


class Timings:
    """Latencies in ns of the last DEPTH passes over a deck, as measured and
    scaled to the reference kernel's speed, with the kernel times of the
    pass in progress. The arrays are allocated whole up front and a pass
    allocates nothing of its own, so that memory, and with it
    ``peak_rss_mb``, does not depend on how many passes the host's speed
    allowed."""

    def __init__(self, size: int, depth: int = DEPTH):
        self.size, self.depth, self.passes = size, depth, 0
        self.wall = array("d", bytes(8 * size * depth))
        self.scaled = array("d", bytes(8 * size * depth))
        self.kernel = array("d", bytes(8 * (size + 1)))

    def typical(self, field: str = "scaled") -> list[float]:
        """Per deck operation, its median latency over the kept passes. The
        median of an operation's own repeats drops those that a burst of
        host load slowed."""
        column, rows = getattr(self, field), range(min(self.passes, self.depth))
        return [
            statistics.median(column[row * self.size + i] for row in rows)
            for i in range(self.size)
        ]


def run_pass(deck, grades: list[str], timings: Timings, tracer=None) -> None:
    """One pass over the deck, recorded in ``timings``. Each operation's
    grade in ``grades`` becomes the worse of its old one and this pass's.
    Only the call is timed; the reference kernel runs before the first call
    and after every call, and grading happens between operations. Of the
    two kernel times around a call the smaller scales it, so that a kernel
    run hit by an interrupt does not count."""
    clock = time.perf_counter_ns
    base = timings.passes % timings.depth * timings.size
    wall, scaled, kernel = timings.wall, timings.scaled, timings.kernel
    kernel[0] = reference_ns(clock)
    for i, op in enumerate(deck):
        if tracer is not None:
            tracer.op_id += 1
        result = error = None
        started = clock()
        try:
            result = op.call()
        except Exception as exc:  # graded: a raise is a failed operation
            error = exc
        wall[base + i] = clock() - started
        kernel[i + 1] = reference_ns(clock)
        verdict = op.check(result, error)
        if RANK[verdict] > RANK[grades[i]]:
            grades[i] = verdict
    for i in range(len(deck)):
        factor = REFERENCE_NS / min(kernel[i], kernel[i + 1])
        scaled[base + i] = wall[base + i] * factor
        if tracer is not None:
            tracer.scale.append(factor)
    timings.passes += 1


def run_passes(deck, seconds: float, tracer=None, between=None):
    """A graded warm-up pass, then whole passes until ``seconds`` have
    passed. With a tracer, untraced and traced passes alternate until the
    tracer holds SPAN_CAP spans. ``between`` runs after every pass, outside
    the timed calls. Returns the grades, and the timings of the untraced
    and of the traced passes."""
    grades = [OK] * len(deck)
    run_pass(deck, grades, Timings(len(deck), depth=1))
    plain, traced = Timings(len(deck)), Timings(len(deck) if tracer else 0)
    started = time.monotonic()
    while not plain.passes or time.monotonic() - started < seconds:
        run_pass(deck, grades, plain)
        if tracer is not None and len(tracer.start) < SPAN_CAP:
            with tracer.installed():
                run_pass(deck, grades, traced, tracer)
        if between is not None:
            between()
    return grades, plain, traced


def latency(timings: Timings, grades: list[str], field: str = "scaled") -> dict[str, float]:
    """Throughput, median and tail of a typical pass. The tail is the
    latency with TAIL_BEYOND correct operations above it."""
    ops = timings.typical(field)
    correct = sorted(ns for ns, grade in zip(ops, grades) if grade == OK)
    beyond = min(TAIL_BEYOND, len(correct) - 1)
    return {
        "ops_per_s": len(correct) / (sum(ops) / 1e9),
        "op_p50_us": statistics.median(correct) / 1e3,
        "op_tail_us": correct[-beyond - 1] / 1e3,
        "tail_percentile": 100.0 * (1.0 - beyond / len(correct)),
        "tail_samples": len(correct),
    }


def tally(grades: list[str]) -> dict[str, int]:
    """Deck operations by their worst grade in any pass."""
    return {grade: grades.count(grade) for grade in RANK}


def end_to_end(workload, seed, seconds, deck, setup_samples=SETUP_SAMPLES):
    # Set-up is sampled between passes, evenly over the run, so that its
    # median spans the run's changing host load. The first sample only
    # writes the bytecode cache.
    setup_sample(workload)
    setups = []
    started = time.monotonic()

    def sample_when_due():
        if time.monotonic() - started >= len(setups) * seconds / setup_samples:
            setups.append(setup_sample(workload))

    grades, plain, _ = run_passes(deck, seconds, between=sample_when_due)
    while len(setups) < setup_samples:
        setups.append(setup_sample(workload))
    counts = tally(grades)
    attempted = len(deck)
    timing = latency(plain, grades)
    wall = latency(plain, grades, "wall")
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "ops_per_s": timing["ops_per_s"],
        "op_p50_us": timing["op_p50_us"],
        "op_tail_us": timing["op_tail_us"],
        "ok_frac": counts["ok"] / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(
        f"{workload} seed {seed}: {plain.passes} timed passes of {len(deck)} ops; "
        f"wrong_frac {1.0 - metrics['ok_frac']:.6f} "
        f"(raised {counts['raised']}, wrong {counts['wrong']}, of {attempted}); "
        f"op_tail_us is p{timing['tail_percentile']:.2f} of {timing['tail_samples']} "
        "correct operations"
    )
    print(
        f"{workload} seed {seed}: unscaled wall times: ops_per_s {wall['ops_per_s']:.1f}, "
        f"op_p50_us {wall['op_p50_us']:.1f}, op_tail_us {wall['op_tail_us']:.1f}, "
        f"setup_s {statistics.median(w for w, _ in setups):.4f}"
    )
    return counts, metrics


def per_layer(workload, seed, seconds, deck, import_samples=IMPORT_SAMPLES):
    import tracing

    tracer = tracing.Tracer()
    grades, plain, traced = run_passes(deck, seconds, tracer)
    counts = tally(grades)
    ops = len(deck) * traced.passes
    calls, total_ns, self_ns = tracer.totals()
    counted = tracer.counts

    def us(name, table=total_ns):
        return table[name] / ops / 1e3

    def per_op(count):
        return count / ops

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = {
        "moments.cyclic_averages.us_per_op": us("moments.cyclic_averages"),
        "moments.assess_feasibility.us_per_op": us("moments.assess_feasibility"),
        "moments.recover_circumradii.us_per_op": us("moments.recover_circumradii"),
        "moments.condition2_orders_per_op": per_op(counted["moments.condition2_orders"]),
        "reconstruct.reconstruct_polygons.us_per_op": us("reconstruct.reconstruct_polygons"),
        "reconstruct.self_us_per_op": us("reconstruct.reconstruct_polygons", self_ns),
        "reconstruct.phase_candidates.calls_per_op": per_op(calls["reconstruct.phase_candidates"]),
        "reconstruct.phase_accept_ratio": ratio(
            counted["reconstruct.phase_accepted"], calls["reconstruct.multiset_close"]
        ),
        "reconstruct.verify_reconstruction.us_per_op": us("reconstruct.verify_reconstruction"),
        "pairing.pair_polygons.us_per_op": us("pairing.pair_polygons"),
        "pairing.self_us_per_op": us("pairing.pair_polygons", self_ns),
        "pairing.candidate_centers.us_per_op": us("pairing.candidate_centers"),
        "pairing.align_second_polygon.us_per_op": us("pairing.align_second_polygon"),
        "pairing.distance_multiset.us_per_op": us("pairing.distance_multiset"),
        "pairing.multiset_close.calls_per_op": per_op(calls["pairing.multiset_close"]),
        "pairing.result_yield": ratio(counted["pairing.results"], counted["pairing.branches"]),
        "pairing.gate_warnings_per_op": per_op(counted["pairing.gate_warnings"]),
        "geom.vertices.calls_per_op": per_op(calls["geom.vertices"]),
        "geom.vertices.us_per_op": us("geom.vertices"),
        "oracle.angle_sweep.calls_per_op": per_op(calls["oracle.angle_sweep"]),
        "oracle.angle_sweep.us_per_op": us("oracle.angle_sweep"),
        "oracle.power_identity_residual.us_per_op": us("oracle.power_identity_residual"),
        "oracle.random_instance.us_per_op": us("oracle.random_instance"),
        "instances.load_instance.us_per_op": us("instances.load_instance"),
        "instances.dump_canonical.us_per_op": us("instances.dump_canonical"),
        "instances.json_bytes_per_op": per_op(counted["instances.json_bytes"]),
        "svg.render_configuration.us_per_op": us("svg.render_configuration"),
        "svg.svg_bytes_per_op": per_op(counted["svg.svg_bytes"]),
        "cli.build_parser.us_per_op": us("cli.build_parser"),
        "cli.self_us_per_op": us("cli.main", self_ns),
        "trace.overhead_pct": 100.0 * (
            1.0 - latency(traced, grades)["ops_per_s"] / latency(plain, grades)["ops_per_s"]
        ),
    }
    # Untraced latency per subcommand: their costs differ by 100x, so one
    # median across the mix would show only the slowest.
    untraced = list(zip((op.label for op in deck), plain.typical(), grades))
    for sub in CLI_SUBCOMMANDS:
        samples = [ns for label, ns, grade in untraced if label == sub and grade == OK]
        metrics[f"cli.{sub}_p50_us"] = statistics.median(samples) / 1e3 if samples else 0.0
    metrics.update(import_breakdown_ms(import_samples))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.tsv.gz"
    tracer.write(spans)
    print(
        f"{workload} seed {seed}: {plain.passes} untraced and {traced.passes} traced passes "
        f"of {len(deck)} ops; {len(tracer.start)} spans written to {spans.relative_to(ROOT)}"
    )
    return counts, metrics


def result(spec_metrics, counts, values) -> dict:
    """The final JSON object: exactly the metrics BENCHMARK.json lists."""
    return {
        "correct": counts["wrong"] == 0,
        "attempted": sum(counts.values()),
        "failed": counts["raised"] + counts["wrong"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "concentric_gons" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'concentric_gons'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    deck = build_deck(args.workload, args.seed)
    if args.trace:
        counts, values = per_layer(args.workload, args.seed, args.seconds, deck)
        names = spec["per_layer"]
    else:
        counts, values = end_to_end(args.workload, args.seed, args.seconds, deck)
        names = spec["end_to_end"]
    print(json.dumps(result(names, counts, values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
