#!/usr/bin/env python3
"""Where a benchmark pass goes: per deck label, the median scaled latency of
its operations and the label's share of a pass.

    python3 scripts/deck_split.py --workload circles --seed 1 --seconds 10

Labels are the vertex counts (``n3`` ... ``n64``) on circles and polygons,
and the subcommand on cli. The deck, the passes and each operation's
latency (the median of its scaled repeats) are those of
``perfbench/run.py``: its ``build_deck``, ``run_passes`` and
``Timings.typical()``, run in this process on this checkout's ``src/``.
Every operation counts, whatever its grade. ``--tiny`` runs the small deck
that the benchmark's own tests use.
"""

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (perfbench/run.py)


def split(labels: list[str], latencies: list[float]) -> list[tuple[str, int, float, float]]:
    """(label, operations, median ns, share of the pass) per label: vertex
    counts ascending, subcommands in the order they first appear."""
    by_label = {}
    for label, ns in zip(labels, latencies):
        by_label.setdefault(label, []).append(ns)
    total = sum(latencies)

    def vertex_count(item):
        digits = item[0][1:]
        return int(digits) if digits.isdigit() else 0

    return [
        (label, len(values), statistics.median(values), sum(values) / total)
        for label, values in sorted(by_label.items(), key=vertex_count)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tiny", action="store_true", help="the benchmark tests' small deck")
    args = parser.parse_args(argv)
    deck = run.build_deck(args.workload, args.seed, tiny=args.tiny)
    _, timings, _ = run.run_passes(deck, args.seconds)
    latencies = timings.typical()
    print(f"{'label':<12} {'ops':>5} {'median_us':>10} {'share':>7}")
    for label, count, median, share in split([op.label for op in deck], latencies):
        print(f"{label:<12} {count:>5} {median / 1e3:>10.2f} {share:>7.1%}")
    print(f"pass: {len(deck)} ops, {sum(latencies) / 1e6:.3f} ms over {timings.passes} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
