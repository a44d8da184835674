#!/usr/bin/env python3
"""Brute-force certification sweep.

Prints, per vertex count, the worst observed residual for the power-sum
identity and for the full round trip (distances -> recovered radii ->
rebuilt polygons -> distances), the latter relative to the largest radius
and as a fraction of the multiset gate that decides a family. All
randomness is seeded, so two runs of this script print identical tables.
"""

import argparse
import time

from concentric_gons import (
    PlanePoint,
    RegularPolygonSpec,
    SplitMix64,
    Tolerance,
    power_identity_residual,
    random_instance,
    reconstruct_polygons,
)


def identity_row(n, samples, seed):
    rng = SplitMix64(seed + n)
    worst = 0.0
    for _ in range(samples):
        poly = RegularPolygonSpec(
            n,
            PlanePoint(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            rng.uniform(0.1, 10.0),
            rng.angle(),
        )
        point = PlanePoint(rng.uniform(-12, 12), rng.uniform(-12, 12))
        m = 1 + rng.below(n - 1)
        worst = max(worst, power_identity_residual(poly, point, m))
    return worst


def round_trip_row(n, samples, seed):
    worst_multiset = worst_radii = 0.0
    for index in range(samples):
        inst = random_instance(n, seed + 1000 * n + index)
        rec = reconstruct_polygons(inst.family)
        hi = max(inst.polygon1.circumradius, inst.polygon2.circumradius)
        lo = min(inst.polygon1.circumradius, inst.polygon2.circumradius)
        worst_radii = max(
            worst_radii,
            abs(rec.circumradii.larger - hi) / hi,
            abs(rec.circumradii.smaller - lo) / lo,
        )
        worst_multiset = max(worst_multiset, max(rec.residuals) / inst.family.radii[-1])
    return worst_multiset, worst_radii


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-order", type=int, default=12)
    args = parser.parse_args()

    gate = Tolerance().multiset_gate().relative_eps
    print(f"{'n':>3} {'identity':>12} {'round trip':>12} {'of gate':>9} {'radii':>12}")
    started = time.perf_counter()
    for n in range(3, args.max_order + 1):
        ident = identity_row(n, args.samples, args.seed * 1000)
        multiset, radii = round_trip_row(n, args.samples, args.seed * 20_000)
        print(f"{n:>3} {ident:>12.3e} {multiset:>12.3e} {multiset / gate:>9.2e} {radii:>12.3e}")
    print(f"total {time.perf_counter() - started:.2f}s for {args.samples} samples per row")


if __name__ == "__main__":
    main()
