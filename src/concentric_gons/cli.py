"""Command-line interface.

Exit codes are strict: 0 for success/feasible, 2 for mathematically
infeasible or empty results, 1 for usage or parse errors. With ``--json``
the machine-readable document goes to stdout; otherwise a short human
summary is printed. JSON and SVG output are byte-deterministic.

The names taken from ``oracle``, ``pairing`` and ``svg`` are bound into
this module on first use, so ``check`` loads none of the three.
"""

import argparse
import functools
import importlib
import math
import re
import sys

from .errors import (
    CoincidentAuxiliaryCircles,
    GeometryError,
    InfeasibleFamily,
    InfeasibleMoments,
)
from .geom import CircleFamily, PlanePoint, Tolerance
from .instances import (
    FORMAT_NAME,
    InstanceDocument,
    InstanceFormatError,
    dump_canonical,
    load_instance,
    polygon_record,
)
from .moments import RadiiPair, assess_feasibility, cyclic_averages, recover_circumradii
from .reconstruct import reconstruct_polygons, verify_reconstruction

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

IDENTITY_TOLERANCE = 1e-10
SWEEP_TOLERANCE = 1e-6
CERTIFICATION_SAMPLES = 200
CERTIFICATION_ORDERS = range(3, 13)
CERTIFICATION_SEED = 1

# The names this module takes from the modules that only some commands run.
# They are globals only once bound, so a function that calls one binds first.
_LAZY = {
    "oracle": ("angle_sweep", "power_identity_residual", "power_identity_residuals",
               "random_instance", "worst_identity_residuals"),
    "pairing": ("candidate_centers", "pair_polygons"),
    "svg": ("render_configuration",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _bind(*modules: str) -> None:
    """Import each module and bind each of its names in ``_LAZY`` that is not
    bound here yet: a name replaced at ``cli.<name>`` stays replaced."""
    scope = globals()
    for module in modules:
        source = importlib.import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            if name not in scope:
                scope[name] = getattr(source, name)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOME[name])
    return globals()[name]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to the usage code 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-1,1,2" is a value, not an option (argparse agrees from 3.13 on).
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _family_from_args(args) -> CircleFamily:
    if args.radii is None:
        return _load(args.input, "circles").circles
    try:
        values = tuple(float(part) for part in args.radii.split(","))
    except ValueError:
        raise InstanceFormatError(f"cannot parse radii list {args.radii!r}") from None
    if len(values) < 3:
        raise InstanceFormatError("need at least 3 radii")
    # Built first, so that a list refused anyway gets no sorting warning.
    family = CircleFamily(center=PlanePoint(0.0, 0.0), radii=sorted(values))
    if family.radii != values:
        print("warning: radii were not sorted ascending; sorting", file=sys.stderr)
    return family


def _load(path: str, kind: str | None = None) -> InstanceDocument:
    """Load an instance file, require ``kind`` if given, then print its
    load warnings (a file of the wrong kind fails without them)."""
    doc = load_instance(path)
    if kind is not None and doc.kind != kind:
        raise InstanceFormatError(f"expected a {kind} instance, got {doc.kind}")
    for note in doc.load_warnings:
        print(f"warning: {note}", file=sys.stderr)
    return doc


def _report_record(report) -> dict:
    return {
        "condition1_ok": report.condition1_ok,
        "condition1_ratio": report.condition1_ratio,
        "condition2_ok": report.condition2_ok,
        "condition2_residuals": [
            {"m": m, "residual": res}
            for m, res in enumerate(report.condition2_residuals, start=3)
        ],
        "degenerate_single_polygon": report.degenerate_single_polygon,
    }


def _family_record(family: CircleFamily, report, feasible: bool) -> dict:
    """The head of the check and reconstruct payloads."""
    return {"n": family.n, "radii": list(family.radii), "feasible": feasible,
            "report": _report_record(report)}


def _pair_record(pair: RadiiPair, report) -> dict:
    degenerate = report.degenerate_single_polygon
    return {"larger": pair.larger, "smaller": pair.smaller, "degenerate": degenerate}


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        document = {"format": FORMAT_NAME, "command": args.command, **payload}
        sys.stdout.write(dump_canonical(document))
    else:
        for line in human_lines:
            print(line)


def _write_svg(path: str, text: str) -> None:
    """Write an SVG drawing; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _decide(family: CircleFamily, tol: Tolerance):
    """The paper's report on the family (conditions I and II, O(n^2)), its
    reconstruction and None, or None and the refusal's message; then the
    averages the report was built from."""
    try:
        rec, reason = reconstruct_polygons(family, tol), None
    except InfeasibleFamily as exc:
        rec, reason = None, str(exc)
    averages = cyclic_averages(family)
    return assess_feasibility(averages, tol), rec, reason, averages


def cmd_check(args, tol: Tolerance) -> int:
    family = _family_from_args(args)
    # The verdict is reconstruction's, so check says feasible exactly when
    # reconstruct succeeds; the report and the circumradii are printed.
    report, rec, reason, averages = _decide(family, tol)
    feasible = rec is not None
    if feasible:
        pair = rec.circumradii
    else:
        try:
            pair = recover_circumradii(averages, tol)
        except InfeasibleMoments:
            pair = None
    recovered = None if pair is None else _pair_record(pair, report)
    payload = {**_family_record(family, report, feasible), "recovered": recovered}
    lines = [
        f"n = {family.n}",
        "feasible: yes" if feasible else f"feasible: no\nreason: {reason}",
        f"condition 1 ratio: {report.condition1_ratio!r} (ok: {report.condition1_ok})",
        f"condition 2 ok: {report.condition2_ok}",
    ]
    for m, res in enumerate(report.condition2_residuals, start=3):
        lines.append(f"  m={m} residual: {res!r}")
    if recovered is not None:
        lines.append(
            f"circumradii: {recovered['larger']!r}, {recovered['smaller']!r}"
            + (" (single polygon)" if recovered["degenerate"] else "")
        )
    _emit(args, payload, lines)
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _reconstruction_svg(family: CircleFamily, rec) -> str:
    """The family's circles with both polygons, or alone when ``rec`` is None."""
    _bind("svg")
    polygons = [rec.polygon1, rec.polygon2] if rec is not None else []
    return render_configuration(
        circles=[(family.center, r) for r in family.radii],
        polygons=polygons,
        centers=[poly.center for poly in polygons],
        common_points=[family.center],
    )


def cmd_reconstruct(args, tol: Tolerance) -> int:
    family = _family_from_args(args)
    report, rec, reason, _ = _decide(family, tol)
    head = _family_record(family, report, rec is not None)
    if rec is None:
        _emit(args, head, ["feasible: no", f"reason: {reason}"])
        return EXIT_INFEASIBLE
    payload = {
        **head,
        "circumradii": _pair_record(rec.circumradii, report),
        "polygons": [polygon_record(rec.polygon1), polygon_record(rec.polygon2)],
        "point_polygon": rec.point_polygon,
        "residuals": list(rec.residuals),
    }
    lines = [
        "feasible: yes",
        f"circumradii: {rec.circumradii.larger!r}, {rec.circumradii.smaller!r}",
        f"polygon 1: center ({rec.polygon1.center.x!r}, {rec.polygon1.center.y!r}), "
        f"phase {rec.polygon1.phase!r}",
        f"polygon 2: center ({rec.polygon2.center.x!r}, {rec.polygon2.center.y!r}), "
        f"phase {rec.polygon2.phase!r}" + (" (point polygon)" if rec.point_polygon else ""),
        f"verification residuals: {rec.residuals[0]!r}, {rec.residuals[1]!r}",
    ]
    if args.svg:
        _write_svg(args.svg, _reconstruction_svg(family, rec))
    _emit(args, payload, lines)
    return EXIT_OK


def _pairing_svg(p1, p2, results) -> str:
    """The first configuration found, or both polygons with their auxiliary
    circles when there is none."""
    _bind("svg")
    if not results:
        return render_configuration(
            circles=[(p1.center, p2.circumradius), (p2.center, p1.circumradius)],
            polygons=[p1, p2],
            centers=[p1.center, p2.center],
            common_points=[],
        )
    first = results[0]
    return render_configuration(
        circles=[(first.center, r) for r in first.circles.radii],
        polygons=[p1, first.aligned_second],
        centers=[p1.center, p2.center],
        common_points=[first.center],
    )


def _pairings(p1, p2, tol: Tolerance):
    """The configurations :func:`pair_polygons` finds and None, or none and
    the message of the continuum that coincident auxiliary circles give."""
    _bind("pairing")
    try:
        return pair_polygons(p1, p2, tol), None
    except CoincidentAuxiliaryCircles as exc:
        return [], str(exc)


def cmd_pair(args, tol: Tolerance) -> int:
    p1, p2 = _load(args.input, "polygon_pair").polygons
    results, continuum = _pairings(p1, p2, tol)
    payload = {
        "n": p1.n,
        "polygons": [polygon_record(p1), polygon_record(p2)],
        "results": [
            {
                "center": [res.center.x, res.center.y],
                "radii": list(res.circles.radii),
                "aligned_second": polygon_record(res.aligned_second),
            }
            for res in results
        ],
        "count": len(results),
        "degenerate_continuum": continuum is not None,
    }
    if continuum is not None:
        _emit(args, payload, [f"degenerate continuum: {continuum}"])
        return EXIT_INFEASIBLE
    lines = [f"configurations found: {len(results)}"]
    for res in results:
        lines.append(
            f"  point ({res.center.x!r}, {res.center.y!r}), "
            f"second phase {res.aligned_second.phase!r}"
        )
    if args.svg:
        _write_svg(args.svg, _pairing_svg(p1, p2, results))
    _emit(args, payload, lines)
    return EXIT_OK if results else EXIT_INFEASIBLE


def _verify_circles(doc: InstanceDocument, tol: Tolerance) -> dict:
    _bind("oracle")
    family = doc.circles
    report, rec, _, averages = _decide(family, tol)
    sweeps = []
    ok = rec is not None
    if ok and not rec.point_polygon:
        # Sweep in the units of the averages, as reconstruction searches:
        # the sweep decision and its gate are then relative to the family.
        shift = -averages.exponent
        pair = rec.circumradii
        radii = [math.ldexp(r, shift) for r in family.radii]
        # The sweep is bit-symmetric in its arms (2.0*r*l doubles exactly,
        # addition commutes), so one sweep serves both arm orders.
        sweep = angle_sweep(
            math.ldexp(pair.larger, shift), math.ldexp(pair.smaller, shift), family.n, radii
        )
        residual = math.ldexp(sweep.best_residual, averages.exponent)
        sweeps = [
            {"vertex_arm": r, "center_arm": l, "best_phase": sweep.best_phase,
             "best_residual": residual}
            for r, l in ((pair.larger, pair.smaller), (pair.smaller, pair.larger))
        ]
        ok = sweep.best_residual <= SWEEP_TOLERANCE
    return {"kind": "circles", "report": _report_record(report), "angle_sweeps": sweeps,
            "pass": ok}


def _verify_polygon_pair(doc: InstanceDocument, tol: Tolerance) -> dict:
    """The power-sum identity of both polygons at the first configuration's
    point (the centers' midpoint when there is none), and each configuration
    read back through the library: both polygons' vertex distances from its
    point against its radii, and :func:`reconstruct_polygons` on its circles,
    which must give back the input circumradii."""
    _bind("oracle")
    p1, p2 = doc.polygons
    results, _ = _pairings(p1, p2, tol)
    if results:
        probe = results[0].center
    else:
        probe = PlanePoint(
            (p1.center.x + p2.center.x) / 2.0, (p1.center.y + p2.center.y) / 2.0
        )
    identity = [
        {"polygon": idx, "m": m, "residual": residual}
        for idx, poly in enumerate((p1, p2))
        for m, residual in enumerate(power_identity_residuals(poly, probe), 1)
    ]
    ok = all(item["residual"] <= IDENTITY_TOLERANCE for item in identity)
    gate = tol.multiset_gate().relative_eps
    larger, smaller = sorted((p1.circumradius, p2.circumradius), reverse=True)
    round_trips = []
    by_family = {}  # the two rotations at one meeting point share their circles
    for res in results:
        if res.circles not in by_family:
            try:
                rec = reconstruct_polygons(res.circles, tol)
            except InfeasibleFamily:
                rec = None
            by_family[res.circles] = verify_reconstruction(res.circles, p1), rec
        first_gap, rec = by_family[res.circles]
        gaps = [first_gap, verify_reconstruction(res.circles, res.aligned_second)]
        circumradii = None if rec is None else [rec.circumradii.larger, rec.circumradii.smaller]
        round_trips.append({"circumradii": circumradii, "gaps": gaps})
        # A point polygon's recovered circumradius is the root of the
        # discriminant's rounding, about sqrt(eps) of the larger: only the
        # larger is then held to the gate.
        ok = (
            ok and rec is not None and max(gaps) <= gate * res.circles.radii[-1]
            and abs(rec.circumradii.larger - larger) <= gate * larger
            and (rec.point_polygon or abs(rec.circumradii.smaller - smaller) <= gate * larger)
        )
    return {
        "kind": "polygon_pair",
        "probe_point": [probe.x, probe.y],
        "power_identity_residuals": identity,
        "pairing_count": len(results),
        "round_trips": round_trips,
        "pass": ok,
    }


def _verify_certification(seed: int) -> dict:
    """Each vertex count's worst power-identity residual over its random
    instances (:func:`oracle.worst_identity_residuals`), against the gate."""
    _bind("oracle")
    worst = worst_identity_residuals(seed, CERTIFICATION_ORDERS, CERTIFICATION_SAMPLES)
    rows = [
        {"n": n, "samples": CERTIFICATION_SAMPLES, "worst_residual": residual}
        for n, residual in worst.items()
    ]
    ok = all(residual <= IDENTITY_TOLERANCE for residual in worst.values())
    return {"kind": "certification", "seed": seed, "per_n": rows, "pass": ok}


def cmd_verify(args, tol: Tolerance) -> int:
    if args.input is not None:
        doc = _load(args.input)
        if doc.kind == "circles":
            section = _verify_circles(doc, tol)
        else:
            section = _verify_polygon_pair(doc, tol)
    elif args.tol is not None:
        raise ValueError(f"--tol applies only with --input; certification uses the "
                         f"fixed gate {IDENTITY_TOLERANCE:g}")
    else:
        section = _verify_certification(CERTIFICATION_SEED if args.seed is None else args.seed)
    ok = section["pass"]
    lines = [f"verify kind: {section['kind']}", f"pass: {'yes' if ok else 'no'}"]
    lines += [
        f"n={row['n']} worst residual {row['worst_residual']:.3g} (gate {IDENTITY_TOLERANCE:g})"
        for row in section.get("per_n", ())
    ]
    _emit(args, {"result": section}, lines)
    return EXIT_OK if ok else EXIT_INFEASIBLE


def cmd_render(args, tol: Tolerance) -> int:
    doc = _load(args.input)
    if doc.kind == "circles":
        try:
            rec = reconstruct_polygons(doc.circles, tol)
        except GeometryError:
            rec = None
        text = _reconstruction_svg(doc.circles, rec)
    else:
        p1, p2 = doc.polygons
        text = _pairing_svg(p1, p2, _pairings(p1, p2, tol)[0])
    _write_svg(args.svg, text)
    _emit(args, {"svg": args.svg}, [f"wrote {args.svg}"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="concentric-gons",
        description="Decide and construct the correspondence between two "
        "regular n-gons and n concentric circles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, radii=False, input_file=False, svg=False, seed=False, required=()):
        # With --radii, exactly one of --radii and --input is given; with
        # --seed, at most one of --input and --seed.
        sources = p.add_mutually_exclusive_group(required=radii) if radii or seed else p
        if radii:
            sources.add_argument("--radii", help="comma-separated circle radii")
        if input_file:
            sources.add_argument("--input", required="--input" in required,
                                 help="instance JSON file")
        if svg:
            p.add_argument("--svg", required="--svg" in required,
                           help="write an SVG drawing to this path")
        if seed:
            # No default here: argparse lets an option whose value is its
            # default's object (the cached small int 1) past the exclusion.
            sources.add_argument("--seed", type=int,
                                 help=f"certification seed (default {CERTIFICATION_SEED})")
        p.add_argument("--tol", type=float, default=None,
                       help="relative tolerance override, in [1e-13, 1e-3)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_check = sub.add_parser("check", help="decide whether radii admit two polygons")
    add_common(p_check, radii=True, input_file=True)
    p_check.set_defaults(func=cmd_check)

    p_rec = sub.add_parser("reconstruct", help="build the two polygons from radii")
    add_common(p_rec, radii=True, input_file=True, svg=True)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_pair = sub.add_parser("pair", help="find shared circles for two polygons")
    add_common(p_pair, input_file=True, svg=True, required=("--input",))
    p_pair.set_defaults(func=cmd_pair)

    p_verify = sub.add_parser("verify", help="brute-force cross-checks")
    add_common(p_verify, input_file=True, seed=True)
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="draw an instance to SVG")
    add_common(p_render, input_file=True, svg=True, required=("--input", "--svg"))
    p_render.set_defaults(func=cmd_render)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one per process serves every call.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse help/usage paths
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        tol = Tolerance() if args.tol is None else Tolerance(relative_eps=args.tol)
        return args.func(args, tol)
    except (ValueError, OverflowError) as exc:  # InstanceFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
