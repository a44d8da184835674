"""Seeded workloads. Each builds a deck of operations from the seed; the run
cycles through the deck in a closed loop, one operation at a time.

Every operation calls the library through a module attribute looked up at
call time, so the tracer's wrappers see the call. Every check derives its
truth from the generating geometry (the polygons, point and scale the deck
was built from), never from the code under test.
"""

import contextlib
import io
import itertools
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from concentric_gons import cli, errors, oracle, pairing, reconstruct
from concentric_gons.geom import PlanePoint, RegularPolygonSpec
from concentric_gons.moments import CircleFamily

OK, RAISED, WRONG = "ok", "raised", "wrong"
RELATIVE_TRUTH = 1e-6
NEAR_TANGENT = 1e-3

CIRCLE_SIZES = (3, 4, 8, 16, 32, 64)
POLYGON_SIZES = (3, 4, 5, 6, 8, 12)
CLI_SIZES = (3, 8, 32)


@dataclass
class Op:
    """One operation: ``call`` runs it; ``check`` grades its outcome.

    ``check(result, exc)`` gets the return value, or the exception raised,
    and answers OK, RAISED (failed without an answer) or WRONG (answered
    against the truth).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], str]


def _vertex_distances(poly: RegularPolygonSpec, point: PlanePoint) -> list[float]:
    step = 2.0 * math.pi / poly.n
    return sorted(
        math.hypot(
            poly.center.x + poly.circumradius * math.cos(poly.phase + step * k) - point.x,
            poly.center.y + poly.circumradius * math.sin(poly.phase + step * k) - point.y,
        )
        for k in range(poly.n)
    )


def _close(a, b, gap: float) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= gap for x, y in zip(a, b))


def _perturbed(radii: list[float], rng: random.Random) -> list[float]:
    """Infeasible by construction: for n = 3 the largest radius exceeds the
    sum of the other two by 10%; for n >= 4 one radius grows by 10%."""
    radii = sorted(radii)
    if len(radii) == 3:
        radii[2] = 1.1 * (radii[0] + radii[1])
    else:
        radii[rng.randrange(len(radii))] *= 1.1
    return sorted(radii)


# ---- circles: reconstruct_polygons on scaled random families -------------


def _circles_check(larger: float, smaller: float, family: CircleFamily, feasible: bool):
    scale = family.radii[-1]

    def check(rec, exc):
        if exc is not None:
            if not feasible and isinstance(exc, errors.InfeasibleFamily):
                return OK
            return RAISED
        if not feasible:
            return WRONG
        radii_ok = (
            abs(rec.circumradii.larger - larger) <= RELATIVE_TRUTH * larger
            and abs(rec.circumradii.smaller - smaller) <= RELATIVE_TRUTH * larger
        )
        placed_ok = all(
            _close(_vertex_distances(poly, family.center), family.radii, RELATIVE_TRUTH * scale)
            for poly in (rec.polygon1, rec.polygon2)
        )
        return OK if radii_ok and placed_ok else WRONG

    return check


def circles_deck(seed: int, per_n: int) -> list[Op]:
    """``per_n`` families for each n: one in four infeasible by construction,
    one in twelve a point polygon, every one scaled by a factor drawn
    log-uniform from [1e-2, 1e2]."""
    rng = random.Random(seed)
    ops = []
    for n in CIRCLE_SIZES:
        # Stratified: one draw from each of per_n equal slices of the log
        # range, so every seed's deck spreads its scales alike.
        log_scales = [
            math.log(1e-2) + (k + rng.random()) / per_n * math.log(1e4) for k in range(per_n)
        ]
        rng.shuffle(log_scales)
        for i, log_scale in enumerate(log_scales):
            feasible = i % 4 != 3
            inst = oracle.random_instance(
                n, rng.getrandbits(63), zero_smaller_radius=feasible and i % 12 == 1
            )
            scale = math.exp(log_scale)
            radii = [r * scale for r in inst.family.radii]
            if not feasible:
                radii = _perturbed(radii, rng)
            family = CircleFamily(center=PlanePoint(0.0, 0.0), radii=tuple(radii))
            r1 = inst.polygon1.circumradius * scale
            r2 = inst.polygon2.circumradius * scale
            ops.append(
                Op(
                    label=f"n{n}",
                    call=lambda family=family: reconstruct.reconstruct_polygons(family),
                    check=_circles_check(max(r1, r2), min(r1, r2), family, feasible),
                )
            )
    rng.shuffle(ops)
    return ops


# ---- polygons: pair_polygons on random pairs, one in four a miss ---------


def _missing_pair(inst, rng: random.Random) -> RegularPolygonSpec:
    """The second polygon moved so far from the first that the auxiliary
    circles (radii R2 and R1 around the two centers) cannot meet."""
    p1, p2 = inst.polygon1, inst.polygon2
    angle = rng.uniform(0.0, 2.0 * math.pi)
    reach = (p1.circumradius + p2.circumradius) * rng.uniform(1.25, 2.0)
    center = p1.center.translated(reach * math.cos(angle), reach * math.sin(angle))
    return RegularPolygonSpec(p2.n, center, p2.circumradius, p2.phase)


def _half_chord(p1: RegularPolygonSpec, p2: RegularPolygonSpec) -> float:
    """Half the distance between the two exact intersection points of the
    auxiliary circles: radius R2 around the first center, R1 around the
    second."""
    d = p1.center.distance_to(p2.center)
    if d == 0.0:
        return 0.0
    along = (d * d + p2.circumradius ** 2 - p1.circumradius ** 2) / (2.0 * d)
    return math.sqrt(max(p2.circumradius ** 2 - along * along, 0.0))


def _pair_hit(p1: RegularPolygonSpec, p2: RegularPolygonSpec, point: PlanePoint, scale: float):
    """Whether one configuration is the generating one: its point sits at
    the generating point, its second polygon is the input's turned about its
    own center, and the vertex distances of both polygons from its point
    equal its radii.

    Near tangent auxiliary circles the two intersection points merge: a
    slack of 1e-9 in a distance moves them by its square root. There the
    merged point is accepted anywhere between them.
    """
    gap = RELATIVE_TRUTH * max(1.0, scale)
    half = _half_chord(p1, p2)
    reach = gap + (half if half <= NEAR_TANGENT * max(1.0, scale) else 0.0)

    def hit(center: PlanePoint, radii, aligned: RegularPolygonSpec) -> bool:
        return (
            center.distance_to(point) <= reach
            and aligned.n == p2.n
            and aligned.center.distance_to(p2.center) <= gap
            and abs(aligned.circumradius - p2.circumradius) <= gap
            and _close(_vertex_distances(p1, center), radii, gap)
            and _close(_vertex_distances(aligned, center), radii, gap)
        )

    return hit


def _pair_hit_check(p1, p2, point, scale):
    hit = _pair_hit(p1, p2, point, scale)

    def check(results, exc):
        if exc is not None:
            return RAISED
        found = any(hit(r.center, r.circles.radii, r.aligned_second) for r in results)
        return OK if found else WRONG

    return check


def _pair_miss_check(results, exc):
    if exc is not None:
        return RAISED
    return OK if results == [] else WRONG


def polygons_deck(seed: int, per_n: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n in POLYGON_SIZES:
        for i in range(per_n):
            inst = oracle.random_instance(n, rng.getrandbits(63))
            p1, p2 = inst.polygon1, inst.polygon2
            if i % 4 == 3:
                p2 = _missing_pair(inst, rng)
                check = _pair_miss_check
            else:
                check = _pair_hit_check(p1, p2, inst.point, inst.family.radii[-1])
            ops.append(
                Op(
                    label=f"n{n}",
                    call=lambda p1=p1, p2=p2: pairing.pair_polygons(p1, p2),
                    check=check,
                )
            )
    rng.shuffle(ops)
    return ops


# ---- cli: in-process cli.main on instance files written at set-up --------


def _polygon_record(poly: RegularPolygonSpec) -> dict:
    return {
        "n": poly.n,
        "center": [poly.center.x, poly.center.y],
        "circumradius": poly.circumradius,
        "phase": poly.phase,
    }


def _polygon(record: dict) -> RegularPolygonSpec:
    return RegularPolygonSpec(
        record["n"], PlanePoint(*record["center"]), record["circumradius"], record["phase"]
    )


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _circles_file(path: Path, radii) -> str:
    return _write_json(
        path,
        {"format": "concentric-gons/1", "kind": "circles",
         "circles": {"center": [0.0, 0.0], "radii": list(radii)}},
    )


def _pair_file(path: Path, p1: RegularPolygonSpec, p2: RegularPolygonSpec) -> str:
    return _write_json(
        path,
        {"format": "concentric-gons/1", "kind": "polygon_pair",
         "polygons": [_polygon_record(p1), _polygon_record(p2)]},
    )


def run_cli(argv: list[str]):
    """cli.main with stdout and stderr captured to memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _svg_ok(path: str) -> bool:
    try:
        root = ET.fromstring(Path(path).read_bytes())
    except (OSError, ET.ParseError):
        return False
    return root.tag.endswith("svg")


class _CliCheck:
    """Grades one argv: exit code, the JSON verdict and count fields, the SVG
    parsing as XML, and byte-identical stdout and SVG on every repeat."""

    def __init__(self, code: int, verdict: Callable[[dict], bool], svg: str | None = None):
        self.code = code
        self.verdict = verdict
        self.svg = svg
        self.first: tuple | None = None

    def __call__(self, outcome, exc):
        if exc is not None:
            return RAISED
        code, stdout, _ = outcome
        svg_bytes = Path(self.svg).read_bytes() if self.svg else b""
        if self.first is None:
            self.first = (stdout, svg_bytes)
        elif self.first != (stdout, svg_bytes):
            return WRONG
        try:
            verdict = self.verdict(json.loads(stdout))
        except (json.JSONDecodeError, KeyError, TypeError, IndexError):
            return WRONG
        if code != self.code or not verdict:
            return WRONG
        if self.svg and not _svg_ok(self.svg):
            return WRONG
        return OK


def _radii_match(record: dict | None, larger: float, smaller: float) -> bool:
    return (
        record is not None
        and abs(record["larger"] - larger) <= RELATIVE_TRUTH * larger
        and abs(record["smaller"] - smaller) <= RELATIVE_TRUTH * larger
    )


def cli_deck(seed: int, workdir: Path, sizes=CLI_SIZES, per_n: int = 1) -> list[Op]:
    """For each of ``per_n`` instances of each n: check on a feasible and an
    infeasible family, reconstruct with SVG, pair with SVG on a meeting and
    a missing pair, render both kinds, and verify both kinds; plus one
    seeded self-certification."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []

    def add(argv: list[str], check: _CliCheck) -> None:
        ops.append(Op(label=argv[0], call=lambda argv=argv: run_cli(argv), check=check))

    for n, copy in itertools.product(sizes, range(per_n)):
        tag = f"{n}-{copy}"
        inst = oracle.random_instance(n, rng.getrandbits(63))
        larger = max(inst.polygon1.circumradius, inst.polygon2.circumradius)
        smaller = min(inst.polygon1.circumradius, inst.polygon2.circumradius)
        feasible = _circles_file(workdir / f"circles-{tag}.json", inst.family.radii)
        infeasible = _circles_file(
            workdir / f"infeasible-{tag}.json", _perturbed(list(inst.family.radii), rng)
        )
        meet = _pair_file(workdir / f"pair-{tag}.json", inst.polygon1, inst.polygon2)
        miss = _pair_file(
            workdir / f"miss-{tag}.json", inst.polygon1, _missing_pair(inst, rng)
        )
        svg = {name: str(workdir / f"{name}-{tag}.svg")
               for name in ("reconstruct", "pair", "miss", "render-circles", "render-pair")}

        def feasible_verdict(p, n=n, larger=larger, smaller=smaller):
            return p["feasible"] is True and p["n"] == n and _radii_match(
                p.get("recovered", p.get("circumradii")), larger, smaller
            )

        hit = _pair_hit(inst.polygon1, inst.polygon2, inst.point, inst.family.radii[-1])

        def pair_verdict(p, hit=hit):
            return p["count"] == len(p["results"]) >= 1 and any(
                hit(PlanePoint(*r["center"]), r["radii"], _polygon(r["aligned_second"]))
                for r in p["results"]
            )

        add(["check", "--input", feasible, "--json"], _CliCheck(0, feasible_verdict))
        add(["check", "--input", infeasible, "--json"],
            _CliCheck(2, lambda p: p["feasible"] is False))
        add(["reconstruct", "--input", feasible, "--svg", svg["reconstruct"], "--json"],
            _CliCheck(0, feasible_verdict, svg["reconstruct"]))
        add(["pair", "--input", meet, "--svg", svg["pair"], "--json"],
            _CliCheck(0, pair_verdict, svg["pair"]))
        add(["pair", "--input", miss, "--svg", svg["miss"], "--json"],
            _CliCheck(2, lambda p: p["count"] == 0 and p["results"] == [], svg["miss"]))
        for kind, source in (("circles", feasible), ("pair", meet)):
            path = svg[f"render-{kind}"]
            add(["render", "--input", source, "--svg", path, "--json"],
                _CliCheck(0, lambda p, path=path: p["command"] == "render" and p["svg"] == path,
                          path))
        add(["verify", "--input", feasible, "--json"],
            _CliCheck(0, lambda p: p["result"]["kind"] == "circles"
                      and p["result"]["pass"] is True
                      and len(p["result"]["angle_sweeps"]) == 2))
        add(["verify", "--input", meet, "--json"],
            _CliCheck(0, lambda p: p["result"]["kind"] == "polygon_pair"
                      and p["result"]["pass"] is True
                      and p["result"]["pairing_count"] >= 1))
    add(["verify", "--seed", str(rng.randrange(1, 10_000)), "--json"],
        _CliCheck(0, lambda p: p["result"]["kind"] == "certification"
                  and p["result"]["pass"] is True
                  and len(p["result"]["per_n"]) == len(cli.CERTIFICATION_ORDERS)))
    return ops
