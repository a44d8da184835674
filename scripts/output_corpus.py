#!/usr/bin/env python3
"""Record everything the CLI shows over a fixed corpus of commands.

Each command runs in-process through ``concentric_gons.cli.main``. The
output file lists, per command, its argv, exit code, stdout, stderr, the
warnings raised and the text of every SVG it wrote, with the temporary
directory written as ``<tmp>``. Run the script on two commits and compare
the files: equal files mean byte-identical CLI output on the corpus.

The corpus covers every subcommand with and without ``--json``: the worked
families, also scaled by 2^600 and 2^-600; ``random_instance`` circles files
(feasible, perturbed to infeasible, point polygon) and polygon-pair files
(meeting, far apart, point polygon) for each size, and one 256-radius
circles file and pair file; families whose phase sits on the mirror
boundary (t = 0 or pi/n, equal and unequal arms) and one with 1e-8
relative noise; identical, mismatched-order and shared-vertex pairs; one
``random_instance`` pair file scaled by 1e-12, 2^500, 2^-500, 2^900 and
2^-900, the last two outside the range pairing accepts; radii whose powers
overflow or underflow a double; and usage and file-format errors.

  PYTHONPATH=src python3 scripts/output_corpus.py --out corpus.json

With ``--against OLD.json`` the script also prints every command whose
pinned fields (exit code, ``--json`` stdout and SVG texts, as
``tests/test_scripts.py`` digests them) differ from OLD's, or that OLD
lacks, each followed by what changed in it: ``exit``, ``svg``, the paths of
the ``--json`` values that differ (such as
``results[1].aligned_second.phase``; ``stdout`` if only the text does), or
``new``. Then it prints how many commands of each subcommand changed, how
many commands differ in the fields left unpinned (human stdout, stderr and
warnings; these are counted, not listed), and how many commands changed at
each path, with list indices collapsed (such as
``results[].aligned_second.phase``).
"""

import argparse
import io
import json
import math
import os
import re
import tempfile
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from concentric_gons import SplitMix64, random_instance
from concentric_gons.cli import main as cli_main

SIZES = (3, 4, 5, 8, 12, 32, 64)
SEEDS = (1, 2)
SQRT3 = math.sqrt(3.0)
TRIANGLE_FAMILY = (math.sqrt(5 - 2 * SQRT3), math.sqrt(5), math.sqrt(5 + 2 * SQRT3))
SQUARE_FAMILY = (math.sqrt(5 - 2 * SQRT3), SQRT3, math.sqrt(7), math.sqrt(5 + 2 * SQRT3))
LARGEST_SIZE = 256
MIRROR_SIZES = (3, 8)
MIRROR_ARMS = {"equal": (1.0, 1.0), "unequal": (2.0, 0.7)}
NOISE = 1e-8
SCALED_PAIR = (5, 2)  # random_instance(n, seed) of the scaled pair files
PAIR_SCALES = {
    "1e-12": 1e-12,
    "2p500": 2.0 ** 500,
    "2m500": 2.0 ** -500,
    "2p900": 2.0 ** 900,
    "2m900": 2.0 ** -900,
}
RADII_LISTS = (
    "1,1,2",
    "1,2,3,4",
    *(
        ",".join(repr(math.ldexp(r, k)) for r in worked)
        for worked in (TRIANGLE_FAMILY, SQUARE_FAMILY)
        for k in (0, 600, -600)
    ),
    "1,1,1",
    "0,0,0",
    "2,1,1",
    "0.01,0.013,0.02,0.022,0.026",
    "1e308,1e308,1.5e308",
    "1e-100,1e-100,2e-100",
    "1e-200,1e-200,2e-200",
    "-1,1,2",
    "1,2",
    "not-numbers",
)


def _circles(center, radii) -> dict:
    return {
        "format": "concentric-gons/1",
        "kind": "circles",
        "circles": {"center": list(center), "radii": list(radii)},
    }


def _polygon_pair(*polygons) -> dict:
    return {
        "format": "concentric-gons/1",
        "kind": "polygon_pair",
        "polygons": [
            {"n": n, "center": list(center), "circumradius": radius, "phase": phase}
            for n, center, radius, phase in polygons
        ],
    }


def _generated(r: float, l: float, n: int, t: float) -> list[float]:
    """The distances sqrt(r^2 + l^2 - 2 r l cos(t + 2 pi k / n)), sorted."""
    period = 2.0 * math.pi / n
    return sorted(
        math.sqrt(max(r * r + l * l - 2.0 * r * l * math.cos(t + period * k), 0.0))
        for k in range(n)
    )


def _spec(poly, dx: float = 0.0, scale: float = 1.0) -> tuple:
    center = (poly.center.x * scale + dx, poly.center.y * scale)
    return poly.n, center, poly.circumradius * scale, poly.phase


def instance_files(sizes) -> dict[str, object]:
    """File name -> decoded document (or raw text for malformed files)."""
    files: dict[str, object] = {
        "unsorted.json": _circles((0.5, -0.5), (2.0, 1.0, 1.0)),
        "triangle_family.json": _circles((0.0, 0.0), TRIANGLE_FAMILY),
        "square_family.json": _circles((1.0, 2.0), SQUARE_FAMILY),
        "worked_pair.json": _polygon_pair((3, (0.0, 0.0), 2.0, 0.0), (3, (2.0, 0.0), 1.0, 0.5)),
        "shared_vertex.json": _polygon_pair(
            (3, (0.0, 0.0), 1.0, 0.0), (3, (2.0, 0.0), 1.0, math.pi)
        ),
        "identical.json": _polygon_pair((4, (1.0, 1.0), 2.0, 0.3), (4, (1.0, 1.0), 2.0, 0.3)),
        "mismatched.json": _polygon_pair((3, (0.0, 0.0), 2.0, 0.0), (4, (2.0, 0.0), 1.0, 0.0)),
        "not_json.json": "{not json",
        "bad_kind.json": {"format": "concentric-gons/1", "kind": "triangle"},
    }
    for n in sizes:
        for seed in SEEDS:
            inst = random_instance(n, seed)
            radii = inst.family.radii
            center = (inst.point.x, inst.point.y)
            files[f"circles_n{n}_s{seed}.json"] = _circles(center, radii)
            files[f"infeasible_n{n}_s{seed}.json"] = _circles(
                center, radii[:-1] + (radii[-1] * 1.01,)
            )
            files[f"pair_n{n}_s{seed}.json"] = _polygon_pair(
                _spec(inst.polygon1), _spec(inst.polygon2)
            )
            far = 3.0 * (inst.polygon1.circumradius + inst.polygon2.circumradius) + 10.0
            files[f"missing_n{n}_s{seed}.json"] = _polygon_pair(
                _spec(inst.polygon1), _spec(inst.polygon2, far)
            )
        point = random_instance(n, 1, zero_smaller_radius=True)
        files[f"point_circles_n{n}.json"] = _circles(
            (point.point.x, point.point.y), point.family.radii
        )
        files[f"point_pair_n{n}.json"] = _polygon_pair(
            _spec(point.polygon1), _spec(point.polygon2)
        )
    largest = random_instance(LARGEST_SIZE, 1)
    files[f"circles_n{LARGEST_SIZE}.json"] = _circles(
        (largest.point.x, largest.point.y), largest.family.radii
    )
    files[f"pair_n{LARGEST_SIZE}.json"] = _polygon_pair(
        _spec(largest.polygon1), _spec(largest.polygon2)
    )
    for n in MIRROR_SIZES:
        for arms, (r, l) in MIRROR_ARMS.items():
            for edge, t in (("zero", 0.0), ("half", math.pi / n)):
                radii = _generated(r, l, n, t)
                files[f"mirror_{edge}_{arms}_n{n}.json"] = _circles((0.0, 0.0), radii)
    noisy = random_instance(8, 1)
    rng = SplitMix64(8)
    files["noisy_n8.json"] = _circles(
        (noisy.point.x, noisy.point.y),
        sorted(d * (1.0 + NOISE * rng.uniform(-1.0, 1.0)) for d in noisy.family.radii),
    )
    scaled = random_instance(*SCALED_PAIR)
    for label, scale in PAIR_SCALES.items():
        files[f"pair_scaled_{label}.json"] = _polygon_pair(
            _spec(scaled.polygon1, scale=scale), _spec(scaled.polygon2, scale=scale)
        )
    return files


def commands(files) -> list[list[str]]:
    """Argument lists; ``{tmp}`` stands for the temporary directory."""
    cmds: list[list[str]] = []

    def both(*argv: str) -> None:
        cmds.append(list(argv))
        cmds.append([*argv, "--json"])

    for radii in RADII_LISTS:
        both("check", "--radii", radii)
        both("reconstruct", "--radii", radii, "--svg", "{tmp}/rec.svg")
    both("check", "--radii", "1,1,2", "--tol", "1e-6")
    both("reconstruct", "--radii", ",".join(map(repr, SQUARE_FAMILY)), "--tol", "5e-4")
    wide = ",".join(str(1.0 + k / 100.0) for k in range(70))
    both("check", "--radii", wide)
    both("reconstruct", "--radii", wide)
    both("verify", "--seed", "1")
    for name, doc in files.items():
        path = "{tmp}/" + name
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if kind == "polygon_pair":
            both("pair", "--input", path, "--svg", "{tmp}/pair.svg")
            both("verify", "--input", path)
            both("render", "--input", path, "--svg", "{tmp}/render.svg")
            cmds.append(["check", "--input", path])
        else:
            both("check", "--input", path)
            both("reconstruct", "--input", path, "--svg", "{tmp}/rec.svg")
            both("verify", "--input", path)
            both("render", "--input", path, "--svg", "{tmp}/render.svg")
            cmds.append(["pair", "--input", path])
    cmds.append(["check", "--input", "{tmp}/no_such_file.json"])
    cmds.append(["check"])
    cmds.append(["check", "--radii", "1,1,2", "--bogus"])
    cmds.append(["pair"])
    cmds.append(["render", "--input", "{tmp}/worked_pair.json"])
    return cmds


def run(argv: list[str], tmp: str) -> dict:
    real = [arg.replace("{tmp}", tmp) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    for name in os.listdir(tmp):
        if name.endswith(".svg"):
            os.remove(os.path.join(tmp, name))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code: object = cli_main(real)
            except Exception as exc:  # an uncaught error is output too
                code = f"raised {type(exc).__name__}: {exc}"
    svgs = {}
    for name in sorted(os.listdir(tmp)):
        if name.endswith(".svg"):
            with open(os.path.join(tmp, name), encoding="utf-8") as handle:
                svgs[name] = handle.read()
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().replace(tmp, "<tmp>"),
        "stderr": err.getvalue().replace(tmp, "<tmp>"),
        "warnings": [str(w.message).replace(tmp, "<tmp>") for w in caught],
        "svg": svgs,
    }


def pinned(record: dict) -> list:
    """The fields of a record the corpus digest pins."""
    return [record["exit"], record["stdout"] if "--json" in record["argv"] else "", record["svg"]]


def unpinned(record: dict) -> list:
    """The fields of a record the corpus digest leaves out."""
    human = "" if "--json" in record["argv"] else record["stdout"]
    return [human, record["stderr"], record["warnings"]]


def json_paths(old, new, path: str = ""):
    """The paths, such as ``results[1].aligned_second.phase``, at which two
    decoded JSON values differ; a key or list length that differs ends the
    path there."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            inner = f"{path}.{key}" if path else key
            if key in old and key in new:
                yield from json_paths(old[key], new[key], inner)
            else:
                yield inner
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (a, b) in enumerate(zip(old, new)):
            yield from json_paths(a, b, f"{path}[{index}]")
    elif type(old) is not type(new) or old != new:
        yield path or "stdout"


def changed_fields(old: dict | None, new: dict) -> list[str]:
    """What differs in the pinned fields of one command's two records."""
    if old is None:
        return ["new"]
    (old_exit, old_json, old_svg), (new_exit, new_json, new_svg) = pinned(old), pinned(new)
    fields = ["exit"] if old_exit != new_exit else []
    if old_json != new_json:
        try:
            paths = list(json_paths(json.loads(old_json), json.loads(new_json)))
        except ValueError:
            paths = []
        fields += paths or ["stdout"]
    if old_svg != new_svg:
        fields.append("svg")
    return fields


def report_changes(old: list[dict], new: list[dict]) -> None:
    """Print each command of ``new`` whose pinned fields differ from the same
    command's in ``old``, or that ``old`` lacks, with what changed in it,
    then the count per subcommand, of changed unpinned text and per changed
    field."""
    before = {json.dumps(record["argv"]): record for record in old}
    counts, per_field = Counter(), Counter()
    text_changes = 0
    for record in new:
        previous = before.get(json.dumps(record["argv"]))
        if previous is not None and unpinned(previous) != unpinned(record):
            text_changes += 1
        fields = changed_fields(previous, record)
        if fields:
            print("changed: " + " ".join(record["argv"]))
            for field in fields:
                print("    " + field)
            counts[record["argv"][0]] += 1
            per_field.update({re.sub(r"\[\d+\]", "[]", field) for field in fields})
    totals = Counter(record["argv"][0] for record in new)
    print(f"{counts.total()} of {len(new)} commands changed")
    for subcommand, total in sorted(totals.items()):
        print(f"  {subcommand}: {counts[subcommand]} of {total}")
    print(f"{text_changes} of {len(new)} commands changed text (human stdout, stderr, warnings)")
    print("changes per field:")
    for field, count in sorted(per_field.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {field}: {count}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="write the corpus JSON here")
    parser.add_argument(
        "--sizes", default=",".join(map(str, SIZES)),
        help="comma-separated vertex counts for the random instances",
    )
    parser.add_argument(
        "--against", metavar="OLD.json",
        help="a corpus file to compare with: print the commands whose pinned fields differ",
    )
    args = parser.parse_args()
    sizes = [int(part) for part in args.sizes.split(",")]
    files = instance_files(sizes)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(doc if isinstance(doc, str) else json.dumps(doc))
        records = [run(argv, tmp) for argv in commands(files)]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    svg_count = sum(len(record["svg"]) for record in records)
    print(f"wrote {args.out}: {len(records)} commands, {svg_count} SVG files")
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            report_changes(json.load(handle), records)


if __name__ == "__main__":
    main()
