import hashlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from concentric_gons import (
    CircleFamily,
    PairingResult,
    PlanePoint,
    RegularPolygonSpec,
    cli,
    random_instance,
    reconstruct,
)
from concentric_gons.cli import build_parser, main
from concentric_gons.instances import (
    InstanceFormatError,
    dump_canonical,
    load_instance,
    parse_instance,
    polygon_record,
)

SQRT3 = math.sqrt(3.0)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_circles(path, radii, center=(0.0, 0.0)):
    payload = {
        "format": "concentric-gons/1",
        "kind": "circles",
        "circles": {"center": list(center), "radii": list(radii)},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_polygon_pair(path, p1, p2):
    payload = {
        "format": "concentric-gons/1",
        "kind": "polygon_pair",
        "polygons": [
            {
                "n": p.n,
                "center": [p.center.x, p.center.y],
                "circumradius": p.circumradius,
                "phase": p.phase,
            }
            for p in (p1, p2)
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------- instance files


def test_parse_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    write_circles(path, [1.0, 1.0, 2.0])
    loaded = load_instance(str(path))
    assert loaded.kind == "circles"
    assert loaded.circles.radii == (1.0, 1.0, 2.0)
    # dumping and re-parsing preserves the payload
    circles = loaded.circles
    record = {"center": [circles.center.x, circles.center.y], "radii": list(circles.radii)}
    text = dump_canonical({"format": "concentric-gons/1", "kind": "circles", "circles": record})
    again = parse_instance(json.loads(text))
    assert again.circles.radii == loaded.circles.radii


def test_parse_sorts_radii_with_warning(tmp_path):
    path = tmp_path / "unsorted.json"
    write_circles(path, [2.0, 1.0, 1.0])
    doc = load_instance(str(path))
    assert doc.circles.radii == (1.0, 1.0, 2.0)
    assert doc.load_warnings


def test_polygon_pair_document_round_trip(tmp_path):
    p1 = RegularPolygonSpec(3, PlanePoint(0, 0), 2.0, 0.25)
    p2 = RegularPolygonSpec(3, PlanePoint(2, 0), 1.0, 1.5)
    path = write_polygon_pair(tmp_path / "pair.json", p1, p2)
    doc = load_instance(path)
    # The polygon records of --json output read back as a polygon_pair file.
    records = [polygon_record(p) for p in doc.polygons]
    text = dump_canonical({"kind": "polygon_pair", "polygons": records})
    again = parse_instance(json.loads(text))
    assert again.polygons == doc.polygons


def test_parse_ignores_unknown_fields():
    doc = parse_instance(
        {
            "format": "concentric-gons/1",
            "kind": "circles",
            "circles": {"center": [0, 0], "radii": [1, 1, 2]},
            "unexpected": {"stuff": 1},
            "metadata": {"label": 7},
        }
    )
    assert doc.circles.radii == (1.0, 1.0, 2.0)


def test_parse_rejects_bad_documents():
    with pytest.raises(InstanceFormatError):
        parse_instance({"kind": "circles"})
    with pytest.raises(InstanceFormatError):
        parse_instance({"kind": "nonsense"})
    with pytest.raises(InstanceFormatError):
        parse_instance({"format": "other/1", "kind": "circles"})
    # Only version 1 is read: a later version is not silently read as 1.
    with pytest.raises(InstanceFormatError, match="unsupported format 'concentric-gons/99'"):
        parse_instance(
            {
                "format": "concentric-gons/99",
                "kind": "circles",
                "circles": {"center": [0, 0], "radii": [1, 1, 2]},
            }
        )
    with pytest.raises(InstanceFormatError):
        parse_instance(
            {"kind": "polygon_pair", "polygons": [{"n": 3, "center": [0, 0]}]}
        )


@pytest.mark.parametrize("command", ["check", "reconstruct", "pair", "render", "verify"])
def test_deeply_nested_instance_file_is_an_error_not_a_traceback(command, tmp_path):
    # The decoder recurses once per level; an ignored field is deep enough.
    depth = 10 * sys.getrecursionlimit()
    path = tmp_path / "deep.json"
    path.write_text(
        '{"format": "concentric-gons/1", "kind": "circles",'
        ' "circles": {"center": [0, 0], "radii": [1, 1, 2]},'
        f' "metadata": {{"x": {"[" * depth}{"]" * depth}}}}}',
        encoding="utf-8",
    )
    svg = ["--svg", str(tmp_path / "out.svg")] if command == "render" else []
    assert run_cli(command, "--input", str(path), *svg, "--json") == (
        1, "", f"error: {path} is not valid JSON: nested too deeply\n"
    )


def test_non_utf8_instance_file_error_names_the_file(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"kind": "circles"}'.encode("utf-16-le"))
    code, out, err = run_cli("check", "--input", str(path), "--json")
    assert (code, out) == (1, "")
    assert err == f"error: {path} is not UTF-8 text: invalid start byte 0xff at offset 0\n"


@pytest.mark.parametrize(
    "command, document, message",
    [
        (
            "pair",
            '{"kind": "polygon_pair", "polygons": [{"n": 4.0, "center": [0, 0], '
            '"circumradius": 1}, {"n": 4, "center": [1, 0], "circumradius": 1}]}',
            "polygons[0].n must be an integer, got 4.0",
        ),
        (
            "check",
            '{"kind": "circles", "circles": {"center": [0], "radii": [1, 1, 2]}}',
            "circles.center must be a [x, y] pair, got [0]",
        ),
        ("check", "[1, 2]", "instance must be a JSON object, got list"),
        (
            "pair",
            '{"kind": "polygon_pair", "polygons": [1, {"n": 4, "center": [1, 0], '
            '"circumradius": 1}]}',
            "polygons[0] must be an object, got 1",
        ),
        (
            "check",
            '{"kind": "circles", "circles": {"center": [0, 0], "radii": "1,2,3"}}',
            "circles.radii must be a list of numbers",
        ),
        (
            "check",
            '{"kind": "circles", "circles": {"center": [0, 0], "radii": [1, 1, 1'
            + "0" * 400 + "]}}",
            "circles.radii[2] is beyond the float range",
        ),
        (
            "reconstruct",
            '{"kind": "circles", "circles": {"center": [Infinity, 0], "radii": [1, 1, 2]}}',
            "circles.center must be finite, got [inf, 0]",
        ),
    ],
    ids=["pair", "check", "not_an_object", "polygon_not_an_object", "radii_not_a_list",
         "radius_beyond_float_range", "infinite_center"],
)
def test_an_instance_field_error_names_the_field_once(command, document, message, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(document, encoding="utf-8")
    assert run_cli(command, "--input", str(path), "--json") == (1, "", f"error: {message}\n")


def test_canonical_json_formatting():
    text = dump_canonical({"b": 0.1, "a": [1, True, None, "x"]})
    assert '"a"' in text and '"b"' in text
    assert text.index('"a"') < text.index('"b"')
    assert "0.10000000000000001" in text
    with pytest.raises(ValueError):
        dump_canonical(math.inf)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_canonical_floats_round_trip_exactly(value):
    assert float(dump_canonical(value)) == value


# ------------------------------------------------------------------- check


def test_check_feasible_degenerate_family():
    code, out, _ = run_cli("check", "--radii", "1,1,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["recovered"]["degenerate"] is True
    assert payload["recovered"]["larger"] == pytest.approx(1.0)
    assert payload["report"]["degenerate_single_polygon"] is True


def test_check_infeasible_progression():
    code, out, _ = run_cli("check", "--radii", "1,2,3,4", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["feasible"] is False
    residuals = payload["report"]["condition2_residuals"]
    assert residuals[0]["m"] == 3
    assert residuals[0]["residual"] == pytest.approx(75.0 / 1222.5, abs=1e-12)


def test_a_refused_check_recovers_from_the_report_averages(monkeypatch):
    # A refusal's circumradii come from the averages the report was built
    # from, not from another pass over the radii, and keep their bits.
    from concentric_gons.moments import _leading, cyclic_averages

    radii = sorted(random_instance(8, 3).family.radii)
    radii[-1] *= 1.1
    family = CircleFamily(PlanePoint(0.0, 0.0), tuple(radii))
    seen = []
    recover = cli.recover_circumradii

    def recorded(av, tol):
        seen.append(av)
        return recover(av, tol)

    monkeypatch.setattr(cli, "recover_circumradii", recorded)
    code, out, _ = run_cli("check", "--radii", ",".join(map(repr, radii)), "--json")
    payload = json.loads(out)
    assert code == 2 and payload["feasible"] is False
    assert seen == [cyclic_averages(family)]
    pair = recover(_leading(family)[0])
    assert (payload["recovered"]["larger"], payload["recovered"]["smaller"]) == (
        pair.larger, pair.smaller
    )


def test_check_all_equal_family():
    code, out, _ = run_cli("check", "--radii", "1,1,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["recovered"]["larger"] == pytest.approx(1.0)
    assert payload["recovered"]["smaller"] == pytest.approx(0.0, abs=1e-12)


def test_check_unsorted_radii_warns_and_sorts():
    code, out, err = run_cli("check", "--radii", "2,1,1", "--json")
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["radii"] == [1.0, 1.0, 2.0]


def test_check_usage_errors():
    code, _, err = run_cli("check", "--radii", "1,x,2", "--json")
    assert code == 1
    assert "error" in err
    code, _, err = run_cli("check", "--radii", "1,2", "--json")
    assert code == 1
    code, _, _ = run_cli("check")
    assert code == 1


@pytest.mark.parametrize("command", ["check", "reconstruct"])
def test_radii_and_input_together_are_a_usage_error(command, tmp_path):
    # Either source alone decides the family; given both, neither is used.
    for source in (write_circles(tmp_path / "c.json", [1.0, 1.0, 2.0]), "/nonexistent"):
        code, out, err = run_cli(command, "--radii", "1,1,2", "--input", source, "--json")
        assert (code, out) == (1, "")
        assert "not allowed with argument --radii" in err


@pytest.mark.parametrize(
    "radii",
    [
        # Order-126 powers of radii near 1e3 overflow a double.
        ",".join(str(1000.0 + 0.5 * k) for k in range(64)),
        # The squares themselves overflow.
        "1e308,1e308,1.5e308",
    ],
)
def test_check_overflowing_powers_is_an_error_not_a_traceback(radii):
    """Radii whose powers overflow a double in the family's units, once an
    error: the family is decided by its shape. An arithmetic progression is
    infeasible at any scale; 1, 1, 1.5 is feasible at any scale."""
    code, out, err = run_cli("check", "--radii", radii, "--json")
    assert err == ""
    payload = json.loads(out)
    assert code == (0 if payload["n"] == 3 else 2)
    assert payload["feasible"] is (code == 0)
    shape = ",".join(repr(float(r) / 1e3) for r in radii.split(","))
    assert run_cli("check", "--radii", shape)[0] == code


@pytest.mark.parametrize("command", ["check", "reconstruct"])
@pytest.mark.parametrize("radii", ["1e-200,1e-200,2e-200", "1e-100,1e-100,2e-100"])
def test_underflowing_radius_powers_are_a_usage_error(command, radii):
    """Radii whose fourth powers underflow a double, once a usage error:
    the family 1, 1, 2 keeps its shape at any scale (feasible, one polygon
    of circumradius 1 in the family's units)."""
    code, out, err = run_cli(command, "--radii", radii, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["feasible"] is True
    scale = float(radii.split(",")[0])
    pair = payload["recovered" if command == "check" else "circumradii"]
    assert pair["degenerate"] is True
    assert pair["larger"] == pair["smaller"] == pytest.approx(scale, rel=1e-12)


def test_check_tol_flag_loosens_comparison():
    # barely-unbalanced progression accepted under a huge tolerance
    code, _, _ = run_cli("check", "--radii", "1,2,3,4", "--tol", "4e-4")
    assert code == 2  # still far outside even a loose tolerance
    bad = run_cli("check", "--radii", "1,2,3,4", "--tol", "2.0")
    assert bad[0] == 1  # tolerance outside its validity range is a usage error


# ------------------------------------------------------------- reconstruct


def test_reconstruct_worked_family(tmp_path):
    radii = f"{math.sqrt(5 - 2 * SQRT3)},{math.sqrt(5)},{math.sqrt(5 + 2 * SQRT3)}"
    svg_path = tmp_path / "out.svg"
    code, out, _ = run_cli(
        "reconstruct", "--radii", radii, "--json", "--svg", str(svg_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["circumradii"]["larger"] == pytest.approx(2.0, abs=1e-12)
    assert payload["circumradii"]["smaller"] == pytest.approx(1.0, abs=1e-12)
    assert max(payload["residuals"]) <= 1e-9
    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    group = root[0]
    circles = [el for el in group if el.tag.endswith("circle") and el.get("fill") == "none"]
    polygons = [el for el in group if el.tag.endswith("polygon")]
    assert len(circles) == 3
    assert len(polygons) == 2


def test_reconstruct_point_polygon_flagged():
    code, out, _ = run_cli("reconstruct", "--radii", "1,1,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["point_polygon"] is True
    assert payload["polygons"][1]["circumradius"] == 0.0


def test_reconstruct_infeasible_exit():
    code, out, _ = run_cli("reconstruct", "--radii", "1,2,3,4", "--json")
    assert code == 2
    assert json.loads(out)["feasible"] is False


def test_refusal_reason_is_printed_only_on_the_human_path():
    radii = list(random_instance(8, 1).family.radii)
    radii[3] *= 1.001
    arg = ",".join(map(repr, radii))
    reason = (
        "reason: no placement reproduces the radii: best relative gap 0.00531 "
        "against the gate 1e-08, too far to polish"
    )
    for command in ("check", "reconstruct"):
        code, out, _ = run_cli(command, "--radii", arg)
        assert code == 2
        assert out.splitlines()[out.splitlines().index("feasible: no") + 1] == reason
        code, out, _ = run_cli(command, "--radii", arg, "--json")
        assert code == 2
        assert "reason" not in out and json.loads(out)["feasible"] is False
    code, out, _ = run_cli("check", "--radii", "1,1,2")
    assert code == 0 and "reason" not in out


def test_reconstruct_tolerance_at_the_gate_clamp():
    # 10 x 5e-4 exceeds the tolerance ceiling, so the phase search's gate
    # runs clamped at 9.9e-4.
    radii = f"{math.sqrt(5 - 2 * SQRT3)},{SQRT3},{math.sqrt(7)},{math.sqrt(5 + 2 * SQRT3)}"
    code, out, _ = run_cli("reconstruct", "--radii", radii, "--tol", "5e-4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert max(payload["residuals"]) <= 1e-12


# -------------------------------------------------------------------- pair


def test_pair_requires_input():
    code, _, _ = run_cli("pair")
    assert code == 1


@pytest.mark.parametrize("command", ["pair", "render"])
def test_max_n_is_not_a_pair_or_render_flag(command, tmp_path):
    p = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.0)
    path = write_polygon_pair(tmp_path / "pp.json", p, p)
    code, out, err = run_cli(
        command, "--input", path, "--svg", str(tmp_path / "x.svg"), "--max-n", "5"
    )
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --max-n 5" in err


@pytest.mark.parametrize("command", ["check", "reconstruct", "verify"])
def test_max_n_caps_the_moment_subcommands(command, tmp_path):
    """``--max-n`` is gone: the vertex count is capped at 256, and no
    subcommand accepts the flag (``pair`` and ``render``: above)."""
    path = write_circles(tmp_path / "c.json", [1.0] * 6)
    assert run_cli(command, "--input", path)[0] == 0
    code, out, err = run_cli(command, "--input", path, "--max-n", "6")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --max-n 6" in err


def test_pair_on_an_unsorted_circles_file_prints_only_the_error(tmp_path):
    path = write_circles(tmp_path / "unsorted.json", [2.0, 1.0, 1.0])
    code, out, err = run_cli("pair", "--input", path)
    assert code == 1
    assert out == ""
    assert err == "error: expected a polygon_pair instance, got circles\n"


def test_pair_worked_pair(tmp_path):
    p1 = RegularPolygonSpec(3, PlanePoint(0, 0), 2.0, 0.0)
    p2 = RegularPolygonSpec(3, PlanePoint(2, 0), 1.0, 0.5)
    path = write_polygon_pair(tmp_path / "pair.json", p1, p2)
    svg_path = tmp_path / "pair.svg"
    code, out, _ = run_cli("pair", "--input", path, "--json", "--svg", str(svg_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4  # two intersection points, two rotations each
    centers = {(round(res["center"][0], 9), round(res["center"][1], 9)) for res in payload["results"]}
    height = math.sqrt(15) / 4
    assert centers == {(0.25, round(height, 9)), (0.25, round(-height, 9))}
    for res in payload["results"]:
        center = PlanePoint(*res["center"])
        assert center.distance_to(p1.center) == pytest.approx(1.0, abs=1e-9)
        assert center.distance_to(p2.center) == pytest.approx(2.0, abs=1e-9)
    ET.fromstring(svg_path.read_text(encoding="utf-8"))


def test_check_accepts_circle_instance_file(tmp_path):
    path = write_circles(tmp_path / "fam.json", [1.0, 1.0, 2.0])
    code, out, _ = run_cli("check", "--input", path, "--json")
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_check_rejects_polygon_pair_file(tmp_path):
    p = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.0)
    path = write_polygon_pair(tmp_path / "pp.json", p, p)
    code, _, err = run_cli("check", "--input", path, "--json")
    assert code == 1
    assert "error" in err


def test_pair_shared_vertex_tangent(tmp_path):
    p1 = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.0)
    p2 = RegularPolygonSpec(3, PlanePoint(2, 0), 1.0, math.pi)
    path = write_polygon_pair(tmp_path / "shared.json", p1, p2)
    code, out, _ = run_cli("pair", "--input", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["results"][0]["center"] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert payload["results"][0]["radii"] == pytest.approx([0.0, SQRT3, SQRT3], abs=1e-12)


def test_pair_far_apart_exits_two(tmp_path):
    p1 = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.0)
    p2 = RegularPolygonSpec(3, PlanePoint(9, 0), 1.0, 0.0)
    path = write_polygon_pair(tmp_path / "far.json", p1, p2)
    code, out, _ = run_cli("pair", "--input", path, "--json")
    assert code == 2
    assert json.loads(out)["count"] == 0


def test_pair_mismatched_order_exits_one(tmp_path):
    p1 = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.0)
    p2 = RegularPolygonSpec(4, PlanePoint(2, 0), 1.0, 0.0)
    path = write_polygon_pair(tmp_path / "mismatch.json", p1, p2)
    code, _, err = run_cli("pair", "--input", path, "--json")
    assert code == 1
    assert "error" in err


def test_pair_identical_polygons_degenerate(tmp_path):
    p = RegularPolygonSpec(3, PlanePoint(0, 0), 1.0, 0.25)
    path = write_polygon_pair(tmp_path / "same.json", p, p)
    code, out, _ = run_cli("pair", "--input", path, "--json")
    assert code == 2
    assert json.loads(out)["degenerate_continuum"] is True


# ------------------------------------------------------------------ verify


def test_verify_instance_file(tmp_path):
    inst = random_instance(4, 2)
    path = write_polygon_pair(tmp_path / "inst.json", inst.polygon1, inst.polygon2)
    code, out, _ = run_cli("verify", "--input", path, "--json")
    assert code == 0
    payload = json.loads(out)
    section = payload["result"]
    assert section["pass"] is True
    assert all(item["residual"] <= 1e-10 for item in section["power_identity_residuals"])


def test_verify_circles_kind_runs_sweeps_only(tmp_path):
    path = write_circles(
        tmp_path / "circ.json",
        sorted((math.sqrt(5 - 2 * SQRT3), math.sqrt(5), math.sqrt(5 + 2 * SQRT3))),
    )
    code, out, _ = run_cli("verify", "--input", path, "--json")
    assert code == 0
    section = json.loads(out)["result"]
    assert section["kind"] == "circles"
    assert "power_identity_residuals" not in section
    assert len(section["angle_sweeps"]) == 2
    assert all(s["best_residual"] <= 1e-6 for s in section["angle_sweeps"])


def test_verify_circles_sweeps_agree_across_arm_orders(tmp_path):
    for n in (3, 8):
        inst = random_instance(n, 7)
        path = write_circles(tmp_path / f"c{n}.json", inst.family.radii)
        code, out, _ = run_cli("verify", "--input", path, "--json")
        assert code == 0
        first, second = json.loads(out)["result"]["angle_sweeps"]
        assert (first["vertex_arm"], first["center_arm"]) == (
            second["center_arm"], second["vertex_arm"]
        )
        assert first["best_phase"] == second["best_phase"]
        assert first["best_residual"] == second["best_residual"]


def test_verify_corrupted_radii_identifies_failing_order(tmp_path):
    base = random_instance(5, 31)
    radii = list(base.family.radii)
    radii[2] *= 1.001  # corrupt one digit
    path = write_circles(tmp_path / "bad.json", sorted(radii))
    code, out, _ = run_cli("verify", "--input", path, "--json")
    assert code == 2
    section = json.loads(out)["result"]
    residuals = section["report"]["condition2_residuals"]
    failing = [row["m"] for row in residuals if row["residual"] > 1e-9]
    assert 3 in failing


def test_verify_input_and_seed_together_are_a_usage_error(tmp_path):
    # A seed drives only certification, so with an instance file it would be
    # ignored; --seed 1 is the default's value and still refused.
    path = write_circles(tmp_path / "c.json", [1.0, 1.0, 2.0])
    for seed in ("1", "7"):
        code, out, err = run_cli("verify", "--input", path, "--seed", seed, "--json")
        assert (code, out) == (1, "")
        assert "not allowed with argument --input" in err


def test_verify_with_no_source_certifies_seed_one():
    code, out, _ = run_cli("verify", "--json")
    assert code == 0
    assert json.loads(out)["result"]["seed"] == 1
    assert run_cli("verify", "--seed", "1", "--json") == (code, out, "")


def test_verify_certification_mode():
    code, out, _ = run_cli("verify", "--seed", "5", "--json")
    assert code == 0
    section = json.loads(out)["result"]
    assert section["kind"] == "certification"
    assert all(row["worst_residual"] <= 1e-10 for row in section["per_n"])


def test_verify_certification_refuses_a_tolerance_it_would_ignore(tmp_path):
    # The certification gate is the fixed identity tolerance, so --tol is
    # a usage error with or without --seed; an instance file still takes it.
    for argv in (("--seed", "1"), ("--seed", "7", "--json"), ()):
        code, out, err = run_cli("verify", *argv, "--tol", "1e-6")
        assert (code, out) == (1, ""), argv
        assert "--tol" in err and "fixed gate 1e-10" in err, argv
    path = write_circles(tmp_path / "c.json", [1.0, 1.0, 2.0])
    assert run_cli("verify", "--input", path, "--tol", "1e-6")[0] == 0


def test_verify_certification_prints_each_worst_residual_against_the_gate():
    code, out, err = run_cli("verify", "--seed", "1")
    rows = json.loads(run_cli("verify", "--seed", "1", "--json")[1])["result"]["per_n"]
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "verify kind: certification",
        "pass: yes",
        *(f"n={row['n']} worst residual {row['worst_residual']:.3g} (gate 1e-10)" for row in rows),
    ]
    assert [row["n"] for row in rows] == list(range(3, 13))


# ------------------------------------------------------------------ render


def test_render_circles_instance(tmp_path):
    path = write_circles(tmp_path / "c.json", [1.0, 1.0, 2.0])
    svg_path = tmp_path / "c.svg"
    code, _, _ = run_cli("render", "--input", path, "--svg", str(svg_path))
    assert code == 0
    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    assert root.get("viewBox")


def test_render_requires_svg(tmp_path):
    path = write_circles(tmp_path / "c.json", [1.0, 1.0, 2.0])
    code, _, _ = run_cli("render", "--input", path)
    assert code == 1


def test_human_readable_output():
    code, out, _ = run_cli("check", "--radii", "1,1,2")
    assert code == 0
    assert "feasible: yes" in out
    code, out, _ = run_cli("reconstruct", "--radii", "1,1,1,1")
    assert code == 0
    assert "point polygon" in out


def test_verify_degenerate_instance(tmp_path):
    # The second polygon is a point. Reconstruction gives back the larger
    # circumradius; the smaller it recovers is the root of the
    # discriminant's rounding, which at (4, 11) stays within the multiset
    # gate and at (5, 46) misses it.
    for n, seed, misses_the_gate in ((4, 11, False), (5, 46, True)):
        inst = random_instance(n, seed, zero_smaller_radius=True)
        path = write_polygon_pair(tmp_path / "deg.json", inst.polygon1, inst.polygon2)
        code, out, _ = run_cli("verify", "--input", path, "--json")
        assert code == 0
        section = json.loads(out)["result"]
        assert section["pass"] is True
        assert section["pairing_count"] == 1
        (trip,) = section["round_trips"]
        larger = inst.polygon1.circumradius
        assert trip["circumradii"][0] == pytest.approx(larger, rel=1e-8)
        assert max(trip["gaps"]) <= 1e-8 * larger
        assert (trip["circumradii"][1] > 1e-8 * larger) is misses_the_gate


@pytest.mark.parametrize("n", [3, 5, 8, 12])
@pytest.mark.parametrize("point", [False, True], ids=["two_polygons", "point_polygon"])
def test_verify_passes_every_random_pair_file(n, point, tmp_path):
    for seed in range(1, 41):
        inst = random_instance(n, seed, zero_smaller_radius=point)
        path = write_polygon_pair(tmp_path / "pair.json", inst.polygon1, inst.polygon2)
        code, out, _ = run_cli("verify", "--input", path, "--json")
        section = json.loads(out)["result"]
        assert (code, section["pass"]) == (0, True), seed
        assert len(section["round_trips"]) == section["pairing_count"] >= 1, seed


def _rotated_second(res):
    second = res.aligned_second
    rotated = RegularPolygonSpec(second.n, second.center, second.circumradius, second.phase + 1e-3)
    return PairingResult(res.center, rotated, res.circles)


def _rescaled_last_radius(res):
    radii = res.circles.radii
    circles = CircleFamily(res.circles.center, (*radii[:-1], radii[-1] * (1 + 1e-6)))
    return PairingResult(res.center, res.aligned_second, circles)


def _moved_center(res):
    center = res.center.translated(1e-3, 0.0)
    circles = CircleFamily(center, res.circles.radii)
    return PairingResult(center, res.aligned_second, circles)


@pytest.mark.parametrize(
    "doctor", [_rotated_second, _rescaled_last_radius, _moved_center],
    ids=["rotated", "rescaled", "moved"],
)
def test_verify_fails_a_doctored_configuration(doctor, monkeypatch, tmp_path):
    # verify reads each configuration pair_polygons returns back through the
    # library, so a wrong first configuration fails the pair file.
    inst = random_instance(5, 2)
    path = write_polygon_pair(tmp_path / "pair.json", inst.polygon1, inst.polygon2)
    assert run_cli("verify", "--input", path)[0] == 0
    original = cli.pair_polygons

    def doctored(*args, **kwargs):
        first, *rest = original(*args, **kwargs)
        return [doctor(first), *rest]

    monkeypatch.setattr(cli, "pair_polygons", doctored)
    code, out, _ = run_cli("verify", "--input", path, "--json")
    assert code == 2
    assert json.loads(out)["result"]["pass"] is False


def test_verify_reconstructs_each_distinct_family_once(monkeypatch, tmp_path):
    # The two rotations at one meeting point share one circle family.
    inst = random_instance(5, 2)
    path = write_polygon_pair(tmp_path / "pair.json", inst.polygon1, inst.polygon2)
    before = run_cli("verify", "--input", path, "--json")
    calls = []
    original = cli.reconstruct_polygons

    def counting(family, *args, **kwargs):
        calls.append(family)
        return original(family, *args, **kwargs)

    monkeypatch.setattr(cli, "reconstruct_polygons", counting)
    assert run_cli("verify", "--input", path, "--json") == before
    assert json.loads(before[1])["result"]["pairing_count"] == 4
    assert len(calls) == len(set(calls)) == 2


# ------------------------------------------------------------- determinism


def test_json_outputs_are_byte_identical():
    first = run_cli("check", "--radii", "1,1,2", "--json")
    second = run_cli("check", "--radii", "1,1,2", "--json")
    assert first == second
    rec1 = run_cli("reconstruct", "--radii", "1,1,1,1", "--json")
    rec2 = run_cli("reconstruct", "--radii", "1,1,1,1", "--json")
    assert rec1 == rec2


def test_certification_output_is_byte_identical():
    first = run_cli("verify", "--seed", "3", "--json")
    second = run_cli("verify", "--seed", "3", "--json")
    assert first == second
    assert first[0] == 0


def test_svg_outputs_are_byte_identical(tmp_path):
    radii = f"{math.sqrt(5 - 2 * SQRT3)},{math.sqrt(5)},{math.sqrt(5 + 2 * SQRT3)}"
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli("reconstruct", "--radii", radii, "--svg", str(a))
    run_cli("reconstruct", "--radii", radii, "--svg", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_main_reuses_its_parser_without_carrying_state(tmp_path):
    argv = ["check", "--radii", "1,1,2", "--json"]
    assert run_cli("check", "--radii")[0] == 1
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first[1] == second[1] != ""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-m", "concentric_gons", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert fresh.returncode == first[0] == 0
    assert fresh.stdout == first[1]
    assert build_parser() is not build_parser()


# ------------------------------------------------ vertex counts and SVG files


@pytest.mark.parametrize("command", ["pair", "verify", "render"])
def test_polygons_with_different_vertex_counts_exit_one(command, tmp_path):
    p1 = RegularPolygonSpec(3, PlanePoint(0, 0), 2.0, 0.0)
    p2 = RegularPolygonSpec(4, PlanePoint(2, 0), 1.0, 0.0)
    path = write_polygon_pair(tmp_path / "mismatch.json", p1, p2)
    svg_path = tmp_path / "x.svg"
    svg = [] if command == "verify" else ["--svg", str(svg_path)]
    code, out, err = run_cli(command, "--input", path, *svg)
    assert (code, out) == (1, "")
    assert err == "error: polygons have different vertex counts: 3 vs 4\n"
    assert not svg_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--radii", "1,1,2"],
        ["pair", "--input", "{pair}"],
        ["render", "--input", "{pair}"],
        ["render", "--input", "{circles}"],
    ],
    ids=["reconstruct", "pair", "render-pair", "render-circles"],
)
def test_unwritable_svg_path_is_a_usage_error(argv, tmp_path):
    p1 = RegularPolygonSpec(3, PlanePoint(0, 0), 2.0, 0.0)
    p2 = RegularPolygonSpec(3, PlanePoint(2, 0), 1.0, 0.5)
    files = {
        "{pair}": write_polygon_pair(tmp_path / "pair.json", p1, p2),
        "{circles}": write_circles(tmp_path / "c.json", [1.0, 1.0, 2.0]),
    }
    argv = [files.get(arg, arg) for arg in argv]
    # A path under a missing directory, and a path that is a directory.
    for target in (str(tmp_path / "no_such_dir" / "x.svg"), str(tmp_path)):
        for extra in ([], ["--json"]):
            code, out, err = run_cli(*argv, *extra, "--svg", target)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: cannot write {target}: ")


def test_undrawable_reconstruction_prints_no_report(tmp_path):
    # Feasible at any scale, but its drawing overflows near the largest double.
    svg_path = tmp_path / "x.svg"
    code, out, err = run_cli(
        "reconstruct", "--radii", "1e308,1e308,1.5e308", "--svg", str(svg_path)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot draw non-finite coordinate")
    assert not svg_path.exists()
    assert run_cli("reconstruct", "--radii", "1e308,1e308,1.5e308")[0] == 0


def test_verify_circles_sweeps_at_any_scale(tmp_path):
    # The sweep runs on the radii divided by 2^exponent: a power-of-two
    # copy sweeps the same values, and a tiny family is swept, not waved
    # through.
    radii = sorted((math.sqrt(5 - 2 * SQRT3), math.sqrt(5), math.sqrt(5 + 2 * SQRT3)))
    path = write_circles(tmp_path / "a.json", radii)
    base = json.loads(run_cli("verify", "--input", path, "--json")[1])["result"]["angle_sweeps"]
    tiny = [math.ldexp(r, -530) for r in radii]
    code, out, _ = run_cli("verify", "--input", write_circles(tmp_path / "b.json", tiny), "--json")
    assert code == 0
    sweeps = json.loads(out)["result"]["angle_sweeps"]
    assert len(sweeps) == len(base) == 2
    for small, unit in zip(sweeps, base):
        assert small["best_phase"] == unit["best_phase"]
        for key in ("vertex_arm", "center_arm", "best_residual"):
            assert small[key] == math.ldexp(unit[key], -530)


@pytest.mark.parametrize("command", ["check", "reconstruct"])
def test_negative_radius_as_a_separate_value_reaches_the_library_message(command):
    # argparse once read "-1,1,2" as an option and ended with "expected one
    # argument"; both spellings now reach the same message. An unsorted list
    # that is refused anyway gets no sorting warning.
    joined = run_cli(command, "--radii=-1,1,2")
    separate = run_cli(command, "--radii", "-1,1,2")
    unsorted = run_cli(command, "--radii=2,1,-1")
    assert joined == (1, "", "error: radii must be finite and >= 0, got -1.0\n")
    assert separate == joined
    assert unsorted == joined


@pytest.mark.parametrize("command", ["check", "reconstruct"])
@pytest.mark.parametrize("radii", ["1,,1,2", "1,1,2,", ",1,1,2"])
def test_empty_radii_entries_are_usage_errors(command, radii):
    assert run_cli(command, f"--radii={radii}") == (
        1, "", f"error: cannot parse radii list {radii!r}\n"
    )


def test_certification_bytes_are_pinned():
    # The certification document of seed 7, byte for byte: 2,000 random
    # instances and their relative power-identity residuals.
    out = run_cli("verify", "--seed", "7", "--json")[1]
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "ec6875ddce4ec977947e3fe0a04fa47f857d1bfc5845a85467c1248628cdf43a"


@pytest.mark.parametrize(
    "seed, digest",
    [
        (2, "50dd6c36710ff5ff9141b79c3a4a4c07369c89e6131a8c5dbe5ca238a8b4c6b4"),
        (12345, "cc1fc1a0d47e52ab7920a6aa06891b8dde2a3efaba9fa2c47f0ca157606ab7d4"),
        (-1, "f3ef66421d05cf12092ef987e6ee5a62db9aa6b5bee60595434144815cac2a8d"),
        (2**64 + 3, "777c98b6f3151eca59b14dedb8455aa64d848c38ef4b9d2ef56a75a2cbb11aa1"),
    ],
    ids=["2", "12345", "-1", "2^64+3"],
)
def test_certification_bytes_are_pinned_on_more_seeds(seed, digest):
    # Seeds below 0 and at or above 2^64 reach the generator through its
    # 64-bit mask.
    out = run_cli("verify", "--seed", str(seed), "--json")[1]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("n", [64, 256])
def test_verify_large_instances(n, tmp_path):
    inst = random_instance(n, 1)
    circles = write_circles(tmp_path / "circles.json", inst.family.radii)
    pair = write_polygon_pair(tmp_path / "pair.json", inst.polygon1, inst.polygon2)
    bound = 1e-13 * inst.family.radii[-1]
    code, out, _ = run_cli("verify", "--input", circles, "--json")
    assert code == 0
    sweeps = json.loads(out)["result"]["angle_sweeps"]
    assert len(sweeps) == 2
    assert all(s["best_residual"] <= bound for s in sweeps)
    code, out, _ = run_cli("verify", "--input", pair, "--json")
    assert code == 0
    trips = json.loads(out)["result"]["round_trips"]
    assert len(trips) == 4
    assert all(max(trip["gaps"]) <= bound for trip in trips)
    # One radius off by 1e-5 relative passes the moment tests at a loose
    # tolerance but no phase reproduces it.
    radii = list(inst.family.radii)
    radii[n // 2] *= 1.0 + 1e-5
    perturbed = write_circles(tmp_path / "perturbed.json", sorted(radii))
    code, out, _ = run_cli("verify", "--input", perturbed, "--tol", "9e-4", "--json")
    assert code == 2
    section = json.loads(out)["result"]
    assert section["report"]["condition1_ok"] and section["report"]["condition2_ok"]
    assert all(s["best_residual"] > 1e-6 for s in section["angle_sweeps"])


def _pairs_above_the_vertex_limit():
    yield (
        RegularPolygonSpec(3000, PlanePoint(0.0, 0.0), 1.0, 0.0),
        RegularPolygonSpec(3000, PlanePoint(1.5, 0.0), 1.2, 0.1),
    )
    inst = random_instance(1000, 1)
    yield inst.polygon1, inst.polygon2


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
@pytest.mark.parametrize("p1, p2", list(_pairs_above_the_vertex_limit()), ids=["3000", "1000"])
def test_verify_pair_above_the_vertex_limit_is_a_usage_error(p1, p2, flags, tmp_path):
    # The power-sum identity runs only up to n = 256: beyond, the scaled
    # squares' powers overflow or lose every digit. Both output modes end
    # with the same message.
    path = write_polygon_pair(tmp_path / "pair.json", p1, p2)
    assert run_cli("pair", "--input", path)[0] == 0
    assert run_cli("verify", "--input", path, *flags) == (
        1, "", f"error: vertex count {p1.n} exceeds 256\n"
    )


@pytest.mark.parametrize("kind", ["feasible", "infeasible"])
def test_each_circles_command_builds_one_power_table(kind, monkeypatch, tmp_path):
    # check, reconstruct and verify print the paper's report, one O(n^2)
    # power table each; reconstruction builds none and render prints none.
    radii = list(random_instance(8, 3).family.radii)
    if kind == "infeasible":
        radii[-1] *= 1.01
    source = write_circles(tmp_path / "c.json", radii)
    calls = []

    def counted(module):
        original = module.cyclic_averages

        def counting(family):
            calls.append(module.__name__)
            return original(family)

        monkeypatch.setattr(module, "cyclic_averages", counting)

    counted(cli)
    counted(reconstruct)
    code = 0 if kind == "feasible" else 2
    for argv in (
        ["check", "--input", source, "--json"],
        ["reconstruct", "--input", source, "--json"],
        ["verify", "--input", source, "--json"],
    ):
        calls.clear()
        assert run_cli(*argv)[0] == code, argv
        assert calls == ["concentric_gons.cli"], argv
    calls.clear()
    assert run_cli("render", "--input", source, "--svg", str(tmp_path / "c.svg"))[0] == 0
    assert calls == []
