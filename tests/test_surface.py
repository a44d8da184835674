"""The package's public surface: what importing it loads and what it exports."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import concentric_gons

SRC = str(Path(concentric_gons.__file__).resolve().parent.parent)
SUBMODULES = ("errors", "geom", "moments", "oracle", "pairing", "reconstruct")


def modules_after(code):
    """The modules loaded once ``code`` has run in a fresh interpreter. -S
    skips site, so only the code adds modules."""
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{code}\nprint(*sys.modules)"
    return subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()


def library_modules(loaded):
    return {name.partition(".")[2] for name in loaded if name.startswith("concentric_gons.")}


def test_import_loads_only_the_standard_library_and_exports_resolve():
    # closed_forms, pytest and hypothesis are foreign. dataclasses, inspect
    # and typing cost milliseconds of import in every CLI call.
    loaded = modules_after("import concentric_gons.cli")
    tops = {name.split(".")[0] for name in loaded}
    assert tops - set(sys.stdlib_module_names) == {"concentric_gons", "__main__"}
    assert "concentric_gons.cli" in loaded
    assert {"dataclasses", "inspect", "typing"} & set(loaded) == set()
    names = concentric_gons.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(concentric_gons, name)] == []


def test_bare_import_loads_no_submodule():
    assert library_modules(modules_after("import concentric_gons")) == set()


def test_first_reconstruction_loads_only_the_circles_route():
    loaded = modules_after(
        "import concentric_gons as c\n"
        "c.reconstruct_polygons(c.CircleFamily(c.PlanePoint(0.0, 0.0), (1.0, 1.0, 2.0)))"
    )
    assert library_modules(loaded) == {"errors", "geom", "moments", "reconstruct"}


def test_first_pairing_loads_none_of_the_other_routes():
    loaded = modules_after(
        "import concentric_gons as c\n"
        "c.pair_polygons(c.RegularPolygonSpec(3, c.PlanePoint(0.0, 0.0), 1.0, 0.0),\n"
        "                c.RegularPolygonSpec(3, c.PlanePoint(1.5, 0.0), 1.0, 0.3))"
    )
    assert library_modules(loaded) == {"errors", "geom", "pairing"}


def test_instance_parsing_loads_no_moment_algebra():
    assert "moments" not in library_modules(modules_after("import concentric_gons.instances"))


def test_circle_family_has_one_home():
    from concentric_gons import geom, moments

    assert concentric_gons.CircleFamily is geom.CircleFamily is moments.CircleFamily


CLI_BASE = {"cli", "errors", "geom", "instances", "moments", "reconstruct"}


def cli_modules_after(*argv):
    """The library modules loaded once ``cli.main(argv)`` has run in a fresh
    interpreter, its output discarded."""
    return library_modules(modules_after(
        "import contextlib, io\n"
        "from concentric_gons.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({list(argv)!r})"
    ))


def test_cli_import_loads_no_oracle_pairing_or_svg():
    assert library_modules(modules_after("import concentric_gons.cli")) == CLI_BASE


@pytest.mark.parametrize(
    "argv",
    [("check", "--radii", "1,1,2", "--json"), ("reconstruct", "--radii", "1,1,2", "--json")],
)
def test_check_and_undrawn_reconstruct_load_only_the_circles_route(argv):
    assert cli_modules_after(*argv) == CLI_BASE


def test_pair_loads_pairing_but_not_oracle(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        '{"format": "concentric-gons/1", "kind": "polygon_pair", "polygons": ['
        '{"n": 3, "center": [0, 0], "circumradius": 1, "phase": 0}, '
        '{"n": 3, "center": [1.5, 0], "circumradius": 1, "phase": 0.3}]}',
        encoding="utf-8",
    )
    loaded = cli_modules_after("pair", "--input", str(path), "--json")
    assert "pairing" in loaded
    assert "oracle" not in loaded


def test_certification_loads_oracle():
    assert "oracle" in cli_modules_after("verify", "--seed", "1", "--json")


def test_cli_takes_only_public_names_from_its_lazy_modules():
    # A private name read across modules splits one recipe between two
    # owners; certification's sweep lives in oracle, behind a public name.
    # random_instance and candidate_centers are bound here only so that
    # perfbench/tracing.py can wrap them at cli; no command calls them.
    # The module-level "from .<module> import ..." lines count too.
    from concentric_gons import cli

    taken = [name for names in cli._LAZY.values() for name in names]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            taken += [alias.name for alias in node.names]
    assert "reconstruct_polygons" in taken
    assert [name for name in taken if name.startswith("_")] == []


def test_cli_calls_a_name_replaced_before_its_first_use(tmp_path):
    # perfbench/tracing.py and monkeypatching tests replace cli.<name>; the
    # command that binds the name on first use must keep the replacement.
    out = modules_after(
        "import contextlib, io\n"
        "from concentric_gons import cli\n"
        "calls = []\n"
        "def counting(*args, **kwargs):\n"
        "    calls.append(1)\n"
        "    return sys.modules['concentric_gons.svg'].render_configuration(*args, **kwargs)\n"
        "cli.render_configuration = counting\n"
        f"path = {str(tmp_path / 'c.svg')!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['reconstruct', '--radii', '1,1,2', '--svg', path]) == 0\n"
        "assert calls == [1] and cli.render_configuration is counting\n"
        "for module, names in cli._LAZY.items():\n"
        "    for name in set(names) - {'render_configuration'}:\n"
        "        value = getattr(cli, name)\n"
        "        assert value is getattr(sys.modules[f'concentric_gons.{module}'], name), name\n"
        "try:\n"
        "    cli.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert "module 'concentric_gons.cli' has no attribute 'no_such_name'" in " ".join(out)
    assert "<svg " in (tmp_path / "c.svg").read_text(encoding="utf-8")


def test_star_import_binds_each_name_to_the_object_its_submodule_defines():
    loaded = modules_after(
        "from concentric_gons import *\n"
        "import concentric_gons\n"
        "for name in concentric_gons.__all__:\n"
        "    value = globals()[name]\n"
        "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
        "print(len(concentric_gons.__all__), 'names')"
    )
    assert loaded[:2] == ["40", "names"]
    assert set(SUBMODULES) <= library_modules(loaded)


def test_submodules_resolve_as_attributes_after_a_bare_import():
    loaded = modules_after(
        "import concentric_gons\n"
        f"print(*(getattr(concentric_gons, name).__name__ for name in {SUBMODULES!r}))"
    )
    assert loaded[: len(SUBMODULES)] == [f"concentric_gons.{name}" for name in SUBMODULES]


def test_unknown_attribute_raises_and_dir_covers_the_exports():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        concentric_gons.no_such_name
    assert set(concentric_gons.__all__) <= set(dir(concentric_gons))


def test_public_names_are_pinned():
    # Growing or shrinking the API is a decision, recorded here when made.
    assert sorted(concentric_gons.__all__) == [
        "CircleFamily",
        "CoincidentAuxiliaryCircles",
        "CoincidentCircles",
        "CyclicAverages",
        "DEFAULT_TOLERANCE",
        "DegenerateGeometry",
        "FeasibilityReport",
        "GeometryError",
        "InfeasibleFamily",
        "InfeasibleMoments",
        "InvalidMomentOrder",
        "MismatchedOrder",
        "NotACandidateCenter",
        "PairingResult",
        "PlanePoint",
        "RadiiPair",
        "RandomInstance",
        "Reconstruction",
        "RegularPolygonSpec",
        "SplitMix64",
        "Tolerance",
        "align_second_polygon",
        "angle_sweep",
        "assess_feasibility",
        "candidate_centers",
        "condition_one",
        "condition_two",
        "cyclic_averages",
        "distance_multiset",
        "multiset_close",
        "normalize_angle",
        "pair_polygons",
        "phase_candidates",
        "power_identity_residual",
        "random_instance",
        "reconstruct_polygons",
        "recover_circumradii",
        "two_radius_power_sum",
        "verify_reconstruction",
        "vertices",
    ]
