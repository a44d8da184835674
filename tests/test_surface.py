"""The package's public surface: what importing it loads and what it exports."""

import subprocess
import sys
from pathlib import Path

import concentric_gons


def test_import_loads_only_the_standard_library_and_exports_resolve():
    # -S skips site: only the import adds modules. closed_forms, pytest and hypothesis are foreign.
    # dataclasses, inspect and typing cost milliseconds of import in every CLI call.
    src = str(Path(concentric_gons.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import concentric_gons.cli; print(*sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    tops = {name.split(".")[0] for name in loaded}
    assert tops - set(sys.stdlib_module_names) == {"concentric_gons", "__main__"}
    assert "concentric_gons.cli" in loaded
    assert {"dataclasses", "inspect", "typing"} & set(loaded) == set()
    names = concentric_gons.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(concentric_gons, name)] == []


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
