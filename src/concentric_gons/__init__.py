"""Two regular n-gons and n concentric circles: decide and construct the
correspondence in both directions.

Polygons to circles: every pair of regular n-gons whose auxiliary circles
meet admits concentric circles through one vertex of each (``pairing``).
Circles to polygons: the circumradii of the two polygons follow in closed
form from the first two power averages, and a family is realized when the
polygons placed from them reproduce its radii (``moments``,
``reconstruct``), triangles and squares included; the paper's two
algebraic conditions are reported alongside, with brute-force
cross-checks (``oracle``).

Each public name is loaded from its submodule on first use (PEP 562), so
a call loads only the submodules it needs: ``reconstruct_polygons`` never
loads ``oracle`` or ``pairing``, and ``pair_polygons`` loads neither
``moments`` nor ``reconstruct``. ``CircleFamily``, the value both
directions share, lives in ``geom``.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "errors": """CoincidentAuxiliaryCircles CoincidentCircles DegenerateGeometry
        GeometryError InfeasibleFamily InfeasibleMoments InvalidMomentOrder
        MismatchedOrder NotACandidateCenter""",
    "geom": """CircleFamily DEFAULT_TOLERANCE PlanePoint RegularPolygonSpec Tolerance
        distance_multiset multiset_close normalize_angle phase_candidates vertices""",
    "moments": """CyclicAverages FeasibilityReport RadiiPair
        assess_feasibility condition_one condition_two cyclic_averages
        recover_circumradii two_radius_power_sum""",
    "oracle": "RandomInstance SplitMix64 angle_sweep power_identity_residual random_instance",
    "pairing": "PairingResult align_second_polygon candidate_centers pair_polygons",
    "reconstruct": "Reconstruction reconstruct_polygons verify_reconstruction",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the submodule behind ``name``, or the submodule ``name``
    itself, and bind the result here so that later lookups skip this."""
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
