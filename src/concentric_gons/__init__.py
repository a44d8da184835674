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
"""

from .errors import (
    CoincidentAuxiliaryCircles,
    CoincidentCircles,
    DegenerateGeometry,
    GeometryError,
    InfeasibleFamily,
    InfeasibleMoments,
    InvalidMomentOrder,
    MismatchedOrder,
    NotACandidateCenter,
)
from .geom import (
    DEFAULT_TOLERANCE,
    PlanePoint,
    RegularPolygonSpec,
    Tolerance,
    distance_multiset,
    multiset_close,
    normalize_angle,
    phase_candidates,
    vertices,
)
from .moments import (
    CircleFamily,
    CyclicAverages,
    FeasibilityReport,
    RadiiPair,
    assess_feasibility,
    condition_one,
    condition_two,
    cyclic_averages,
    recover_circumradii,
    two_radius_power_sum,
)
from .oracle import (
    RandomInstance,
    SplitMix64,
    angle_sweep,
    power_identity_residual,
    random_instance,
)
from .pairing import (
    PairingResult,
    align_second_polygon,
    candidate_centers,
    pair_polygons,
)
from .reconstruct import (
    Reconstruction,
    reconstruct_polygons,
    verify_reconstruction,
)

__version__ = "0.1.0"

__all__ = [
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
