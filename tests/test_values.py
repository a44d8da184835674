"""Value semantics of the library's immutable classes: construction,
repr, equality, hashing, immutability and pickling."""

import math
import pickle
from types import SimpleNamespace

import pytest

from concentric_gons import (
    CircleFamily,
    CyclicAverages,
    FeasibilityReport,
    PairingResult,
    PlanePoint,
    RadiiPair,
    Reconstruction,
    RegularPolygonSpec,
    Tolerance,
)
from concentric_gons.instances import InstanceDocument
from concentric_gons.moments import LeadingAverages

P = "PlanePoint(x=1.0, y=-2.5)"
SPEC = f"RegularPolygonSpec(n=3, center={P}, circumradius=2.0, phase=0.5)"
FAMILY = f"CircleFamily(center={P}, radii=(1.0, 2.0, 3.0))"


def _point():
    return PlanePoint(1.0, -2.5)


def _spec():
    return RegularPolygonSpec(3, _point(), 2.0, 0.5)


def _family():
    return CircleFamily(_point(), (1, 2, 3))


# Each class with the field values it is built from (positionally, in field
# order) and the repr they give.
CASES = {
    "Tolerance": (Tolerance, lambda: (1e-6,), "Tolerance(relative_eps=1e-06)"),
    "PlanePoint": (PlanePoint, lambda: (1.0, -2.5), P),
    "RegularPolygonSpec": (RegularPolygonSpec, lambda: (3, _point(), 2.0, 0.5), SPEC),
    "CircleFamily": (CircleFamily, lambda: (_point(), (1.0, 2.0, 3.0)), FAMILY),
    "LeadingAverages": (
        LeadingAverages,
        lambda: (3, (0.5, 0.25), 1),
        "LeadingAverages(n=3, values=(0.5, 0.25), exponent=1)",
    ),
    "CyclicAverages": (
        CyclicAverages,
        lambda: (4, (0.5, 0.25, 0.125), 2),
        "CyclicAverages(n=4, values=(0.5, 0.25, 0.125), exponent=2)",
    ),
    "RadiiPair": (RadiiPair, lambda: (2.0, 1.0), "RadiiPair(larger=2.0, smaller=1.0)"),
    "FeasibilityReport": (
        FeasibilityReport,
        lambda: (False, 0.5, True, (0.0, 1e-12), False),
        "FeasibilityReport(condition1_ok=False, condition1_ratio=0.5, condition2_ok=True, "
        "condition2_residuals=(0.0, 1e-12), degenerate_single_polygon=False)",
    ),
    "PairingResult": (
        PairingResult,
        lambda: (_point(), _spec(), _family()),
        f"PairingResult(center={P}, aligned_second={SPEC}, circles={FAMILY})",
    ),
    "Reconstruction": (
        Reconstruction,
        lambda: (_spec(), _spec(), RadiiPair(2.0, 2.0), False, _family()),
        f"Reconstruction(polygon1={SPEC}, polygon2={SPEC}, "
        "circumradii=RadiiPair(larger=2.0, smaller=2.0), point_polygon=False)",
    ),
    "InstanceDocument": (
        InstanceDocument,
        lambda: ("circles", _family(), None, ("late",)),
        f"InstanceDocument(kind='circles', circles={FAMILY}, polygons=None, "
        "load_warnings=('late',))",
    ),
}
FIELDS = {
    Tolerance: ("relative_eps",),
    PlanePoint: ("x", "y"),
    RegularPolygonSpec: ("n", "center", "circumradius", "phase"),
    CircleFamily: ("center", "radii"),
    LeadingAverages: ("n", "values", "exponent"),
    CyclicAverages: ("n", "values", "exponent"),
    RadiiPair: ("larger", "smaller"),
    FeasibilityReport: (
        "condition1_ok",
        "condition1_ratio",
        "condition2_ok",
        "condition2_residuals",
        "degenerate_single_polygon",
    ),
    PairingResult: ("center", "aligned_second", "circles"),
    Reconstruction: ("polygon1", "polygon2", "circumradii", "point_polygon", "family"),
    InstanceDocument: ("kind", "circles", "polygons", "load_warnings"),
}

cases = pytest.mark.parametrize("name", list(CASES))


def _build(name, **by_keyword):
    cls, values, _ = CASES[name]
    if by_keyword:
        return cls(**dict(zip(FIELDS[cls], values())))
    return cls(*values())


def _field_tuple(obj):
    return tuple(getattr(obj, field) for field in FIELDS[type(obj)])


@cases
def test_repr_names_every_shown_field(name):
    assert repr(_build(name)) == CASES[name][2]


@cases
def test_keyword_construction_matches_positional(name):
    a, b = _build(name), _build(name, by_keyword=True)
    assert a == b and not a != b
    assert _field_tuple(a) == _field_tuple(b)


@cases
def test_unknown_or_missing_arguments_raise_type_error(name):
    cls, values, _ = CASES[name]
    with pytest.raises(TypeError):
        cls(*values(), unknown=1)
    with pytest.raises(TypeError):
        cls(**dict(zip(FIELDS[cls], values())), unknown=1)
    if name != "Tolerance":  # the one class whose every field has a default
        with pytest.raises(TypeError):
            cls()


@cases
def test_equal_values_compare_and_hash_as_their_field_tuples(name):
    a, b = _build(name), _build(name)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_field_tuple(a))


@cases
def test_equality_needs_the_same_class(name):
    a = _build(name)
    lookalike = SimpleNamespace(**dict(zip(FIELDS[type(a)], _field_tuple(a))))
    assert a.__eq__(lookalike) is NotImplemented
    assert a != lookalike
    assert a != _field_tuple(a)


def test_a_subclass_is_not_equal_to_its_base():
    leading = LeadingAverages(3, (0.5, 0.25), 1)
    cyclic = CyclicAverages(3, (0.5, 0.25), 1)
    assert leading.__eq__(cyclic) is NotImplemented
    assert leading != cyclic and cyclic != leading


def test_a_shared_nan_field_compares_equal():
    # Field tuples compare by identity first, so one NaN object is equal to itself.
    a = FeasibilityReport(False, math.nan, True, (), False)
    b = FeasibilityReport(False, math.nan, True, (), False)
    assert a == b and not a != b and "condition1_ratio=nan" in repr(a)
    assert FeasibilityReport(False, float("nan"), True, (), False) != a


@cases
def test_fields_can_be_neither_assigned_nor_deleted(name):
    obj = _build(name)
    before = _field_tuple(obj)
    for field in FIELDS[type(obj)]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(obj, field)
    assert _field_tuple(obj) == before


@cases
def test_pickle_round_trip(name):
    obj = _build(name)
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is type(obj)
    assert back == obj and repr(back) == repr(obj)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(back, FIELDS[type(obj)][0], 0)


def test_cached_properties_survive_immutability_and_pickling():
    tol = Tolerance(1e-6)
    assert tol.multiset_gate() is tol.multiset_gate() == Tolerance(1e-6 * 10.0)
    rec = _build("Reconstruction")
    assert rec.residuals is rec.residuals
    assert pickle.loads(pickle.dumps(rec)).residuals == rec.residuals


def test_defaults():
    assert Tolerance() == Tolerance(1e-9)
    assert Tolerance().relative_eps == 1e-9
    assert LeadingAverages(3, (0.5, 0.25)).exponent == 0
    assert CyclicAverages(3, (0.5, 0.25)).exponent == 0
    doc = InstanceDocument("circles")
    assert (doc.circles, doc.polygons, doc.load_warnings) == (None, None, ())


def _circle_family_error(radii) -> str:
    with pytest.raises(ValueError) as caught:
        CircleFamily(_point(), radii)
    return str(caught.value)


def test_construction_normalizes_and_validates():
    assert CircleFamily(_point(), [1, 2, 3]).radii == (1.0, 2.0, 3.0)
    assert CircleFamily(_point(), iter([1, 2.5, 3])).radii == (1.0, 2.5, 3.0)
    kept = CircleFamily(_point(), (-0.0, 0.0, 2)).radii
    assert kept == (0.0, 0.0, 2.0) and math.copysign(1.0, kept[0]) == -1.0
    assert all(type(r) is float for r in kept)
    nan, inf = math.nan, math.inf
    # The count comes first, then the first entry that is not finite and
    # >= 0, in input order, then the order.
    assert _circle_family_error([]) == "need at least 3 radii, got 0"
    assert _circle_family_error([nan, -1.0]) == "need at least 3 radii, got 2"
    for radii, bad in [
        ([nan, 1.0, 2.0], "nan"),
        ([1.0, nan, 2.0], "nan"),
        ([1.0, 2.0, inf], "inf"),
        ([1.0, 2.0, -inf], "-inf"),
        ([3, -1, 2], "-1.0"),
        ([-1.0, 0.0, 2.0], "-1.0"),
        ([-inf, 1.0, 2.0], "-inf"),
        ([2.0, inf, 1.0], "inf"),
        ([1.0, -2.0, nan], "-2.0"),
        ([nan, -2.0, 3.0], "nan"),
    ]:
        assert _circle_family_error(radii) == f"radii must be finite and >= 0, got {bad}"
    for radii in ([2.0, 1.0, 3.0], [1, 3, 2], [0.0, 1e308, 5e-324]):
        assert _circle_family_error(radii) == "radii must be sorted ascending"
    assert RegularPolygonSpec(3, _point(), 1.0, -math.pi).phase == math.pi
    with pytest.raises(ValueError, match="finite"):
        PlanePoint(math.inf, 0.0)
    with pytest.raises(ValueError, match="relative_eps"):
        Tolerance(0.0)
    with pytest.raises(ValueError, match="expected 2 averages"):
        LeadingAverages(4, (0.5, 0.25, 0.125))
    with pytest.raises(ValueError, match="expected 3 averages"):
        CyclicAverages(4, (0.5, 0.25))
    with pytest.raises(ValueError, match="larger >= smaller"):
        RadiiPair(1.0, 2.0)


def test_circle_family_refuses_text_radii_as_plane_point_does():
    with pytest.raises(TypeError, match="^must be real number, not str$"):
        PlanePoint("1", 0.0)
    for radii, kind in [
        (["1", "2", "2.5"], "str"),
        ("123", "str"),
        ([1.0, b"2", 3.0], "bytes"),
        ([1.0, 2.0, bytearray(b"3")], "bytearray"),
    ]:
        with pytest.raises(TypeError, match=f"^must be real number, not {kind}$"):
            CircleFamily(_point(), radii)
