"""The instance-file boundary: numbers must arrive as JSON numbers of the
right kind, and a rejection names the field at fault."""

import pytest

from concentric_gons.instances import InstanceFormatError, parse_instance


def circles(radii, center=(0.0, 0.0)):
    return {"kind": "circles", "circles": {"center": list(center), "radii": list(radii)}}


def polygon_pair(first, second=None):
    second = second or {"n": 3, "center": [1.0, 0.0], "circumradius": 1.0}
    return {"kind": "polygon_pair", "polygons": [first, second]}


def test_boolean_radius_is_rejected():
    with pytest.raises(InstanceFormatError, match=r"circles\.radii\[1\]"):
        parse_instance(circles([1.0, True, 2.0]))


def test_boolean_center_coordinate_is_rejected():
    with pytest.raises(InstanceFormatError, match=r"circles\.center"):
        parse_instance(circles([1.0, 1.0, 2.0], center=(0.0, False)))


def test_boolean_polygon_fields_are_rejected():
    base = {"n": 3, "center": [0.0, 0.0], "circumradius": 1.0, "phase": 0.0}
    for name, value in (("circumradius", True), ("phase", False), ("n", True)):
        with pytest.raises(InstanceFormatError, match=rf"polygons\[0\]\.{name}"):
            parse_instance(polygon_pair({**base, name: value}))
    with pytest.raises(InstanceFormatError, match=r"polygons\[0\]\.center"):
        parse_instance(polygon_pair({**base, "center": [True, 0.0]}))


@pytest.mark.parametrize("n", [3.9, 4.0, "4"])
def test_non_integer_vertex_count_is_rejected(n):
    first = {"n": n, "center": [0.0, 0.0], "circumradius": 1.0}
    with pytest.raises(InstanceFormatError, match=r"polygons\[0\]\.n"):
        parse_instance(polygon_pair(first))


def test_string_circumradius_is_rejected():
    first = {"n": 3, "center": [0.0, 0.0], "circumradius": "2.5"}
    with pytest.raises(InstanceFormatError, match=r"polygons\[0\]\.circumradius"):
        parse_instance(polygon_pair(first))


def test_integer_json_numbers_still_parse():
    second = {"n": 4, "center": [1.0, 0.0], "circumradius": 1.0}
    doc = parse_instance(polygon_pair({"n": 4, "center": [0, 1], "circumradius": 2}, second))
    first = doc.polygons[0]
    assert (first.n, first.center.x, first.center.y, first.circumradius) == (4, 0.0, 1.0, 2.0)
    assert parse_instance(circles([1, 1, 2], center=(0, 0))).circles.radii == (1.0, 1.0, 2.0)


def test_polygons_with_different_vertex_counts_are_rejected():
    first = {"n": 4, "center": [0.0, 0.0], "circumradius": 1.0}
    with pytest.raises(InstanceFormatError, match="different vertex counts: 4 vs 3"):
        parse_instance(polygon_pair(first))
