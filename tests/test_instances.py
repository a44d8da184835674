"""The instance-file boundary: numbers must arrive as JSON numbers of the
right kind, and a rejection names the field at fault. Canonical output is
pinned byte for byte against a test-side copy of the recursive writer."""

import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from concentric_gons.instances import (
    InstanceFormatError,
    dump_canonical,
    parse_instance,
)


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


GOOD_POLYGON = {"n": 3, "center": [0.0, 0.0], "circumradius": 1.0}
HUGE = 10**400  # a JSON integer that no double holds


@pytest.mark.parametrize(
    "document, message",
    [
        (polygon_pair({**GOOD_POLYGON, "n": 4.0}), "polygons[0].n must be an integer, got 4.0"),
        (
            polygon_pair({**GOOD_POLYGON, "circumradius": "2.5"}),
            "polygons[0].circumradius must be a number, got '2.5'",
        ),
        (
            polygon_pair({**GOOD_POLYGON, "center": [True, 0.0]}),
            "polygons[0].center must be a [x, y] pair, got [True, 0.0]",
        ),
        (polygon_pair({"n": 3, "circumradius": 1.0}), "polygons[0] is missing field 'center'"),
        (circles([1.0, 1.0, 2.0], center=(0.0,)), "circles.center must be a [x, y] pair, got [0.0]"),
        (circles([1.0, True, 2.0]), "circles.radii[1] must be a number, got True"),
        # A library ValueError keeps the prefix that names its location.
        (
            polygon_pair({**GOOD_POLYGON, "n": 2}),
            "polygons[0] is invalid: vertex count must be an integer >= 3, got 2",
        ),
        (
            polygon_pair({**GOOD_POLYGON, "circumradius": -1.0}),
            "polygons[0] is invalid: circumradius must be finite and >= 0, got -1.0",
        ),
        (circles([1.0, 2.0]), "circles payload invalid: need at least 3 radii, got 2"),
        # Numbers that no double or no point holds.
        (circles([1.0, HUGE, 2.0]), "circles.radii[1] is beyond the float range"),
        (circles([1.0, 1.0, 2.0], center=(HUGE, 0.0)), "circles.center is beyond the float range"),
        (
            polygon_pair({**GOOD_POLYGON, "center": [0.0, -HUGE]}),
            "polygons[0].center is beyond the float range",
        ),
        (
            polygon_pair({**GOOD_POLYGON, "circumradius": HUGE}),
            "polygons[0].circumradius is beyond the float range",
        ),
        (
            polygon_pair(GOOD_POLYGON, {**GOOD_POLYGON, "phase": HUGE}),
            "polygons[1].phase is beyond the float range",
        ),
        (
            circles([1.0, 1.0, 2.0], center=(math.inf, 0.0)),
            "circles.center must be finite, got [inf, 0.0]",
        ),
    ],
    ids=[
        "float-n", "string-circumradius", "boolean-center", "missing-center",
        "short-circles-center", "boolean-radius", "two-vertices", "negative-circumradius",
        "two-radii", "huge-radius", "huge-circles-center", "huge-polygon-center",
        "huge-circumradius", "huge-phase", "infinite-circles-center",
    ],
)
def test_a_rejection_names_its_location_once(document, message):
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(document)
    assert str(info.value) == message


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


def recursive_canonical_json(value, indent=0):
    """The reference for the one-pass writer: the recursive form with one
    ``json.dumps`` per key and per bool, None or str, whose bytes and error
    messages the writer must keep."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {recursive_canonical_json(v, indent + 1)}"
            for k, v in sorted(value.items())
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{recursive_canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value}")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


# Subclasses that tag their text, so a writer that bypassed str() on an int
# or a key, format() on a float, or that called str() on a str value, shows.
class TaggedInt(int):
    def __str__(self):
        return "int:" + int.__repr__(self)


class TaggedFloat(float):
    def __format__(self, spec):
        return "float:" + float.__format__(self, spec)


class TaggedStr(str):
    def __str__(self):
        return "str:" + str.__str__(self)


ANY_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=6)
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1]),
)
KEYS = st.one_of(
    ANY_TEXT,
    st.sampled_from(["", "a", "\u00e9", "\u2028", '"', "\\", "\x00", "\x1f", "\x7f", "\ud800"]),
    st.builds(TaggedStr, ANY_TEXT),
)
SCALARS = st.one_of(
    FINITE,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.booleans(),
    st.none(),
    ANY_TEXT,
    st.builds(TaggedInt, st.integers()),
    st.builds(TaggedFloat, FINITE),
    st.builds(TaggedStr, ANY_TEXT),
)
UNWRITABLE = st.sampled_from(
    [math.inf, -math.inf, math.nan, TaggedFloat("-inf"), object(), {1}, b"x", 1j]
)


def documents(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(KEYS, inner, max_size=4),
            st.dictionaries(st.integers(), inner, max_size=3),
        ),
        max_leaves=30,
    )


def outcome(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(documents(SCALARS))
def test_canonical_json_matches_the_recursive_writer(value):
    assert dump_canonical(value) == recursive_canonical_json(value) + "\n"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(documents(st.one_of(UNWRITABLE, SCALARS)))
def test_canonical_json_refuses_as_the_recursive_writer(value):
    expected = outcome(recursive_canonical_json, value)
    assume(isinstance(expected, tuple))
    assert outcome(dump_canonical, value) == expected
