"""Instance documents on disk and deterministic JSON output.

An instance file is UTF-8 JSON with ``"format": "concentric-gons/1"`` or no
``format`` (any other is refused) and a ``kind`` of either ``"circles"`` (a
center and radii) or ``"polygon_pair"`` (two regular polygon records).
Unknown fields, ``metadata`` included, are ignored on read; the library
reads instance files and writes none. Emitted JSON comes from one pass
over the document: 2-space indent, sorted keys, ``.17g`` floats,
ASCII-escaped strings and a trailing newline, so identical inputs give
byte-identical output.
"""

import json
import math
from json.encoder import encode_basestring_ascii

from .geom import CircleFamily, PlanePoint, RegularPolygonSpec, _set, _Value

FORMAT_NAME = "concentric-gons/1"


class InstanceFormatError(ValueError):
    """The document is not a valid instance file."""


class InstanceDocument(_Value):
    """Parsed instance file: exactly one of the two payloads is present."""

    def __init__(
        self,
        kind: str,  # "circles" or "polygon_pair"
        circles: CircleFamily | None = None,
        polygons: tuple[RegularPolygonSpec, RegularPolygonSpec] | None = None,
        load_warnings: tuple[str, ...] = (),
    ):
        _set(self, "kind", kind)
        _set(self, "circles", circles)
        _set(self, "polygons", polygons)
        _set(self, "load_warnings", load_warnings)


def _is_number(raw) -> bool:
    # JSON true/false decode to bool, which Python counts as an int.
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _as_number(raw, where: str) -> float:
    if not _is_number(raw):
        raise InstanceFormatError(f"{where} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:  # an integer past the largest double
        raise InstanceFormatError(f"{where} is beyond the float range") from None


def _as_point(raw, where: str) -> PlanePoint:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2 or not all(map(_is_number, raw)):
        raise InstanceFormatError(f"{where} must be a [x, y] pair, got {raw!r}")
    x, y = _as_number(raw[0], where), _as_number(raw[1], where)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InstanceFormatError(f"{where} must be finite, got {raw!r}")
    return PlanePoint(x, y)


def _as_polygon(raw, where: str) -> RegularPolygonSpec:
    if not isinstance(raw, dict):
        raise InstanceFormatError(f"{where} must be an object, got {raw!r}")
    try:
        n = raw["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise InstanceFormatError(f"{where}.n must be an integer, got {n!r}")
        return RegularPolygonSpec(
            n=n,
            center=_as_point(raw["center"], f"{where}.center"),
            circumradius=_as_number(raw["circumradius"], f"{where}.circumradius"),
            phase=_as_number(raw.get("phase", 0.0), f"{where}.phase"),
        )
    except KeyError as exc:
        raise InstanceFormatError(f"{where} is missing field {exc}") from None
    except InstanceFormatError:  # already names its field
        raise
    except ValueError as exc:
        raise InstanceFormatError(f"{where} is invalid: {exc}") from None


def parse_instance(raw: object) -> InstanceDocument:
    """Build an InstanceDocument from decoded JSON, sorting radii if needed."""
    if not isinstance(raw, dict):
        raise InstanceFormatError(f"instance must be a JSON object, got {type(raw).__name__}")
    fmt = raw.get("format", FORMAT_NAME)
    if fmt != FORMAT_NAME:
        raise InstanceFormatError(f"unsupported format {fmt!r}")
    kind = raw.get("kind")
    warnings: list[str] = []
    if kind == "circles":
        payload = raw.get("circles")
        if not isinstance(payload, dict):
            raise InstanceFormatError("circles payload missing")
        radii_raw = payload.get("radii")
        if not isinstance(radii_raw, list):
            raise InstanceFormatError("circles.radii must be a list of numbers")
        radii = [_as_number(v, f"circles.radii[{i}]") for i, v in enumerate(radii_raw)]
        if sorted(radii) != radii:
            warnings.append("radii were not sorted ascending; sorted them")
            radii = sorted(radii)
        center = _as_point(payload.get("center", [0.0, 0.0]), "circles.center")
        try:
            family = CircleFamily(center=center, radii=tuple(radii))
        except ValueError as exc:
            raise InstanceFormatError(f"circles payload invalid: {exc}") from None
        return InstanceDocument(kind="circles", circles=family, load_warnings=tuple(warnings))
    if kind == "polygon_pair":
        payload = raw.get("polygons")
        if not isinstance(payload, list) or len(payload) != 2:
            raise InstanceFormatError("polygons payload must list exactly two polygons")
        polys = tuple(_as_polygon(p, f"polygons[{i}]") for i, p in enumerate(payload))
        if polys[0].n != polys[1].n:
            raise InstanceFormatError(
                f"polygons have different vertex counts: {polys[0].n} vs {polys[1].n}"
            )
        return InstanceDocument(kind="polygon_pair", polygons=polys, load_warnings=tuple(warnings))
    raise InstanceFormatError(f"kind must be 'circles' or 'polygon_pair', got {kind!r}")


def load_instance(path: str) -> InstanceDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(
            f"{path} is not UTF-8 text: {exc.reason} 0x{exc.object[exc.start]:02x}"
            f" at offset {exc.start}"
        ) from None
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InstanceFormatError(f"{path} is not valid JSON: nested too deeply") from None
    return parse_instance(raw)


def polygon_record(poly: RegularPolygonSpec) -> dict:
    return {
        "n": poly.n,
        "center": [poly.center.x, poly.center.y],
        "circumradius": poly.circumradius,
        "phase": poly.phase,
    }


def _scalar(value) -> str:
    if isinstance(value, bool) or value is None:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value}")
        return format(value, ".17g")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _write(value, out: list, pad: str) -> None:
    """Append a dict, list or tuple's text to ``out``, recursing only into these."""
    is_dict = isinstance(value, dict)
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    inner = pad + "  "
    sep = ("{\n" if is_dict else "[\n") + inner
    for item in sorted(value.items()) if is_dict else value:
        out.append(sep)
        if is_dict:
            key, item = item
            out.append(f"{encode_basestring_ascii(str(key))}: ")
        if type(item) is float and math.isfinite(item):
            out.append(format(item, ".17g"))
        elif isinstance(item, (dict, list, tuple)):
            _write(item, out, inner)
        else:
            out.append(_scalar(item))
        sep = ",\n" + inner
    out.append(f"\n{pad}{'}' if is_dict else ']'}")


def dump_canonical(value: object) -> str:
    """Canonical JSON document text, newline-terminated: sorted keys, fixed
    float formatting. A bare scalar is a document too."""
    if not isinstance(value, (dict, list, tuple)):
        return _scalar(value) + "\n"
    out: list[str] = []
    _write(value, out, "")
    out.append("\n")
    return "".join(out)
