"""Minimal deterministic SVG writer for circle/polygon configurations.

Styling is fixed: concentric circles in gray stroke, the first polygon
solid, the second dashed, centers as crosses, the common point as a filled
dot. The viewBox is the configuration's bounding circle plus a 10% margin;
elements appear in insertion order, so identical scenes give identical
bytes.
"""

import math

from .geom import PlanePoint, RegularPolygonSpec, vertices

CIRCLE_STROKE = "#888888"
SHAPE_STROKE = "#000000"
MARKER_FILL = "#000000"


def _num(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot draw non-finite coordinate {value}")
    return format(value, ".9g")


class SvgScene:
    """Collects primitives, then renders one standalone SVG document.

    Marker sizes and dash lengths follow the stroke width, which is known
    only once every primitive is in; elements hold ``{size}``, ``{half}``,
    ``{dot}`` and ``{dash}`` fields that :meth:`to_svg` fills in.
    """

    def __init__(self):
        self.elements: list[str] = []
        self._extent = 0.0
        self._anchor: PlanePoint | None = None

    def _track(self, x: float, y: float, pad: float = 0.0) -> None:
        if self._anchor is None:
            self._anchor = PlanePoint(x, y)
        reach = math.hypot(x - self._anchor.x, y - self._anchor.y) + pad
        self._extent = max(self._extent, reach)

    def add_circle(self, center: PlanePoint, radius: float) -> None:
        self._track(center.x, center.y, radius)
        self.elements.append(
            f'<circle cx="{_num(center.x)}" cy="{_num(center.y)}" r="{_num(radius)}" '
            f'fill="none" stroke="{CIRCLE_STROKE}"/>'
        )

    def add_polygon(self, poly: RegularPolygonSpec, dashed: bool = False) -> None:
        pts = vertices(poly)
        for p in pts:
            self._track(p.x, p.y)
        self._track(poly.center.x, poly.center.y, poly.circumradius)
        coords = " ".join(f"{_num(p.x)},{_num(p.y)}" for p in pts)
        dash = ' stroke-dasharray="{dash}"' if dashed else ""
        self.elements.append(
            f'<polygon points="{coords}" fill="none" stroke="{SHAPE_STROKE}"{dash}/>'
        )

    def add_cross(self, point: PlanePoint) -> None:
        self._track(point.x, point.y)
        self.elements.append(
            f'<path d="M {_num(point.x)} {_num(point.y)} m -{{half}} 0 l {{size}} 0 '
            f'm -{{half}} -{{half}} l 0 {{size}}" stroke="{SHAPE_STROKE}" fill="none"/>'
        )

    def add_dot(self, point: PlanePoint) -> None:
        self._track(point.x, point.y)
        self.elements.append(
            f'<circle cx="{_num(point.x)}" cy="{_num(point.y)}" r="{{dot}}" '
            f'fill="{MARKER_FILL}" stroke="none"/>'
        )

    def to_svg(self) -> str:
        anchor = self._anchor or PlanePoint(0.0, 0.0)
        bound = self._extent if self._extent > 0.0 else 1.0
        half = bound * 1.1  # bounding circle plus 10% margin
        stroke = 2.0 * half / 300.0
        sizes = {
            "size": _num(stroke * 8.0),
            "half": _num(stroke * 4.0),
            "dot": _num(stroke * 2.0),
            "dash": f"{_num(stroke * 4.0)} {_num(stroke * 2.5)}",
        }
        body = ["  " + element.format(**sizes) for element in self.elements]
        min_x = anchor.x - half
        # The y axis is flipped so the figure keeps math orientation.
        min_y = -(anchor.y + half)
        return "\n".join(
            [
                '<?xml version="1.0" encoding="UTF-8"?>',
                f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="600" height="600" '
                f'viewBox="{_num(min_x)} {_num(min_y)} {_num(2 * half)} {_num(2 * half)}">',
                f'<g transform="scale(1,-1)" stroke-width="{_num(stroke)}">',
            ]
            + body
            + ["</g>", "</svg>", ""]
        )


def render_configuration(
    circles: list[tuple[PlanePoint, float]],
    polygons: list[RegularPolygonSpec],
    centers: list[PlanePoint],
    common_points: list[PlanePoint],
) -> str:
    """Standard scene: circles (ascending radius), polygons (first solid,
    second dashed), center crosses, then common-point dots."""
    scene = SvgScene()
    for center, radius in sorted(circles, key=lambda item: item[1]):
        scene.add_circle(center, radius)
    for index, poly in enumerate(polygons):
        scene.add_polygon(poly, dashed=index == 1)
    for center in centers:
        scene.add_cross(center)
    for point in common_points:
        scene.add_dot(point)
    return scene.to_svg()
