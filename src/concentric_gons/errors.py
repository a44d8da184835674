"""Exception types shared across the library."""


class GeometryError(Exception):
    """Base class for every error this library raises deliberately."""


class CoincidentCircles(GeometryError):
    """Two circles coincide, so their intersection is a whole circle."""


class CoincidentAuxiliaryCircles(CoincidentCircles):
    """Both auxiliary circles coincide: a continuum of valid points exists."""


class MismatchedOrder(GeometryError):
    """The two polygons have different vertex counts."""


class InvalidMomentOrder(GeometryError):
    """Requested power order lies outside 1..n-1."""


class InfeasibleMoments(GeometryError):
    """The averages admit no real pair of circumradii."""


class NotACandidateCenter(GeometryError):
    """The point does not satisfy the required center distances."""


class DegenerateGeometry(GeometryError):
    """A zero arm length leaves the opening angle underdetermined."""


class InfeasibleFamily(GeometryError):
    """Circle radii admit no two polygons."""
