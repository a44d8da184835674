"""Exception types shared across the library."""

from functools import cached_property


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
    """Circle radii admit no two polygons. ``report``, the paper's two
    conditions, is built by ``build_report`` when first read."""

    def __init__(self, message, build_report):
        super().__init__(message)
        self._build_report = build_report

    def __reduce__(self):
        # Exception's own reduce passes only the message to __init__.
        return type(self), (*self.args, self._build_report), self.__dict__

    @cached_property
    def report(self):
        return self._build_report()
