"""Exception hierarchy.

Everything raised by this package derives from PolyRhoError, so callers can
catch one type at an API boundary.  The CLI maps geometry/input errors to
exit code 2 and numerical failures to exit code 3.
"""


class PolyRhoError(Exception):
    """Base class for all errors raised by polyrho."""


# ---- geometry / input validation -------------------------------------------

class GeometryError(PolyRhoError):
    """Invalid polygon or family parameters (bad input, exit code 2)."""


class TooFewVertices(GeometryError):
    pass


class DegenerateVertex(GeometryError):
    """Two consecutive vertices coincide."""


class NotSimple(GeometryError):
    """Boundary self-intersects, backtracks, or encloses zero area."""


class NonpositiveScale(GeometryError):
    pass


class DegenerateFamilyParameter(GeometryError):
    """Family parameter produces a degenerate or self-intersecting polygon."""


class NonpositiveBase(GeometryError):
    pass


class AngleOutOfRange(GeometryError):
    pass


class ConstraintViolated(GeometryError):
    """Equilateral-pentagon feasibility inequality fails."""


class ApexDegenerate(GeometryError):
    """Pentagon apex collapses onto the base chord (|V1 V2| = 2)."""


class NonpositiveParameter(GeometryError):
    pass


class EmptyFeasibleSet(GeometryError):
    """Requested grid contains no feasible parameter point."""


# ---- numerical failures ------------------------------------------------------

class NumericalError(PolyRhoError):
    """Computation could not meet its accuracy contract (exit code 3)."""


class PrecisionTooLow(NumericalError):
    pass


class InsufficientMoments(NumericalError):
    """Moment table does not cover the degree the computation needs."""


class GramNotPD(NumericalError):
    """Gram matrix failed the positive-definiteness test during factorization."""


class AreaNotNormalized(NumericalError):
    """Closed form requires unit area and the polygon is not within tolerance."""


class NoBracketFound(NumericalError):
    """Coarse scan found no interior critical point to refine."""


class TriangulationFailed(NumericalError):
    pass


class IllConditioned(NumericalError):
    """The float64 oracle's error bound exceeds 1e-9, or its value is not finite."""
