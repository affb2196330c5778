"""Exception hierarchy for the anacap package."""


class AnacapError(Exception):
    """Base class for all anacap errors."""


class SceneConfigError(AnacapError):
    """Malformed scene/schedule configuration (bad JSON, unknown fields, bad types)."""


class OverlapError(AnacapError):
    """Two shape closures intersect (or one contains another)."""


class DegenerateShapeError(AnacapError):
    """Shape fails its own invariants (zero radius, collapsed or self-intersecting curve)."""


class ZeroScaleError(AnacapError):
    """Affine map z -> a*z + b requested with a = 0."""


class NonRationalBasisError(AnacapError):
    """Closed-form circle integral requested for a non-rational basis function."""


class PoleOnContourError(AnacapError):
    """A pole of the integrand lies (numerically) on the integration circle."""


class MaxDepthError(AnacapError):
    """Quadrature failed to meet its tolerance within its refinement limit."""


class SingularGramError(AnacapError):
    """Gram matrix factorization failed; the basis is numerically dependent."""


class SolveError(AnacapError):
    """A linear solve produced an inconsistent or invalid result."""


class DuplicateCenterError(AnacapError):
    """Disk configuration has coincident centers."""


class SplitError(AnacapError):
    """Invalid split index m for a disk configuration."""


class PreconditionError(AnacapError):
    """Separation precondition of a discrete-capacity estimate is violated."""


class DomainError(AnacapError):
    """Scalar argument outside the domain of a closed-form formula."""
