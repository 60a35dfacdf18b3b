"""Exception types shared across the package.

Errors that have an obvious builtin counterpart subclass it, so callers may
catch either the specific type or the familiar builtin.
"""


class ToricLGError(Exception):
    """Base class for all package-specific errors."""


class NotInLambdaZero(ToricLGError, ValueError):
    """A series with negative-exponent terms was passed where one in the
    valuation-nonnegative subring was required."""


class ZeroLeadingCoefficient(ToricLGError, ZeroDivisionError):
    """Inversion or a leading-term query hit a series whose leading data is
    zero."""


class InvalidPolytope(ToricLGError, ValueError):
    """Facet data fails validation (unbounded, non-simple, non-unimodular,
    redundant, or empty interior)."""


class UnknownName(ToricLGError, KeyError):
    """Catalog lookup with an unrecognised entry name."""


class ParamOutOfRange(ToricLGError, ValueError):
    """Catalog parameters outside their admissible open ranges."""


class CorrectionNotPositive(ToricLGError, ValueError):
    """A higher-order correction term not of the form
    T^rho * coeff * prod z_j^{k_j} with rho > 0, every k_j >= 0 and coeff of
    valuation >= 0; the leading term system may leave out only such terms."""


class PositiveDimensionalInitialLocus(ToricLGError):
    """The leading-coefficient system has a positive-dimensional solution set;
    isolated-root machinery does not apply."""


class EliminationFailed(ToricLGError):
    """Resultant elimination could not reduce the system to one variable."""


class SingularInitialJacobian(ToricLGError):
    """Newton lifting started from a root with singular leading Jacobian."""


class NoConvergence(ToricLGError):
    """A simple root that does not lift: the seed is not a root, the Newton
    steps overflow, or the final residual has content below the order."""


class NotInterior(ToricLGError, ValueError):
    """A fiber position on or outside the polytope boundary where an interior
    point is required."""


class IntegralityFailure(ToricLGError):
    """The facet normals do not span the lattice, so no adapted basis
    exists."""


class LevelUnderdetermined(ToricLGError):
    """The cascade could not decide: a level's system has a positive-dimensional
    solution set, or a branch with free variables pinned to 1 found no root."""


class SingularHessian(ToricLGError):
    """Hessian determinant is zero to working precision."""
