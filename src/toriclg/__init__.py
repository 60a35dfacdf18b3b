"""Potential functions of toric manifolds over the Novikov field.

The package computes, at desk scale: the Landau-Ginzburg potential of a
Delzant moment polytope, its critical points as Novikov series (balanced
torus fibers), leading term equations for the balancing test, and the
residue-pairing identities that tie the critical points back to the
cohomology of the ambient space.
"""

from .config import RunConfig, configured, get_config, set_config, update_config
from .errors import (
    EliminationFailed,
    IntegralityFailure,
    InvalidPolytope,
    LevelUnderdetermined,
    NoConvergence,
    NotInLambdaZero,
    NotInterior,
    ParamOutOfRange,
    PositiveDimensionalInitialLocus,
    SingularHessian,
    SingularInitialJacobian,
    ToricLGError,
    UnknownName,
    ZeroLeadingCoefficient,
)
from .jacres import (
    ResidueReport,
    hessian_matrix,
    morse_count_check,
    residue_report,
    z_exactness,
    z_value,
)
from .laurent import LaurentPoly, Potential, build_potential, render_poly, z_monomial
from .lte import (
    AdaptedFrame,
    LTEResult,
    adapted_frame,
    balanced_positions,
    is_strongly_balanced,
    leading_term_system,
    solve_lte,
)
from .novikov import INF, NovikovScalar, novikov_exp, render_scalar
from .polytope import (
    BulkCoefficients,
    CatalogEntry,
    Correction,
    Facet,
    MomentPolytope,
    Vertex,
    catalog,
)
from .tropical import (
    CriticalPoint,
    CriticalReport,
    TropicalCell,
    find_critical_points,
    initial_system,
    newton_lift,
    tropical_candidates,
)

__all__ = [
    "AdaptedFrame",
    "BulkCoefficients",
    "CatalogEntry",
    "Correction",
    "CriticalPoint",
    "CriticalReport",
    "EliminationFailed",
    "Facet",
    "INF",
    "IntegralityFailure",
    "InvalidPolytope",
    "LTEResult",
    "LaurentPoly",
    "LevelUnderdetermined",
    "MomentPolytope",
    "NoConvergence",
    "NotInLambdaZero",
    "NotInterior",
    "NovikovScalar",
    "ParamOutOfRange",
    "PositiveDimensionalInitialLocus",
    "Potential",
    "ResidueReport",
    "RunConfig",
    "SingularHessian",
    "SingularInitialJacobian",
    "ToricLGError",
    "TropicalCell",
    "UnknownName",
    "Vertex",
    "ZeroLeadingCoefficient",
    "adapted_frame",
    "balanced_positions",
    "build_potential",
    "catalog",
    "configured",
    "find_critical_points",
    "get_config",
    "hessian_matrix",
    "initial_system",
    "is_strongly_balanced",
    "leading_term_system",
    "morse_count_check",
    "newton_lift",
    "novikov_exp",
    "render_poly",
    "render_scalar",
    "residue_report",
    "set_config",
    "solve_lte",
    "tropical_candidates",
    "update_config",
    "z_exactness",
    "z_monomial",
    "z_value",
]

__version__ = "0.1.0"
