"""sdpmix: a high-accuracy semidefinite-programming solver.

The primal matrix is kept in low-rank factored form X = V^T V and the
augmented Lagrangian is minimized one factor column at a time; dual
variables follow first-order updates and the penalty parameter is steered
dynamically. A double-double mode refines solutions far past binary64.
"""

from .ddouble import DDArray, DOUBLE, DOUBLE_DOUBLE, ScalarKind, kind_by_name
from .errors import FormatError, NumericalError, SdpmixError, ValidationError
from .linops import project_psd
from .precision import promote, solve_two_stage
from .problem import ScalingRecord, SdpProblem, as_kind, scale, validate
from .solver import (
    ErrorReport,
    Solution,
    SolverOptions,
    WarmStart,
    compute_errors,
    rank_rule,
    solve,
    unscale_solution,
)

__version__ = "0.1.0"

__all__ = [
    "DDArray",
    "DOUBLE",
    "DOUBLE_DOUBLE",
    "ErrorReport",
    "FormatError",
    "NumericalError",
    "ScalarKind",
    "ScalingRecord",
    "SdpProblem",
    "SdpmixError",
    "Solution",
    "SolverOptions",
    "ValidationError",
    "WarmStart",
    "as_kind",
    "compute_errors",
    "kind_by_name",
    "project_psd",
    "promote",
    "rank_rule",
    "scale",
    "solve",
    "solve_two_stage",
    "unscale_solution",
    "validate",
    "__version__",
]
