"""Optimal control constrained by fractional powers of elliptic operators.

The fractional operator is realized as the Dirichlet-to-Neumann map of a
degenerate elliptic problem on a cylinder in one extra dimension; the
cylinder is truncated, meshed by tensor products with a graded partition in
the extended variable, and the box-constrained control problem is solved by
one projected descent loop in either a fully discrete (piecewise-constant
control) or variational (undiscretized control) formulation.
"""

from .control import (
    BoxBounds,
    ControlField,
    OptimalityResiduals,
    ProblemConfig,
    ReducedCostReport,
    ReducedProblem,
    VariationalControl,
    optimality_residuals,
    project_box,
    solve_fully_discrete,
    solve_variational,
)
from .fem import (
    CylinderOperator,
    FeField,
    InconsistencyError,
    SolverError,
    TraceField,
    assemble_stiffness,
    assemble_trace_load,
    energy_error_galerkin,
    l2_trace_error,
)
from .manufactured import ManufacturedProblem, build_manufactured
from .meshes import (
    BasePartition,
    GradedPartition,
    TensorMesh,
    balanced_resolution,
    choose_truncation,
    default_grading,
    first_eigenvalue,
    make_graded_partition,
)
from .spectral import (
    ConfigurationError,
    FractionalConstants,
    bessel_K,
    eigenpair,
    extension_profile,
)
from .study import (
    ConvergenceRecord,
    StudyConfig,
    emit_report,
    fit_loglog_slope,
    run_compare_refinement,
    run_oracle_check,
    run_rate_study,
    run_truncation_study,
)

__version__ = "0.1.0"
