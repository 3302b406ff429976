"""Collocation PDE solver with per-subdomain neural subspace bases.

The domain is split into a Cartesian grid of subdomains; each carries a
small tanh network whose final layer spans a local function subspace.  The
networks train independently on the interior PDE residual, then a single
global least-squares solve over the span fixes the combination
coefficients, with boundary rows and cross-interface smoothness rows
stitching the pieces together.  Nonlinear equations are handled by Picard
or Newton iteration over the frozen bases.
"""

from .assembly import (
    GlobalIndexing,
    GlobalSystem,
    RowBlock,
    assemble_boundary_rows,
    assemble_continuity_rows,
    assemble_global,
    assemble_pde_rows,
    dump_system,
    solve_least_squares,
)
from .geometry import (
    DomainSpec,
    InterfaceSpec,
    PartitionSpec,
    PointSet,
    SubdomainSpec,
    gauss_lobatto_nodes,
    partition,
    sample_boundary,
    sample_interface,
    sample_interior,
)
from .network import (
    BasisEval,
    CoefficientVector,
    NetworkConfig,
    NetworkParams,
    eval_basis,
    eval_solution,
    init_params,
    normalize,
)
from .problems import (
    ErrorNorms,
    LinearTerm,
    NonlinearTerm,
    ProblemSpec,
    builtin,
    error_norms,
)
from .solver import (
    NonlinearConfig,
    SamplingConfig,
    SolveReport,
    evaluate_solution,
    solve,
)
from .training import TrainingConfig, loss_gradient, residual_loss, train_subdomain

__all__ = [
    "BasisEval",
    "CoefficientVector",
    "DomainSpec",
    "ErrorNorms",
    "GlobalIndexing",
    "GlobalSystem",
    "InterfaceSpec",
    "LinearTerm",
    "NetworkConfig",
    "NetworkParams",
    "NonlinearConfig",
    "NonlinearTerm",
    "PartitionSpec",
    "PointSet",
    "ProblemSpec",
    "RowBlock",
    "SamplingConfig",
    "SolveReport",
    "SubdomainSpec",
    "TrainingConfig",
    "assemble_boundary_rows",
    "assemble_continuity_rows",
    "assemble_global",
    "assemble_pde_rows",
    "builtin",
    "dump_system",
    "error_norms",
    "eval_basis",
    "eval_solution",
    "evaluate_solution",
    "gauss_lobatto_nodes",
    "init_params",
    "loss_gradient",
    "normalize",
    "partition",
    "residual_loss",
    "sample_boundary",
    "sample_interface",
    "sample_interior",
    "solve",
    "solve_least_squares",
    "train_subdomain",
]

__version__ = "0.1.0"
