"""Collocation PDE solver with per-subdomain neural subspace bases.

The domain is split into a Cartesian grid of subdomains; each carries a
small tanh network whose final layer spans a local function subspace.  The
networks train independently on the interior PDE residual, then a single
global least-squares solve over the span fixes the combination
coefficients, with boundary rows and cross-interface smoothness rows
stitching the pieces together.  Nonlinear equations are handled by Picard
or Newton iteration over the frozen bases.

The namespace holds what one solve needs; everything else is imported from
its submodule.
"""

from .geometry import PartitionSpec
from .network import NetworkConfig
from .problems import builtin
from .solver import NonlinearConfig, SamplingConfig, solve
from .training import TrainingConfig

__all__ = [
    "NetworkConfig",
    "NonlinearConfig",
    "PartitionSpec",
    "SamplingConfig",
    "TrainingConfig",
    "builtin",
    "solve",
]

__version__ = "0.1.0"
