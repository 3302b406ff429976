"""Benchmark workloads: solver configs generated from a seed, with their gates.

Each workload is one builtin problem at a size where a solve takes a few
seconds on one core, so a measured run holds several solves.  Training runs
a fixed number of epochs (``rel_tol`` is set out of reach), which keeps the
work of a solve independent of the seed; the seed changes only the network
initialization and the sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

# Far below any loss reduction reachable in the epoch caps used here, so
# every subdomain trains for exactly ``max_epochs`` epochs.
UNREACHABLE_REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    partition: tuple[int, ...]
    counts: tuple[int, ...]
    hidden_widths: tuple[int, ...]
    subspace_dim: int
    max_epochs: int
    # Correctness gate: a solve passes when both are finite and at most these.
    l2_rel_max: float
    jump_max: float
    # Value channel plus the first- and second-derivative channels that a
    # training forward propagates for the problem's operator.
    channels: int
    nonlinear: dict | None = None

    def config(self, seed: int) -> dict:
        """The JSON config document the library validates, for one seed."""
        doc = {
            "problem": self.problem,
            "partition": {"counts": list(self.partition)},
            "sampling": {"strategy": "uniform", "counts": list(self.counts), "seed": seed},
            "network": {
                "hidden_widths": list(self.hidden_widths),
                "subspace_dim": self.subspace_dim,
            },
            "training": {
                "learning_rate": 0.001,
                "max_epochs": self.max_epochs,
                "rel_tol": UNREACHABLE_REL_TOL,
                "seed": seed,
            },
        }
        if self.nonlinear is not None:
            doc["nonlinear"] = dict(self.nonlinear)
        return doc

    def gemm_shape(self) -> tuple[int, int, int]:
        """(rows, inner, cols) of the widest hidden-layer GEMM in one training forward.

        Rows are the subdomain's points times the value and derivative
        channels that the problem's operator needs.
        """
        points = 1
        for c in self.counts:
            points *= c
        width = max(self.hidden_widths)
        return points * self.channels, width, width


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="helmholtz1d",
            problem="helmholtz1d",
            partition=(4,),
            counts=(200,),
            hidden_widths=(100, 100),
            subspace_dim=100,
            max_epochs=80,
            l2_rel_max=1e-3,
            jump_max=1e-3,
            channels=3,
        ),
        Workload(
            name="poisson2d",
            problem="poisson2d",
            partition=(3, 3),
            counts=(12, 12),
            hidden_widths=(100, 100),
            subspace_dim=150,
            max_epochs=20,
            l2_rel_max=1e-5,
            jump_max=1e-5,
            channels=5,
        ),
        Workload(
            name="burgers1d_newton",
            problem="burgers1d",
            partition=(4, 2),
            counts=(10, 10),
            hidden_widths=(100, 100),
            subspace_dim=60,
            max_epochs=30,
            l2_rel_max=1e-3,
            jump_max=1e-3,
            channels=4,
            nonlinear={"method": "newton", "max_iters": 10, "tol": 1e-12, "picard_warmup_iters": 8},
        ),
    )
}
