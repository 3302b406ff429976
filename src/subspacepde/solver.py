"""End-to-end solve: train bases, assemble, solve, iterate if nonlinear.

Each subdomain network trains on the interior residual; the bases are then
frozen and every solve is a least-squares solve of the global block system
over them.  A linear problem is solved once.  A nonlinear problem is
linearized around the current iterate (see `assembly`): the nonlinear term
moves to the right-hand side, and the slots listed as ``live`` keep their
partial derivatives in the matrix.  Picard sweeps keep live the
derivatives the term reads; Newton steps keep every slot with a partial.
Every sweep, linear, Picard or Newton, ends in the same least-squares
solve (`assembly.solve_least_squares`), so an unchanged system gives
unchanged coefficients whichever method posed it.  Iteration starts from
one Picard sweep at the trained networks' unit-coefficient output; Newton
runs a few Picard sweeps first, because that raw output ignores boundary
data.

Non-convergence of an iteration is reported, not raised: the best iterate
comes back with ``converged=False``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .assembly import (
    GlobalIndexing,
    GlobalSystem,
    LstsqLog,
    assemble_boundary_rows,
    assemble_continuity_rows,
    assemble_global,
    assemble_pde_rows,
    dump_system,
    solve_least_squares,
)
from .geometry import (
    PartitionSpec,
    SubdomainSpec,
    _box_grid,
    find_owners,
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
)
from .problems import ErrorNorms, ProblemSpec, error_norms
from .training import TrainingConfig, train_subdomain

Array = NDArray[np.float64]


@dataclass(frozen=True)
class SamplingConfig:
    """Collocation sampling for interior, boundary and interface sets.

    Counts are per axis; boundary and interface facets take the interior
    counts of their tangential axes.
    """

    interior_counts: tuple[int, ...]
    strategy: str = "uniform"
    seed: int = 202


@dataclass(frozen=True)
class NonlinearConfig:
    """Fixed-point / Newton iteration settings."""

    method: str = "picard"
    max_iters: int = 20
    tol: float = 1e-6
    picard_warmup_iters: int = 2

    def __post_init__(self) -> None:
        if self.method not in ("picard", "newton"):
            raise ValueError("nonlinear method must be 'picard' or 'newton'")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.picard_warmup_iters < 0:
            raise ValueError("picard_warmup_iters must be >= 0")


@dataclass
class SolveReport:
    """Everything a solve produced, ready for serialization.

    ``ls_residual_history``, ``ls_rank_history`` and
    ``ls_sigma_max_history`` hold one entry per least-squares solve: the
    residual 2-norm of the system as assembled, and the numeric rank and
    largest singular value of the equilibrated system that
    `solve_least_squares` factors (rows, then columns, at unit 2-norm).
    ``nonlinear_residual_history`` holds the 2-norm of the stacked
    nonlinear residual before each Newton step and, for both methods, at
    the returned iterate last.  ``samples`` holds the evaluation-grid
    points with numeric (and exact, when known) solution values; it feeds
    the CSV writer and is not part of the JSON document.
    """

    problem: str
    method: str
    num_subdomains: int
    subspace_dim: int
    rows: int
    columns: int
    beta: CoefficientVector
    norms: ErrorNorms | None
    epochs_per_subdomain: list[int]
    final_rel_losses: list[float]
    nonlinear_iters: int
    warmup_iters_used: int
    converged: bool
    ls_residual_history: list[float]
    ls_rank_history: list[int]
    ls_sigma_max_history: list[float]
    nonlinear_residual_history: list[float]
    ls_residual_rms: float
    interface_jump_max: float
    wall_times: dict[str, float]
    samples: tuple[Array, Array, Array | None] | None = None

    @property
    def epochs_mean(self) -> float:
        if not self.epochs_per_subdomain:
            return 0.0
        return float(np.mean(self.epochs_per_subdomain))

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "samples"}
        doc["beta"] = self.beta.values.tolist()
        doc["norms"] = None if self.norms is None else asdict(self.norms)
        doc["epochs_mean"] = self.epochs_mean
        return doc

    def save_json(self, path) -> None:
        # Serialized before the file opens: a non-finite value raises and
        # leaves no partial report.
        text = json.dumps(self.to_json_dict(), indent=1, sort_keys=True, allow_nan=False)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


class Discretization:
    """Shared state of one solve: partition, samples, trained bases, rows.

    Building it runs the whole training phase, then evaluates the bases.
    The interior evaluations are kept for the PDE rows, which nonlinear
    iterations rebuild; the boundary and interface evaluations go straight
    into the boundary and continuity row blocks, which are reused as they
    are.  Those blocks' `RowBlock.matvec` gives the boundary residual and
    the interface jumps.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        partition_spec: PartitionSpec,
        sampling: SamplingConfig,
        network: NetworkConfig,
        training: TrainingConfig,
        init_mode: str = "glorot",
        params_list: Sequence[NetworkParams] | None = None,
        log_dir=None,
    ):
        self.problem = problem
        self.network = network
        continuity = problem.default_continuity_orders()
        self.subdomains, self.interfaces = partition(
            problem.domain, partition_spec, continuity
        )
        self.indexing = GlobalIndexing(len(self.subdomains), network.subspace_dim)

        counts = sampling.interior_counts
        self.interior = [
            sample_interior(sub, sampling.strategy, counts, sampling.seed)
            for sub in self.subdomains
        ]
        self.boundary = sample_boundary(
            problem.domain, self.subdomains, counts, sampling.strategy, sampling.seed
        )
        self.interface_points = [
            sample_interface(
                iface,
                [counts[r] for r in range(problem.dim) if r != iface.axis],
                sampling.strategy,
                sampling.seed,
            )
            for iface in self.interfaces
        ]

        t0 = time.perf_counter()
        trained = [
            train_subdomain(
                init_params(network, init_mode, seed=[training.seed, sub.index])
                if params_list is None
                else params_list[sub.index],
                problem,
                sub,
                self.interior[sub.index],
                training,
                log_path=None if log_dir is None else f"{log_dir}/training_log_{sub.index}.csv",
            )
            for sub in self.subdomains
        ]
        self.params, self.epochs, self.rel_losses = map(list, zip(*trained))
        self.train_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        self._build_evals_and_static_blocks()
        self.assemble_seconds = time.perf_counter() - t0

    # -- basis evaluation and static rows ---------------------------------

    def _build_evals_and_static_blocks(self) -> None:
        problem = self.problem
        orders = problem.operator_orders()
        self.interior_evals: list[BasisEval] = [
            eval_basis(self.params[sub.index], sub, pts.points, orders)
            for sub, pts in zip(self.subdomains, self.interior)
        ]

        boundary_values = np.zeros((len(self.boundary), self.network.subspace_dim))
        for _, mask, values in _by_owner(
            self.boundary.points, self.boundary.owners, self.subdomains, self.params
        ):
            boundary_values[mask] = values
        self.boundary_block = assemble_boundary_rows(
            problem, self.indexing, self.boundary, boundary_values
        )

        self.continuity_blocks = []
        for iface, pts in zip(self.interfaces, self.interface_points):
            alphas = [
                tuple(order if s == iface.axis else 0 for s in range(problem.dim))
                for order in range(1, iface.continuity_order + 1)
            ]
            left, right = (
                eval_basis(self.params[k], self.subdomains[k], pts.points, alphas)
                for k in (iface.left, iface.right)
            )
            self.continuity_blocks.append(
                assemble_continuity_rows(iface, self.indexing, pts, left, right)
            )

    # -- solution evaluation ----------------------------------------------

    def network_output_with_unit_coefficients(self):
        """Interior solution/derivatives of the raw trained networks (coefficients == 1)."""
        out = []
        for ev in self.interior_evals:
            u = ev.values.sum(axis=1)
            derivs = {alpha: block.sum(axis=1) for alpha, block in ev.derivs.items()}
            out.append((u, derivs))
        return out

    def interior_solution(self, beta: CoefficientVector):
        """Per-subdomain (u, derivs) at the interior points for given coefficients."""
        return [
            eval_solution(ev, beta.block(sub.index))
            for sub, ev in zip(self.subdomains, self.interior_evals)
        ]

    def assemble_linear_system(self, solution=None, live: Sequence = ()) -> GlobalSystem:
        """The global system, its PDE rows linearized at ``solution`` when given.

        ``solution`` holds per-subdomain (u, derivs) at the interior points;
        ``live`` names the slots whose partials stay in the matrix.
        """
        blocks = []
        for sub, pts, ev in zip(self.subdomains, self.interior, self.interior_evals):
            u, derivs = (None, None) if solution is None else solution[sub.index]
            blocks.append(
                assemble_pde_rows(self.problem, self.indexing, sub.index, pts, ev, u, derivs, live)
            )
        return assemble_global(blocks + [self.boundary_block] + self.continuity_blocks, self.indexing)

    def interface_jump_max(self, beta: CoefficientVector) -> float:
        jumps = [np.max(np.abs(block.matvec(beta.values))) for block in self.continuity_blocks]
        return float(max(jumps, default=0.0))

    def stacked_residual_norm(self, beta: CoefficientVector, solution=None) -> float:
        """2-norm of the full nonlinear system residual at the iterate."""
        if solution is None:
            solution = self.interior_solution(beta)
        parts = [
            self.problem.residual(pts.points, u, derivs)
            for pts, (u, derivs) in zip(self.interior, solution)
        ]
        parts.extend(
            block.matvec(beta.values) - block.rhs
            for block in [self.boundary_block, *self.continuity_blocks]
        )
        return float(np.linalg.norm(np.concatenate(parts)))


def _by_owner(points: Array, owners, subdomains: Sequence[SubdomainSpec], params: Sequence[NetworkParams]):
    """Yield (subdomain, mask, basis values) for each subdomain owning some of ``points``."""
    for sub in subdomains:
        mask = owners == sub.index
        if mask.any():
            yield sub, mask, eval_basis(params[sub.index], sub, points[mask]).values


def evaluate_solution(
    points: Array,
    subdomains: Sequence[SubdomainSpec],
    params: Sequence[NetworkParams],
    beta: CoefficientVector,
) -> Array:
    """Evaluate the assembled solution at arbitrary points of the domain."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(pts.shape[0])
    for sub, mask, values in _by_owner(pts, find_owners(pts, subdomains), subdomains, params):
        out[mask] = values @ beta.block(sub.index)
    return out


def _finish_report(disc: Discretization, beta: CoefficientVector, counts: Sequence[int]):
    """The solution on the uniform ``counts`` grid: ((grid, u_hat, u_exact), norms).

    ``u_exact`` and the error norms are None when the exact solution is unknown.
    """
    exact = disc.problem.exact
    grid = _box_grid(disc.problem.domain.axes, counts, "uniform", None)
    u_hat = evaluate_solution(grid, disc.subdomains, disc.params, beta)
    u_exact = None if exact is None else exact(grid)
    norms = None if u_exact is None else error_norms(u_hat, u_exact)
    return (grid, u_hat, u_exact), norms


def _iterate(
    disc: Discretization,
    beta: CoefficientVector,
    live: Sequence,
    max_iters: int,
    tol: float,
    ls_log: LstsqLog,
    residual_history: list[float] | None = None,
) -> tuple[CoefficientVector, int, bool]:
    """Re-solve the system linearized at the iterate until it settles.

    Converged means a sweep moved the interior solution by at most ``tol``
    in the sup-norm; otherwise the best iterate seen (smallest update)
    comes back.  Each sweep assembles its own system and solves it with
    `solve_least_squares`, which logs the solve in ``ls_log``.  The
    interior solution is evaluated once per iterate; that one evaluation
    gives the update size, the residual and the next linearization.
    ``residual_history`` collects the stacked nonlinear residual before
    each sweep; with it, the converging sweep is kept only if it does not
    raise that residual.  Its step is below ``tol``, so either iterate is a
    fixed point, and at the floor of the least-squares solve rounding alone
    decides which has the smaller residual.  Returns (beta, sweeps used,
    converged).
    """
    solution = disc.interior_solution(beta)
    best = (np.inf, beta)
    for sweep in range(1, max_iters + 1):
        if residual_history is not None:
            residual_history.append(disc.stacked_residual_norm(beta, solution))
        system = disc.assemble_linear_system(solution, live)
        previous = beta
        beta, _ = solve_least_squares(system, ls_log)
        del system
        u_prev = np.concatenate([u for u, _ in solution])
        solution = disc.interior_solution(beta)
        delta = float(np.max(np.abs(np.concatenate([u for u, _ in solution]) - u_prev)))
        if delta < best[0]:
            best = (delta, beta)
        if delta <= tol:
            if residual_history is not None and (
                disc.stacked_residual_norm(beta, solution) > residual_history[-1]
            ):
                beta = previous
            return beta, sweep, True
    return (best[1] if np.isfinite(best[0]) else beta), max_iters, False


def solve(
    problem: ProblemSpec,
    partition_spec: PartitionSpec,
    sampling: SamplingConfig,
    network: NetworkConfig,
    training: TrainingConfig,
    nonlinear: NonlinearConfig | None = None,
    *,
    init_mode: str = "glorot",
    evaluation: Sequence[int] | None = None,
    params_list: Sequence[NetworkParams] | None = None,
    log_dir=None,
    dump_path=None,
) -> SolveReport:
    """Train bases, then solve the system once or iterate its linearization.

    ``nonlinear`` is required exactly when the problem has a nonlinear
    term; its ``method`` picks Picard sweeps or a Picard warmup followed by
    Newton steps.  ``evaluation`` holds the per-axis point counts of the
    uniform grid the solution is reported on; it defaults to the sampling
    count times the partition count of each axis.  ``dump_path`` receives
    the first assembled system.
    """
    start = time.perf_counter()
    term = problem.nonlinear
    if (term is None) != (nonlinear is None):
        raise ValueError("a nonlinear config is needed exactly when the problem has a nonlinear term")
    if evaluation is None:
        evaluation = [c * n for c, n in zip(sampling.interior_counts, partition_spec.counts)]
    if len(evaluation) != problem.dim:
        raise ValueError("evaluation counts must have one entry per axis")
    disc = Discretization(
        problem, partition_spec, sampling, network, training, init_mode, params_list, log_dir
    )

    t0 = time.perf_counter()
    solution = None if term is None else disc.network_output_with_unit_coefficients()
    picard = () if term is None else term.orders
    system = disc.assemble_linear_system(solution, picard)
    disc.assemble_seconds += time.perf_counter() - t0
    rows = system.shape[0]
    if dump_path is not None:
        dump_system(system, dump_path)

    t0 = time.perf_counter()
    ls_log = LstsqLog()
    beta, _ = solve_least_squares(system, ls_log)
    del system
    nonlinear_history: list[float] = []
    iters = warmup_used = 0
    converged = True
    newton = nonlinear is not None and nonlinear.method == "newton"
    if nonlinear is not None:
        sweeps = nonlinear.picard_warmup_iters if newton else nonlinear.max_iters
        beta, iters, converged = _iterate(disc, beta, picard, sweeps, nonlinear.tol, ls_log)
        if not newton:
            nonlinear_history.append(disc.stacked_residual_norm(beta))
    final_residual = ls_log.residual[-1]
    if newton:
        warmup_used = iters
        beta, iters, converged = _iterate(
            disc, beta, tuple(term.partials), nonlinear.max_iters, nonlinear.tol,
            ls_log, nonlinear_history,
        )
        # Stacked nonlinear residual at the final iterate, for reporting the
        # quality the continuity rows were solved to.
        final_residual = disc.stacked_residual_norm(beta)
        nonlinear_history.append(final_residual)

    wall = {
        "train": disc.train_seconds,
        "assemble": disc.assemble_seconds,
        "solve": time.perf_counter() - t0,
    }
    t0 = time.perf_counter()
    samples, norms = _finish_report(disc, beta, evaluation)
    report = SolveReport(
        problem=problem.name,
        method="linear" if nonlinear is None else nonlinear.method,
        num_subdomains=len(disc.subdomains),
        subspace_dim=network.subspace_dim,
        rows=rows,
        columns=disc.indexing.width,
        beta=beta,
        norms=norms,
        epochs_per_subdomain=disc.epochs,
        final_rel_losses=[float(r) for r in disc.rel_losses],
        nonlinear_iters=iters,
        warmup_iters_used=warmup_used,
        converged=converged,
        ls_residual_history=ls_log.residual,
        ls_rank_history=ls_log.rank,
        ls_sigma_max_history=ls_log.sigma_max,
        nonlinear_residual_history=nonlinear_history,
        ls_residual_rms=float(final_residual / np.sqrt(rows)),
        interface_jump_max=disc.interface_jump_max(beta),
        wall_times=wall,
        samples=samples,
    )
    wall["evaluate"] = time.perf_counter() - t0
    wall["total"] = time.perf_counter() - start
    return report


# Kept as plain aliases: the acceptance suite calls the drivers by these names.
solve_linear = solve_picard = solve_newton = solve
