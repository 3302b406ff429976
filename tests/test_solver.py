"""End-to-end drivers at desk scale: tiny configs, degenerate modes."""

import dataclasses

import numpy as np
import pytest

from subspacepde.assembly import (
    GlobalIndexing,
    LstsqLog,
    assemble_boundary_rows,
    assemble_global,
    assemble_pde_rows,
    solve_least_squares,
)
from subspacepde.geometry import (
    DomainSpec,
    PartitionSpec,
    partition,
    sample_boundary,
    sample_interior,
)
from subspacepde.network import CoefficientVector, NetworkConfig, eval_basis, init_params
from subspacepde.problems import LinearTerm, NonlinearTerm, ProblemSpec, builtin
from subspacepde.solver import (
    Discretization,
    NonlinearConfig,
    SamplingConfig,
    _iterate,
    evaluate_solution,
    solve,
)
from subspacepde.training import TrainingConfig


def tiny_linear_setup(parts=(2,), M=40, epochs_zero=True):
    problem = builtin("helmholtz1d")
    return dict(
        problem=problem,
        partition_spec=PartitionSpec(parts),
        sampling=SamplingConfig(interior_counts=(60,), seed=202),
        network=NetworkConfig(input_dim=1, hidden_widths=(30,), subspace_dim=M),
        training=TrainingConfig(max_epochs=50, epochs_zero=epochs_zero, seed=202),
    )


def tiny_poisson2d_setup(problem):
    """Positional (problem, partition, sampling, network, training) of an untrained 2x2 solve."""
    return (
        problem,
        PartitionSpec((2, 2)),
        SamplingConfig(interior_counts=(5, 5), seed=202),
        NetworkConfig(input_dim=2, hidden_widths=(10,), subspace_dim=12),
        TrainingConfig(epochs_zero=True),
    )


def tiny_heat2d_random_setup():
    """Positional setup of an untrained 2x2x2 space-time solve on random points."""

    def zero(pts):
        return np.zeros(pts.shape[0])

    problem = ProblemSpec(
        name="heat2d",
        domain=DomainSpec.space_time([(0.0, 1.0), (0.0, 1.0)], (0.0, 1.0)),
        linear_terms=(
            LinearTerm(1.0, (0, 0, 1)),
            LinearTerm(-1.0, (2, 0, 0)),
            LinearTerm(-1.0, (0, 2, 0)),
        ),
        source=zero,
        boundary=zero,
        initial=zero,
    )
    return (
        problem,
        PartitionSpec((2, 2, 2)),
        SamplingConfig(interior_counts=(5, 4, 3), strategy="random", seed=202),
        NetworkConfig(input_dim=3, hidden_widths=(10,), subspace_dim=12),
        TrainingConfig(epochs_zero=True),
    )


def linear_as_nonlinear(problem):
    """Wrap a linear problem with an identically-zero nonlinear term."""
    zero_term = NonlinearTerm(
        value=lambda pts, u, derivs: np.zeros(pts.shape[0]),
        partials={(0,) * problem.dim: lambda pts, u, derivs: np.zeros(pts.shape[0])},
    )
    return ProblemSpec(
        name=problem.name + "+zero",
        domain=problem.domain,
        linear_terms=problem.linear_terms,
        source=problem.source,
        boundary=problem.boundary,
        initial=problem.initial,
        nonlinear=zero_term,
        exact=problem.exact,
        exact_derivs=problem.exact_derivs,
    )


class TestSolveLinear:
    def test_untrained_random_features_solve(self):
        report = solve(**tiny_linear_setup(), init_mode="uniform_range")
        assert report.converged
        assert report.nonlinear_iters == 0
        assert report.epochs_per_subdomain == [0, 0]
        assert report.norms is not None and report.norms.l2_rel < 0.5

    def test_rejects_nonlinear_problem(self):
        setup = tiny_linear_setup()
        setup["problem"] = builtin("burgers1d")
        setup["partition_spec"] = PartitionSpec((2, 2))
        setup["sampling"] = SamplingConfig(interior_counts=(8, 8), seed=1)
        setup["network"] = NetworkConfig(input_dim=2, subspace_dim=20)
        with pytest.raises(ValueError):
            solve(**setup)

    def test_report_shapes_and_determinism(self):
        a = solve(**tiny_linear_setup(), init_mode="uniform_range")
        b = solve(**tiny_linear_setup(), init_mode="uniform_range")
        assert a.rows == b.rows and a.columns == 2 * 40
        np.testing.assert_array_equal(a.beta.values, b.beta.values)
        da, db = a.to_json_dict(), b.to_json_dict()
        da.pop("wall_times"), db.pop("wall_times")
        assert da == db

    def test_training_mode_improves_over_short_run(self):
        trained = solve(**tiny_linear_setup(epochs_zero=False))
        assert any(e > 0 for e in trained.epochs_per_subdomain)

    def test_evaluation_grid_override(self):
        report = solve(
            **tiny_linear_setup(),
            init_mode="uniform_range",
            evaluation=(17,),
        )
        assert report.samples[0].shape == (17, 1)

    def test_total_wall_time_covers_every_phase(self):
        wall = solve(**tiny_linear_setup(), init_mode="uniform_range").wall_times
        assert set(wall) == {"train", "assemble", "solve", "evaluate", "total"}
        assert wall["total"] >= sum(v for k, v in wall.items() if k != "total")

    def test_interface_jump_reported(self):
        report = solve(**tiny_linear_setup(), init_mode="uniform_range")
        assert report.interface_jump_max <= 10 * report.ls_residual_rms

    def test_report_json_keys(self):
        doc = solve(**tiny_linear_setup(), init_mode="uniform_range").to_json_dict()
        assert set(doc) == {
            "problem", "method", "num_subdomains", "subspace_dim", "rows", "columns",
            "norms", "epochs_per_subdomain", "epochs_mean", "final_rel_losses",
            "nonlinear_iters", "warmup_iters_used", "converged", "ls_residual_history",
            "ls_rank_history", "ls_sigma_max_history", "nonlinear_residual_history",
            "ls_residual_rms", "interface_jump_max", "beta", "wall_times",
        }
        assert set(doc["norms"]) == {"l2_abs", "l2_rel", "linf"}

    def test_stacked_residual_matches_dense_residual(self):
        # the row-block products against the dense system they assemble into,
        # at unit-scale coefficients: this setup's least-squares solution
        # reaches |beta| ~ 1e11, where both residuals are mostly cancellation
        disc = Discretization(**tiny_linear_setup(), init_mode="uniform_range")
        system = disc.assemble_linear_system()
        rng = np.random.default_rng(0)
        beta = CoefficientVector(rng.normal(size=disc.indexing.width), disc.indexing.block_size)
        dense = np.linalg.norm(system.matrix @ beta.values - system.rhs)
        assert disc.stacked_residual_norm(beta) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("method", [None, "picard", "newton"])
    def test_least_squares_histories_aligned(self, method):
        setup = tiny_linear_setup()
        nonlinear = None
        if method is not None:
            setup["problem"] = linear_as_nonlinear(setup["problem"])
            nonlinear = NonlinearConfig(method=method, max_iters=3, tol=1e-10)
        doc = solve(**setup, nonlinear=nonlinear, init_mode="uniform_range").to_json_dict()
        ranks, sigmas = doc["ls_rank_history"], doc["ls_sigma_max_history"]
        assert len(ranks) == len(sigmas) == len(doc["ls_residual_history"]) >= 1
        assert all(isinstance(r, int) and 0 < r <= doc["columns"] for r in ranks)
        assert all(s > 0 for s in sigmas)


class TestDegeneration:
    def test_single_subdomain_system_matches_direct_assembly(self):
        # the partitioned pipeline at one cell must equal a hand-assembled
        # single-network collocation system, entry for entry
        problem = builtin("helmholtz1d")
        network = NetworkConfig(input_dim=1, hidden_widths=(20,), subspace_dim=30)
        params = [init_params(network, "uniform_range", seed=[5, 0])]
        disc = Discretization(
            problem,
            PartitionSpec((1,)),
            SamplingConfig(interior_counts=(40,), seed=5),
            network,
            TrainingConfig(epochs_zero=True),
            params_list=params,
        )
        system = disc.assemble_linear_system()
        assert not disc.continuity_blocks

        subs, _ = partition(problem.domain, PartitionSpec((1,)), problem.default_continuity_orders())
        indexing = GlobalIndexing(1, 30)
        pts = sample_interior(subs[0], "uniform", [40], seed=5)
        ev = eval_basis(params[0], subs[0], pts.points, problem.operator_orders())
        pde = assemble_pde_rows(problem, indexing, 0, pts, ev)
        bnd_pts = sample_boundary(problem.domain, subs, [40], seed=5)
        bnd_ev = eval_basis(params[0], subs[0], bnd_pts.points, ())
        bnd = assemble_boundary_rows(problem, indexing, bnd_pts, bnd_ev.values)
        direct = assemble_global([pde, bnd], indexing)

        np.testing.assert_array_equal(system.matrix, direct.matrix)
        np.testing.assert_array_equal(system.rhs, direct.rhs)

    def test_elm_mode_single_cell_flat_features(self):
        # one subdomain, no hidden layers, no training: the global
        # random-feature pipeline, with no continuity rows at all
        problem = builtin("helmholtz1d")
        report = solve(
            problem,
            PartitionSpec((1,)),
            SamplingConfig(interior_counts=(120,), seed=202),
            NetworkConfig(input_dim=1, hidden_widths=(), subspace_dim=80),
            TrainingConfig(epochs_zero=True),
            init_mode="uniform_range",
        )
        assert report.rows == 120 + 2
        assert report.columns == 80
        assert report.epochs_per_subdomain == [0]
        assert report.interface_jump_max == 0.0

    def test_epochs_zero_logs_no_training(self, tmp_path):
        problem = builtin("helmholtz1d")
        report = solve(
            **tiny_linear_setup(),
            init_mode="uniform_range",
            log_dir=str(tmp_path),
        )
        assert report.epochs_per_subdomain == [0, 0]
        assert list(tmp_path.iterdir()) == []


class TestNonlinearDrivers:
    def test_zero_nonlinearity_converges_immediately_to_linear(self):
        setup = tiny_linear_setup()
        linear_report = solve(**setup, init_mode="uniform_range")
        setup["problem"] = linear_as_nonlinear(setup["problem"])
        picard = solve(
            **setup,
            nonlinear=NonlinearConfig(method="picard", max_iters=10, tol=1e-10),
            init_mode="uniform_range",
        )
        assert picard.converged
        assert picard.nonlinear_iters == 1
        np.testing.assert_allclose(
            picard.beta.values, linear_report.beta.values, atol=1e-9
        )

    def test_newton_on_linear_problem_single_step(self):
        setup = tiny_linear_setup()
        linear_report = solve(**setup, init_mode="uniform_range")
        setup["problem"] = linear_as_nonlinear(setup["problem"])
        newton = solve(
            **setup,
            nonlinear=NonlinearConfig(
                method="newton", max_iters=5, tol=1e-10, picard_warmup_iters=0
            ),
            init_mode="uniform_range",
        )
        assert newton.converged
        assert newton.nonlinear_iters == 1
        np.testing.assert_allclose(
            newton.beta.values, linear_report.beta.values, atol=1e-8
        )

    def test_every_method_solves_through_one_routine(self):
        # a zero nonlinearity poses the linear system bit for bit, so only a
        # second least-squares implementation could move beta
        setup = tiny_linear_setup()
        linear = solve(**setup, init_mode="uniform_range").beta.values
        setup["problem"] = linear_as_nonlinear(setup["problem"])
        for config in (
            NonlinearConfig(method="picard", max_iters=10, tol=1e-10),
            NonlinearConfig(method="newton", max_iters=5, tol=1e-10, picard_warmup_iters=0),
        ):
            report = solve(**setup, nonlinear=config, init_mode="uniform_range")
            assert np.array_equal(report.beta.values, linear), config.method

    def test_picard_requires_nonlinear_problem(self):
        setup = tiny_linear_setup()
        with pytest.raises(ValueError):
            solve(
                **setup, nonlinear=NonlinearConfig(method="picard", max_iters=3, tol=1e-6)
            )

    def test_small_nonlinear_helmholtz_converges(self):
        problem = builtin("nonlinear_helmholtz1d")
        report = solve(
            problem,
            PartitionSpec((8,)),
            SamplingConfig(interior_counts=(60,), seed=202),
            NetworkConfig(input_dim=1, hidden_widths=(60, 60), subspace_dim=100),
            TrainingConfig(max_epochs=600, seed=202),
            nonlinear=NonlinearConfig(method="picard", max_iters=15, tol=1e-6),
        )
        assert report.converged
        assert report.nonlinear_iters <= 15
        assert report.norms.l2_rel < 1e-3
        assert report.interface_jump_max <= 10 * report.ls_residual_rms

    def test_picard_fixed_point_is_stationary(self):
        # one extra sweep after convergence moves the interior solution by
        # no more than the convergence tolerance
        problem = builtin("nonlinear_helmholtz1d")
        disc = Discretization(
            problem,
            PartitionSpec((8,)),
            SamplingConfig(interior_counts=(60,), seed=202),
            NetworkConfig(input_dim=1, hidden_widths=(60, 60), subspace_dim=100),
            TrainingConfig(max_epochs=600, seed=202),
        )
        tol = 1e-6
        system = disc.assemble_linear_system(disc.network_output_with_unit_coefficients())
        beta, _ = solve_least_squares(system)
        beta, _, converged = _iterate(disc, beta, (), 15, tol, LstsqLog())
        assert converged
        u_before = np.concatenate([u for u, _ in disc.interior_solution(beta)])
        beta, _, _ = _iterate(disc, beta, (), 1, 0.0, LstsqLog())
        u_after = np.concatenate([u for u, _ in disc.interior_solution(beta)])
        assert np.max(np.abs(u_after - u_before)) <= tol

    @pytest.mark.parametrize("step, keeps_new", [(1.0, False), (-1.0, True)])
    def test_converging_sweep_kept_only_if_residual_does_not_rise(
        self, monkeypatch, step, keeps_new
    ):
        setup = tiny_linear_setup()
        problem = linear_as_nonlinear(setup.pop("problem"))
        disc = Discretization(problem, **setup)
        beta, _ = solve_least_squares(disc.assemble_linear_system())
        # residuals that move by `step` at every evaluation, as rounding
        # moves them at the floor of the least-squares solve
        values = iter(10.0 + step * np.arange(5))
        monkeypatch.setattr(disc, "stacked_residual_norm", lambda b, s=None: next(values))
        history = []
        live = tuple(problem.nonlinear.partials)
        out, sweeps, converged = _iterate(disc, beta, live, 5, 1e-6, LstsqLog(), history)
        assert converged and sweeps == 1
        assert (out is not beta) == keeps_new

    def test_non_convergence_reported_not_raised(self):
        problem = builtin("nonlinear_helmholtz1d")
        report = solve(
            problem,
            PartitionSpec((2,)),
            SamplingConfig(interior_counts=(30,), seed=1),
            NetworkConfig(input_dim=1, hidden_widths=(10,), subspace_dim=20),
            TrainingConfig(epochs_zero=True),
            nonlinear=NonlinearConfig(method="picard", max_iters=1, tol=1e-14),
            init_mode="uniform_range",
        )
        assert not report.converged
        assert report.nonlinear_iters == 1

    def test_picard_reports_residual_at_returned_beta(self):
        pieces = (
            builtin("nonlinear_helmholtz1d"),
            PartitionSpec((2,)),
            SamplingConfig(interior_counts=(30,), seed=1),
            NetworkConfig(input_dim=1, hidden_widths=(10,), subspace_dim=20),
            TrainingConfig(epochs_zero=True),
        )
        report = solve(
            *pieces,
            nonlinear=NonlinearConfig(method="picard", max_iters=3, tol=1e-14),
            init_mode="uniform_range",
        )
        disc = Discretization(*pieces, init_mode="uniform_range")
        assert report.nonlinear_residual_history
        assert report.nonlinear_residual_history[-1] == disc.stacked_residual_norm(report.beta)

    @pytest.mark.parametrize("method", ["picard", "newton"])
    def test_non_finite_nonlinear_term_raises(self, method):
        nan = lambda pts, u, derivs: np.full(pts.shape[0], np.nan)
        setup = tiny_linear_setup()
        setup["problem"] = dataclasses.replace(
            setup["problem"], nonlinear=NonlinearTerm(value=nan, partials={(0,): nan})
        )
        with pytest.raises(ValueError):
            solve(
                **setup,
                nonlinear=NonlinearConfig(method=method, max_iters=3, tol=1e-6),
                init_mode="uniform_range",
            )


class TestEvaluationHelpers:
    def test_evaluation_grid_counts(self):
        problem = builtin("poisson2d")
        report = solve(*tiny_poisson2d_setup(problem), init_mode="uniform_range", evaluation=(3, 5))
        grid = report.samples[0]
        assert grid.shape == (15, 2)
        (x0, x1), (y0, y1) = problem.domain.axes
        assert grid[0].tolist() == [x0, y0] and grid[-1].tolist() == [x1, y1]

    def test_evaluation_counts_need_one_entry_per_axis(self):
        with pytest.raises(ValueError, match="one entry per axis"):
            solve(**tiny_linear_setup(), init_mode="uniform_range", evaluation=(17, 17))

    def test_report_and_boundary_rows_share_the_owner_rule(self):
        # Points on a shared corner or edge belong to the lowest subdomain id
        # both in the boundary rows and in the reported solution; on random
        # 3-D facets neighbours sample different points of a shared edge.
        for setup in (tiny_poisson2d_setup(builtin("poisson2d")), tiny_heat2d_random_setup()):
            disc = Discretization(*setup, init_mode="uniform_range")
            values = np.random.default_rng(0).standard_normal(disc.indexing.width)
            beta = CoefficientVector(values, disc.network.subspace_dim)
            u = evaluate_solution(disc.boundary.points, disc.subdomains, disc.params, beta)
            np.testing.assert_allclose(u, disc.boundary_block.matvec(values), rtol=1e-13)

    def test_evaluate_solution_piecewise(self):
        # Each point takes its value from the basis of the lowest-id
        # subdomain that holds it, so the interface point x = 4 goes to
        # subdomain 0, and rebuilt networks reproduce the report's grid.
        problem = builtin("helmholtz1d")
        report = solve(**tiny_linear_setup(), init_mode="uniform_range")
        subs, _ = partition(
            problem.domain, PartitionSpec((2,)), problem.default_continuity_orders()
        )
        # rebuild the params deterministically: same seeds as the solve
        params = [
            init_params(
                NetworkConfig(input_dim=1, hidden_widths=(30,), subspace_dim=40),
                "uniform_range",
                seed=[202, k],
            )
            for k in range(2)
        ]
        grid = np.linspace(0, 8, 33)[:, None]
        u = evaluate_solution(grid, subs, params, report.beta)
        left = grid[:, 0] <= 4.0
        for k, mask in enumerate([left, ~left]):
            piece = eval_basis(params[k], subs[k], grid[mask]).values @ report.beta.block(k)
            np.testing.assert_array_equal(u[mask], piece)
        report_grid, u_hat, _ = report.samples
        np.testing.assert_array_equal(
            evaluate_solution(report_grid, subs, params, report.beta), u_hat
        )
