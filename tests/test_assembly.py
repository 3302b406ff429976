"""Block assembly against hand-computed monomial rows, and the solver."""

import dataclasses

import numpy as np
import pytest

from subspacepde import assembly
from subspacepde.assembly import (
    RCOND,
    GlobalIndexing,
    LstsqLog,
    RowBlock,
    _Piece,
    assemble_boundary_rows,
    assemble_continuity_rows,
    assemble_global,
    assemble_pde_rows,
    dump_system,
    solve_least_squares,
)
from subspacepde.geometry import (
    DomainSpec,
    InterfaceSpec,
    PartitionSpec,
    PointSet,
    partition,
    sample_boundary,
    sample_interface,
    sample_interior,
)
from subspacepde.network import BasisEval
from subspacepde.problems import LinearTerm, NonlinearTerm, ProblemSpec


def monomial_eval(points, degree, orders=()):
    """Polynomial basis {1, x, ..., x^degree} with exact derivatives."""
    x = np.atleast_2d(points)[:, 0]
    powers = np.arange(degree + 1)
    vals = np.stack([x**j for j in powers], axis=1)
    derivs = {}
    for alpha in orders:
        if alpha == (1,):
            derivs[alpha] = np.stack(
                [j * x ** max(j - 1, 0) for j in powers], axis=1
            )
        elif alpha == (2,):
            derivs[alpha] = np.stack(
                [j * (j - 1) * x ** max(j - 2, 0) for j in powers], axis=1
            )
        else:
            raise AssertionError(alpha)
    return BasisEval(values=vals, derivs=derivs)


def helmholtz_like(coef=-10.0):
    """u'' + coef*u = f on [0, 2]; source left symbolic for row tests."""
    return ProblemSpec(
        name="test",
        domain=DomainSpec.interval(0.0, 2.0),
        linear_terms=(LinearTerm(1.0, (2,)), LinearTerm(coef, (0,))),
        source=lambda pts: np.zeros(pts.shape[0]),
        boundary=lambda pts: 7.0 * np.ones(pts.shape[0]),
    )


class TestPdeRows:
    def test_hand_row_for_quadratic_basis(self):
        problem = helmholtz_like()
        indexing = GlobalIndexing(1, 3)
        pts = np.array([[1.0]])
        ev = monomial_eval(pts, 2, [(2,)])
        block = assemble_pde_rows(problem, indexing, 0, pts, ev)
        # operator d2/dx2 - 10 id on {1, x, x^2} at x=1: [-10, -10, 2-10]
        np.testing.assert_allclose(block.to_dense(), [[-10.0, -10.0, -8.0]])
        np.testing.assert_allclose(block.rhs, [0.0])

    def test_zero_coefficients_give_zero_rows(self):
        problem = ProblemSpec(
            name="zero",
            domain=DomainSpec.interval(0.0, 2.0),
            linear_terms=(LinearTerm(0.0, (2,)),),
            source=lambda pts: 3.0 * np.ones(pts.shape[0]),
            boundary=lambda pts: np.zeros(pts.shape[0]),
        )
        pts = np.linspace(0, 2, 5)[:, None]
        ev = monomial_eval(pts, 3, [(2,)])
        block = assemble_pde_rows(problem, GlobalIndexing(1, 4), 0, pts, ev)
        assert np.all(block.to_dense() == 0.0)
        np.testing.assert_allclose(block.rhs, 3.0)

    def test_frozen_term_moves_to_rhs(self):
        # with no live slot the whole nonlinear term moves to the right-hand side
        square = NonlinearTerm(
            value=lambda pts, u, derivs: u * u,
            partials={(0,): lambda pts, u, derivs: 2 * u},
        )
        problem = dataclasses.replace(helmholtz_like(), nonlinear=square)
        pts = np.array([[0.5], [1.5]])
        ev = monomial_eval(pts, 2, [(2,)])
        u = np.array([0.0, 0.5])
        with_frozen = assemble_pde_rows(problem, GlobalIndexing(1, 3), 0, pts, ev, u, {})
        without = assemble_pde_rows(problem, GlobalIndexing(1, 3), 0, pts, ev)
        np.testing.assert_allclose(with_frozen.rhs, without.rhs - [0.0, 0.25])
        np.testing.assert_array_equal(with_frozen.to_dense(), without.to_dense())

    def test_missing_derivative_raises(self):
        problem = helmholtz_like()
        pts = np.array([[1.0]])
        ev = monomial_eval(pts, 2, [])  # second derivative not provided
        with pytest.raises(KeyError):
            assemble_pde_rows(problem, GlobalIndexing(1, 3), 0, pts, ev)


def advection_problem():
    """u'' + u u_x = 1 on [0, 2]."""
    return ProblemSpec(
        name="advection",
        domain=DomainSpec.interval(0.0, 2.0),
        linear_terms=(LinearTerm(1.0, (2,)),),
        source=lambda pts: np.ones(pts.shape[0]),
        boundary=lambda pts: np.zeros(pts.shape[0]),
        nonlinear=NonlinearTerm(
            value=lambda pts, u, derivs: u * derivs[(1,)],
            partials={
                (0,): lambda pts, u, derivs: derivs[(1,)],
                (1,): lambda pts, u, derivs: u,
            },
            orders=((1,),),
        ),
    )


class TestPicardRows:
    @pytest.mark.parametrize(
        "live, row, rhs",
        [
            # Picard keeps u_x live with the lagged coefficient u = 3:
            # [0,0,2] + 3*[0,1,2]; rhs f - u u_x + u*u_x = 1 - 6 + 6
            (((1,),), [0.0, 3.0, 8.0], 1.0),
            # Newton adds u_x * phi = 2*[1,1,1]; rhs gains u_x * u = 6
            (((0,), (1,)), [2.0, 5.0, 10.0], 7.0),
        ],
        ids=["picard", "newton"],
    )
    def test_advection_rows_by_live_slot(self, live, row, rhs):
        pts = np.array([[1.0]])
        ev = monomial_eval(pts, 2, [(1,), (2,)])
        u, derivs = np.array([3.0]), {(1,): np.array([2.0])}
        block = assemble_pde_rows(
            advection_problem(), GlobalIndexing(1, 3), 0, pts, ev, u, derivs, live=live
        )
        np.testing.assert_allclose(block.to_dense(), [row])
        np.testing.assert_allclose(block.rhs, [rhs])

    def test_lagged_advection_rhs_is_the_source_exactly(self):
        # u u_x - u * u_x cancels before it meets the source; at this size
        # f - u u_x + u u_x would round the source f = 1 away entirely
        pts = np.linspace(0.1, 1.9, 7)[:, None]
        ev = monomial_eval(pts, 2, [(1,), (2,)])
        u, derivs = 1e9 * np.pi * pts[:, 0] ** 3, {(1,): 1e9 * np.e / pts[:, 0]}
        block = assemble_pde_rows(
            advection_problem(), GlobalIndexing(1, 3), 0, pts, ev, u, derivs, live=((1,),)
        )
        np.testing.assert_array_equal(block.rhs, np.ones(7))


class TestNewtonRows:
    def test_linearized_rows_add_partial_terms(self):
        # N(u) = u^2 linearizes to 2 u phi_j against the basis
        problem = ProblemSpec(
            name="quad",
            domain=DomainSpec.interval(0.0, 2.0),
            linear_terms=(LinearTerm(1.0, (2,)),),
            source=lambda pts: np.zeros(pts.shape[0]),
            boundary=lambda pts: np.zeros(pts.shape[0]),
            nonlinear=NonlinearTerm(
                value=lambda pts, u, derivs: u * u,
                partials={(0,): lambda pts, u, derivs: 2 * u},
            ),
        )
        pts = np.array([[1.0]])
        ev = monomial_eval(pts, 2, [(2,)])
        u = np.array([3.0])
        block = assemble_pde_rows(
            problem,
            GlobalIndexing(1, 3),
            0,
            pts,
            ev,
            u,
            {(2,): np.array([0.0])},
            live=tuple(problem.nonlinear.partials),
        )
        # J row: d2(phi)/dx2 + 2u*phi at x=1 -> [0,0,2] + 6*[1,1,1]
        np.testing.assert_allclose(block.to_dense(), [[6.0, 6.0, 8.0]])
        # direct form: rhs = f - N(u) + dN/du * u = 0 - 9 + 6*3
        np.testing.assert_allclose(block.rhs, [9.0])


class TestBoundaryRows:
    def test_monomials_at_left_endpoint(self):
        problem = helmholtz_like()
        pts = PointSet(
            points=np.array([[0.0]]),
            owners=np.array([0]),
            initial_mask=np.array([False]),
        )
        values = monomial_eval(pts.points, 1).values
        block = assemble_boundary_rows(problem, GlobalIndexing(2, 2), pts, values)
        np.testing.assert_allclose(block.to_dense(), [[1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(block.rhs, [7.0])

    def test_owner_controls_column_block(self):
        problem = helmholtz_like()
        pts = PointSet(
            points=np.array([[0.0], [2.0]]),
            owners=np.array([0, 1]),
            initial_mask=np.array([False, False]),
        )
        values = monomial_eval(pts.points, 1).values
        block = assemble_boundary_rows(problem, GlobalIndexing(2, 2), pts, values)
        dense = block.to_dense()
        np.testing.assert_allclose(dense[0], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(dense[1], [0.0, 0.0, 1.0, 2.0])

    def test_initial_mask_switches_to_initial_data(self):
        domain = DomainSpec.space_time([(0.0, 2.0)], (0.0, 1.0))
        problem = ProblemSpec(
            name="heat",
            domain=domain,
            linear_terms=(LinearTerm(1.0, (0, 1)), LinearTerm(-1.0, (2, 0))),
            source=lambda pts: np.zeros(pts.shape[0]),
            boundary=lambda pts: np.full(pts.shape[0], 5.0),
            initial=lambda pts: 2.0 * np.sin(np.pi * pts[:, 0]),
        )
        pts = PointSet(
            points=np.array([[0.0, 0.5], [0.25, 0.0]]),
            owners=np.array([0, 0]),
            initial_mask=np.array([False, True]),
        )
        values = np.ones((2, 1))
        block = assemble_boundary_rows(problem, GlobalIndexing(1, 1), pts, values)
        np.testing.assert_allclose(block.rhs, [5.0, 2.0 * np.sin(np.pi * 0.25)])

    def test_missing_owners_rejected(self):
        problem = helmholtz_like()
        pts = PointSet(points=np.array([[0.0]]))
        with pytest.raises(ValueError):
            assemble_boundary_rows(problem, GlobalIndexing(1, 1), pts, np.ones((1, 1)))


class TestContinuityRows:
    def interface(self, order=1):
        return InterfaceSpec(
            left=0, right=1, axis=0, facet_bounds=((1.0, 1.0),), continuity_order=order
        )

    def test_value_row_for_linear_basis(self):
        iface = self.interface(order=0)
        pts = np.array([[1.0]])
        ev = monomial_eval(pts, 1, [(1,)])
        block = assemble_continuity_rows(iface, GlobalIndexing(2, 2), pts, ev, ev)
        np.testing.assert_allclose(block.to_dense(), [[1.0, 1.0, -1.0, -1.0]])
        np.testing.assert_allclose(block.rhs, [0.0])

    def test_first_order_row_added(self):
        iface = self.interface(order=1)
        pts = np.array([[1.0]])
        ev = monomial_eval(pts, 1, [(1,)])
        block = assemble_continuity_rows(iface, GlobalIndexing(2, 2), pts, ev, ev)
        dense = block.to_dense()
        assert dense.shape == (2, 4)
        np.testing.assert_allclose(dense[1], [0.0, 1.0, 0.0, -1.0])

    def test_identical_sides_cancel_for_equal_coefficients(self):
        iface = self.interface(order=1)
        pts = np.array([[1.0]])
        ev = monomial_eval(pts, 3, [(1,)])
        block = assemble_continuity_rows(iface, GlobalIndexing(2, 4), pts, ev, ev)
        beta = np.tile(np.array([0.3, -1.0, 2.0, 0.5]), 2)
        np.testing.assert_allclose(block.to_dense() @ beta, 0.0, atol=1e-14)


class TestRowBlockMatvec:
    """The block product against the dense rows it stands for."""

    def random_eval(self, rng, n, M, orders):
        return BasisEval(
            values=rng.normal(size=(n, M)),
            derivs={alpha: rng.normal(size=(n, M)) for alpha in orders},
        )

    def test_continuity_block_matches_dense(self):
        rng = np.random.default_rng(3)
        iface = InterfaceSpec(
            left=0, right=2, axis=0, facet_bounds=((1.0, 1.0),), continuity_order=1
        )
        indexing = GlobalIndexing(3, 4)
        pts = np.linspace(0.0, 1.0, 5)[:, None]
        left, right = (self.random_eval(rng, 5, 4, [(1,)]) for _ in range(2))
        block = assemble_continuity_rows(iface, indexing, pts, left, right)
        beta = rng.normal(size=indexing.width)
        out = block.matvec(beta)
        np.testing.assert_allclose(out, block.to_dense() @ beta, rtol=1e-14, atol=0)
        # order-major rows: all value jumps, then all first-derivative jumps
        bl, br = beta[0:4], beta[8:12]
        np.testing.assert_allclose(out[:5], left.values @ bl - right.values @ br, rtol=1e-14)
        np.testing.assert_allclose(
            out[5:], left.deriv((1,)) @ bl - right.deriv((1,)) @ br, rtol=1e-14
        )

    def test_boundary_block_with_three_owner_runs(self):
        rng = np.random.default_rng(4)
        owners = np.array([0, 0, 1, 1, 1, 2])
        pts = PointSet(
            points=np.linspace(0.0, 2.0, 6)[:, None],
            owners=owners,
            initial_mask=np.zeros(6, dtype=bool),
        )
        indexing = GlobalIndexing(3, 4)
        block = assemble_boundary_rows(helmholtz_like(), indexing, pts, rng.normal(size=(6, 4)))
        assert len(block.pieces) == 3
        beta = rng.normal(size=indexing.width)
        np.testing.assert_allclose(
            block.matvec(beta), block.to_dense() @ beta, rtol=1e-14, atol=0
        )


class TestAssembleGlobal:
    def test_single_block_round_trip(self):
        problem = helmholtz_like()
        indexing = GlobalIndexing(1, 3)
        pts = np.array([[0.5], [1.0]])
        ev = monomial_eval(pts, 2, [(2,)])
        block = assemble_pde_rows(problem, indexing, 0, pts, ev)
        system = assemble_global([block], indexing)
        matrix, rhs = system.dense()
        np.testing.assert_array_equal(matrix, block.to_dense())
        np.testing.assert_array_equal(rhs, block.rhs)
        # the compressed rows keep the row-scaled system's Gram matrix
        scaled = matrix / np.linalg.norm(matrix, axis=1)[:, None]
        np.testing.assert_allclose(system.matrix.T @ system.matrix, scaled.T @ scaled, atol=1e-14)

    def test_width_mismatch(self):
        indexing = GlobalIndexing(2, 2)
        bad = RowBlock(width=3, n_rows=1, rhs=np.zeros(1), pieces=[])
        with pytest.raises(ValueError):
            assemble_global([bad], indexing)

    def test_block_system_shape(self):
        # 4 subdomains of [0, 8], 50 points each, C0+C1 interfaces: the
        # stacked system is (200 + 2 + 3*2) x (4*100)
        problem = ProblemSpec(
            name="shape",
            domain=DomainSpec.interval(0.0, 8.0),
            linear_terms=(LinearTerm(1.0, (2,)), LinearTerm(-10.0, (0,))),
            source=lambda pts: np.zeros(pts.shape[0]),
            boundary=lambda pts: np.zeros(pts.shape[0]),
        )
        subs, ifaces = partition(problem.domain, PartitionSpec((4,)), (1,))
        M = 100
        indexing = GlobalIndexing(4, M)
        rng = np.random.default_rng(0)

        def fake_eval(pts, orders):
            n = np.atleast_2d(pts).shape[0]
            return BasisEval(
                values=rng.normal(size=(n, M)),
                derivs={alpha: rng.normal(size=(n, M)) for alpha in orders},
            )

        blocks = []
        for sub in subs:
            pts = sample_interior(sub, "uniform", [50])
            blocks.append(
                assemble_pde_rows(problem, indexing, sub.index, pts, fake_eval(pts.points, [(2,)]))
            )
        bnd = sample_boundary(problem.domain, subs, [50])
        blocks.append(
            assemble_boundary_rows(problem, indexing, bnd, fake_eval(bnd.points, []).values)
        )
        for iface in ifaces:
            ipts = sample_interface(iface, [])
            ev = fake_eval(ipts.points, [(1,)])
            blocks.append(assemble_continuity_rows(iface, indexing, ipts, ev, ev))
        system = assemble_global(blocks, indexing)
        # every cell has fewer local rows than M = 100, so none is compressed
        assert system.matrix.shape == (200 + 2 + 6, 400)
        assert system.collocation_rows == 200 + 2 + 6

    def test_single_subdomain_has_no_continuity_rows(self):
        problem = helmholtz_like()
        subs, ifaces = partition(problem.domain, PartitionSpec((1,)), (1,))
        assert ifaces == []


def one_cell_system(A, b):
    """The compressed system of the rows ``A x = b``, all in one column block."""
    A = np.asarray(A, dtype=float)
    block = RowBlock(
        width=A.shape[1], n_rows=A.shape[0], rhs=np.asarray(b, dtype=float), pieces=[_Piece(0, 0, A)]
    )
    return assemble_global([block], GlobalIndexing(1, A.shape[1]))


class TestSolveLeastSquares:
    def test_identity(self):
        b = np.array([3.0, -1.0])
        beta, resid = solve_least_squares(one_cell_system(np.eye(2), b))
        np.testing.assert_allclose(beta.values, b)
        assert resid == pytest.approx(0.0, abs=1e-14)

    def test_overdetermined_mean(self):
        beta, resid = solve_least_squares(one_cell_system(np.array([[1.0], [1.0]]), [0.0, 2.0]))
        np.testing.assert_allclose(beta.values, [1.0])
        assert resid == pytest.approx(np.sqrt(2.0))

    def test_minimum_norm_for_rank_deficient(self):
        beta, _ = solve_least_squares(one_cell_system(np.array([[1.0, 1.0]]), [2.0]))
        np.testing.assert_allclose(beta.values, [1.0, 1.0])

    def test_normal_equations_residual(self):
        # The solve scales every row to unit norm first, so beta solves the
        # normal equations of the row-scaled system.
        rng = np.random.default_rng(42)
        A = rng.normal(size=(40, 12))
        b = rng.normal(size=40)
        beta, _ = solve_least_squares(one_cell_system(A, b))
        weights = 1.0 / np.sqrt(np.sum(A * A, axis=1))
        A_rows, b_rows = A * weights[:, None], b * weights
        gradient = A_rows.T @ (A_rows @ beta.values - b_rows)
        bound = 1e-8 * np.linalg.norm(A_rows) * np.linalg.norm(b_rows)
        assert np.linalg.norm(gradient) <= bound

    def test_residual_is_that_of_the_unscaled_system(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(25, 6)) * np.logspace(-3, 3, 25)[:, None]
        b = rng.normal(size=25)
        system = one_cell_system(A, b)
        beta, resid = solve_least_squares(system)
        assert resid == pytest.approx(np.linalg.norm(A @ beta.values - b), rel=1e-12)

    def test_one_row_scaled_by_1e8_leaves_beta(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(30, 8))
        b = rng.normal(size=30)  # inconsistent: the row weights matter
        beta1, _ = solve_least_squares(one_cell_system(A, b))
        A[4] *= 1e8
        b[4] *= 1e8
        beta2, _ = solve_least_squares(one_cell_system(A, b))
        error = np.linalg.norm(beta2.values - beta1.values)
        assert error <= 1e-10 * np.linalg.norm(beta1.values)

    def test_one_column_scaled_by_1e_minus_8_leaves_beta(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(30, 8))
        b = A @ rng.normal(size=8)  # consistent, so the row weights do not matter
        beta1, _ = solve_least_squares(one_cell_system(A, b))
        A[:, 2] *= 1e-8
        beta2, _ = solve_least_squares(one_cell_system(A, b))
        unscaled = beta2.values.copy()
        unscaled[2] *= 1e-8
        error = np.linalg.norm(unscaled - beta1.values)
        assert error <= 1e-10 * np.linalg.norm(beta1.values)

    def test_solve_consumes_the_matrix(self):
        # The column scaling is done in place: the system's matrix is
        # overwritten by its scaled self.
        system = one_cell_system(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]), [1.0, 2.0, 0.0])
        matrix = system.matrix
        assert not np.allclose(np.linalg.norm(matrix, axis=0), 1.0)
        solve_least_squares(system)
        assert system.matrix is matrix
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=0), 1.0, rtol=1e-15)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(30, 8))
        b = rng.normal(size=30)
        perm = rng.permutation(30)
        beta1, _ = solve_least_squares(one_cell_system(A, b))
        beta2, _ = solve_least_squares(one_cell_system(A[perm], b[perm]))
        assert np.max(np.abs(beta1.values - beta2.values)) <= 1e-10

    def test_non_finite_rejected(self):
        A = np.array([[np.nan]])
        with pytest.raises(ValueError):
            solve_least_squares(one_cell_system(A, [1.0]))

    def test_row_too_large_to_scale_rejected(self):
        # Its squared norm overflows; scaling by an infinite norm would
        # silently zero the row.
        A = np.array([[1e200, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="too large to scale"):
            solve_least_squares(one_cell_system(A, [1.0, 1.0]))

    def test_log_reports_rank_and_sigma_max(self):
        log = LstsqLog()
        _, resid = solve_least_squares(one_cell_system(np.array([[1.0, 1.0]]), [2.0]), log)
        solve_least_squares(one_cell_system(np.eye(2), [1.0, 1.0]), log)
        assert len(log.residual) == len(log.rank) == len(log.sigma_max) == 2
        assert log.residual[0] == resid
        assert log.rank == [1, 2]
        assert log.sigma_max == pytest.approx([np.sqrt(2.0), 1.0])

    def test_cutoff_keeps_4e14_and_drops_4e15(self):
        # RCOND = 1e-14 relative, applied to the equilibrated matrix: after
        # rows are scaled to unit norm, compressed by the QR of [A | b] and
        # then columns scaled to unit norm, the third singular value (3.8e-14
        # of the largest) stays and the fourth (4.4e-15) goes.  The scaling
        # and the QR are formed here as the solve forms them, so both SVDs
        # see the same matrix to the last bit.
        rng = np.random.default_rng(11)
        q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        A = q1 @ np.diag([1.0, 1e-6, 3e-14, 3e-15]) @ q2.T
        b = rng.normal(size=4)
        rows = np.sqrt(np.einsum("ij,ij->i", A, A))
        r = np.linalg.qr(np.column_stack([A / rows[:, None], b / rows]), mode="r")
        scaled, c = r[:4, :4], r[:4, 4]
        cols = np.sqrt(np.einsum("ij,ij->j", scaled, scaled))
        scaled = scaled / cols
        u, s, vt = np.linalg.svd(scaled)
        assert 1e-14 < s[2] / s[0] < 1e-13 and 1e-15 < s[3] / s[0] < 1e-14
        expected = (vt[:3].T @ ((u[:, :3].T @ c) / s[:3])) / cols
        log = LstsqLog()
        beta, _ = solve_least_squares(one_cell_system(A, b), log)
        assert log.rank == [3]
        assert np.linalg.norm(beta.values - expected) <= 1e-10 * np.linalg.norm(expected)


class TestCompressedSystem:
    """The factor of the row-scaled system against the full row- and column-equilibrated solve."""

    M = 6
    # 2x2 cells, row-major: cell 0's rows with cell 2 reach two column
    # blocks ahead, so the rows front 0 carries cross front 1 into front 2
    GRID_2X2 = ((0, 1), (0, 2), (1, 3), (2, 3))

    def blocks(self, local_rows, interfaces=None, seed=0):
        # A PDE block per cell (rows of widely different norms), boundary
        # rows owned by the first and last cells, and C1 continuity rows at
        # 3 points of each interface (by default, between neighbours in a row).
        rng = np.random.default_rng(seed)
        cells = len(local_rows)
        if interfaces is None:
            interfaces = [(k, k + 1) for k in range(cells - 1)]
        indexing = GlobalIndexing(cells, self.M)
        width = indexing.width
        blocks = []
        for k, r in enumerate(local_rows):
            values = rng.normal(size=(r, self.M)) * 10.0 ** rng.uniform(-3, 3, (r, 1))
            blocks.append(RowBlock(width, r, rng.normal(size=r), [_Piece(0, indexing.col_offset(k), values)]))
        values = rng.normal(size=(3, self.M))
        blocks.append(
            RowBlock(
                width,
                3,
                rng.normal(size=3),
                [_Piece(0, 0, values[:2]), _Piece(2, indexing.col_offset(cells - 1), values[2:])],
            )
        )
        for left_id, right_id in interfaces:
            iface = InterfaceSpec(
                left=left_id, right=right_id, axis=0, facet_bounds=((1.0, 1.0),), continuity_order=1
            )
            left, right = (
                BasisEval(values=rng.normal(size=(3, self.M)), derivs={(1,): rng.normal(size=(3, self.M))})
                for _ in range(2)
            )
            blocks.append(assemble_continuity_rows(iface, indexing, np.zeros((3, 1)), left, right))
        return blocks, indexing

    LAYOUTS = pytest.mark.parametrize(
        "local_rows, interfaces",
        [((20, 4, 15), None), ((6, 7, 5), None), ((2, 30), None), ((9, 8, 10, 7), GRID_2X2)],
        ids=["tall-short-tall", "all-tall", "short-tall", "grid2x2"],
    )

    def test_matches_uncompressed_equilibrated_reference(self):
        blocks, indexing = self.blocks((20, 4, 15))
        matrix, rhs = assemble_global(blocks, indexing).dense()
        rows = np.linalg.norm(matrix, axis=1)
        A, b = matrix / rows[:, None], rhs / rows
        cols = np.linalg.norm(A, axis=0)
        y, _, rank, sigma = np.linalg.lstsq(A / cols, b, rcond=RCOND)
        expected = y / cols
        assert rank == indexing.width  # full rank, so the minimizer is unique

        log = LstsqLog()
        beta, resid = solve_least_squares(assemble_global(blocks, indexing), log)
        assert np.linalg.norm(beta.values - expected) <= 1e-10 * np.linalg.norm(expected)
        assert log.rank == [rank]
        assert log.sigma_max[0] == pytest.approx(sigma[0], rel=1e-10)
        assert resid == pytest.approx(np.linalg.norm(matrix @ beta.values - rhs), rel=1e-12)

    @LAYOUTS
    def test_factor_is_upper_block_triangular(self, local_rows, interfaces):
        blocks, indexing = self.blocks(local_rows, interfaces)
        system = assemble_global(blocks, indexing)
        R = system.matrix
        assert R.shape[0] <= indexing.width and R.shape[1] == indexing.width
        # each row starts right of the row above, so no row reaches back
        # into an earlier column block than its own front's
        leading = [np.flatnonzero(row)[0] for row in R]
        assert np.all(np.diff(leading) > 0)

    @LAYOUTS
    def test_factor_keeps_normal_equations(self, local_rows, interfaces):
        blocks, indexing = self.blocks(local_rows, interfaces)
        system = assemble_global(blocks, indexing)
        matrix, rhs = system.dense()
        rows = np.linalg.norm(matrix, axis=1)
        full = np.column_stack([matrix, rhs]) / rows[:, None]
        expected = full[:, :-1].T @ full
        got = system.matrix.T @ np.column_stack([system.matrix, system.rhs])
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_system_too_large_for_memory_refused(self, monkeypatch):
        blocks, indexing = self.blocks((20, 4, 15))
        need = 2 * 18 * indexing.width * 8
        monkeypatch.setattr(assembly, "_physical_memory", lambda: need)
        assemble_global(blocks, indexing)
        monkeypatch.setattr(assembly, "_physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match=r"18 x 18 .* physical memory"):
            assemble_global(blocks, indexing)


class TestPolynomialOracle:
    """Assembled solve must recover an in-span manufactured solution."""

    def test_cubic_recovery_across_two_subdomains(self):
        exact = lambda pts: pts[:, 0] ** 3 - 2.0 * pts[:, 0]
        problem = ProblemSpec(
            name="cubic",
            domain=DomainSpec.interval(0.0, 2.0),
            linear_terms=(LinearTerm(1.0, (2,)), LinearTerm(-1.0, (0,))),
            source=lambda pts: -pts[:, 0] ** 3 + 8.0 * pts[:, 0],
            boundary=exact,
            exact=exact,
        )
        subs, ifaces = partition(problem.domain, PartitionSpec((2,)), (1,))
        indexing = GlobalIndexing(2, 6)
        orders = problem.operator_orders()
        blocks = []
        for sub in subs:
            pts = sample_interior(sub, "uniform", [20])
            blocks.append(
                assemble_pde_rows(
                    problem, indexing, sub.index, pts, monomial_eval(pts.points, 5, orders)
                )
            )
        bnd = sample_boundary(problem.domain, subs, [20])
        blocks.append(
            assemble_boundary_rows(
                problem, indexing, bnd, monomial_eval(bnd.points, 5).values
            )
        )
        for iface in ifaces:
            ipts = sample_interface(iface, [])
            ev = monomial_eval(ipts.points, 5, [(1,)])
            blocks.append(assemble_continuity_rows(iface, indexing, ipts, ev, ev))
        system = assemble_global(blocks, indexing)
        beta, _ = solve_least_squares(system)

        grid = np.linspace(0, 2, 201)[:, None]
        u = np.where(
            grid[:, 0] <= 1.0,
            monomial_eval(grid, 5).values @ beta.block(0),
            monomial_eval(grid, 5).values @ beta.block(1),
        )
        assert np.max(np.abs(u - exact(grid))) <= 1e-10

    def test_block_locality(self):
        # PDE rows only touch their own column block; continuity rows two
        problem = helmholtz_like()
        subs, ifaces = partition(problem.domain, PartitionSpec((2,)), (1,))
        indexing = GlobalIndexing(2, 4)
        orders = problem.operator_orders()
        blocks = []
        for sub in subs:
            pts = sample_interior(sub, "uniform", [6])
            blocks.append(
                assemble_pde_rows(
                    problem, indexing, sub.index, pts, monomial_eval(pts.points, 3, orders)
                )
            )
        system = assemble_global(blocks, indexing)
        # each cell's 6 rows compress to M = 4 rows in its own column block
        assert system.matrix.shape == (8, 8)
        np.testing.assert_array_equal(system.matrix[:4, 4:], 0.0)
        np.testing.assert_array_equal(system.matrix[4:, :4], 0.0)
        matrix, _ = system.dense()
        np.testing.assert_array_equal(matrix[:6, 4:], 0.0)
        np.testing.assert_array_equal(matrix[6:, :4], 0.0)


class TestUtilities:
    def test_dump_npz(self, tmp_path):
        # the file holds the full unscaled system, not the compressed one
        A = np.arange(6.0).reshape(3, 2)
        system = one_cell_system(A, [1.0, 2.0, 3.0])
        assert system.matrix.shape == (2, 2)

        npz = tmp_path / "system.npz"
        dump_system(system, npz)
        loaded = np.load(npz)
        np.testing.assert_array_equal(loaded["matrix"], A)
        np.testing.assert_array_equal(loaded["rhs"], [1.0, 2.0, 3.0])

    def test_dump_unknown_extension(self, tmp_path):
        indexing = GlobalIndexing(1, 1)
        block = RowBlock(width=1, n_rows=1, rhs=np.zeros(1), pieces=[])
        system = assemble_global([block], indexing)
        with pytest.raises(ValueError):
            dump_system(system, tmp_path / "system.txt")
