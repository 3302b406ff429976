"""Benchmark definitions: manufactured consistency, partials, norms."""

import numpy as np
import pytest

from subspacepde.problems import (
    BUILTIN_NAMES,
    ErrorNorms,
    LinearTerm,
    ProblemSpec,
    builtin,
    error_norms,
)


def random_points(problem, n, rng, margin=0.0):
    lo = np.array([a for a, _ in problem.domain.axes])
    hi = np.array([b for _, b in problem.domain.axes])
    pad = margin * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(n, problem.dim))


class TestBuiltins:
    def test_all_names_construct(self):
        for name in BUILTIN_NAMES:
            assert builtin(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            builtin("laplace3d")

    def test_helmholtz_exact_value(self):
        p = builtin("helmholtz1d")
        # sin(3 pi /20) cos(pi / 10) + 2 at x = 0
        expected = np.sin(3 * np.pi / 20) * np.cos(np.pi / 10) + 2.0
        assert p.exact(np.array([[0.0]]))[0] == pytest.approx(expected, abs=1e-15)

    def test_boundary_layer_source_formula(self):
        p = builtin("boundary_layer1d")
        x = np.array([[0.3]])
        expected = 0.01 * np.pi**2 * np.sin(0.3 * np.pi) + np.pi * np.cos(0.3 * np.pi)
        assert p.source(x)[0] == pytest.approx(expected, rel=1e-15)

    def test_burgers_nonlinear_partials_plug_in(self):
        p = builtin("burgers1d")
        pts = np.array([[1.0, 0.5]])
        u = np.array([1.0])
        derivs = {(1, 0): np.array([1.0]), (2, 0): np.array([0.0]), (0, 1): np.array([0.0])}
        assert p.nonlinear.value(pts, u, derivs)[0] == 1.0
        assert p.nonlinear.partials[(0, 0)](pts, u, derivs)[0] == 1.0  # dN/du = u_x
        assert p.nonlinear.partials[(1, 0)](pts, u, derivs)[0] == 1.0  # dN/du_x = u

    def test_default_continuity_orders(self):
        assert builtin("helmholtz1d").default_continuity_orders() == (1,)
        assert builtin("poisson2d").default_continuity_orders() == (1, 1)
        # second order in space, first order in time
        assert builtin("parabolic1d").default_continuity_orders() == (1, 0)
        assert builtin("burgers1d").default_continuity_orders() == (1, 0)


class TestManufacturedConsistency:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_exact_solution_zeroes_residual(self, name):
        p = builtin(name)
        rng = np.random.default_rng(17)
        pts = random_points(p, 1000, rng)
        u = p.exact(pts)
        derivs = {alpha: fn(pts) for alpha, fn in p.exact_derivs.items()}
        res = p.residual(pts, u, derivs)
        assert np.max(np.abs(res)) <= 1e-9

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_exact_derivatives_match_differences(self, name):
        # first derivatives against value differences; second derivatives
        # against differences of the analytic first derivatives
        p = builtin(name)
        rng = np.random.default_rng(3)
        pts = random_points(p, 200, rng, margin=0.01)
        scale = max(hi - lo for lo, hi in p.domain.axes)
        h = 1e-7 * scale
        for alpha, fn in p.exact_derivs.items():
            step = np.zeros(p.dim)
            nz = [s for s, a in enumerate(alpha) if a > 0]
            if sum(alpha) == 1:
                step[nz[0]] = h
                fd = (p.exact(pts + step) - p.exact(pts - step)) / (2 * h)
            elif len(nz) == 1 and alpha[nz[0]] == 2:
                first = tuple(1 if s == nz[0] else 0 for s in range(p.dim))
                step[nz[0]] = h
                fd = (p.exact_derivs[first](pts + step) - p.exact_derivs[first](pts - step)) / (2 * h)
            else:
                continue
            np.testing.assert_allclose(fn(pts), fd, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("name", ["nonlinear_helmholtz1d", "burgers1d"])
    def test_nonlinear_partials_match_differences(self, name):
        p = builtin(name)
        rng = np.random.default_rng(11)
        term = p.nonlinear
        pts = random_points(p, 200, rng)
        u = rng.normal(size=200)
        derivs = {alpha: rng.normal(size=200) for alpha in p.operator_orders()}
        h = 1e-6
        for alpha, partial in term.partials.items():
            got = partial(pts, u, derivs)
            if sum(alpha) == 0:
                fd = (term.value(pts, u + h, derivs) - term.value(pts, u - h, derivs)) / (2 * h)
            else:
                up = dict(derivs)
                up[alpha] = derivs[alpha] + h
                dn = dict(derivs)
                dn[alpha] = derivs[alpha] - h
                fd = (term.value(pts, u, up) - term.value(pts, u, dn)) / (2 * h)
            np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_boundary_and_initial_agree_with_exact(self, name):
        p = builtin(name)
        rng = np.random.default_rng(5)
        t_axis = p.domain.temporal_axis
        for axis in range(p.dim):
            for side in (0, 1):
                if axis == t_axis and side == 1:
                    continue
                pts = random_points(p, 50, rng)
                pts[:, axis] = p.domain.axes[axis][side]
                if axis == t_axis:
                    np.testing.assert_allclose(p.initial(pts), p.exact(pts), atol=1e-12)
                else:
                    np.testing.assert_allclose(p.boundary(pts), p.exact(pts), atol=1e-12)


class TestResidualAt:
    """`ProblemSpec.residual` at single points with plugged-in values."""

    def test_zero_function_on_helmholtz(self):
        p = builtin("helmholtz1d")
        x = np.array([[1.3]])
        res = p.residual(x, np.zeros(1), {(1,): np.zeros(1), (2,): np.zeros(1)})
        assert res[0] == pytest.approx(-p.source(x)[0], rel=1e-15)

    def test_burgers_plug_in(self):
        # at x = pi/2 the source vanishes, so u=1, u_x=1 and zero higher
        # derivatives leave exactly the advection product
        p = builtin("burgers1d")
        pt = np.array([[np.pi / 2, 0.5]])
        assert p.source(pt)[0] == pytest.approx(0.0, abs=1e-16)
        derivs = {(1, 0): np.ones(1), (0, 1): np.zeros(1), (2, 0): np.zeros(1)}
        res = p.residual(pt, np.ones(1), derivs)
        assert res[0] == pytest.approx(1.0, rel=1e-12)

    def test_missing_derivative(self):
        p = builtin("helmholtz1d")
        with pytest.raises(KeyError):
            p.residual(np.array([[1.0]]), np.zeros(1), {})


class TestErrorNorms:
    def test_zero_error(self):
        norms = error_norms(np.ones(3), np.ones(3))
        assert norms == ErrorNorms(0.0, 0.0, 0.0)

    def test_constant_error_unit_exact(self):
        c = 0.25
        norms = error_norms(np.full(4, 1 + c), np.ones(4))
        assert norms.l2_abs == pytest.approx(c)
        assert norms.l2_rel == pytest.approx(c)
        assert norms.linf == pytest.approx(c)

    def test_two_point_hand_case(self):
        norms = error_norms(np.array([3.0, 1.0]), np.array([2.0, 2.0]))
        assert norms.l2_abs == pytest.approx(1.0)
        assert norms.l2_rel == pytest.approx(0.5)
        assert norms.linf == pytest.approx(1.0)

    def test_zero_exact_relative_absent(self):
        norms = error_norms(np.array([1.0, -1.0]), np.zeros(2))
        assert norms.l2_rel is None
        assert norms.l2_abs == pytest.approx(1.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            error_norms(np.empty(0), np.empty(0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_exact_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            error_norms(np.zeros(3), np.array([1.0, bad, 1.0]))


class TestProblemSpecValidation:
    def test_linear_term_order_cap(self):
        with pytest.raises(ValueError):
            LinearTerm(1.0, (3,))

    def test_term_dimension_checked(self):
        from subspacepde.geometry import DomainSpec

        with pytest.raises(ValueError):
            ProblemSpec(
                name="bad",
                domain=DomainSpec.interval(0, 1),
                linear_terms=(LinearTerm(1.0, (2, 0)),),
                source=lambda p: np.zeros(p.shape[0]),
                boundary=lambda p: np.zeros(p.shape[0]),
            )

    def test_space_time_requires_initial(self):
        from subspacepde.geometry import DomainSpec

        with pytest.raises(ValueError):
            ProblemSpec(
                name="bad",
                domain=DomainSpec.space_time([(0, 1)], (0, 1)),
                linear_terms=(LinearTerm(1.0, (0, 1)),),
                source=lambda p: np.zeros(p.shape[0]),
                boundary=lambda p: np.zeros(p.shape[0]),
            )

    @pytest.mark.parametrize("orders", [(3,), (-1,)], ids=["3", "-1"])
    def test_continuity_order_outside_0_to_2_rejected(self, orders):
        from subspacepde.geometry import DomainSpec

        with pytest.raises(ValueError, match="continuity orders"):
            ProblemSpec(
                name="bad",
                domain=DomainSpec.interval(0, 1),
                linear_terms=(LinearTerm(1.0, (2,)),),
                source=lambda p: np.zeros(p.shape[0]),
                boundary=lambda p: np.zeros(p.shape[0]),
                continuity_orders=orders,
            )

    def test_linearize_every_partial_merges_linear_and_nonlinear(self):
        p = builtin("burgers1d")
        rng = np.random.default_rng(1)
        pts = random_points(p, 10, rng)
        u = rng.normal(size=10)
        derivs = {alpha: rng.normal(size=10) for alpha in p.operator_orders()}
        w = p.linearize(pts, u, derivs, tuple(p.nonlinear.partials))[0]
        # d/du_x picks up the frozen u from the advection term
        np.testing.assert_allclose(w[(1, 0)], u)
        # time derivative coefficient is the constant 1
        np.testing.assert_allclose(w[(0, 1)], 1.0)
        np.testing.assert_allclose(w[(2, 0)], -0.01)
        np.testing.assert_allclose(w[(0, 0)], derivs[(1, 0)])

    def test_linearize_lagged_advection_leaves_no_remainder(self):
        # Picard's u u_x with u_x live: the weight of (1, 0) is its linear
        # coefficient (none) plus u, and N - u * u_x cancels exactly.
        p = builtin("burgers1d")
        rng = np.random.default_rng(2)
        pts = random_points(p, 10, rng)
        u = rng.normal(size=10)
        derivs = {alpha: rng.normal(size=10) for alpha in p.operator_orders()}
        w, remainder = p.linearize(pts, u, derivs, live=((1, 0),))
        assert set(w) == {(0, 1), (2, 0), (1, 0)}
        np.testing.assert_array_equal(w[(1, 0)], u)
        np.testing.assert_array_equal(remainder, 0.0)

    def test_linearize_without_iterate_is_the_linear_part(self):
        p = builtin("burgers1d")
        pts = random_points(p, 4, np.random.default_rng(3))
        w, remainder = p.linearize(pts)
        assert remainder is None
        assert set(w) == {(0, 1), (2, 0)}
        np.testing.assert_array_equal(w[(2, 0)], -0.01)
