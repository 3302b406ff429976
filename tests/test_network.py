"""Network evaluation: normalization, initialization, exact derivatives."""

import numpy as np
import pytest

from subspacepde.geometry import SubdomainSpec
from subspacepde.network import (
    BasisEval,
    CoefficientVector,
    NetworkConfig,
    NetworkParams,
    _split_orders,
    eval_basis,
    eval_solution,
    init_params,
    normalize,
)


def subdomain(bounds):
    return SubdomainSpec(index=0, multi_index=(0,) * len(bounds), bounds=tuple(bounds))


class TestNormalize:
    def test_midpoint_maps_to_zero(self):
        z, chain = normalize(np.array([[1.0]]), subdomain([(0.0, 2.0)]))
        assert z[0, 0] == 0.0
        assert chain[0] == 1.0

    def test_lower_endpoint(self):
        z, _ = normalize(np.array([[0.0]]), subdomain([(0.0, 2.0)]))
        assert z[0, 0] == -1.0

    def test_width_two_cell(self):
        z, chain = normalize(np.array([[7.0]]), subdomain([(6.0, 8.0)]))
        assert z[0, 0] == 0.0
        assert chain[0] == 1.0

    def test_range_is_unit_box(self):
        rng = np.random.default_rng(0)
        sub = subdomain([(0.0, 3.0), (-2.0, 5.0)])
        pts = rng.uniform([0, -2], [3, 5], size=(100, 2))
        z, _ = normalize(pts, sub)
        assert np.all(z >= -1) and np.all(z <= 1)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.array([[2.1]]), subdomain([(0.0, 2.0)]))


class TestInitParams:
    def test_uniform_range_bounds(self):
        cfg = NetworkConfig(input_dim=2, hidden_widths=(8,), subspace_dim=5, init_range=1.0)
        params = init_params(cfg, "uniform_range", seed=1)
        for W, b in zip(params.weights, params.biases):
            assert np.all(np.abs(W) <= 1.0) and np.all(np.abs(b) <= 1.0)

    def test_zero_range_gives_zero_params(self):
        cfg = NetworkConfig(input_dim=1, hidden_widths=(4,), subspace_dim=3, init_range=0.0)
        params = init_params(cfg, "uniform_range", seed=1)
        for W, b in zip(params.weights, params.biases):
            assert np.all(W == 0.0) and np.all(b == 0.0)

    def test_same_seed_identical(self):
        cfg = NetworkConfig(input_dim=1, hidden_widths=(6, 4), subspace_dim=5)
        a = init_params(cfg, "glorot", seed=9)
        b = init_params(cfg, "glorot", seed=9)
        for Wa, Wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)

    def test_unknown_mode(self):
        cfg = NetworkConfig(input_dim=1, subspace_dim=3)
        with pytest.raises(ValueError):
            init_params(cfg, "normal", seed=0)

    def test_layer_shapes(self):
        cfg = NetworkConfig(input_dim=2, hidden_widths=(7, 6), subspace_dim=5)
        params = init_params(cfg, "glorot", seed=0)
        assert [W.shape for W in params.weights] == [(7, 2), (6, 7), (5, 6)]


class TestEvalBasis:
    def test_zero_params_constant_zero(self):
        cfg = NetworkConfig(input_dim=1, hidden_widths=(4,), subspace_dim=3, init_range=0.0)
        params = init_params(cfg, "uniform_range", seed=0)
        sub = subdomain([(0.0, 2.0)])
        ev = eval_basis(params, sub, np.linspace(0, 2, 7)[:, None], [(1,), (2,)])
        assert np.all(ev.values == 0.0)
        assert np.all(ev.deriv((1,)) == 0.0)
        assert np.all(ev.deriv((2,)) == 0.0)

    def test_single_unit_closed_form(self):
        # phi = tanh(w z + b) with w=1, b=0 on [0, 2]: z = x - 1
        params = NetworkParams((np.array([[1.0]]),), (np.array([0.0]),))
        sub = subdomain([(0.0, 2.0)])
        ev = eval_basis(params, sub, np.array([[1.5]]), [(1,), (2,)])
        phi = np.tanh(0.5)
        assert ev.values[0, 0] == pytest.approx(phi, abs=1e-15)
        assert ev.deriv((1,))[0, 0] == pytest.approx(1 - phi**2, abs=1e-15)
        assert ev.deriv((2,))[0, 0] == pytest.approx(-2 * phi * (1 - phi**2), abs=1e-15)

    def test_point_outside_subdomain(self):
        cfg = NetworkConfig(input_dim=1, subspace_dim=2)
        params = init_params(cfg, "glorot", seed=0)
        with pytest.raises(ValueError):
            eval_basis(params, subdomain([(0.0, 1.0)]), np.array([[1.5]]), [])

    def test_unrequested_derivative_raises(self):
        cfg = NetworkConfig(input_dim=1, subspace_dim=2)
        params = init_params(cfg, "glorot", seed=0)
        ev = eval_basis(params, subdomain([(0.0, 1.0)]), np.array([[0.5]]), [(1,)])
        with pytest.raises(KeyError):
            ev.deriv((2,))

    @pytest.mark.parametrize(
        "bounds, orders",
        [
            ([(6.0, 8.0)], [(1,), (2,)]),
            ([(0.0, 2.0), (1.0, 1.5)], [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
            ([(0.0, 1.0), (-1.0, 2.0), (0.5, 0.75)], [(1, 0, 0), (2, 0, 0), (0, 1, 1), (0, 0, 2)]),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_input_layer_matches_full_gemm(self, bounds, orders):
        # The input layer moves only the value channel through a GEMM; a
        # forward that runs every channel through it must agree bit for bit.
        sub = subdomain(bounds)
        dim = len(bounds)
        cfg = NetworkConfig(input_dim=dim, hidden_widths=(7, 6), subspace_dim=5)
        params = init_params(cfg, "glorot", seed=dim)
        lo, hi = np.array(bounds).T
        points = np.random.default_rng(dim).uniform(lo, hi, size=(9, dim))
        first_axes, second_keys, channel = _split_orders(orders, dim)

        z, chain = normalize(points, sub)
        x = np.zeros((1 + len(first_axes) + len(second_keys), len(z), dim))
        x[0] = z
        for c, s in enumerate(first_axes, start=1):
            x[c, :, s] = chain[s]
        pairs = [
            (c, 1 + first_axes.index(u), 1 + first_axes.index(v))
            for c, (u, v) in enumerate(second_keys, start=1 + len(first_axes))
        ]
        for W, b in zip(params.weights, params.biases):
            a = (x.reshape(-1, W.shape[1]) @ W.T).reshape(len(x), len(z), W.shape[0])
            a[0] += b
            s_val = np.tanh(a[0])
            s1 = 1.0 - s_val * s_val
            s2 = -2.0 * s_val * s1
            x = a * s1
            x[0] = s_val
            for c, u, v in pairs:
                x[c] += s2 * a[u] * a[v]

        ev = eval_basis(params, sub, points, orders)
        assert np.array_equal(ev.values, x[0])
        for alpha in orders:
            assert np.array_equal(ev.deriv(alpha), x[channel[alpha]])


def finite_difference_check(params, sub, dim, rng, n_points=4):
    """First derivatives against value differences; second/mixed against
    differences of the exact first-derivative channel (the value-based
    second difference drowns in roundoff at step 1e-5)."""
    lo = np.array([b[0] for b in sub.bounds])
    hi = np.array([b[1] for b in sub.bounds])
    h = 1e-5
    margin = 10 * h
    pts = rng.uniform(lo + margin, hi - margin, size=(n_points, dim))
    orders = []
    for s in range(dim):
        e1 = tuple(1 if r == s else 0 for r in range(dim))
        e2 = tuple(2 if r == s else 0 for r in range(dim))
        orders += [e1, e2]
    if dim >= 2:
        orders.append(tuple(1 if r < 2 else 0 for r in range(dim)))
    ev = eval_basis(params, sub, pts, orders)

    def values(p):
        return eval_basis(params, sub, p, []).values

    def first(p, s):
        alpha = tuple(1 if r == s else 0 for r in range(dim))
        return eval_basis(params, sub, p, [alpha]).deriv(alpha)

    worst = 0.0
    for alpha in orders:
        total = sum(alpha)
        nz = [s for s, a in enumerate(alpha) if a > 0]
        step = np.zeros(dim)
        if total == 1:
            step[nz[0]] = h
            fd = (values(pts + step) - values(pts - step)) / (2 * h)
        elif len(nz) == 1:
            step[nz[0]] = h
            fd = (first(pts + step, nz[0]) - first(pts - step, nz[0])) / (2 * h)
        else:
            step[nz[1]] = h
            fd = (first(pts + step, nz[0]) - first(pts - step, nz[0])) / (2 * h)
        got = ev.deriv(alpha)
        err = np.abs(got - fd)
        tol = np.maximum(1e-6 * np.abs(fd), 1e-8)
        worst = max(worst, float(np.max(err / tol)))
    return worst


class TestDerivativeExactness:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_matches_finite_differences(self, depth):
        rng = np.random.default_rng(100 + depth)
        sub = subdomain([(0.0, 2.0), (1.0, 1.5)])
        cfg = NetworkConfig(input_dim=2, hidden_widths=(6,) * depth, subspace_dim=5)
        for case in range(20):
            params = init_params(cfg, "uniform_range", seed=[depth, case])
            assert finite_difference_check(params, sub, 2, rng) <= 1.0

    def test_1d_case(self):
        rng = np.random.default_rng(3)
        sub = subdomain([(6.0, 8.0)])
        cfg = NetworkConfig(input_dim=1, hidden_widths=(8, 8), subspace_dim=4)
        for case in range(20):
            params = init_params(cfg, "glorot", seed=case)
            assert finite_difference_check(params, sub, 1, rng) <= 1.0


class TestEvalSolution:
    def make_eval(self):
        cfg = NetworkConfig(input_dim=1, hidden_widths=(5,), subspace_dim=4)
        params = init_params(cfg, "uniform_range", seed=2)
        sub = subdomain([(0.0, 1.0)])
        return eval_basis(params, sub, np.linspace(0, 1, 6)[:, None], [(1,), (2,)])

    def test_zero_coefficients(self):
        ev = self.make_eval()
        value, derivs = eval_solution(ev, np.zeros(4))
        assert np.all(value == 0.0)
        assert all(np.all(d == 0.0) for d in derivs.values())

    def test_scalar_product(self):
        ev = BasisEval(values=np.array([[0.5]]), derivs={})
        value, _ = eval_solution(ev, np.array([2.0]))
        assert value[0] == 1.0

    def test_unit_vector_selects_basis_function(self):
        ev = self.make_eval()
        for j in range(4):
            beta = np.zeros(4)
            beta[j] = 1.0
            value, derivs = eval_solution(ev, beta)
            np.testing.assert_array_equal(value, ev.values[:, j])
            np.testing.assert_array_equal(derivs[(1,)], ev.deriv((1,))[:, j])

    def test_linearity(self):
        ev = self.make_eval()
        rng = np.random.default_rng(0)
        b1, b2 = rng.normal(size=4), rng.normal(size=4)
        a, b = 0.3, -1.7
        v_comb, d_comb = eval_solution(ev, a * b1 + b * b2)
        v1, d1 = eval_solution(ev, b1)
        v2, d2 = eval_solution(ev, b2)
        np.testing.assert_allclose(v_comb, a * v1 + b * v2, rtol=0, atol=1e-15)
        for alpha in d_comb:
            np.testing.assert_allclose(
                d_comb[alpha], a * d1[alpha] + b * d2[alpha], rtol=0, atol=1e-14
            )

    def test_shape_mismatch(self):
        ev = self.make_eval()
        with pytest.raises(ValueError):
            eval_solution(ev, np.zeros(7))


class TestNetworkParams:
    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError):
            NetworkParams((np.zeros((3, 2)), np.zeros((4, 5))), (np.zeros(3), np.zeros(4)))

    def test_non_finite_rejected(self):
        W = np.array([[np.inf]])
        with pytest.raises(ValueError):
            NetworkParams((W,), (np.zeros(1),))


class TestCoefficientVector:
    def test_block_access(self):
        beta = CoefficientVector(np.arange(6.0), block_size=3)
        assert beta.num_blocks == 2
        np.testing.assert_array_equal(beta.block(1), [3.0, 4.0, 5.0])

    def test_bad_length(self):
        with pytest.raises(ValueError):
            CoefficientVector(np.arange(5.0), block_size=3)
