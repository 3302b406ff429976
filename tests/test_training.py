"""Residual loss, exact gradients, and the Adam training loop."""

import csv
import pickle

import numpy as np
import pytest

from subspacepde.cli import execute
from subspacepde.config import from_dict
from subspacepde.geometry import DomainSpec, PartitionSpec, partition, sample_interior
from subspacepde.network import NetworkConfig, NetworkParams, eval_basis, init_params, normalize
from subspacepde.problems import LinearTerm, NonlinearTerm, ProblemSpec, builtin
from subspacepde.training import (
    TrainingConfig,
    TrainingError,
    loss_gradient,
    residual_loss,
    train_subdomain,
)


def o1_problem(source=None, nonlinear=None):
    """u'' - u = f on [0, 2] with an O(1) source.

    Small magnitudes keep the finite-difference oracle's roundoff noise
    well below the comparison tolerances.
    """
    return ProblemSpec(
        name="o1",
        domain=DomainSpec.interval(0.0, 2.0),
        linear_terms=(LinearTerm(1.0, (2,)), LinearTerm(-1.0, (0,))),
        source=source or (lambda pts: np.sin(np.pi * pts[:, 0])),
        boundary=lambda pts: np.zeros(pts.shape[0]),
        nonlinear=nonlinear,
    )


def o1_2d_problem():
    """u_t - 0.5 u_xx + u u_x = f on a space-time box, advection live."""
    nonlinear = NonlinearTerm(
        value=lambda pts, u, derivs: u * derivs[(1, 0)],
        partials={
            (0, 0): lambda pts, u, derivs: derivs[(1, 0)],
            (1, 0): lambda pts, u, derivs: u,
        },
        orders=((1, 0),),
    )
    return ProblemSpec(
        name="o1_2d",
        domain=DomainSpec.space_time([(0.0, 2.0)], (0.0, 1.0)),
        linear_terms=(LinearTerm(1.0, (0, 1)), LinearTerm(-0.5, (2, 0))),
        source=lambda pts: np.cos(pts[:, 0]) * np.exp(-pts[:, 1]),
        boundary=lambda pts: np.zeros(pts.shape[0]),
        initial=lambda pts: np.sin(pts[:, 0]),
        nonlinear=nonlinear,
    )


def mixed_2d_problem():
    """u_xx + 0.3 u_xy - 0.7 u_yy + u^2 = f on a box: pure and mixed second derivatives."""
    nonlinear = NonlinearTerm(
        value=lambda pts, u, derivs: u * u,
        partials={(0, 0): lambda pts, u, derivs: 2.0 * u},
    )
    return ProblemSpec(
        name="mixed_2d",
        domain=DomainSpec.box([(0.0, 1.0), (0.0, 2.0)]),
        linear_terms=(
            LinearTerm(1.0, (2, 0)),
            LinearTerm(0.3, (1, 1)),
            LinearTerm(-0.7, (0, 2)),
        ),
        source=lambda pts: np.sin(pts[:, 0]) * pts[:, 1],
        boundary=lambda pts: np.zeros(pts.shape[0]),
        nonlinear=nonlinear,
    )


def as_float32(params):
    """The parameters cast to float32, the precision training runs in."""
    return NetworkParams(
        weights=tuple(W.astype(np.float32) for W in params.weights),
        biases=tuple(b.astype(np.float32) for b in params.biases),
    )


def first_subdomain(problem, counts=(12,)):
    subs, _ = partition(problem.domain, PartitionSpec((1,) * problem.dim))
    pts = sample_interior(subs[0], "uniform", list(counts) * 1 if len(counts) == problem.dim else counts)
    return subs[0], pts


class TestResidualLoss:
    def test_zero_network_zero_source(self):
        problem = o1_problem(source=lambda pts: np.zeros(pts.shape[0]))
        sub, pts = first_subdomain(problem)
        cfg = NetworkConfig(input_dim=1, hidden_widths=(4,), subspace_dim=3, init_range=0.0)
        params = init_params(cfg, "uniform_range", seed=0)
        assert residual_loss(params, problem, sub, pts) == 0.0

    def test_single_point_squares_residual(self):
        problem = o1_problem()
        sub, _ = first_subdomain(problem)
        cfg = NetworkConfig(input_dim=1, subspace_dim=3)
        params = init_params(cfg, "glorot", seed=1)
        point = np.array([[0.75]])
        ev = eval_basis(params, sub, point, problem.operator_orders())
        u = ev.values.sum()
        derivs = {a: ev.deriv(a).sum(axis=1) for a in problem.operator_orders()}
        r = problem.residual(point, np.array([u]), derivs)[0]
        assert residual_loss(params, problem, sub, point) == pytest.approx(r**2, rel=1e-14)

    def test_against_finite_difference_reconstruction(self):
        # rebuild the Helmholtz loss from value-only evaluations: the
        # derivatives of the summed output come from central differences of
        # eval_basis values, an oracle fully independent of the propagation
        problem = builtin("helmholtz1d")
        subs, _ = partition(problem.domain, PartitionSpec((4,)))
        sub = subs[1]
        pts = sample_interior(sub, "uniform", [14])
        cfg = NetworkConfig(input_dim=1, hidden_widths=(6,), subspace_dim=5)
        params = init_params(cfg, "uniform_range", seed=3)
        inner = pts.points[(pts.points[:, 0] > 2.01) & (pts.points[:, 0] < 3.99)]

        def u_of(p):
            return eval_basis(params, sub, p, []).values.sum(axis=1)

        h = 1e-5
        e = np.array([h])
        u = u_of(inner)
        uxx = (u_of(inner + e) - 2 * u + u_of(inner - e)) / h**2
        r = uxx - 10.0 * u - problem.source(inner)
        expected = float(np.mean(r * r))
        got = residual_loss(params, problem, sub, inner)
        assert got == pytest.approx(expected, rel=1e-5)

    def test_empty_points_rejected(self):
        problem = o1_problem()
        sub, _ = first_subdomain(problem)
        cfg = NetworkConfig(input_dim=1, subspace_dim=2)
        params = init_params(cfg, "glorot", seed=0)
        with pytest.raises(ValueError):
            residual_loss(params, problem, sub, np.empty((0, 1)))


def gradient_fd_worst_ratio(problem, sub, pts, params, h=1e-6):
    """Worst |analytic - fd| over max(1e-5 |fd|, 1e-7), all parameters."""
    grads = loss_gradient(params, problem, sub, pts)
    worst = 0.0
    arrays = [params.weights, params.biases]
    for l, (W_g, b_g) in enumerate(grads):
        for which, got in ((0, W_g), (1, b_g)):
            target = arrays[which][l]
            flat = target.ravel()
            got_flat = got.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = residual_loss(params, problem, sub, pts)
                flat[idx] = orig - h
                dn = residual_loss(params, problem, sub, pts)
                flat[idx] = orig
                fd = (up - dn) / (2 * h)
                tol = max(1e-5 * abs(fd), 1e-7)
                worst = max(worst, abs(got_flat[idx] - fd) / tol)
    return worst


def per_channel_loss_gradient(params, problem, sub, pts):
    """Loss gradient with one array per derivative channel and a loop per
    channel, the layout before the channels were stacked; a reference."""
    dim = params.input_dim
    orders = problem.operator_orders()
    key = {a: tuple(s for s in range(dim) for _ in range(a[s])) for a in orders}
    first = sorted({s for k in key.values() for s in k})
    second = sorted({k for k in key.values() if len(k) == 2})
    z, chain = normalize(pts, sub)
    d1 = {s: np.tile(chain[s] * np.eye(dim)[s], (len(z), 1)) for s in first}
    d2 = {k: np.zeros_like(z) for k in second}
    states = [(z, d1, d2, None, None)]
    for W, b in zip(params.weights, params.biases):
        da = {s: d1[s] @ W.T for s in first}
        d2a = {k: d2[k] @ W.T for k in second}
        z = np.tanh(z @ W.T + b)
        s1 = 1.0 - z * z
        s2 = -2.0 * z * s1
        d1 = {s: s1 * da[s] for s in first}
        d2 = {(u, v): s2 * da[u] * da[v] + s1 * d2a[(u, v)] for u, v in second}
        states.append((z, d1, d2, da, d2a))

    def channel(a, ch1, ch2, value):
        k = key.get(a, ())
        return value if not k else ch1[k[0]] if len(k) == 1 else ch2[k]

    u = z.sum(axis=1)
    derivs = {a: channel(a, d1, d2, None).sum(axis=1) for a in orders}
    r_bar = (2.0 / len(pts)) * problem.residual(pts, u, derivs)
    g_z = np.zeros_like(z)
    g1 = {s: np.zeros_like(z) for s in first}
    g2 = {k: np.zeros_like(z) for k in second}
    live = tuple(problem.nonlinear.partials) if problem.nonlinear is not None else ()
    for a, w in problem.linearize(pts, u, derivs, live)[0].items():
        channel(a, g1, g2, g_z)[...] += (r_bar * w)[:, None]

    grads = []
    for l in range(len(params.weights), 0, -1):
        z, _, _, da, d2a = states[l]
        z_in, d1_in, d2_in, _, _ = states[l - 1]
        s1 = 1.0 - z * z
        s2 = -2.0 * z * s1
        s3 = s1 * (6.0 * z * z - 2.0)
        a_bar = g_z * s1 + sum(g1[s] * s2 * da[s] for s in first)
        da_bar = {s: g1[s] * s1 for s in first}
        for u, v in second:
            g = g2[(u, v)]
            a_bar += g * (s3 * da[u] * da[v] + s2 * d2a[(u, v)])
            da_bar[u] += g * s2 * da[v]
            da_bar[v] += g * s2 * da[u]
        d2a_bar = {k: g2[k] * s1 for k in second}
        W_grad = a_bar.T @ z_in + sum(da_bar[s].T @ d1_in[s] for s in first)
        W_grad = W_grad + sum(d2a_bar[k].T @ d2_in[k] for k in second)
        grads.append((W_grad, a_bar.sum(axis=0)))
        W = params.weights[l - 1]
        g_z = a_bar @ W
        g1 = {s: da_bar[s] @ W for s in first}
        g2 = {k: d2a_bar[k] @ W for k in second}
    return grads[::-1]


class TestLossGradient:
    def test_float64_parameters_give_float64(self):
        problem = o1_problem()
        sub, pts = first_subdomain(problem)
        cfg = NetworkConfig(input_dim=1, hidden_widths=(4,), subspace_dim=3)
        params = init_params(cfg, "glorot", seed=2)
        assert type(residual_loss(params, problem, sub, pts)) is float
        for W_g, b_g in loss_gradient(params, problem, sub, pts):
            assert W_g.dtype == b_g.dtype == np.float64
        for W_g, b_g in loss_gradient(as_float32(params), problem, sub, pts):
            assert W_g.dtype == b_g.dtype == np.float32

    def test_zero_residual_is_stationary(self):
        problem = o1_problem(source=lambda pts: np.zeros(pts.shape[0]))
        sub, pts = first_subdomain(problem)
        cfg = NetworkConfig(input_dim=1, hidden_widths=(4,), subspace_dim=3, init_range=0.0)
        params = init_params(cfg, "uniform_range", seed=0)
        for W_g, b_g in loss_gradient(params, problem, sub, pts):
            assert np.all(W_g == 0.0) and np.all(b_g == 0.0)

    def test_doubling_single_point_residual_doubles_gradient(self):
        base = o1_problem()
        sub, _ = first_subdomain(base)
        point = np.array([[0.6]])
        cfg = NetworkConfig(input_dim=1, hidden_widths=(5,), subspace_dim=4)
        params = init_params(cfg, "uniform_range", seed=5)
        r0 = np.sqrt(residual_loss(params, base, sub, point))
        # shift the source so the single-point residual doubles
        ev = eval_basis(params, sub, point, base.operator_orders())
        u = ev.values.sum()
        derivs = {a: ev.deriv(a).sum(axis=1) for a in base.operator_orders()}
        r_signed = base.residual(point, np.array([u]), derivs)[0]
        shifted = o1_problem(
            source=lambda pts, d=r_signed: np.sin(np.pi * pts[:, 0]) - d
        )
        g1 = loss_gradient(params, base, sub, point)
        g2 = loss_gradient(params, shifted, sub, point)
        for (W1, b1), (W2, b2) in zip(g1, g2):
            np.testing.assert_allclose(W2, 2 * W1, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(b2, 2 * b1, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_matches_finite_differences_1d(self, depth):
        problem = o1_problem()
        sub, pts = first_subdomain(problem, (9,))
        cfg = NetworkConfig(input_dim=1, hidden_widths=(5,) * depth, subspace_dim=4)
        for case in range(3):
            params = init_params(cfg, "uniform_range", seed=[depth, case])
            assert gradient_fd_worst_ratio(problem, sub, pts.points, params) <= 1.0

    @pytest.mark.parametrize(
        "make_problem", [o1_2d_problem, mixed_2d_problem], ids=["advection", "mixed"]
    )
    def test_matches_finite_differences_nonlinear_2d(self, make_problem):
        problem = make_problem()
        subs, _ = partition(problem.domain, PartitionSpec((1, 1)))
        pts = sample_interior(subs[0], "uniform", [4, 4])
        cfg = NetworkConfig(input_dim=2, hidden_widths=(4,), subspace_dim=4)
        for case in range(3):
            params = init_params(cfg, "uniform_range", seed=case)
            assert gradient_fd_worst_ratio(problem, subs[0], pts.points, params) <= 1.0


    @pytest.mark.parametrize(
        "make_problem",
        [o1_problem, o1_2d_problem, mixed_2d_problem],
        ids=["helmholtz_1d", "advection", "mixed"],
    )
    def test_matches_per_channel_reference(self, make_problem):
        problem = make_problem()
        subs, _ = partition(problem.domain, PartitionSpec((1,) * problem.dim))
        pts = sample_interior(subs[0], "uniform", [7] * problem.dim).points
        cfg = NetworkConfig(input_dim=problem.dim, hidden_widths=(6, 5), subspace_dim=4)
        params = init_params(cfg, "glorot", seed=3)
        got = loss_gradient(params, problem, subs[0], pts)
        want = per_channel_loss_gradient(params, problem, subs[0], pts)
        # The stacked W_grad GEMM sums in another order than one product per
        # channel, so the bound is set from float64 rounding, not equality.
        for (W, b), (W_ref, b_ref) in zip(got, want):
            scale = max(np.abs(W_ref).max(), np.abs(b_ref).max())
            assert np.abs(W - W_ref).max() <= 1e-13 * scale
            assert np.abs(b - b_ref).max() <= 1e-13 * scale


class ReferenceAdam:
    """The out-of-place Adam that the in-place one replaced; a reference."""

    def __init__(self, values, learning_rate):
        self.lr = learning_rate
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = [np.zeros_like(x) for x in values]
        self.v = [np.zeros_like(x) for x in values]

    def step(self, values, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        out = []
        for i, (x, g) in enumerate(zip(values, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            out.append(x - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return out


def reference_train(params, problem, sub, pts, config, log_path):
    """The epoch loop before the flat parameter vector: a fresh float32
    `NetworkParams` every epoch and an out-of-place Adam step; a reference."""
    values = [v.astype(np.float32) for layer in zip(params.weights, params.biases) for v in layer]
    adam = ReferenceAdam(values, config.learning_rate)
    losses = []
    for epoch in range(config.max_epochs + 1):
        current = NetworkParams(weights=tuple(values[0::2]), biases=tuple(values[1::2]))
        losses.append(residual_loss(current, problem, sub, pts))
        rel = losses[-1] / losses[0] if losses[0] else 0.0
        if epoch == config.max_epochs or rel <= config.rel_tol:
            break
        grads = loss_gradient(current, problem, sub, pts)
        values = adam.step(values, [g for layer in grads for g in layer])
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        writer.writerows([k, f"{value:.16e}"] for k, value in enumerate(losses))
    return current, epoch, rel


class TestTrainSubdomain:
    def setup_pieces(self, max_epochs=50, rel_tol=1e-3, epochs_zero=False):
        problem = o1_problem()
        sub, pts = first_subdomain(problem, (16,))
        cfg = NetworkConfig(input_dim=1, hidden_widths=(8,), subspace_dim=6)
        params = init_params(cfg, "glorot", seed=7)
        config = TrainingConfig(
            max_epochs=max_epochs, rel_tol=rel_tol, epochs_zero=epochs_zero
        )
        return problem, sub, pts, params, config

    def test_epochs_zero_passthrough(self):
        problem, sub, pts, params, config = self.setup_pieces(epochs_zero=True)
        out, epochs, rel = train_subdomain(params, problem, sub, pts, config)
        assert out is params
        assert epochs == 0

    def test_stopping_invariant(self):
        problem, sub, pts, params, config = self.setup_pieces(max_epochs=40)
        _, epochs, rel = train_subdomain(params, problem, sub, pts, config)
        assert epochs <= config.max_epochs
        assert rel <= config.rel_tol or epochs == config.max_epochs

    def test_training_reduces_loss(self):
        problem, sub, pts, params, config = self.setup_pieces(max_epochs=200)
        before = residual_loss(params, problem, sub, pts)
        trained, _, rel = train_subdomain(params, problem, sub, pts, config)
        after = residual_loss(trained, problem, sub, pts)
        assert after < before
        # The relative loss is that of the float32 parameters training ran on.
        after32 = residual_loss(as_float32(trained), problem, sub, pts)
        before32 = residual_loss(as_float32(params), problem, sub, pts)
        assert rel == pytest.approx(after32 / before32, rel=1e-12)

    def test_returns_float64_and_leaves_input(self):
        problem, sub, pts, params, config = self.setup_pieces(max_epochs=20)
        before = [v.copy() for v in params.weights + params.biases]
        trained, _, _ = train_subdomain(params, problem, sub, pts, config)
        for a in trained.weights + trained.biases:
            assert a.dtype == np.float64
            assert np.array_equal(a, a.astype(np.float32))  # float32 values, exactly
        for a, b in zip(before, params.weights + params.biases):
            assert np.array_equal(a, b)

    def test_deterministic(self):
        problem, sub, pts, params, config = self.setup_pieces(max_epochs=25)
        a, ea, _ = train_subdomain(params, problem, sub, pts, config)
        b, eb, _ = train_subdomain(params, problem, sub, pts, config)
        assert ea == eb
        for Wa, Wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)

    def test_best_loss_monotone_in_log(self, tmp_path):
        problem, sub, pts, params, config = self.setup_pieces(max_epochs=60)
        log = tmp_path / "log.csv"
        train_subdomain(params, problem, sub, pts, config, log_path=log)
        with open(log) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["epoch"] == "0"
        losses = [float(r["loss"]) for r in rows]
        best = np.minimum.accumulate(losses)
        assert np.all(np.diff(best) <= 0.0)

    def test_log_written_with_epoch_column(self, tmp_path):
        problem, sub, pts, params, config = self.setup_pieces(max_epochs=5, rel_tol=1e-12)
        log = tmp_path / "log.csv"
        _, epochs, _ = train_subdomain(params, problem, sub, pts, config, log_path=log)
        assert epochs == config.max_epochs  # rel_tol out of reach: a fixed epoch count
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == epochs + 2  # header + epoch 0 .. epochs

    def test_empty_points_rejected(self):
        problem, sub, _, params, config = self.setup_pieces()
        with pytest.raises(ValueError, match="nonempty point set"):
            train_subdomain(params, problem, sub, np.empty((0, 1)), config)

    @pytest.mark.parametrize(
        "make_problem",
        [o1_problem, mixed_2d_problem, o1_2d_problem],
        ids=["helmholtz_1d", "mixed", "advection"],
    )
    def test_matches_out_of_place_reference(self, make_problem, tmp_path):
        # The flat in-place float32 update keeps every operand and its order,
        # so the trained parameters agree with the out-of-place float32 loop
        # bit for bit.
        problem = make_problem()
        subs, _ = partition(problem.domain, PartitionSpec((1,) * problem.dim))
        pts = sample_interior(subs[0], "uniform", [7] * problem.dim).points
        cfg = NetworkConfig(input_dim=problem.dim, hidden_widths=(6, 5), subspace_dim=4)
        params = init_params(cfg, "glorot", seed=3)
        before = [v.copy() for layer in zip(params.weights, params.biases) for v in layer]
        config = TrainingConfig(max_epochs=30, rel_tol=1e-12)

        got, epochs, rel = train_subdomain(
            params, problem, subs[0], pts, config, log_path=tmp_path / "got.csv"
        )
        want, want_epochs, want_rel = reference_train(
            params, problem, subs[0], pts, config, tmp_path / "want.csv"
        )
        assert (epochs, rel) == (want_epochs, want_rel)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        after = [v for layer in zip(params.weights, params.biases) for v in layer]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    # The source is evaluated once per epoch, so a NaN on its k-th call lands
    # in epoch k - 1; call 11 is the final, gradient-free evaluation.
    @pytest.mark.parametrize("nan_call, epoch", [(1, 0), (4, 3), (11, 10)])
    def test_non_finite_loss_reports_epoch(self, nan_call, epoch):
        calls = []

        def source(pts):
            calls.append(None)
            return np.full(pts.shape[0], np.nan if len(calls) == nan_call else 1.0)

        problem = o1_problem(source=source)
        sub, pts = first_subdomain(problem)
        cfg = NetworkConfig(input_dim=1, subspace_dim=3)
        params = init_params(cfg, "glorot", seed=0)
        config = TrainingConfig(max_epochs=10)
        with pytest.raises(TrainingError) as info:
            train_subdomain(params, problem, sub, pts, config)
        assert info.value.epoch == epoch

    def test_training_error_survives_pickling(self):
        # a process pool ships exceptions between processes this way
        error = pickle.loads(pickle.dumps(TrainingError(3, float("inf"))))
        assert isinstance(error, TrainingError)
        assert (error.epoch, error.loss) == (3, float("inf"))
        assert str(error) == "non-finite training loss inf at epoch 3"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(rel_tol=1.5)
        with pytest.raises(ValueError):
            TrainingConfig(max_epochs=-1)


def test_benchmark_tracer_counts_training(bench_tracing):
    # The tracer drops a span's counts rather than fail when a note no
    # longer fits the library, so its contract with training is checked here.
    config = from_dict(
        {
            "problem": "helmholtz1d",
            "partition": {"counts": [2]},
            "sampling": {"counts": [20], "seed": 202},
            "network": {"hidden_widths": [8], "subspace_dim": 10},
            "training": {"max_epochs": 3, "rel_tol": 1e-12},
        }
    )
    tracer = bench_tracing.Tracer("contract")
    bench_tracing.instrument(tracer)
    try:
        root = tracer.open(bench_tracing.ROOT)
        report = execute(config, write_outputs=False)
        tracer.close(root)
    finally:
        tracer.uninstall()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    forwards = by_name["training.forward"]
    assert len(forwards) == 2 * (3 + 1)
    assert all(span.attrs.get("flops", 0) > 0 for span in forwards)
    epochs = [span.attrs.get("epochs") for span in by_name["training.train_subdomain"]]
    assert epochs == report.epochs_per_subdomain == [3, 3]
