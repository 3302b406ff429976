"""Per-subdomain network training on the interior PDE residual.

The training loss is the mean squared residual of the equation with the
combination coefficients pinned to one, so the summed basis output is driven
toward a particular solution of the PDE and the individual basis functions
adapt to the operator.  Gradients with respect to the weights are exact:
the loss contains input derivatives of the network, so the backward pass
walks the forward derivative propagation in reverse.

Training different subdomains shares no state and may run concurrently.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .geometry import PointSet, SubdomainSpec
from .network import NetworkParams, _split_orders, forward_states
from .problems import ProblemSpec

Array = NDArray[np.float64]


class TrainingError(RuntimeError):
    """Raised when the loss becomes non-finite; carries the epoch index."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite training loss {loss} at epoch {epoch}")
        self.epoch = epoch
        self.loss = loss


@dataclass(frozen=True)
class TrainingConfig:
    """Optimizer settings and the relative-reduction stopping rule."""

    learning_rate: float = 0.001
    max_epochs: int = 5000
    rel_tol: float = 1e-3
    seed: int = 202
    epochs_zero: bool = False

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 < self.rel_tol < 1:
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")


def _as_points(points: PointSet | Array) -> Array:
    pts = points.points if isinstance(points, PointSet) else np.atleast_2d(points)
    if pts.shape[0] == 0:
        raise ValueError("the residual loss needs a nonempty point set")
    return pts


def _backward(
    params: NetworkParams,
    outs: list[Array],
    pres: list[Array],
    g: Array,
    pairs: Sequence[tuple[int, int, int]],
) -> list[tuple[Array, Array]]:
    """Reverse pass through the derivative-propagating forward computation.

    ``g`` is the loss gradient with respect to the last channel stack; a
    (C, n, 1) seed broadcasts over the basis functions.
    """
    first = range(1, len(outs[0]) - len(pairs))
    grads: list[tuple[Array, Array]] = [None] * params.num_layers  # type: ignore[list-item]
    for l in range(params.num_layers - 1, -1, -1):
        a = pres[l]
        s_val = outs[l + 1][0]
        s1 = 1.0 - s_val * s_val
        s2 = -2.0 * s_val * s1
        s3 = s1 * (6.0 * s_val * s_val - 2.0) if pairs else None
        # Gradient with respect to the pre-activation channels: each channel
        # passes through tanh'; the products of the second-order channels
        # feed the value and first-order channels too.
        a_bar = g * s1
        for c, u, v in pairs:
            t = s3 * a[u]
            t *= a[v]
            t += s2 * a[c]
            t *= g[c]
            a_bar[0] += t
            gs2 = g[c] * s2
            a_bar[u] += gs2 * a[v]
            a_bar[v] += gs2 * a[u]
        for c in first:
            t = g[c] * s2
            t *= a[c]
            a_bar[0] += t

        x = outs[l]
        flat = a_bar.reshape(-1, a_bar.shape[2])
        grads[l] = (flat.T @ x.reshape(-1, x.shape[2]), a_bar[0].sum(axis=0))
        if l > 0:
            g = (flat @ params.weights[l]).reshape(x.shape)
    return grads


def _loss_and_gradient(
    params: NetworkParams,
    problem: ProblemSpec,
    subdomain: SubdomainSpec,
    points: Array,
    gradient: bool = True,
) -> tuple[float, list[tuple[Array, Array]]]:
    first_axes, second_keys, channel = _split_orders(problem.operator_orders(), params.input_dim)
    outs, pres, pairs = forward_states(params, subdomain, points, first_axes, second_keys)
    sums = outs[-1].sum(axis=-1)  # the solution's channels at unit coefficients
    derivs = {alpha: sums[c] for alpha, c in channel.items() if c}
    r = problem.residual(points, sums[0], derivs)
    loss = float(np.mean(r * r))
    if not gradient:
        return loss, []

    r_bar = (2.0 / len(points)) * r
    g = np.zeros((len(sums), len(points), 1))
    for alpha, w in problem.residual_weights(points, sums[0], derivs).items():
        g[channel[alpha], :, 0] += r_bar * w
    return loss, _backward(params, outs, pres, g, pairs)


def residual_loss(
    params: NetworkParams,
    problem: ProblemSpec,
    subdomain: SubdomainSpec,
    points: PointSet | Array,
) -> float:
    """Mean squared PDE residual over the point set, coefficients == 1."""
    return _loss_and_gradient(params, problem, subdomain, _as_points(points), gradient=False)[0]


def loss_gradient(
    params: NetworkParams,
    problem: ProblemSpec,
    subdomain: SubdomainSpec,
    points: PointSet | Array,
) -> list[tuple[Array, Array]]:
    """Exact gradient of `residual_loss` for every weight matrix and bias."""
    return _loss_and_gradient(params, problem, subdomain, _as_points(points))[1]


class _Adam:
    """Standard Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, shapes, learning_rate: float):
        self.lr = learning_rate
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, values: list[Array], grads: list[Array]) -> list[Array]:
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


def _unflatten(values: list[Array]) -> NetworkParams:
    weights = tuple(values[0::2])
    biases = tuple(values[1::2])
    return NetworkParams(weights=weights, biases=biases)


def train_subdomain(
    params: NetworkParams,
    problem: ProblemSpec,
    subdomain: SubdomainSpec,
    points: PointSet | Array,
    config: TrainingConfig,
    log_path=None,
) -> tuple[NetworkParams, int, float]:
    """Full-batch Adam on the residual loss with the relative stopping rule.

    Stops once loss / initial_loss <= rel_tol or after max_epochs steps;
    with ``epochs_zero`` or ``max_epochs == 0`` the input parameters pass
    through untouched (random-feature mode) and no log is written.  Returns
    (params, epochs_used, final_rel_loss); an initial loss of 0 stops at
    epoch 0 with a relative loss of 0.
    """
    pts = points.points if isinstance(points, PointSet) else np.atleast_2d(points)
    if config.epochs_zero or config.max_epochs == 0:
        return params, 0, 1.0

    values = [v for layer in zip(params.weights, params.biases) for v in layer]
    adam = _Adam([v.shape for v in values], config.learning_rate)
    losses: list[float] = []
    try:
        # The fused pass at each epoch evaluates the loss *before* that
        # epoch's step, which is exactly the post-step loss of the previous
        # epoch; the stopping rule is checked there so each epoch costs a
        # single forward+backward sweep.  The pass after the last step needs
        # no gradient.
        for epoch in range(config.max_epochs + 1):
            last = epoch == config.max_epochs
            try:
                current = _unflatten(values)
            except ValueError:
                raise TrainingError(epoch, float("nan")) from None
            loss, grads = _loss_and_gradient(current, problem, subdomain, pts, gradient=not last)
            if not np.isfinite(loss):
                raise TrainingError(epoch, loss)
            losses.append(loss)
            rel = loss / losses[0] if losses[0] else 0.0
            if last or rel <= config.rel_tol:
                return current, epoch, rel
            values = adam.step(values, [g for layer in grads for g in layer])
    finally:
        if log_path is not None:
            with open(log_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["epoch", "loss"])
                writer.writerows([k, f"{value:.16e}"] for k, value in enumerate(losses))
