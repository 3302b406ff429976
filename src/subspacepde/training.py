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

    def __reduce__(self):
        # RuntimeError would pickle only the message, not these arguments
        return type(self), (self.epoch, self.loss)


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


def _channels(problem: ProblemSpec, dim: int) -> tuple:
    """(first-order axes, second-order keys, channel of each multi-index,
    live nonlinear slots) of the problem's operator; see `_split_orders`."""
    first_axes, second_keys, channel = _split_orders(problem.operator_orders(), dim)
    live = tuple(problem.nonlinear.partials) if problem.nonlinear is not None else ()
    return first_axes, second_keys, channel, live


def _layer_views(flat: Array, params: NetworkParams) -> list[tuple[Array, Array]]:
    """(W, b) views of a flat vector laid out like ``params``, layer by layer."""
    views, start = [], 0
    for W, b in zip(params.weights, params.biases):
        mid = start + W.size
        views.append((flat[start:mid].reshape(W.shape), flat[mid : mid + b.size]))
        start = mid + b.size
    return views


def _backward(
    weights: Sequence[Array],
    outs: list[Array],
    pres: list[Array],
    slopes: list[tuple[Array, Array]],
    g: Array,
    pairs: Sequence[tuple[int, int, int]],
    grads: list[tuple[Array, Array]],
) -> None:
    """Reverse pass through the derivative-propagating forward computation.

    ``g`` is the loss gradient with respect to the last channel stack; a
    (C, n, 1) seed broadcasts over the basis functions.  Each layer's
    weight and bias gradients are written into the arrays of ``grads``.
    """
    first = range(1, len(outs[0]) - len(pairs))
    for l in range(len(weights) - 1, -1, -1):
        a = pres[l]
        s1, s2 = slopes[l]
        if pairs:
            s3 = 6.0 * outs[l + 1][0]
            s3 *= outs[l + 1][0]
            s3 -= 2.0
            s3 *= s1
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
            if u == v:
                np.multiply(gs2, a[u], out=t)
                a_bar[u] += t
                a_bar[u] += t
            else:
                a_bar[u] += gs2 * a[v]
                a_bar[v] += gs2 * a[u]
        for c in first:
            t = g[c] * s2
            t *= a[c]
            a_bar[0] += t

        x = outs[l]
        flat = a_bar.reshape(-1, a_bar.shape[2])
        np.matmul(flat.T, x.reshape(-1, x.shape[2]), out=grads[l][0])
        np.sum(a_bar[0], axis=0, out=grads[l][1])
        if l > 0:
            g = (flat @ weights[l]).reshape(x.shape)


def _loss_and_gradient(
    params: NetworkParams,
    problem: ProblemSpec,
    subdomain: SubdomainSpec,
    points: Array,
    channels: tuple,
    grads: list[tuple[Array, Array]] | None = None,
) -> float:
    """The residual loss; with ``grads``, its gradient is written there too."""
    first_axes, second_keys, channel, live = channels
    outs, pres, slopes, pairs = forward_states(params, subdomain, points, first_axes, second_keys)
    sums = outs[-1].sum(axis=-1)  # the solution's channels at unit coefficients
    derivs = {alpha: sums[c] for alpha, c in channel.items() if c}
    r = problem.residual(points, sums[0], derivs)
    loss = float(np.mean(r * r))
    if grads is None:
        return loss

    r_bar = (2.0 / len(points)) * r
    g = np.zeros((len(sums), len(points), 1))
    for alpha, w in problem.linearize(points, sums[0], derivs, live)[0].items():
        g[channel[alpha], :, 0] += r_bar * w
    _backward(params.weights, outs, pres, slopes, g, pairs, grads)
    return loss


def residual_loss(
    params: NetworkParams,
    problem: ProblemSpec,
    subdomain: SubdomainSpec,
    points: PointSet | Array,
) -> float:
    """Mean squared PDE residual over the point set, coefficients == 1."""
    channels = _channels(problem, params.input_dim)
    return _loss_and_gradient(params, problem, subdomain, _as_points(points), channels)


def loss_gradient(
    params: NetworkParams,
    problem: ProblemSpec,
    subdomain: SubdomainSpec,
    points: PointSet | Array,
) -> list[tuple[Array, Array]]:
    """Exact gradient of `residual_loss` for every weight matrix and bias."""
    size = sum(W.size + b.size for W, b in zip(params.weights, params.biases))
    grads = _layer_views(np.empty(size), params)
    channels = _channels(problem, params.input_dim)
    _loss_and_gradient(params, problem, subdomain, _as_points(points), channels, grads)
    return grads


class _Adam:
    """Standard Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8).

    Updates one flat parameter vector in place; two scratch vectors hold
    the intermediate terms, formed in the textbook order.
    """

    def __init__(self, size: int, learning_rate: float):
        self.lr = learning_rate
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._m_hat = np.empty(size)
        self._v_hat = np.empty(size)

    def step(self, theta: Array, grad: Array) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m_hat, v_hat = self._m_hat, self._v_hat
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + ((1 - beta2) g) g
        self.m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=m_hat)
        self.m += m_hat
        self.v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=v_hat)
        v_hat *= grad
        self.v += v_hat
        # theta -= (lr m_hat) / (sqrt(v_hat) + eps)
        np.divide(self.m, bc1, out=m_hat)
        np.divide(self.v, bc2, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat *= self.lr
        m_hat /= v_hat
        theta -= m_hat


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
    if config.epochs_zero or config.max_epochs == 0:
        return params, 0, 1.0
    pts = _as_points(points)
    channels = _channels(problem, params.input_dim)

    # One flat copy of the parameters, updated in place; `current` and the
    # gradient arrays are views of flat vectors, built once per run.
    theta = np.concatenate([v.ravel() for layer in zip(params.weights, params.biases) for v in layer])
    layers = _layer_views(theta, params)
    current = NetworkParams(weights=tuple(W for W, _ in layers), biases=tuple(b for _, b in layers))
    grad = np.empty_like(theta)
    grads = _layer_views(grad, params)
    adam = _Adam(theta.size, config.learning_rate)
    losses: list[float] = []
    try:
        # The fused pass at each epoch evaluates the loss *before* that
        # epoch's step, which is exactly the post-step loss of the previous
        # epoch; the stopping rule is checked there so each epoch costs a
        # single forward+backward sweep.  The pass after the last step needs
        # no gradient.
        for epoch in range(config.max_epochs + 1):
            last = epoch == config.max_epochs
            if not np.isfinite(theta).all():
                raise TrainingError(epoch, float("nan"))
            loss = _loss_and_gradient(
                current, problem, subdomain, pts, channels, None if last else grads
            )
            if not np.isfinite(loss):
                raise TrainingError(epoch, loss)
            losses.append(loss)
            rel = loss / losses[0] if losses[0] else 0.0
            if last or rel <= config.rel_tol:
                return current, epoch, rel
            adam.step(theta, grad)
    finally:
        if log_path is not None:
            with open(log_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["epoch", "loss"])
                writer.writerows([k, f"{value:.16e}"] for k, value in enumerate(losses))
