"""Per-subdomain subspace networks with exact input-derivative propagation.

A network maps a point of the subdomain, normalized to [-1, 1]^dim, through
tanh hidden layers into a final layer of M basis-function values.  First and
second input derivatives of every basis function are propagated analytically
layer by layer (forward mode), never by numerical differencing, so assembled
matrix entries are accurate to machine precision.  The value and derivative
channels travel together as one (C, n, width) array per layer.

The approximate solution on a subdomain is a linear combination of the basis
values with externally determined coefficients; `eval_solution` applies that
scalar contraction to values and derivative blocks alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import DTypeLike, NDArray

from .geometry import CONTAINMENT_TOL, SubdomainSpec

Array = NDArray[np.float64]

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture of one subdomain network.

    ``subspace_dim`` is the number of basis functions emitted by the final
    layer; ``init_range`` is the half-width of the uniform initialization
    used by the untrained (random-feature) modes.  Every layer, the final
    one included, applies tanh.
    """

    input_dim: int
    hidden_widths: tuple[int, ...] = ()
    subspace_dim: int = 100
    init_range: float = 1.0

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.subspace_dim < 1:
            raise ValueError("input_dim and subspace_dim must be >= 1")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be >= 1")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, self.subspace_dim)


@dataclass(frozen=True)
class NetworkParams:
    """Weights and biases for the hidden layers plus the subspace layer.

    ``weights[l]`` has shape (width_out, width_in); treated as immutable
    after construction.
    """

    weights: tuple[Array, ...]
    biases: tuple[Array, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        if not self.weights:
            raise ValueError("a network needs at least the subspace layer")
        prev_out = None
        for W, b in zip(self.weights, self.biases):
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                raise ValueError("layer shapes are inconsistent")
            if prev_out is not None and W.shape[1] != prev_out:
                raise ValueError("layer shapes are inconsistent")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")
            prev_out = W.shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def subspace_dim(self) -> int:
        return self.weights[-1].shape[0]


def init_params(config: NetworkConfig, mode: str = "glorot", seed: int = 0) -> NetworkParams:
    """Draw network parameters deterministically from the seed.

    ``glorot`` is the trained-mode fan-scaled family: weights and biases
    from U(-1/sqrt(fan_in), 1/sqrt(fan_in)).  The classic fan_in+fan_out
    scaling with zero biases leaves the basis span too smooth to carry
    boundary-layer modes, so the fan_in form (the usual linear-layer
    default in deep-learning frameworks) is used instead.  ``uniform_range``
    draws every entry from U(-init_range, init_range), the random-feature
    convention of the untrained modes.
    """
    rng = np.random.default_rng(seed)
    sizes = config.layer_sizes
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        if mode == "glorot":
            r = 1.0 / np.sqrt(fan_in)
        elif mode == "uniform_range":
            r = config.init_range
        else:
            raise ValueError(f"unknown init mode {mode!r}")
        W = rng.uniform(-r, r, size=(fan_out, fan_in))
        b = rng.uniform(-r, r, size=fan_out)
        weights.append(W)
        biases.append(b)
    return NetworkParams(weights=tuple(weights), biases=tuple(biases))


def normalize(points: Array, subdomain: SubdomainSpec) -> tuple[Array, Array]:
    """Map points into [-1, 1]^dim and return the per-axis chain factors.

    The chain factor 2 / (b - a) per axis converts derivatives with respect
    to the normalized coordinate into physical-coordinate derivatives.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = np.array([b[0] for b in subdomain.bounds])
    hi = np.array([b[1] for b in subdomain.bounds])
    widths = hi - lo
    if np.any(widths <= 0):
        raise ValueError("subdomain has a zero-width axis")
    if np.any(pts < lo - CONTAINMENT_TOL) or np.any(pts > hi + CONTAINMENT_TOL):
        raise ValueError("point lies outside the subdomain")
    z = 2.0 * (pts - lo) / widths - 1.0
    np.clip(z, -1.0, 1.0, out=z)
    return z, 2.0 / widths


def _split_orders(
    orders: Iterable[MultiIndex], dim: int
) -> tuple[list[int], list[tuple[int, int]], dict[MultiIndex, int]]:
    """Derivative channels needed to honour the requested multi-indices.

    Returns (first-order axes, second-order keys, channel of each requested
    multi-index and of the zero multi-index).  Second-order keys are either
    a pure axis (s, s) or a mixed pair (s, r) with s < r; both need the
    first derivatives along their axes for the chain rule, so those axes
    join the first-order set.  Channel 0 is the value, then come the
    first-order axes and then the second-order keys, each in sorted order.
    """
    first: set[int] = set()
    keys: dict[MultiIndex, int | tuple[int, int] | None] = {(0,) * dim: None}
    for alpha in orders:
        if len(alpha) != dim:
            raise ValueError(f"multi-index {alpha} does not match input dimension {dim}")
        total = sum(alpha)
        if total == 0:
            continue
        if any(a < 0 or a > 2 for a in alpha) or total > 2:
            raise ValueError(f"unsupported derivative multi-index {alpha}")
        nz = [s for s, a in enumerate(alpha) if a > 0]
        keys[alpha] = nz[0] if total == 1 else (nz[0], nz[-1])
        first.update(nz)
    first_axes = sorted(first)
    second_keys = sorted({key for key in keys.values() if isinstance(key, tuple)})
    slots = [None, *first_axes, *second_keys]
    return first_axes, second_keys, {alpha: slots.index(key) for alpha, key in keys.items()}


def input_stack(
    subdomain: SubdomainSpec,
    points: Array,
    first_axes: Sequence[int],
    second_keys: Sequence[tuple[int, int]],
    dtype: DTypeLike,
) -> Array:
    """The (C, n, dim) channel stack that enters the first layer.

    Channel 0 holds the normalized points; a first-order channel along axis
    s holds the chain factor of s in column s, the input's derivative along
    s; second-order channels are zero.  Normalization runs in float64, and
    only the finished stack is cast to ``dtype``.
    """
    z, chain = normalize(points, subdomain)
    x = np.zeros((1 + len(first_axes) + len(second_keys), *z.shape), dtype=dtype)
    x[0] = z
    for c, s in enumerate(first_axes, start=1):
        x[c, :, s] = chain[s]
    return x


def forward_states(
    params: NetworkParams,
    subdomain: SubdomainSpec,
    points: Array,
    first_axes: Sequence[int],
    second_keys: Sequence[tuple[int, int]],
    inputs: Array | None = None,
) -> tuple[list[Array], list[Array], list[tuple[Array, Array]], list[tuple[int, int, int]]]:
    """Run the network, propagating value and derivative channels.

    Each layer carries one (C, n, width) array, channels laid out as in
    `_split_orders`, and one GEMM per hidden layer moves all of them.  The
    input layer's derivative channels are constant rows, so only its value
    channel goes through a GEMM: a first-order channel along axis s has
    the pre-activation chain[s] * W[:, s] and a second-order one is zero.
    Every array has the dtype of the parameters.  ``inputs`` is the
    `input_stack` of ``points`` in that dtype; a caller that runs many
    passes over fixed points forms it once and passes it here.

    Returns the channel stack after every layer, starting with the
    normalized input; the pre-activation stack of every layer; each
    layer's tanh slopes (s1, s2) = (1 - s^2, -2 s s1); and for each
    second-order key (u, v) its channel with the first-order channels of u
    and v.  The training gradient re-walks all of them in reverse.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != params.input_dim:
        raise ValueError("points do not match the network input dimension")
    if inputs is None:
        inputs = input_stack(subdomain, pts, first_axes, second_keys, params.weights[0].dtype)
    x, n = inputs, inputs.shape[1]
    z = x[0]
    pairs = [
        (c, 1 + first_axes.index(u), 1 + first_axes.index(v))
        for c, (u, v) in enumerate(second_keys, start=1 + len(first_axes))
    ]

    outs, pres, slopes = [x], [], []
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        if l == 0:
            a = np.empty((len(x), n, W.shape[0]), dtype=x.dtype)
            np.matmul(z, W.T, out=a[0])
            for c, s in enumerate(first_axes, start=1):
                np.multiply(x[c, :, s : s + 1], W[:, s], out=a[c])
            a[1 + len(first_axes) :] = 0.0
        else:
            a = (x.reshape(-1, W.shape[1]) @ W.T).reshape(len(x), n, W.shape[0])
        a[0] += b
        x = np.empty_like(a)
        s_val = np.tanh(a[0], out=x[0])
        s1 = s_val * s_val
        np.subtract(1.0, s1, out=s1)
        s2 = -2.0 * s_val
        s2 *= s1
        np.multiply(a[1:], s1, out=x[1:])
        for c, u, v in pairs:
            t = s2 * a[u]
            t *= a[v]
            x[c] += t
        outs.append(x)
        pres.append(a)
        slopes.append((s1, s2))
    return outs, pres, slopes, pairs


@dataclass
class BasisEval:
    """Basis values and requested input derivatives at a batch of points.

    ``derivs`` maps a derivative multi-index to an (n, M) array; the zero
    multi-index resolves to ``values``.
    """

    values: Array
    derivs: dict[MultiIndex, Array]

    @property
    def num_basis(self) -> int:
        return self.values.shape[1]

    def deriv(self, alpha: MultiIndex) -> Array:
        if sum(alpha) == 0:
            return self.values
        try:
            return self.derivs[tuple(alpha)]
        except KeyError:
            raise KeyError(f"derivative {alpha} was not requested from eval_basis") from None


def eval_basis(
    params: NetworkParams,
    subdomain: SubdomainSpec,
    points: Array,
    orders: Iterable[MultiIndex] = (),
) -> BasisEval:
    """Evaluate basis functions and the requested derivatives at points."""
    first_axes, second_keys, channel = _split_orders(
        [tuple(a) for a in orders], params.input_dim
    )
    outs = forward_states(params, subdomain, points, first_axes, second_keys)[0]
    # Keep only the requested channels; the others served the chain rule.
    used = sorted(set(channel.values()))
    out = outs[-1] if len(used) == len(outs[-1]) else outs[-1][used]
    derivs = {alpha: out[used.index(c)] for alpha, c in channel.items() if c}
    return BasisEval(values=out[0], derivs=derivs)


@dataclass(frozen=True)
class CoefficientVector:
    """Stacked per-subdomain coefficient blocks, subdomain order.

    ``block_size`` is the basis count M of every subdomain.
    """

    values: Array
    block_size: int

    def __post_init__(self) -> None:
        if self.values.shape[0] % self.block_size != 0:
            raise ValueError("coefficient length is not a whole number of blocks")

    @property
    def num_blocks(self) -> int:
        return self.values.shape[0] // self.block_size

    def block(self, subdomain: int) -> Array:
        if not 0 <= subdomain < self.num_blocks:
            raise IndexError(f"subdomain id {subdomain} out of range")
        off = subdomain * self.block_size
        return self.values[off : off + self.block_size]


def eval_solution(basis: BasisEval, beta: Array) -> tuple[Array, dict[MultiIndex, Array]]:
    """Contract basis values and derivative blocks with coefficients.

    ``beta`` has shape (M,); the same contraction applies to each
    derivative block by linearity.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape[0] != basis.num_basis:
        raise ValueError(
            f"coefficient block has {beta.shape[0]} rows but the basis has {basis.num_basis}"
        )
    value = basis.values @ beta
    derivs = {alpha: block @ beta for alpha, block in basis.derivs.items()}
    return value, derivs
