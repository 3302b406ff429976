"""Declarative PDE problem definitions and the builtin benchmark set.

A problem is a linear operator (a sum of coefficient x derivative terms),
an optional nonlinear term with its partial derivatives, source/boundary/
initial data, and optionally the exact solution used to manufacture the
source and to report errors.

All point functions are vectorized: they take an (n, dim) array and return
an (n,) array.  Derivatives are addressed by multi-indices over the axes,
e.g. (2, 0) for d^2/dx^2 and (0, 1) for d/dt on a space-time domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .geometry import DomainSpec

Array = NDArray[np.float64]
MultiIndex = tuple[int, ...]
PointFunc = Callable[[Array], Array]
# Nonlinear terms and their partials see (points, u, {multi-index: derivative}).
NonlinFunc = Callable[[Array, Array, Mapping[MultiIndex, Array]], Array]

ZERO_TOL = 1e-14


def _as_point_func(value: PointFunc | float) -> PointFunc:
    if callable(value):
        return value
    const = float(value)
    return lambda pts: np.full(pts.shape[0], const)


@dataclass(frozen=True)
class LinearTerm:
    """One coefficient x derivative term of the linear operator."""

    coefficient: PointFunc | float
    derivative: MultiIndex

    def __post_init__(self) -> None:
        alpha = tuple(int(a) for a in self.derivative)
        object.__setattr__(self, "derivative", alpha)
        if any(a < 0 or a > 2 for a in alpha) or sum(alpha) > 2:
            raise ValueError(f"unsupported derivative multi-index {alpha}")

    def coefficient_at(self, points: Array) -> Array:
        return _as_point_func(self.coefficient)(points)


@dataclass(frozen=True)
class NonlinearTerm:
    """Nonlinear operator contribution with partials for linearization.

    ``orders`` lists the solution derivatives the term reads (the value u is
    always available).  ``partials`` maps the all-zero multi-index to dN/du
    and each order to dN/d(that derivative).
    """

    value: NonlinFunc
    partials: Mapping[MultiIndex, NonlinFunc]
    orders: tuple[MultiIndex, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(tuple(a) for a in self.orders))
        object.__setattr__(
            self, "partials", {tuple(k): v for k, v in dict(self.partials).items()}
        )


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified collocation problem."""

    name: str
    domain: DomainSpec
    linear_terms: tuple[LinearTerm, ...]
    source: PointFunc
    boundary: PointFunc
    initial: PointFunc | None = None
    nonlinear: NonlinearTerm | None = None
    exact: PointFunc | None = None
    exact_derivs: Mapping[MultiIndex, PointFunc] | None = None
    continuity_orders: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for term in self.linear_terms:
            if len(term.derivative) != self.domain.dim:
                raise ValueError("linear term multi-index does not match the domain dimension")
        if self.domain.temporal_axis is not None and self.initial is None:
            raise ValueError("space-time problems need initial data")
        if any(not 0 <= k <= 2 for k in self.continuity_orders or ()):
            # the networks propagate derivatives up to order 2 only
            raise ValueError(f"continuity orders must lie in 0..2, got {self.continuity_orders}")
        if self.exact_derivs is not None:
            object.__setattr__(
                self, "exact_derivs", {tuple(k): v for k, v in dict(self.exact_derivs).items()}
            )

    @property
    def dim(self) -> int:
        return self.domain.dim

    def operator_orders(self) -> tuple[MultiIndex, ...]:
        """Derivative multi-indices (order >= 1) the operator evaluates."""
        orders = {t.derivative for t in self.linear_terms if sum(t.derivative) > 0}
        if self.nonlinear is not None:
            orders.update(self.nonlinear.orders)
        return tuple(sorted(orders))

    def default_continuity_orders(self) -> tuple[int, ...]:
        """Per-axis interface continuity: highest operator order minus one."""
        if self.continuity_orders is not None:
            return self.continuity_orders
        orders = [0] * self.dim
        zero = (0,) * self.dim
        for alpha in self.operator_orders() + (zero,):
            for s, a in enumerate(alpha):
                orders[s] = max(orders[s], a)
        return tuple(max(o - 1, 0) for o in orders)

    def linearize(
        self,
        points: Array,
        u: Array | None = None,
        derivs: Mapping[MultiIndex, Array] | None = None,
        live: Sequence[MultiIndex] = (),
    ) -> tuple[dict[MultiIndex, Array], Array | None]:
        """Per-slot weights and the remainder of N around the iterate ``(u, derivs)``.

        Weights are the linear coefficients merged over terms, plus dN/d(alpha)
        for each slot alpha in ``live``.  The remainder N - sum over live slots
        of dN/d(alpha) * u_alpha is formed whole (for u u_x with u_x live it is
        exactly zero); it is None without an iterate or a nonlinear term.
        """
        weights: dict[MultiIndex, Array] = {}
        for term in self.linear_terms:
            c = term.coefficient_at(points)
            weights[term.derivative] = weights[term.derivative] + c if term.derivative in weights else c
        if u is None or self.nonlinear is None:
            return weights, None
        zero = (0,) * self.dim
        remainder = self.nonlinear.value(points, u, derivs).astype(float, copy=True)
        for alpha in live:
            partial = self.nonlinear.partials[alpha](points, u, derivs)
            weights[alpha] = weights[alpha] + partial if alpha in weights else partial
            remainder -= partial * (u if alpha == zero else derivs[alpha])
        return weights, remainder

    def operator(self, points: Array, u: Array, derivs: Mapping[MultiIndex, Array]) -> Array:
        """The operator applied to (u, derivs): weighted slots, then the nonlinear term."""
        zero = (0,) * self.dim
        total = np.zeros(points.shape[0])
        for alpha, weight in self.linearize(points)[0].items():
            total += weight * (u if alpha == zero else _lookup_deriv(derivs, alpha))
        if self.nonlinear is not None:
            total += self.nonlinear.value(points, u, derivs)
        return total

    def residual(self, points: Array, u: Array, derivs: Mapping[MultiIndex, Array]) -> Array:
        """Operator applied to (u, derivs) minus the source, pointwise."""
        return self.operator(points, u, derivs) - self.source(points)


def _lookup_deriv(derivs: Mapping[MultiIndex, Array], alpha: MultiIndex) -> Array:
    try:
        return derivs[alpha]
    except KeyError:
        raise KeyError(f"residual evaluation is missing the derivative {alpha}") from None


@dataclass(frozen=True)
class ErrorNorms:
    """Discrete error norms over an evaluation grid.

    ``l2_abs`` is the root mean square error, ``l2_rel`` the root of the
    ratio of error to exact-solution energy (absent when the exact solution
    vanishes on the grid), ``linf`` the maximum absolute error.
    """

    l2_abs: float
    l2_rel: float | None
    linf: float


def error_norms(u_num: Array, u_ref: Array) -> ErrorNorms:
    """Norms of ``u_num - u_ref``, the numeric and exact values on one grid."""
    u_num = np.asarray(u_num, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    if u_ref.size == 0:
        raise ValueError("error norms need a nonempty grid")
    if not np.all(np.isfinite(u_ref)):
        raise ValueError("the exact solution is not finite at every evaluation point")
    e = u_num - u_ref
    l2_abs = float(np.sqrt(np.mean(e * e)))
    ref_energy = float(np.sum(u_ref * u_ref))
    l2_rel = float(np.sqrt(np.sum(e * e) / ref_energy)) if ref_energy > ZERO_TOL else None
    linf = float(np.max(np.abs(e)))
    return ErrorNorms(l2_abs=l2_abs, l2_rel=l2_rel, linf=linf)


# ----------------------------------------------------------------------
# Builtin benchmark problems.  Sources are manufactured by substituting the
# closed-form exact solution (and its hand-derived derivatives) into the
# operator; boundary/initial data are the restriction of the exact solution.
# ----------------------------------------------------------------------


def _manufactured(
    name: str,
    domain: DomainSpec,
    terms: tuple[LinearTerm, ...],
    exact: PointFunc,
    derivs: Mapping[MultiIndex, PointFunc],
    **extra,
) -> ProblemSpec:
    """A problem whose source is its own operator applied to the exact solution."""

    def source(pts: Array) -> Array:
        return spec.operator(pts, exact(pts), {alpha: fn(pts) for alpha, fn in derivs.items()})

    spec = ProblemSpec(
        name=name,
        domain=domain,
        linear_terms=terms,
        source=source,
        boundary=exact,
        exact=exact,
        exact_derivs=derivs,
        **extra,
    )
    return spec


def _helmholtz1d() -> ProblemSpec:
    lam = 10.0
    domain = DomainSpec.interval(0.0, 8.0)

    def exact(pts: Array) -> Array:
        x = pts[:, 0]
        return np.sin(3 * np.pi * x + 3 * np.pi / 20) * np.cos(2 * np.pi * x + np.pi / 10) + 2.0

    def d1(pts: Array) -> Array:
        x = pts[:, 0]
        a = 3 * np.pi * x + 3 * np.pi / 20
        b = 2 * np.pi * x + np.pi / 10
        return 3 * np.pi * np.cos(a) * np.cos(b) - 2 * np.pi * np.sin(a) * np.sin(b)

    def d2(pts: Array) -> Array:
        x = pts[:, 0]
        a = 3 * np.pi * x + 3 * np.pi / 20
        b = 2 * np.pi * x + np.pi / 10
        return -13 * np.pi**2 * np.sin(a) * np.cos(b) - 12 * np.pi**2 * np.cos(a) * np.sin(b)

    terms = (LinearTerm(1.0, (2,)), LinearTerm(-lam, (0,)))
    derivs = {(1,): d1, (2,): d2}
    return _manufactured("helmholtz1d", domain, terms, exact, derivs)


def _poisson2d() -> ProblemSpec:
    domain = DomainSpec.box([(0.0, 2.0), (0.0, 2.0)])

    def exact(pts: Array) -> Array:
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def dx(pts: Array) -> Array:
        return np.pi * np.cos(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def dy(pts: Array) -> Array:
        return np.pi * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])

    def dxx(pts: Array) -> Array:
        return -np.pi**2 * exact(pts)

    def dyy(pts: Array) -> Array:
        return -np.pi**2 * exact(pts)

    terms = (LinearTerm(-1.0, (2, 0)), LinearTerm(-1.0, (0, 2)))
    derivs = {(1, 0): dx, (0, 1): dy, (2, 0): dxx, (0, 2): dyy}
    return _manufactured("poisson2d", domain, terms, exact, derivs)


def _parabolic1d() -> ProblemSpec:
    domain = DomainSpec.space_time([(0.0, 2.0)], (0.0, 2.0))

    def exact(pts: Array) -> Array:
        return 2.0 * np.exp(-pts[:, 1]) * np.sin(np.pi * pts[:, 0])

    def dx(pts: Array) -> Array:
        return 2.0 * np.pi * np.exp(-pts[:, 1]) * np.cos(np.pi * pts[:, 0])

    def dxx(pts: Array) -> Array:
        return -np.pi**2 * exact(pts)

    def dt(pts: Array) -> Array:
        return -exact(pts)

    terms = (LinearTerm(1.0, (0, 1)), LinearTerm(-1.0, (2, 0)))
    derivs = {(1, 0): dx, (2, 0): dxx, (0, 1): dt}

    def initial(pts: Array) -> Array:
        return 2.0 * np.sin(np.pi * pts[:, 0])

    return _manufactured("parabolic1d", domain, terms, exact, derivs, initial=initial)


def _boundary_layer1d() -> ProblemSpec:
    eps = 0.01
    domain = DomainSpec.interval(0.0, 1.0)

    # exp((x-1)/eps) stays representable; the naive exp(x/eps) form would
    # lose accuracy near the layer.
    denom = 1.0 - math.exp(-1.0 / eps)

    def layer(pts: Array) -> Array:
        x = pts[:, 0]
        return (np.exp((x - 1.0) / eps) - math.exp(-1.0 / eps)) / denom

    def layer_exp(pts: Array) -> Array:
        return np.exp((pts[:, 0] - 1.0) / eps) / denom

    def exact(pts: Array) -> Array:
        return np.sin(np.pi * pts[:, 0]) + layer(pts)

    def d1(pts: Array) -> Array:
        return np.pi * np.cos(np.pi * pts[:, 0]) + layer_exp(pts) / eps

    def d2(pts: Array) -> Array:
        return -np.pi**2 * np.sin(np.pi * pts[:, 0]) + layer_exp(pts) / eps**2

    def source(pts: Array) -> Array:
        x = pts[:, 0]
        return eps * np.pi**2 * np.sin(np.pi * x) + np.pi * np.cos(np.pi * x)

    terms = (LinearTerm(-eps, (2,)), LinearTerm(1.0, (1,)))
    return ProblemSpec(
        name="boundary_layer1d",
        domain=domain,
        linear_terms=terms,
        source=source,
        boundary=exact,
        exact=exact,
        exact_derivs={(1,): d1, (2,): d2},
    )


def _nonlinear_helmholtz1d() -> ProblemSpec:
    lam, c = 50.0, 10.0
    domain = DomainSpec.interval(0.0, 8.0)

    def exact(pts: Array) -> Array:
        x = pts[:, 0]
        a = 3 * np.pi * x + 3 * np.pi / 20
        b = 4 * np.pi * x - 2 * np.pi / 5
        return np.sin(a) * np.cos(b) + 1.5 + x / 10.0

    def d1(pts: Array) -> Array:
        x = pts[:, 0]
        a = 3 * np.pi * x + 3 * np.pi / 20
        b = 4 * np.pi * x - 2 * np.pi / 5
        return 3 * np.pi * np.cos(a) * np.cos(b) - 4 * np.pi * np.sin(a) * np.sin(b) + 0.1

    def d2(pts: Array) -> Array:
        x = pts[:, 0]
        a = 3 * np.pi * x + 3 * np.pi / 20
        b = 4 * np.pi * x - 2 * np.pi / 5
        return -25 * np.pi**2 * np.sin(a) * np.cos(b) - 24 * np.pi**2 * np.cos(a) * np.sin(b)

    nonlinear = NonlinearTerm(
        value=lambda pts, u, derivs: c * np.sin(u),
        partials={(0,): lambda pts, u, derivs: c * np.cos(u)},
    )
    terms = (LinearTerm(1.0, (2,)), LinearTerm(-lam, (0,)))
    derivs = {(1,): d1, (2,): d2}
    return _manufactured("nonlinear_helmholtz1d", domain, terms, exact, derivs, nonlinear=nonlinear)


def _burgers1d() -> ProblemSpec:
    nu = 0.01
    domain = DomainSpec.space_time([(0.0, 2.0 * np.pi)], (0.0, 1.0))

    def exact(pts: Array) -> Array:
        return np.exp(-0.01 * pts[:, 1]) * np.sin(pts[:, 0])

    def dx(pts: Array) -> Array:
        return np.exp(-0.01 * pts[:, 1]) * np.cos(pts[:, 0])

    def dxx(pts: Array) -> Array:
        return -exact(pts)

    def dt(pts: Array) -> Array:
        return -0.01 * exact(pts)

    nonlinear = NonlinearTerm(
        value=lambda pts, u, derivs: u * derivs[(1, 0)],
        partials={
            (0, 0): lambda pts, u, derivs: derivs[(1, 0)],
            (1, 0): lambda pts, u, derivs: u,
        },
        orders=((1, 0),),
    )
    terms = (LinearTerm(1.0, (0, 1)), LinearTerm(-nu, (2, 0)))
    derivs = {(1, 0): dx, (2, 0): dxx, (0, 1): dt}

    def initial(pts: Array) -> Array:
        return np.sin(pts[:, 0])

    return _manufactured(
        "burgers1d", domain, terms, exact, derivs, initial=initial, nonlinear=nonlinear
    )


_BUILTIN_FACTORIES: dict[str, Callable[[], ProblemSpec]] = {
    "helmholtz1d": _helmholtz1d,
    "poisson2d": _poisson2d,
    "parabolic1d": _parabolic1d,
    "boundary_layer1d": _boundary_layer1d,
    "nonlinear_helmholtz1d": _nonlinear_helmholtz1d,
    "burgers1d": _burgers1d,
}

BUILTIN_NAMES = tuple(_BUILTIN_FACTORIES)

# One-line descriptions for the CLI listing.
BUILTIN_SUMMARIES: dict[str, str] = {
    "helmholtz1d": "u'' - 10 u = f on [0, 8], exact u = sin(3 pi x + 3 pi/20) cos(2 pi x + pi/10) + 2",
    "poisson2d": "-lap(u) = f on [0, 2]^2, exact u = sin(pi x) sin(pi y)",
    "parabolic1d": "u_t - u_xx = f on [0, 2] x [0, 2], exact u = 2 exp(-t) sin(pi x)",
    "boundary_layer1d": "-0.01 u_xx + u_x = f on [0, 1], exact u = sin(pi x) + boundary layer at x = 1",
    "nonlinear_helmholtz1d": "u'' - 50 u + 10 sin(u) = f on [0, 8], exact u = sin(3 pi x + 3 pi/20) cos(4 pi x - 2 pi/5) + 3/2 + x/10",
    "burgers1d": "u_t + u u_x = nu u_xx + f, nu=0.01, on [0, 2 pi] x [0, 1], exact u = exp(-0.01 t) sin(x)",
}


def builtin(name: str) -> ProblemSpec:
    """Construct one of the builtin benchmark problems by name."""
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return factory()
