"""Hyper-rectangular domains, Cartesian partitions, and collocation point sets.

The computational domain is an axis-aligned box, optionally with one
temporal axis (space-time problems are collocated as a single box with
initial data on the t = lower facet only).  Partitions are non-overlapping
Cartesian grids of subdomains; adjacent subdomains share codimension-1
facets on which smoothness constraints are later enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]

# Absolute tolerance for facet/bounds containment checks.
CONTAINMENT_TOL = 1e-12

SPATIAL = "spatial"
TEMPORAL = "temporal"


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box with per-axis roles (at most one temporal axis)."""

    axes: tuple[tuple[float, float], ...]
    axis_roles: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.axes) != len(self.axis_roles):
            raise ValueError("axes and axis_roles must have the same length")
        if not self.axes:
            raise ValueError("domain needs at least one axis")
        for lo, hi in self.axes:
            if not lo < hi:
                raise ValueError(f"axis bounds must satisfy lower < upper, got ({lo}, {hi})")
        for role in self.axis_roles:
            if role not in (SPATIAL, TEMPORAL):
                raise ValueError(f"unknown axis role {role!r}")
        if sum(r == TEMPORAL for r in self.axis_roles) > 1:
            raise ValueError("at most one temporal axis is allowed")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def temporal_axis(self) -> int | None:
        for s, role in enumerate(self.axis_roles):
            if role == TEMPORAL:
                return s
        return None

    @staticmethod
    def interval(lo: float, hi: float) -> "DomainSpec":
        return DomainSpec(((lo, hi),), (SPATIAL,))

    @staticmethod
    def box(bounds: Sequence[tuple[float, float]]) -> "DomainSpec":
        return DomainSpec(tuple((float(a), float(b)) for a, b in bounds), (SPATIAL,) * len(bounds))

    @staticmethod
    def space_time(spatial: Sequence[tuple[float, float]], t_bounds: tuple[float, float]) -> "DomainSpec":
        axes = tuple((float(a), float(b)) for a, b in spatial) + ((float(t_bounds[0]), float(t_bounds[1])),)
        roles = (SPATIAL,) * len(spatial) + (TEMPORAL,)
        return DomainSpec(axes, roles)


@dataclass(frozen=True)
class PartitionSpec:
    """Number of subdomain cells along each axis."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("partition needs at least one axis count")
        for n in self.counts:
            if int(n) != n or n < 1:
                raise ValueError(f"cell counts must be positive integers, got {n}")


@dataclass(frozen=True)
class SubdomainSpec:
    """One cell of the partition: integer id, grid coordinates, bounds."""

    index: int
    multi_index: tuple[int, ...]
    bounds: tuple[tuple[float, float], ...]

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def width(self, axis: int) -> float:
        lo, hi = self.bounds[axis]
        return hi - lo

    def contains(self, points: Array, tol: float = CONTAINMENT_TOL) -> NDArray[np.bool_]:
        """Closed containment check, vectorized over points of shape (n, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return np.all((pts >= lo - tol) & (pts <= hi + tol), axis=1)


@dataclass(frozen=True)
class InterfaceSpec:
    """Shared facet between two adjacent subdomains.

    ``axis`` is the normal direction; ``facet_bounds`` is degenerate on it.
    ``continuity_order`` is the highest derivative order k matched across
    the facet (orders 0..k are all enforced).
    """

    left: int
    right: int
    axis: int
    facet_bounds: tuple[tuple[float, float], ...]
    continuity_order: int

    def __post_init__(self) -> None:
        if self.continuity_order < 0:
            raise ValueError("continuity_order must be >= 0")
        lo, hi = self.facet_bounds[self.axis]
        if lo != hi:
            raise ValueError("facet_bounds must be degenerate on the normal axis")

    @property
    def position(self) -> float:
        return self.facet_bounds[self.axis][0]


@dataclass(frozen=True)
class PointSet:
    """Collocation points with a role tag.

    ``owners`` (boundary sets) maps each point to the subdomain whose basis
    is evaluated there; ``initial_mask`` flags points on the t = lower facet
    where initial rather than boundary data applies.
    """

    points: Array
    kind: str
    owners: NDArray[np.int64] | None = None
    initial_mask: NDArray[np.bool_] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("interior", "boundary", "initial", "interface"):
            raise ValueError(f"unknown point-set kind {self.kind!r}")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def partition(
    domain: DomainSpec,
    spec: PartitionSpec,
    continuity_orders: Sequence[int] | None = None,
) -> tuple[list[SubdomainSpec], list[InterfaceSpec]]:
    """Split the domain into a Cartesian grid of subdomains.

    Subdomain ids run in row-major order over the per-axis cell indices.
    One interface is produced per adjacent cell pair; its continuity order
    comes from ``continuity_orders`` for the normal axis (default 1, i.e.
    value and first normal derivative are matched, the right choice for
    operators of second order in that axis).
    """
    if len(spec.counts) != domain.dim:
        raise ValueError(
            f"partition counts have {len(spec.counts)} axes but the domain has {domain.dim}"
        )
    if continuity_orders is None:
        continuity_orders = [1] * domain.dim
    if len(continuity_orders) != domain.dim:
        raise ValueError("continuity_orders must have one entry per axis")

    edges = [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(domain.axes, spec.counts)]

    subdomains: list[SubdomainSpec] = []
    for index, multi in enumerate(np.ndindex(*spec.counts)):
        bounds = tuple(
            (float(edges[s][i]), float(edges[s][i + 1])) for s, i in enumerate(multi)
        )
        subdomains.append(SubdomainSpec(index=index, multi_index=tuple(multi), bounds=bounds))

    grid = {sub.multi_index: sub for sub in subdomains}
    interfaces: list[InterfaceSpec] = []
    for sub in subdomains:
        for s in range(domain.dim):
            neighbour_multi = list(sub.multi_index)
            neighbour_multi[s] += 1
            neighbour = grid.get(tuple(neighbour_multi))
            if neighbour is None:
                continue
            facet = list(sub.bounds)
            x_s = sub.bounds[s][1]
            facet[s] = (x_s, x_s)
            interfaces.append(
                InterfaceSpec(
                    left=sub.index,
                    right=neighbour.index,
                    axis=s,
                    facet_bounds=tuple(facet),
                    continuity_order=int(continuity_orders[s]),
                )
            )
    return subdomains, interfaces


def gauss_lobatto_nodes(n: int) -> Array:
    """Gauss-Lobatto-Legendre nodes on [-1, 1], ascending, endpoints included.

    Newton iteration on (1 - x^2) P'_{n-1}(x) starting from Chebyshev-Lobatto
    nodes (the classic von Winckel construction).
    """
    if n < 2:
        raise ValueError("Gauss-Lobatto rules need at least 2 nodes")
    if n == 2:
        return np.array([-1.0, 1.0])

    x = np.cos(np.pi * np.arange(n) / (n - 1))
    vand = np.zeros((n, n))
    x_prev = 2.0 * np.ones_like(x)
    while np.max(np.abs(x - x_prev)) > 1e-15:
        vand[:, 0] = 1.0
        vand[:, 1] = x
        for k in range(1, n - 1):
            vand[:, k + 1] = ((2 * k + 1) * x * vand[:, k] - k * vand[:, k - 1]) / (k + 1)
        x_prev = x
        x = x_prev - (x * vand[:, n - 1] - vand[:, n - 2]) / (n * vand[:, n - 1])
    nodes = np.sort(x)
    nodes[0] = -1.0
    nodes[-1] = 1.0
    return nodes


def _axis_nodes(strategy: str, count: int, lo: float, hi: float, rng: np.random.Generator | None) -> Array:
    if count < 2:
        raise ValueError("per-axis counts must be >= 2 so endpoints can be included")
    if strategy == "uniform":
        return np.linspace(lo, hi, count)
    if strategy == "gauss":
        ref = gauss_lobatto_nodes(count)
        nodes = lo + (ref + 1.0) * 0.5 * (hi - lo)
        nodes[0] = lo
        nodes[-1] = hi
        return nodes
    if strategy == "random":
        if rng is None:
            raise ValueError("random sampling requires a seed")
        interior = np.sort(rng.uniform(lo, hi, size=count - 2))
        return np.concatenate(([lo], interior, [hi]))
    raise ValueError(f"unknown sampling strategy {strategy!r}")


def _tensor_grid(axis_nodes: Sequence[Array]) -> Array:
    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def sample_interior(
    subdomain: SubdomainSpec,
    strategy: str,
    counts_per_axis: Sequence[int],
    seed: int = 0,
) -> PointSet:
    """Tensor-product collocation grid inside one subdomain.

    All strategies include the subdomain endpoints along every axis;
    ``uniform`` and ``gauss`` ignore the seed.
    """
    if len(counts_per_axis) != subdomain.dim:
        raise ValueError("counts_per_axis must have one entry per axis")
    rng = np.random.default_rng([seed, subdomain.index]) if strategy == "random" else None
    nodes = [
        _axis_nodes(strategy, int(c), lo, hi, rng)
        for c, (lo, hi) in zip(counts_per_axis, subdomain.bounds)
    ]
    return PointSet(points=_tensor_grid(nodes), kind="interior")


def sample_boundary(
    domain: DomainSpec,
    subdomains: Sequence[SubdomainSpec],
    counts: Sequence[int],
    strategy: str = "uniform",
    seed: int = 0,
) -> PointSet:
    """Collocation points on the data-carrying facets of the domain boundary.

    Every spatial boundary facet is sampled per owning subdomain facet; a
    temporal axis contributes only its lower (initial-condition) facet.
    Duplicated corner points keep their first occurrence, so ownership
    falls to the lowest subdomain id.
    """
    if len(counts) != domain.dim:
        raise ValueError("counts must have one entry per axis")
    t_axis = domain.temporal_axis

    rows: list[Array] = []
    owners: list[int] = []
    initial: list[bool] = []
    seen: dict[bytes, int] = {}
    for sub in sorted(subdomains, key=lambda s: s.index):
        for axis in range(domain.dim):
            for side in (0, 1):
                if axis == t_axis and side == 1:
                    continue  # no condition at t = T
                facet_value = sub.bounds[axis][side]
                if abs(facet_value - domain.axes[axis][side]) > CONTAINMENT_TOL:
                    continue  # interior facet, not on the domain boundary
                tangential = [r for r in range(domain.dim) if r != axis]
                if tangential:
                    rng = (
                        np.random.default_rng([seed, sub.index, axis, side])
                        if strategy == "random"
                        else None
                    )
                    nodes = [
                        _axis_nodes(strategy, int(counts[r]), *sub.bounds[r], rng)
                        for r in tangential
                    ]
                    grid = _tensor_grid(nodes)
                    pts = np.empty((grid.shape[0], domain.dim))
                    pts[:, tangential] = grid
                    pts[:, axis] = facet_value
                else:
                    pts = np.array([[facet_value]])
                is_initial = axis == t_axis and side == 0
                for row in pts:
                    key = row.tobytes()
                    if key in seen:
                        continue
                    seen[key] = len(rows)
                    rows.append(row)
                    owners.append(sub.index)
                    initial.append(is_initial)

    points = np.array(rows) if rows else np.empty((0, domain.dim))
    return PointSet(
        points=points,
        kind="boundary",
        owners=np.array(owners, dtype=np.int64),
        initial_mask=np.array(initial, dtype=bool),
    )


def sample_interface(
    interface: InterfaceSpec,
    counts: Sequence[int],
    strategy: str = "uniform",
    seed: int = 0,
) -> PointSet:
    """Collocation points on a shared facet, used verbatim by both sides.

    ``counts`` has one entry per tangential axis; a 1-D interface is the
    single shared endpoint.
    """
    dim = len(interface.facet_bounds)
    tangential = [r for r in range(dim) if r != interface.axis]
    if len(counts) != len(tangential):
        raise ValueError(
            f"counts must have {len(tangential)} entries (facet dimensionality), got {len(counts)}"
        )
    if tangential:
        rng = (
            np.random.default_rng([seed, interface.left, interface.right, interface.axis])
            if strategy == "random"
            else None
        )
        nodes = [
            _axis_nodes(strategy, int(c), *interface.facet_bounds[r], rng)
            for c, r in zip(counts, tangential)
        ]
        grid = _tensor_grid(nodes)
        pts = np.empty((grid.shape[0], dim))
        pts[:, tangential] = grid
        pts[:, interface.axis] = interface.position
    else:
        pts = np.array([[interface.position]])
    return PointSet(points=pts, kind="interface")


def find_owners(points: Array, subdomains: Sequence[SubdomainSpec], tol: float = CONTAINMENT_TOL) -> NDArray[np.int64]:
    """Map each point to the lowest-id subdomain containing it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    owners = np.full(pts.shape[0], -1, dtype=np.int64)
    for sub in sorted(subdomains, key=lambda s: s.index):
        unassigned = owners < 0
        if not unassigned.any():
            break
        inside = sub.contains(pts[unassigned], tol=tol)
        idx = np.flatnonzero(unassigned)[inside]
        owners[idx] = sub.index
    if (owners < 0).any():
        raise ValueError("some points lie outside every subdomain")
    return owners
