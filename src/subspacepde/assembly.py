"""Global block least-squares system over the stacked basis coefficients.

Rows come in three kinds, stacked in this order: PDE rows (operator applied
to each subdomain's basis at interior points), boundary rows (basis values
at boundary/initial points in the owning subdomain's column block), and
continuity rows (+/- derivative blocks of the two subdomains sharing an
interface).  Columns are per-subdomain blocks of width M, in subdomain
order.  The system is solved in the minimum-norm least-squares sense with
singular values below 1e-12 of the largest truncated; neural bases are
often nearly dependent, so the truncation is what keeps the solve stable.

Nonlinear problems use one linearization of the PDE rows around the
current iterate u: the nonlinear term N moves to the right-hand side at
its current value, and each slot alpha listed as ``live`` (u or one of its
derivatives) keeps dN/d(alpha) in the matrix, with dN/d(alpha) * u_alpha
added back to the right-hand side.  Picard keeps live the derivatives the
term reads, as lagged coefficients (freezing all of u u_x makes the sweep
repel); Newton keeps every partial live, which poses the Jacobian rows for
the updated coefficients rather than for a correction, whose null-space
part would pile up in the iterate under the truncated solve.

Assembly consumes `BasisEval` objects, so any provider works: the test
suite injects polynomial bases to validate the assembled equations
independently of any network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .geometry import InterfaceSpec, PointSet
from .network import BasisEval, CoefficientVector
from .problems import ProblemSpec

Array = NDArray[np.float64]
MultiIndex = tuple[int, ...]

# Relative singular-value cutoff for the rank-revealing solve.
RCOND = 1e-12


@dataclass(frozen=True)
class GlobalIndexing:
    """Column layout of the stacked coefficient vector."""

    num_subdomains: int
    block_size: int

    @property
    def width(self) -> int:
        return self.num_subdomains * self.block_size

    def col_offset(self, subdomain: int) -> int:
        if not 0 <= subdomain < self.num_subdomains:
            raise IndexError(f"subdomain id {subdomain} out of range")
        return subdomain * self.block_size


@dataclass
class _Piece:
    row_start: int
    col_start: int
    values: Array


@dataclass
class RowBlock:
    """A batch of rows of the global system, stored block-sparse.

    Each piece is a dense local matrix placed at (row_start, col_start);
    PDE and boundary rows touch one column block, continuity rows exactly
    two with opposite signs.
    """

    kind: str
    width: int
    n_rows: int
    rhs: Array
    pieces: list[_Piece]

    def to_dense(self) -> Array:
        out = np.zeros((self.n_rows, self.width))
        for piece in self.pieces:
            r, c = piece.values.shape
            out[piece.row_start : piece.row_start + r, piece.col_start : piece.col_start + c] = (
                piece.values
            )
        return out


def assemble_pde_rows(
    problem: ProblemSpec,
    indexing: GlobalIndexing,
    subdomain_id: int,
    points: PointSet | Array,
    basis: BasisEval,
    u: Array | None = None,
    u_derivs: Mapping[MultiIndex, Array] | None = None,
    live: Sequence[MultiIndex] = (),
) -> RowBlock:
    """Operator rows for one subdomain: sum of coefficient x basis derivative.

    Weights start as the linear operator's coefficients and the right-hand
    side as the source.  With an iterate ``(u, u_derivs)`` the nonlinear
    term N moves to the right-hand side at its current value, and each
    slot alpha in ``live`` adds dN/d(alpha) to the weight of alpha and
    dN/d(alpha) * u_alpha to the right-hand side.  Linear problems pass no
    iterate.
    """
    pts = points.points if isinstance(points, PointSet) else np.atleast_2d(points)
    n = pts.shape[0]
    zero = (0,) * problem.dim
    weights = problem.linear_row_weights(pts)
    rhs = problem.source(pts).astype(float, copy=True)
    if u is not None:
        # The part of N not carried by live slots is formed before it meets
        # the source: for u u_x with u_x live it cancels to exactly zero.
        term = problem.nonlinear
        remainder = term.value(pts, u, u_derivs).astype(float, copy=True)
        for alpha in live:
            partial = term.partials[alpha](pts, u, u_derivs)
            weights[alpha] = weights[alpha] + partial if alpha in weights else partial
            remainder -= partial * (u if alpha == zero else u_derivs[alpha])
        rhs -= remainder
    local = np.zeros((n, basis.num_basis))
    for alpha, coef in weights.items():
        block = basis.values if alpha == zero else basis.deriv(alpha)
        local += np.asarray(coef)[:, None] * block
    return RowBlock(
        kind="pde",
        width=indexing.width,
        n_rows=n,
        rhs=rhs,
        pieces=[_Piece(0, indexing.col_offset(subdomain_id), local)],
    )


def assemble_boundary_rows(
    problem: ProblemSpec,
    indexing: GlobalIndexing,
    points: PointSet,
    basis_values: Array,
) -> RowBlock:
    """Boundary/initial-data rows: owner's basis values against g (or h).

    ``basis_values[i]`` must hold the owning subdomain's basis evaluated at
    point i; the owner ids come from the point set itself.
    """
    if points.owners is None:
        raise ValueError("boundary points need owner tags")
    pts = points.points
    n = pts.shape[0]
    rhs = problem.boundary(pts).astype(float, copy=True)
    if points.initial_mask is not None and points.initial_mask.any():
        if problem.initial is None:
            raise ValueError("points are flagged initial but the problem has no initial data")
        rhs[points.initial_mask] = problem.initial(pts[points.initial_mask])

    pieces = []
    start = 0
    while start < n:
        stop = start
        owner = int(points.owners[start])
        while stop < n and int(points.owners[stop]) == owner:
            stop += 1
        pieces.append(_Piece(start, indexing.col_offset(owner), basis_values[start:stop]))
        start = stop
    return RowBlock(
        kind="boundary",
        width=indexing.width,
        n_rows=n,
        rhs=rhs,
        pieces=pieces,
    )


def assemble_continuity_rows(
    interface: InterfaceSpec,
    indexing: GlobalIndexing,
    points: PointSet | Array,
    basis_left: BasisEval,
    basis_right: BasisEval,
) -> RowBlock:
    """Smoothness rows across one interface, orders 0..continuity_order.

    Derivatives are taken along the interface normal; each row matches
    +left block against -right block at one point, right-hand side zero.
    """
    pts = points.points if isinstance(points, PointSet) else np.atleast_2d(points)
    n = pts.shape[0]
    dim = len(interface.facet_bounds)
    orders = interface.continuity_order + 1
    pieces = []
    for order in range(orders):
        alpha = tuple(order if s == interface.axis else 0 for s in range(dim))
        left = basis_left.values if order == 0 else basis_left.deriv(alpha)
        right = basis_right.values if order == 0 else basis_right.deriv(alpha)
        pieces.append(_Piece(order * n, indexing.col_offset(interface.left), left.copy()))
        pieces.append(_Piece(order * n, indexing.col_offset(interface.right), -right))
    return RowBlock(
        kind="continuity",
        width=indexing.width,
        n_rows=orders * n,
        rhs=np.zeros(orders * n),
        pieces=pieces,
    )


@dataclass
class GlobalSystem:
    """Assembled rectangular system over the stacked coefficients."""

    matrix: Array
    rhs: Array
    indexing: GlobalIndexing

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


_KIND_ORDER = {"pde": 0, "boundary": 1, "continuity": 2}


def assemble_global(blocks: Sequence[RowBlock], indexing: GlobalIndexing) -> GlobalSystem:
    """Stack row blocks into one dense system, PDE, boundary, continuity.

    Within each kind the input order is preserved.
    """
    if not blocks:
        raise ValueError("cannot assemble an empty system")
    for block in blocks:
        if block.width != indexing.width:
            raise ValueError(
                f"row block width {block.width} does not match the global width {indexing.width}"
            )
        if block.kind not in _KIND_ORDER:
            raise ValueError(f"unknown row-block kind {block.kind!r}")

    order = sorted(range(len(blocks)), key=lambda i: (_KIND_ORDER[blocks[i].kind], i))
    total_rows = sum(b.n_rows for b in blocks)
    matrix = np.zeros((total_rows, indexing.width))
    rhs = np.empty(total_rows)
    row = 0
    for i in order:
        block = blocks[i]
        rhs[row : row + block.n_rows] = block.rhs
        for piece in block.pieces:
            r, c = piece.values.shape
            matrix[
                row + piece.row_start : row + piece.row_start + r,
                piece.col_start : piece.col_start + c,
            ] = piece.values
        row += block.n_rows
    return GlobalSystem(matrix=matrix, rhs=rhs, indexing=indexing)


class CachedLstsq:
    """Minimum-norm least squares with a reusable truncated SVD.

    Sweeps whose matrix does not change re-solve it against many
    right-hand sides; factoring once makes each re-solve a pair of
    matrix-vector products.
    """

    def __init__(self, matrix: Array):
        if not np.isfinite(matrix).all():
            raise ValueError("system matrix has non-finite entries")
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        keep = s > RCOND * s[0] if s.size else np.zeros(0, dtype=bool)
        self._u = u[:, keep]
        self._inv_s = 1.0 / s[keep]
        self._vt = vt[keep]
        self.rank = int(keep.sum())

    def solve(self, rhs: Array) -> Array:
        return self._vt.T @ (self._inv_s * (self._u.T @ rhs))


def solve_least_squares(
    system: GlobalSystem, factor: CachedLstsq | None = None
) -> tuple[CoefficientVector, float]:
    """Minimum-norm least-squares solution and its residual 2-norm.

    ``factor`` is a factorization of ``system.matrix`` to reuse; without
    one the matrix is factored here.  Always the same truncated-SVD path,
    so repeated solves of identical matrices return identical coefficients
    (mixing SVD implementations picks different near-cutoff subspaces,
    which shows up as noise on the reconstructed solution).
    """
    if not np.isfinite(system.rhs).all():
        raise ValueError("system has non-finite entries")
    if factor is None:
        factor = CachedLstsq(system.matrix)
    beta = factor.solve(system.rhs)
    residual = float(np.linalg.norm(system.matrix @ beta - system.rhs))
    return CoefficientVector(values=beta, block_size=system.indexing.block_size), residual


def dump_system(system: GlobalSystem, path) -> None:
    """Write (matrix, rhs) to a compressed ``.npz`` file."""
    path = str(path)
    if not path.endswith(".npz"):
        raise ValueError("system dumps support .npz paths only")
    np.savez_compressed(path, matrix=system.matrix, rhs=system.rhs)
