"""Global block least-squares system over the stacked basis coefficients.

Rows come in three kinds, which callers stack in this order: PDE rows
(operator applied to each subdomain's basis at interior points), boundary
rows (basis values at boundary/initial points in the owning subdomain's
column block), and continuity rows (+/- derivative blocks of the two
subdomains sharing an interface).  Columns are per-subdomain blocks of
width M, in subdomain order.  Each batch of rows is a `RowBlock` of dense
pieces placed in the column blocks they touch; `RowBlock.matvec` is the
one product of those rows with the coefficients, and the dense system is
formed only for the least-squares solve and `dump_system`.  The solve first
equilibrates the system: every row is scaled to unit 2-norm, then every
column.  One LAPACK ``gelsd`` call then solves the scaled system in the
minimum-norm least-squares sense, with singular values at or below
``RCOND`` of the largest truncated; neural bases are often nearly
dependent, so the truncation is what keeps the solve stable.  Without the
scaling, the norms of the rows, which differ between PDE, boundary and
continuity rows, would decide which directions the cutoff drops.

Nonlinear problems use one linearization of the PDE rows around the
current iterate u, `ProblemSpec.linearize`: the nonlinear term N moves to
the right-hand side at its current value, and each slot alpha listed as
``live`` (u or one of its derivatives) keeps dN/d(alpha) in the matrix,
with dN/d(alpha) * u_alpha added back to the right-hand side.  Picard keeps live the derivatives the
term reads, as lagged coefficients (freezing all of u u_x makes the sweep
repel); Newton keeps every partial live, which poses the Jacobian rows for
the updated coefficients rather than for a correction, whose null-space
part would pile up in the iterate under the truncated solve.

Assembly consumes `BasisEval` objects, so any provider works: the test
suite injects polynomial bases to validate the assembled equations
independently of any network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .geometry import InterfaceSpec, PointSet
from .network import BasisEval, CoefficientVector
from .problems import ProblemSpec

Array = NDArray[np.float64]
MultiIndex = tuple[int, ...]

# Relative singular-value cutoff of the least-squares solve (gelsd's rcond),
# applied to the equilibrated system.
RCOND = 1e-14


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

    @property
    def rows(self) -> slice:
        return slice(self.row_start, self.row_start + self.values.shape[0])

    @property
    def cols(self) -> slice:
        return slice(self.col_start, self.col_start + self.values.shape[1])


@dataclass
class RowBlock:
    """A batch of rows of the global system, stored block-sparse.

    Each piece is a dense local matrix placed at (row_start, col_start);
    PDE rows touch one column block, boundary rows one per contiguous run
    of points with the same owner, and continuity rows exactly two with
    opposite signs.  Products with the rows come from the pieces alone.
    """

    width: int
    n_rows: int
    rhs: Array
    pieces: list[_Piece]

    def matvec(self, beta: Array) -> Array:
        """The rows times the stacked coefficients, each piece added into its rows."""
        out = np.zeros(self.n_rows)
        for piece in self.pieces:
            out[piece.rows] += piece.values @ beta[piece.cols]
        return out

    def place(self, out: Array) -> None:
        """Write the pieces into ``out``, a zeroed (n_rows, width) array or row slice."""
        for piece in self.pieces:
            out[piece.rows, piece.cols] = piece.values

    def to_dense(self) -> Array:
        out = np.zeros((self.n_rows, self.width))
        self.place(out)
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
    """Operator rows for one subdomain: sum of weight x basis derivative.

    The weights and the right-hand side come from `ProblemSpec.linearize`
    around the iterate ``(u, u_derivs)`` with the slots in ``live``: the
    rows carry the weights, and the right-hand side is the source minus the
    part of N not carried by live slots.  Linear problems pass no iterate.
    """
    pts = points.points if isinstance(points, PointSet) else np.atleast_2d(points)
    n = pts.shape[0]
    weights, remainder = problem.linearize(pts, u, u_derivs, live)
    rhs = problem.source(pts).astype(float, copy=True)
    if remainder is not None:
        rhs -= remainder  # formed whole before it meets the source
    local = np.zeros((n, basis.num_basis))
    for alpha, coef in weights.items():
        local += np.asarray(coef)[:, None] * basis.deriv(alpha)
    return RowBlock(
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
        left, right = basis_left.deriv(alpha), basis_right.deriv(alpha)
        pieces.append(_Piece(order * n, indexing.col_offset(interface.left), left.copy()))
        pieces.append(_Piece(order * n, indexing.col_offset(interface.right), -right))
    return RowBlock(
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


def assemble_global(blocks: Sequence[RowBlock], indexing: GlobalIndexing) -> GlobalSystem:
    """Stack row blocks into one dense system, in the order given."""
    if not blocks:
        raise ValueError("cannot assemble an empty system")
    for block in blocks:
        if block.width != indexing.width:
            raise ValueError(
                f"row block width {block.width} does not match the global width {indexing.width}"
            )
    total_rows = sum(b.n_rows for b in blocks)
    matrix = np.zeros((total_rows, indexing.width))
    rhs = np.empty(total_rows)
    row = 0
    for block in blocks:
        rhs[row : row + block.n_rows] = block.rhs
        block.place(matrix[row : row + block.n_rows])
        row += block.n_rows
    return GlobalSystem(matrix=matrix, rhs=rhs, indexing=indexing)


@dataclass
class LstsqLog:
    """What each least-squares solve did, one entry per solve in order."""

    residual: list[float] = field(default_factory=list)
    rank: list[int] = field(default_factory=list)
    sigma_max: list[float] = field(default_factory=list)


def _unit_scales(sum_of_squares: Array) -> Array:
    """2-norms from their squares; an all-zero row or column keeps scale 1."""
    norms = np.sqrt(sum_of_squares)
    norms[norms == 0.0] = 1.0
    return norms


def solve_least_squares(
    system: GlobalSystem, log: LstsqLog | None = None
) -> tuple[CoefficientVector, float]:
    """Least-squares solution of the equilibrated system and its residual 2-norm.

    The matrix is scaled in place, with no array of its size allocated:
    every row to unit 2-norm, then every column (all-zero ones stay).  So
    the solve consumes its system: afterwards ``system.matrix`` holds the
    scaled matrix, and a caller that needs the matrix again passes a copy.
    One LAPACK ``gelsd`` call solves the scaled system, dropping singular
    values at or below ``RCOND`` times the largest; U and V are never
    formed.  Undoing the column scaling gives ``beta``.  Every solve goes
    through here, so identical matrices give identical coefficients (SVD
    implementations keep different near-cutoff subspaces of a
    rank-deficient matrix, which shows up as noise on the solution).
    ``log`` receives the residual 2-norm of the unscaled system and the
    numeric rank and largest singular value of the scaled one.
    """
    A, b = system.matrix, system.rhs
    # A non-finite entry makes its row's sum of squares non-finite, so this
    # check needs no pass of its own over the matrix.
    squares = np.einsum("ij,ij->i", A, A)
    if not (np.isfinite(squares).all() and np.isfinite(b).all()):
        raise ValueError("system has non-finite entries or a row too large to scale")
    rows = _unit_scales(squares)
    A /= rows[:, None]
    cols = _unit_scales(np.einsum("ij,ij->j", A, A))
    A /= cols
    b_scaled = b / rows
    y, _, rank, sigma = np.linalg.lstsq(A, b_scaled, rcond=RCOND)
    r = A @ y
    r -= b_scaled
    r *= rows  # the residual of the unscaled rows
    residual = float(np.linalg.norm(r))
    beta = y / cols
    if log is not None:
        log.residual.append(residual)
        log.rank.append(int(rank))
        log.sigma_max.append(float(sigma[0]) if sigma.size else 0.0)
    return CoefficientVector(values=beta, block_size=system.indexing.block_size), residual


def dump_system(system: GlobalSystem, path) -> None:
    """Write (matrix, rhs) to a compressed ``.npz`` file."""
    path = str(path)
    if not path.endswith(".npz"):
        raise ValueError("system dumps support .npz paths only")
    np.savez_compressed(path, matrix=system.matrix, rhs=system.rhs)
