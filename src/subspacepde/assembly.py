"""Global block least-squares system over the stacked basis coefficients.

Rows come in three kinds, which callers stack in this order: PDE rows
(operator applied to each subdomain's basis at interior points), boundary
rows (basis values at boundary/initial points in the owning subdomain's
column block), and continuity rows (+/- derivative blocks of the two
subdomains sharing an interface).  Columns are per-subdomain blocks of
width M, in subdomain order.  Each batch of rows is a `RowBlock` of dense
pieces placed in the column blocks they touch; `RowBlock.matvec` is the
one product of those rows with the coefficients.  The full dense system is
formed only by `dump_system`.

The least-squares solve equilibrates the system: every row is scaled to
unit 2-norm, then every column.  Between the two, `assemble_global`
reduces it to a triangular factor: the rows that touch one subdomain's
columns only (its PDE rows and the boundary rows it owns) are reduced by a
local QR to at most M rows, then the continuity rows are eliminated one
subdomain at a time, leaving at most one row per column.  Orthogonal row
transforms keep the singular values and the minimizers, so the factor
stands for the full system.  One LAPACK ``gelsd`` call then solves it in the
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

import os
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
    """The factored least-squares system and the row blocks it stands for.

    ``matrix`` and ``rhs`` are what `solve_least_squares` solves: the rows
    scaled to unit 2-norm and reduced by orthogonal transforms to an upper
    block-triangular factor of at most ``indexing.width`` rows, whose rows
    of column block k start in that block (see `assemble_global`).
    ``blocks`` are the rows as assembled, for the residual of the full
    unscaled system and for `dump_system`.
    """

    matrix: Array
    rhs: Array
    indexing: GlobalIndexing
    blocks: list[RowBlock]

    @property
    def collocation_rows(self) -> int:
        """Rows of the full system, one per collocation equation."""
        return sum(block.n_rows for block in self.blocks)

    def dense(self) -> tuple[Array, Array]:
        """The full unscaled (matrix, rhs), stacked in block order."""
        matrix = np.zeros((self.collocation_rows, self.indexing.width))
        row = 0
        for block in self.blocks:
            block.place(matrix[row : row + block.n_rows])
            row += block.n_rows
        return matrix, np.concatenate([block.rhs for block in self.blocks])


def _unit_scales(sum_of_squares: Array) -> Array:
    """2-norms from their squares; an all-zero row or column keeps scale 1."""
    norms = np.sqrt(sum_of_squares)
    norms[norms == 0.0] = 1.0
    return norms


def _row_scales(block: RowBlock) -> Array:
    """The 2-norms of a block's rows, which equilibration divides them by."""
    squares = np.zeros(block.n_rows)
    for piece in block.pieces:
        squares[piece.rows] += np.einsum("ij,ij->i", piece.values, piece.values)
    # A non-finite entry makes its row's sum of squares non-finite, so this
    # check needs no pass of its own over the pieces.
    if not (np.isfinite(squares).all() and np.isfinite(block.rhs).all()):
        raise ValueError("system has non-finite entries or a row too large to scale")
    return _unit_scales(squares)


def _is_local(block: RowBlock) -> bool:
    """Whether every row of the block lies in one piece, so in one column block."""
    spans = sorted((p.row_start, p.row_start + p.values.shape[0]) for p in block.pieces)
    return all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:]))


def _physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _local_factor(parts: list[tuple[Array, Array, Array]], M: int) -> Array:
    """The first min(r_k, M) rows of the QR factor of one subdomain's scaled ``[A_k | b_k]``.

    A factor row past M has no matrix part: it adds the same constant to
    every residual, so it is dropped.
    """
    total = sum(values.shape[0] for values, _, _ in parts)
    scaled = np.empty((total, M + 1))
    start = 0
    for values, b_part, norms in parts:
        stop = start + values.shape[0]
        np.divide(values, norms[:, None], out=scaled[start:stop, :M])
        np.divide(b_part, norms, out=scaled[start:stop, M])
        start = stop
    return np.linalg.qr(scaled, mode="r")[: min(total, M)]


def assemble_global(blocks: Sequence[RowBlock], indexing: GlobalIndexing) -> GlobalSystem:
    """The row-equilibrated system reduced to an upper block-triangular factor.

    Every row is scaled to unit 2-norm.  The rows that touch one column
    block only (a subdomain's PDE rows and the boundary rows it owns) are
    first reduced by one Householder QR of the scaled ``[A_k | b_k]`` to its
    first min(r_k, M) rows, R_k.  The rows that couple column blocks
    (continuity rows) are then eliminated front by front, in subdomain
    order, as a row-merge QR does (George & Heath 1980).  Front k stacks the
    rows carried from front k-1, R_k and the coupled rows whose lowest
    column block is k, over columns kM..n and the right-hand side; one QR
    of it gives min(rows, M) rows of the factor, and the rows after them,
    zero in block k, are carried to front k+1.  A front with nothing to
    eliminate (no carried and no coupled rows) is written as R_k.  Factor
    rows with no matrix part add the same constant to every residual and
    are dropped.  The factor has at most n rows, and the rows of front k
    are zero in the column blocks before k.  Orthogonal row transforms keep
    the column norms, the singular values and the least-squares
    minimizers, so solving the factor solves the full row-scaled system.
    Besides the factor, the fronts are the only arrays as wide as the
    system.  A factor too large for physical memory, counting the solver's
    copy, is refused before it is allocated.
    """
    if not blocks:
        raise ValueError("cannot assemble an empty system")
    for block in blocks:
        if block.width != indexing.width:
            raise ValueError(
                f"row block width {block.width} does not match the global width {indexing.width}"
            )
    M, n = indexing.block_size, indexing.width
    cells = indexing.num_subdomains
    local: list[list[tuple[Array, Array, Array]]] = [[] for _ in range(cells)]
    coupled: list[list[tuple[RowBlock, Array]]] = [[] for _ in range(cells)]
    for block in blocks:
        scales = _row_scales(block)
        if _is_local(block):
            for piece in block.pieces:
                rows = piece.rows
                local[piece.col_start // M].append((piece.values, block.rhs[rows], scales[rows]))
        else:
            coupled[min(piece.col_start for piece in block.pieces) // M].append((block, scales))

    # Front k yields min(rows, M) factor rows and carries those of the rest
    # that have a matrix part: at most the front's n - kM columns.
    kept = [min(sum(values.shape[0] for values, _, _ in parts), M) for parts in local]
    front_rows, total, carried = [], 0, 0
    for k in range(cells):
        rows = carried + kept[k] + sum(block.n_rows for block, _ in coupled[k])
        front_rows.append(rows)
        total += min(rows, M)
        carried = max(0, min(rows, n - k * M) - M)
    need = 2 * total * n * 8
    available = _physical_memory()
    if need > available:
        raise ValueError(
            f"the {total} x {n} least-squares system and the solver's copy "
            f"need {need / 1e9:.1f} GB, more than the {available / 1e9:.1f} GB of physical memory"
        )

    matrix = np.zeros((total, n))
    rhs = np.empty(total)
    row = 0
    carry = np.empty((0, n + 1))
    for k in range(cells):
        factor = _local_factor(local[k], M)
        lo = k * M
        if len(carry) or coupled[k]:
            front = np.zeros((front_rows[k], n - lo + 1))
            front[: len(carry)] = carry
            start = len(carry)
            front[start : start + len(factor), :M] = factor[:, :M]
            front[start : start + len(factor), -1] = factor[:, M]
            start += len(factor)
            for block, scales in coupled[k]:
                out = front[start : start + block.n_rows]
                for piece in block.pieces:
                    cols = piece.cols
                    out[piece.rows, cols.start - lo : cols.stop - lo] = piece.values
                out[:, -1] = block.rhs
                out /= scales[:, None]
                start += block.n_rows
            factor = np.linalg.qr(front, mode="r")
            del front
        written = min(len(factor), M)
        matrix[row : row + written, lo : lo + factor.shape[1] - 1] = factor[:written, :-1]
        rhs[row : row + written] = factor[:written, -1]
        row += written
        carry = factor[M : n - lo, M:]
    return GlobalSystem(matrix=matrix, rhs=rhs, indexing=indexing, blocks=list(blocks))


@dataclass
class LstsqLog:
    """What each least-squares solve did, one entry per solve in order."""

    residual: list[float] = field(default_factory=list)
    rank: list[int] = field(default_factory=list)
    sigma_max: list[float] = field(default_factory=list)


def solve_least_squares(
    system: GlobalSystem, log: LstsqLog | None = None
) -> tuple[CoefficientVector, float]:
    """Least-squares solution of the factored system and the full residual 2-norm.

    The rows arrive at unit 2-norm (`assemble_global`); here every column
    of the matrix is scaled to unit 2-norm in place (all-zero ones stay),
    with no array of its size allocated.  So the solve consumes its
    system: afterwards ``system.matrix`` holds the scaled matrix.  One
    LAPACK ``gelsd`` call solves the scaled system, dropping singular
    values at or below ``RCOND`` times the largest; U and V are never
    formed.  Undoing the column scaling gives ``beta``.  Every solve goes
    through here, so identical systems give identical coefficients (SVD
    implementations keep different near-cutoff subspaces of a
    rank-deficient matrix, which shows up as noise on the solution).
    ``log`` receives the residual 2-norm of the full unscaled system,
    formed from the row blocks, and the numeric rank and largest singular
    value of the equilibrated one.
    """
    A = system.matrix
    cols = _unit_scales(np.einsum("ij,ij->j", A, A))
    A /= cols
    y, _, rank, sigma = np.linalg.lstsq(A, system.rhs, rcond=RCOND)
    beta = y / cols
    residual = float(
        np.linalg.norm(np.concatenate([block.matvec(beta) - block.rhs for block in system.blocks]))
    )
    if log is not None:
        log.residual.append(residual)
        log.rank.append(int(rank))
        log.sigma_max.append(float(sigma[0]) if sigma.size else 0.0)
    return CoefficientVector(values=beta, block_size=system.indexing.block_size), residual


def dump_system(system: GlobalSystem, path) -> None:
    """Write the full unscaled system (matrix, rhs) to a compressed ``.npz`` file.

    The file holds one row per collocation equation, in block order, as
    assembled; this is the only place that dense system is formed.
    """
    path = str(path)
    if not path.endswith(".npz"):
        raise ValueError("system dumps support .npz paths only")
    matrix, rhs = system.dense()
    np.savez_compressed(path, matrix=matrix, rhs=rhs)
