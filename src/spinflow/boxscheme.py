"""The disk's box scheme and the block factor of its normal equations, in numpy.

``green.disk_solve`` solves the scalar system B of 2 dbar = Dx + i Dy for
slot 2 and, as its conjugate problem, slot 1.  B has one row per full cell
(``GridChart.cells``) in C order, the box stencil on the cell's corners (the
right-hand side is averaged over them: node-based centered differences would
leave exact checkerboard modes in the kernel), then one row per boundary ring
node, weighted by 1/h.  Its columns are the active nodes in C order.  B and
B^H are applied as grid stencils, and B^H B is factored by grid row once per
chart (``_disk_factor``).
"""

from functools import lru_cache

import numpy as np

from ._blas import one_blas_thread
from .charts import GridChart
from .dirac import _CACHE_CHARTS

# corner (dy, dx) of a full cell, in the order of B's entries within a cell row
_BOX = ((0, 0), (0, 1), (1, 0), (1, 1))


def _box_weights(chart: GridChart) -> list:
    """B's weight on each ``_BOX`` corner: the box scheme of 2 dbar = Dx + i Dy."""
    return [(2 * dx - 1) / (2 * chart.hx) + 1j * (2 * dy - 1) / (2 * chart.hy) for dy, dx in _BOX]


def _corner(grid: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """View of a node grid at corner (dy, dx) of every cell, shape (ny-1, nx-1, ...)."""
    return grid[dy:grid.shape[0] - 1 + dy, dx:grid.shape[1] - 1 + dx]


def _scale(w: complex, X: np.ndarray) -> np.ndarray:
    """w X, each part the sum of two rounded products as in a complex product
    compiled without fused multiply-add, which numpy's own uses where it can."""
    out = np.empty_like(X)
    np.subtract(w.real * X.real, w.imag * X.imag, out=out.real)
    np.add(w.real * X.imag, w.imag * X.real, out=out.imag)
    return out


def _box_apply(chart: GridChart, U: np.ndarray) -> np.ndarray:
    """B U for U (n_active, k), each row summed from 0 in column order."""
    G = np.zeros((chart.ny, chart.nx, U.shape[1]), U.dtype)
    G[chart.active] = U
    cell = sum(_scale(w, _corner(G, dy, dx)) for w, (dy, dx) in zip(_box_weights(chart), _BOX))
    return np.concatenate([cell[chart.cells], (1.0 / chart.h) * G[tuple(chart.boundary_nodes.T)]])


def _box_adjoint(chart: GridChart, V: np.ndarray) -> np.ndarray:
    """B^H V, scattered onto each node from 0: its cells in C order, its ring row."""
    n_cells = len(V) - len(chart.boundary_nodes)
    W = np.zeros((chart.ny - 1, chart.nx - 1, V.shape[1]), V.dtype)
    W[chart.cells] = V[:n_cells]
    G = np.zeros((chart.ny, chart.nx, V.shape[1]), V.dtype)
    for w, (dy, dx) in reversed(list(zip(_box_weights(chart), _BOX))):
        _corner(G, dy, dx)[...] += _scale(w.conjugate(), W)
    G[tuple(chart.boundary_nodes.T)] += (1.0 / chart.h) * V[n_cells:]
    return G[chart.active]


def _couple(c: np.ndarray, y: int, x0: int, x1: int, P: np.ndarray) -> np.ndarray:
    """sum over dx of c[1 + dx, y, x] P[x + dx + 1], x0 <= x < x1: stencil row y
    applied to P, indexed by node column plus one (columns -1 and nx pad it)."""
    return sum(c[k, y, x0:x1, None] * P[x0 + k:x1 + k] for k in range(3))


class _RowFactor:
    """Block LDL^H factor of B^H B by grid row (block Thomas elimination, Golub &
    Van Loan, *Matrix Computations*, 4.5), built with BLAS at one thread.  B^H B
    is a 3x3 node stencil, K[1 + dy, 1 + dx, y, x] coupling node (y, x) to
    (y + dy, x + dx).  A disk is convex, so a row's active nodes x0 <= x < x1 are
    one run of the C order: B^H B is block tridiagonal by row, the blocks off the
    diagonal kept as stencil rows (``below``, ``above``) and the Schur complements
    S_j = A_jj - A_{j,j-1} S_{j-1}^{-1} A_{j-1,j} as dense inverses (sum m_j^2)."""

    def __init__(self, chart: GridChart):
        K = np.zeros((3, 3, chart.ny, chart.nx), np.complex128)
        for wa, (ya, xa) in zip(_box_weights(chart), _BOX):
            for wb, (yb, xb) in zip(_box_weights(chart), _BOX):
                _corner(K[1 + yb - ya, 1 + xb - xa], ya, xa)[...] += np.conj(wa) * wb * chart.cells
        K[1, 1][tuple(chart.boundary_nodes.T)] += 1.0 / chart.h ** 2
        self.below, self.above, self.active = K[0].copy(), K[2].copy(), chart.active
        self.rows = [(y, int(np.argmax(row)), int(np.argmax(row)) + int(row.sum()))
                     for y, row in enumerate(chart.active) if row.any()]
        self.inverses, eye = [], np.eye(chart.nx + 2)
        prev = np.zeros_like(eye, np.complex128)     # S_{j-1}^{-1} on padded columns
        with one_blas_thread():
            for y, x0, x1 in self.rows:
                M = _couple(K[0], y, x0, x1, prev)
                S = _couple(K[1], y, x0, x1, eye)[:, x0 + 1:x1 + 1]
                S -= _couple(K[0], y, x0, x1, M.conj().T).conj().T
                self.inverses.append(np.linalg.inv(S))
                prev[...] = 0.0
                prev[x0 + 1:x1 + 1, x0 + 1:x1 + 1] = self.inverses[-1]

    def solve(self, R: np.ndarray) -> np.ndarray:
        """(B^H B)^{-1} R for R (n_active, k): rows forward, then back, padded by one."""
        G = np.zeros((self.active.shape[0] + 2, self.active.shape[1] + 2, R.shape[1]), R.dtype)
        G[1:-1, 1:-1][self.active] = R
        for (y, x0, x1), inv in zip(self.rows, self.inverses):
            G[y + 1, x0 + 1:x1 + 1] = inv @ (G[y + 1, x0 + 1:x1 + 1]
                                             - _couple(self.below, y, x0, x1, G[y]))
        for (y, x0, x1), inv in zip(self.rows[-2::-1], self.inverses[-2::-1]):
            G[y + 1, x0 + 1:x1 + 1] -= inv @ _couple(self.above, y, x0, x1, G[y + 2])
        return G[1:-1, 1:-1][self.active]


_disk_factor = lru_cache(maxsize=_CACHE_CHARTS)(_RowFactor)    # one factor per chart
