"""Dirac Green kernel, Newton potentials, and the disk boundary-value solve.

The free-space kernel is Clifford multiplication by -x/(2 pi |x|^2).  In the
2x2 representation, with z = x1 + i x2,

    K(x) = [[0, -1/(2 pi conj(z))], [1/(2 pi z), 0]],

so the potential w(x) = sum_y K(x - y) f(y) w_y splits into two scalar
convolutions: w1 from f2 with kernel -1/(2 pi conj(z)), w2 from f1 with
kernel 1/(2 pi z).  The singular self-cell uses the analytic cell average,
which vanishes by antisymmetry.

On the torus the periodized kernel is the exact discrete Green function of
the shifted spectral symbol: the FFT route is the spectral inverse
``dirac_inverse_spectral`` itself, and the direct route sums the periodized
kernel node by node as its independent oracle.  Disk and rect charts use the
free-space kernel and require compact support away from the chart edge; there
the FFT route pads to a linear convolution and the direct route sums it.

Both routes evaluate the same sums, so they must agree to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft
import scipy.sparse as sp
from scipy import ndimage

from .charts import DISK, RECT, TORUS, GridChart, SpinorField
from .dirac import (_spin_phase, diff_x, diff_y, dirac_inverse_spectral,
                    dirac_symbols, require_invertible)
from .errors import ConfigurationError, DomainError, PreconditionError, SolverError
from .fields import smoothstep7
from .rng import SplitMix64
from .spinors import scalar_lp_norm

# Kernel grids and disk systems are cached per chart, at most this many each.
_CACHE_CHARTS = 16


@dataclass(frozen=True)
class GreenKernel:
    """Evaluation rule for the free-space Dirac Green kernel.

    ``regularization_radius`` is measured in cells; offsets below it use the
    analytic cell average, which is zero because the kernel is odd.
    """

    regularization_radius: float = 1.0

    def matrix(self, x1: float, x2: float) -> np.ndarray:
        z = complex(x1, x2)
        if abs(z) == 0.0:
            return np.zeros((2, 2), np.complex128)
        return np.array([[0.0, -1.0 / (2.0 * np.pi * np.conj(z))],
                         [1.0 / (2.0 * np.pi * z), 0.0]], np.complex128)

    def scalar_offset_grids(self, chart: GridChart):
        """Offset grids (g1, g2) of shape (2ny-1, 2nx-1), incl. cell weight.

        g2 multiplies f1 to produce w2; g1 multiplies f2 to produce w1.
        Offset (0, 0) sits at index (ny-1, nx-1).
        """
        dx = (np.arange(-(chart.nx - 1), chart.nx) * chart.hx)[None, :]
        dy = (np.arange(-(chart.ny - 1), chart.ny) * chart.hy)[:, None]
        Z = dx + 1j * dy
        r = np.abs(Z)
        cell = chart.hx * chart.hy
        with np.errstate(divide="ignore", invalid="ignore"):
            g2 = cell / (2.0 * np.pi * Z)
        g2[r < self.regularization_radius * min(chart.hx, chart.hy) * 0.5] = 0.0
        g1 = -np.conj(g2)
        return g1, g2


def _support_margin_check(f: SpinorField, margin_cells: int = 2):
    act = f.chart.active
    ring = act & ~ndimage.binary_erosion(act, iterations=margin_cells)
    mags = np.abs(f.values).max(axis=(2, 3))
    top = mags.max()
    if top > 0 and mags[ring].max() > 1e-13 * top:
        raise PreconditionError(
            "source must vanish within %d cells of the chart edge" % margin_cells)


def _linear_conv_fft(kernel_off: np.ndarray, src: np.ndarray) -> np.ndarray:
    ny, nx = src.shape
    sy = scipy.fft.next_fast_len(3 * ny - 2)
    sx = scipy.fft.next_fast_len(3 * nx - 2)
    kh = scipy.fft.fft2(kernel_off, (sy, sx))
    sh = scipy.fft.fft2(src, (sy, sx))
    full = scipy.fft.ifft2(kh * sh)
    return full[ny - 1:2 * ny - 1, nx - 1:2 * nx - 1]


def _linear_conv_direct(kernel_off: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Direct O(N^2) summation over source nodes; the oracle route."""
    ny, nx = src.shape
    out = np.empty((ny, nx), np.complex128)
    flip = kernel_off[::-1, ::-1]
    for ty in range(ny):
        for tx in range(nx):
            blk = flip[ny - 1 - ty: 2 * ny - 1 - ty, nx - 1 - tx: 2 * nx - 1 - tx]
            out[ty, tx] = np.sum(blk * src)
    return out


def _circular_conv_direct(kernel_grid: np.ndarray, src: np.ndarray) -> np.ndarray:
    ny, nx = src.shape
    out = np.empty((ny, nx), np.complex128)
    sy, sx = np.mgrid[0:ny, 0:nx]
    for ty in range(ny):
        rows = (ty - sy) % ny
        for tx in range(nx):
            out[ty, tx] = np.sum(kernel_grid[rows, (tx - sx) % nx] * src)
    return out


@lru_cache(maxsize=_CACHE_CHARTS)
def _free_kernel_grids(chart: GridChart, kernel: GreenKernel):
    return kernel.scalar_offset_grids(chart)


def green_convolve(f: SpinorField, method: str = "fft",
                   kernel: GreenKernel | None = None) -> SpinorField:
    """Dirac-Newton potential of f: returns w with D w ~ f (O(h^2) in FD).

    ``method`` selects the accelerated FFT route (on the torus, the spectral
    inverse) or the direct-summation oracle; both evaluate the same kernel sums.
    """
    chart = f.chart
    if method not in ("fft", "direct"):
        raise ConfigurationError(f"unknown convolution method {method!r}")
    if chart.kind == TORUS and method == "fft":
        return dirac_inverse_spectral(f)
    out = np.zeros_like(f.values)
    if chart.kind == TORUS:
        require_invertible(chart, "the torus Green kernel")
        a, b = dirac_symbols(chart)
        G1 = np.fft.ifft2(-1.0 / b)     # w1 <- f2
        G2 = np.fft.ifft2(1.0 / a)      # w2 <- f1
        phase = _spin_phase(chart)
        for i in range(f.n):
            m1 = f.values[:, :, i, 0] * phase
            m2 = f.values[:, :, i, 1] * phase
            out[:, :, i, 0] = _circular_conv_direct(G1, m2) * np.conj(phase)
            out[:, :, i, 1] = _circular_conv_direct(G2, m1) * np.conj(phase)
        return SpinorField(chart, out, f.tag)
    if chart.kind not in (DISK, RECT):
        raise DomainError(f"green_convolve does not support {chart.kind!r} charts")
    _support_margin_check(f)
    g1, g2 = _free_kernel_grids(chart, kernel or GreenKernel())
    conv = _linear_conv_fft if method == "fft" else _linear_conv_direct
    for i in range(f.n):
        out[:, :, i, 0] = conv(g1, f.values[:, :, i, 1])
        out[:, :, i, 1] = conv(g2, f.values[:, :, i, 0])
    if chart.kind == DISK:
        out[~chart.active] = 0.0
    return SpinorField(chart, out, f.tag)


# ---------------------------------------------------------------------------
# disk boundary-value solve
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_CHARTS)
def _disk_system(chart: GridChart):
    """Sparse first-order system for the disk boundary-value solve.

    The Dirac rows sit at cell centers (box scheme: corner differences at the
    four cell corners, right-hand side averaged over the corners); node-based
    centered differences would leave exact checkerboard modes in the kernel.
    Unknown ordering: active nodes in C order, slot 1 then slot 2 per node.

    Row layout: two rows per full cell (``GridChart.cells``) in C order, first
    ``(Dx + i Dy) psi2 = mean f1``, then ``-(Dx - i Dy) psi1 = mean f2``, each
    over the corners (j,i), (j,i+1), (j+1,i), (j+1,i+1); then two trace rows
    (slot 1, slot 2) per boundary ring node in ring order, weighted by 1/h.

    Returns ``(A, A^H, idx, corners)``: the CSR matrix and its conjugate
    transpose, the unknown index of each node (-1 outside), and the flat node
    ids ``iy*nx + ix`` of the cell corners, shape (4, n_cells), in row order.
    """
    act = chart.active
    n_act = int(act.sum())
    idx = -np.ones((chart.ny, chart.nx), dtype=np.int64)
    idx[act] = np.arange(n_act)
    jj, ii = np.nonzero(chart.cells)
    first = jj * chart.nx + ii                          # corner (j, i) of each cell
    corners = np.stack([first, first + 1, first + chart.nx, first + chart.nx + 1])
    unknown = idx.ravel()[corners.T]                    # (n_cells, 4)
    n_cells = unknown.shape[0]
    hx, hy = chart.hx, chart.hy
    cx, cy = (-1, +1, -1, +1), (-1, -1, +1, +1)
    stencil = [[sx / (2 * hx) + 1j * sy / (2 * hy) for sx, sy in zip(cx, cy)],
               [-(sx / (2 * hx) - 1j * sy / (2 * hy)) for sx, sy in zip(cx, cy)]]
    ring = idx[chart.boundary_nodes[:, 0], chart.boundary_nodes[:, 1]]
    n_rows = 2 * n_cells + 2 * ring.size
    rows = np.concatenate([np.repeat(np.arange(2 * n_cells), 4),
                           np.arange(2 * n_cells, n_rows)])
    cols = np.concatenate([np.stack([2 * unknown + 1, 2 * unknown], axis=1).ravel(),
                           (2 * ring[:, None] + np.arange(2)).ravel()])
    vals = np.concatenate([np.broadcast_to(np.array(stencil), (n_cells, 2, 4)).ravel(),
                           np.full(2 * ring.size, 1.0 / chart.h)])
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, 2 * n_act))
    return A, A.conj().T.tocsr(), idx, corners


def boundary_trace_norm(chart: GridChart, trace: np.ndarray, p: float) -> float:
    """W^{1,p} norm of boundary data: p-norms of the trace and its arclength
    derivative (centered differences along the discrete boundary curve)."""
    coords = chart.boundary_coords
    nb = coords.shape[0]
    seg = np.linalg.norm(np.roll(coords, -1, axis=0) - coords, axis=1)
    ds = 0.5 * (seg + np.roll(seg, 1))
    tr = trace.reshape(nb, -1)
    dtr = (np.roll(tr, -1, axis=0) - np.roll(tr, 1, axis=0)) / \
        (seg + np.roll(seg, 1))[:, None]
    mag = np.sqrt(np.sum(np.abs(tr) ** 2, axis=1))
    dmag = np.sqrt(np.sum(np.abs(dtr) ** 2, axis=1))
    return float(np.sum((mag ** p + dmag ** p) * ds) ** (1.0 / p))


def disk_solve(f: SpinorField, trace: np.ndarray, tol: float = 1e-10,
               max_iter: int | None = None) -> tuple:
    """Solve D psi = f on the disk with psi = trace on the boundary ring.

    The discrete first-order system (trace rows weighted by 1/h) is solved in
    least squares by conjugate gradients on the normal equations.  Convergence
    is measured on the normal-equations residual |A^H (b - A x)| relative to
    |A^H b|; the least-squares residual itself floors at the O(h^2) truncation
    level for data sampled from continuum sources, and is reported alongside.
    Returns (psi, report); raises SolverError with the residual history when
    ``tol`` is not reached after ``max_iter`` iterations (default 10x the
    unknown count).
    """
    chart = f.chart
    if chart.kind != DISK:
        raise DomainError("disk_solve requires a disk chart")
    bnodes = chart.boundary_nodes
    trace = np.asarray(trace, np.complex128)
    if trace.shape != (bnodes.shape[0], f.n, 2):
        raise PreconditionError(
            f"trace must have shape (n_boundary, n, 2) = {(bnodes.shape[0], f.n, 2)}")
    A, AH, idx, corners = _disk_system(chart)
    n_unknown = A.shape[1]
    max_iter = 10 * n_unknown if max_iter is None else max_iter

    # right-hand sides, one column per component: corner means (the leading 0
    # is a Python sum's start value, so four -0.0 corners give +0.0), then
    # the weighted trace rows
    c0, c1, c2, c3 = f.values.reshape(-1, f.n, 2)[corners]
    rhs = np.concatenate([0.25 * (0 + c0 + c1 + c2 + c3), (1.0 / chart.h) * trace])
    out = np.zeros_like(f.values)
    histories = []
    ls_residuals = []
    for comp in range(f.n):
        b = rhs[:, comp, :].ravel()
        bnorm = np.linalg.norm(b)
        history = []
        x = np.zeros(n_unknown, np.complex128)
        if bnorm > 0:
            r_vec = b.copy()
            s_vec = AH @ r_vec
            p = s_vec.copy()
            gamma = np.vdot(s_vec, s_vec).real
            gamma0 = gamma
            for _ in range(max_iter):
                rel = np.sqrt(gamma / gamma0)
                history.append(float(rel))
                if rel <= tol or gamma == 0.0:
                    break
                q = A @ p
                qq = np.vdot(q, q).real
                if qq == 0.0:
                    break
                alpha = gamma / qq
                x += alpha * p
                r_vec -= alpha * q
                s_vec = AH @ r_vec
                gamma_new = np.vdot(s_vec, s_vec).real
                p = s_vec + (gamma_new / gamma) * p
                gamma = gamma_new
            else:
                raise SolverError(
                    f"disk_solve: no convergence after {max_iter} iterations "
                    f"(relative normal residual {history[-1]:.3e})", history)
        histories.append(history)
        ls_residuals.append(float(np.linalg.norm(A @ x - b) / bnorm) if bnorm > 0 else 0.0)
        comp_vals = np.zeros((chart.ny, chart.nx, 2), np.complex128)
        act = chart.active
        comp_vals[act, 0] = x[2 * idx[act]]
        comp_vals[act, 1] = x[2 * idx[act] + 1]
        out[:, :, comp, :] = comp_vals
    psi = SpinorField(chart, out, f.tag or "disk-solve")
    report = {"residual_histories": histories,
              "final_residual": max((h[-1] if h else 0.0) for h in histories),
              "least_squares_residual": max(ls_residuals) if ls_residuals else 0.0,
              "iterations": max(len(h) for h in histories)}
    return psi, report


# ---------------------------------------------------------------------------
# empirical boundary-estimate ratio
# ---------------------------------------------------------------------------

def windowed_mode_field(chart: GridChart, stream: SplitMix64, n: int = 1,
                        max_mode: int = 3, support=(0.45, 0.7)) -> SpinorField:
    """Band-limited random field cut off smoothly inside the chart.

    The coefficient stream is consumed in a fixed (component, slot, kx, ky)
    order, so the same seed yields the same continuum field at every
    resolution.
    """
    if chart.kind == DISK:
        radius = chart.params[0]
    else:
        radius = 0.5 * min(chart.xs[-1] - chart.xs[0], chart.ys[-1] - chart.ys[0])
    X, Y = chart.grid()
    cx, cy = 0.5 * (chart.xs[0] + chart.xs[-1]), 0.5 * (chart.ys[0] + chart.ys[-1])
    r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
    a, b = support[0] * radius, support[1] * radius
    window = smoothstep7((r - a) / (b - a))
    ks = range(-max_mode, max_mode + 1)
    v = np.zeros((chart.ny, chart.nx, n, 2), np.complex128)
    for comp in range(n):
        for s in (0, 1):
            acc = np.zeros_like(X, dtype=np.complex128)
            for kx in ks:
                for ky in ks:
                    c = stream.complex_symmetric()
                    acc = acc + c * np.exp(1j * np.pi * (kx * (X - cx) + ky * (Y - cy)) / radius)
            v[:, :, comp, s] = acc * window
    v[~chart.active] = 0.0
    return SpinorField(chart, v, "windowed-mode-field")


def gradient_magnitude(psi: SpinorField) -> np.ndarray:
    """Pointwise |grad psi| by centered differences."""
    vx = diff_x(psi.values, psi.chart)
    vy = diff_y(psi.values, psi.chart)
    return np.sqrt(np.sum(vx.real ** 2 + vx.imag ** 2 + vy.real ** 2 + vy.imag ** 2,
                          axis=(2, 3)))


def estimate_ratio(p: float, trials: int, refinements, seed: int = 0,
                   method: str = "fft") -> dict:
    """Empirical boundary-estimate constant for the Dirac-Newton potential.

    For seeded band-limited sources with zero trace contribution, reports the
    max over trials of ||grad w||_p / ||f||_p per refinement level and the
    level-to-level drift of that ratio.
    """
    if not (1.0 < p < 2.0 or 2.0 < p <= 4.0):
        raise PreconditionError("p must lie in (1,2) or (2,4]")
    master = SplitMix64(seed)
    trial_seeds = [master.next_u64() for _ in range(trials)]
    levels = []
    for nx in refinements:
        chart = GridChart.disk(int(nx), radius=1.0)
        ratios = []
        for t in range(trials):
            stream = SplitMix64(trial_seeds[t])  # same continuum f per level
            f = windowed_mode_field(chart, stream)
            fnorm = scalar_lp_norm(np.sqrt(np.sum(np.abs(f.values) ** 2, axis=(2, 3))),
                                   chart, p)
            if fnorm == 0.0:
                continue  # degenerate 0/0 trial
            w = green_convolve(f, method=method)
            gnorm = scalar_lp_norm(gradient_magnitude(w), chart, p)
            ratios.append(gnorm / fnorm)
        levels.append({"nx": int(nx), "max_ratio": float(max(ratios)),
                       "ratios": [float(x) for x in ratios]})
    drift = []
    for k in range(1, len(levels)):
        r0, r1 = levels[k - 1]["max_ratio"], levels[k]["max_ratio"]
        drift.append(abs(r1 / r0 - 1.0))
    return {"p": p, "trials": trials, "seed": seed,
            "levels": levels, "drift": [float(d) for d in drift]}
