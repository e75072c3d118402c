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
the direct route sums the linear convolution node by node, and the FFT route
multiplies transforms by the one pair ``conv_transform``/``conv_window``,
which ``blowup.local_energy_grid`` uses as well.  On the torus the pair is
the circular transform of the whole grid.  Elsewhere ``numpy.fft`` zero-pads
to ``_fast_len(2n-1)``, the smallest 11-smooth length of at least 2n-1, per
axis and keeps the n-node output window [n-1, 2n-1) of the circular
convolution.  That is exact: wrap-around only reaches linear indices of at
least 2n-1, past the window.  The two kernel transforms are cached per chart.

Both routes evaluate the same sums, so they must agree to roundoff.

On the disk ``disk_solve`` imposes a boundary trace.  D = 2 [[0, dbar],
[-d, 0]] and d = conj o dbar o conj, so slot 2 is one scalar problem for
2 dbar (``_disk_system``) and slot 1 its conjugate problem for conj(psi1).

``dirac_inverse(chart)`` is the one place that chooses how to invert D for
the solvers: the spectral inverse on a kernel-free torus, ``disk_solve`` with
a boundary trace on the disk.  It rejects any other chart before a solve runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._blas import one_blas_thread
from .charts import DISK, RECT, TORUS, GridChart, SpinorField, erode
from .dirac import _CACHE_CHARTS, diff_x, diff_y, dirac_inverse_spectral, torus_setup
from .errors import ConfigurationError, DomainError, PreconditionError, SolverError
from .fields import plane_wave_sum, smoothstep7
from .rng import SplitMix64
from .spinors import lp_norm, scalar_lp_norm


def kernel_matrix(x1: float, x2: float) -> np.ndarray:
    """The free-space Dirac Green kernel K(x) at the offset (x1, x2); zero at
    the origin, where the analytic cell average vanishes because K is odd."""
    z = complex(x1, x2)
    if abs(z) == 0.0:
        return np.zeros((2, 2), np.complex128)
    return np.array([[0.0, -1.0 / (2.0 * np.pi * np.conj(z))],
                     [1.0 / (2.0 * np.pi * z), 0.0]], np.complex128)


def kernel_offset_grids(chart: GridChart):
    """Offset grids (g1, g2) of shape (2ny-1, 2nx-1), incl. cell weight.

    g2 multiplies f1 to produce w2; g1 multiplies f2 to produce w1.
    Offset (0, 0) sits at index (ny-1, nx-1); offsets closer than half a cell
    take the analytic cell average, zero because the kernel is odd.
    """
    dx, dy = offset_grid(chart)
    Z = dx + 1j * dy
    r = np.abs(Z)
    cell = chart.hx * chart.hy
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = cell / (2.0 * np.pi * Z)
    g2[r < 0.5 * min(chart.hx, chart.hy)] = 0.0
    g1 = -np.conj(g2)
    return g1, g2


def _support_margin_check(f: SpinorField):
    act = f.chart.active
    ring = act & ~erode(erode(act))
    mags = np.abs(f.values).max(axis=(2, 3))
    top = mags.max()
    if top > 0 and mags[ring].max() > 1e-13 * top:
        raise PreconditionError("source must vanish within 2 cells of the chart edge")


def offset_grid(chart: GridChart):
    """Node offsets (dx, dy) between any two nodes, broadcastable to shape
    (2ny-1, 2nx-1), with offset (0, 0) at index (ny-1, nx-1)."""
    dx = (np.arange(-(chart.nx - 1), chart.nx) * chart.hx)[None, :]
    dy = (np.arange(-(chart.ny - 1), chart.ny) * chart.hy)[:, None]
    return dx, dy


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d 11^e >= n: a length pocketfft transforms fast."""
    rest = n
    for p in (2, 3, 5, 7, 11):
        while rest % p == 0:
            rest //= p
    return n if rest == 1 else _fast_len(n + 1)


def conv_transform(chart: GridChart, a: np.ndarray) -> np.ndarray:
    """Forward half of the convolution pair: the circular transform of a node
    grid on the torus, else the transform of a node or offset grid
    (``offset_grid``) zero-padded to ``_fast_len(2n-1)`` per axis."""
    if chart.kind == TORUS:
        return np.fft.fft2(a)
    return np.fft.fft2(a, (_fast_len(2 * chart.ny - 1), _fast_len(2 * chart.nx - 1)))


def conv_window(chart: GridChart, spectrum: np.ndarray) -> np.ndarray:
    """Inverse half of the convolution pair: the whole grid on the torus, else
    the window [n-1, 2n-1) per axis of ``ifft2`` (same bits, y transforms of the
    window's columns only), where the product of an offset-grid transform and a
    node-grid transform holds out[t] = sum_s kernel[t - s + (n-1)] src[s]."""
    if chart.kind == TORUS:
        return np.fft.ifft2(spectrum)
    ny, nx = chart.ny, chart.nx
    cols = np.fft.ifft(spectrum, axis=1)[:, nx - 1:2 * nx - 1]
    return np.fft.ifft(cols, axis=0)[ny - 1:2 * ny - 1]


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
def _free_kernel_ffts(chart: GridChart):
    """``conv_transform`` of both free-space kernel grids, once per chart."""
    return tuple(conv_transform(chart, g) for g in kernel_offset_grids(chart))


def green_convolve(f: SpinorField, method: str = "fft") -> SpinorField:
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
        setup = torus_setup(chart, "the torus Green kernel", invertible=True)
        G1 = np.fft.ifft2(-1.0 / setup.b)     # w1 <- f2
        G2 = np.fft.ifft2(1.0 / setup.a)      # w2 <- f1
        for i in range(f.n):
            m1 = f.values[:, :, i, 0] * setup.phase
            m2 = f.values[:, :, i, 1] * setup.phase
            out[:, :, i, 0] = _circular_conv_direct(G1, m2) * setup.unphase
            out[:, :, i, 1] = _circular_conv_direct(G2, m1) * setup.unphase
        return SpinorField(chart, out)
    if chart.kind not in (DISK, RECT):
        raise DomainError(f"green_convolve does not support {chart.kind!r} charts")
    _support_margin_check(f)
    kernels = (kernel_offset_grids(chart) if method == "direct"
               else _free_kernel_ffts(chart))
    for i in range(f.n):
        for slot, kernel in enumerate(kernels):     # w1 <- f2 by g1, w2 <- f1 by g2
            src = f.values[:, :, i, 1 - slot]
            if method == "direct":
                out[:, :, i, slot] = _linear_conv_direct(kernel, src)
            else:
                # kernel first: complex products are not bitwise commutative
                spec = conv_transform(chart, src)
                out[:, :, i, slot] = conv_window(chart, np.multiply(kernel, spec, out=spec))
    if chart.kind == DISK:
        out[~chart.active] = 0.0
    return SpinorField(chart, out)


# ---------------------------------------------------------------------------
# disk boundary-value solve
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_CHARTS)
def _disk_system(chart: GridChart):
    """Sparse scalar system ``B``: the box scheme of 2 dbar = Dx + i Dy that
    ``disk_solve`` solves for slot 2 and, as its conjugate problem, slot 1.

    Rows sit at cell centers (corner differences at the four cell corners,
    right-hand side averaged over the corners); node-based centered
    differences would leave exact checkerboard modes in the kernel.  One row
    per full cell (``GridChart.cells``) in C order, over the corners (j,i),
    (j,i+1), (j+1,i), (j+1,i+1); then one trace row per boundary ring node in
    ring order, weighted by 1/h.  Columns: the active nodes in C order.

    Returns ``(B, corners)``: the CSR matrix and the flat node ids
    ``iy*nx + ix`` of the cell corners, shape (4, n_cells), in row order.
    """
    from scipy.sparse import csr_matrix
    nodes = np.flatnonzero(chart.active)                # column u is node nodes[u]
    jj, ii = np.nonzero(chart.cells)
    first = jj * chart.nx + ii                          # corner (j, i) of each cell
    corners = np.stack([first, first + 1, first + chart.nx, first + chart.nx + 1])
    ring = np.ravel_multi_index(chart.boundary_nodes.T, (chart.ny, chart.nx))
    n_cells, n_rows = first.size, first.size + ring.size
    hx, hy = chart.hx, chart.hy
    cx, cy = (-1, +1, -1, +1), (-1, -1, +1, +1)
    stencil = [sx / (2 * hx) + 1j * sy / (2 * hy) for sx, sy in zip(cx, cy)]
    rows = np.concatenate([np.repeat(np.arange(n_cells), 4), np.arange(n_cells, n_rows)])
    cols = np.searchsorted(nodes, np.concatenate([corners.T.ravel(), ring]))
    vals = np.concatenate([np.tile(stencil, n_cells), np.full(ring.size, 1.0 / chart.h)])
    return csr_matrix((vals, (rows, cols)), shape=(n_rows, nodes.size)), corners


def _adjoint(B, v: np.ndarray) -> np.ndarray:
    """B^H v through the free CSC view ``B.T``, without storing B^H."""
    return (B.T @ v.conj()).conj()


def _slots(M: np.ndarray, c: int) -> np.ndarray:
    """View of columns c and n + c of a (rows, 2n) array: component c's two slots."""
    return M.reshape(len(M), 2, -1)[:, :, c]


@lru_cache(maxsize=_CACHE_CHARTS)
def _disk_factor(chart: GridChart):
    """SuperLU factor of ``B^H B`` for the scalar system B (``_disk_system``).

    B^H B is Hermitian positive definite, so diagonal pivots are valid; small
    supernodes keep SuperLU's transient workspace down.
    """
    import scipy.sparse.linalg
    B = _disk_system(chart)[0]
    return scipy.sparse.linalg.splu(
        (B.conj().T @ B).tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        relax=4, panel_size=4, options=dict(SymmetricMode=True))


def disk_solve(f: SpinorField, trace: np.ndarray, tol: float = 1e-10) -> tuple:
    """Solve D psi = f on the disk with psi = trace on the boundary ring.

    Per component, slot 2 solves B u = (mean f1, trace2 / h) for the scalar
    system B of ``_disk_system``, and slot 1 its conjugate problem
    B u = (-conj(mean f2), conj(trace1) / h), psi1 = conj(u).  All 2n problems
    are solved in least squares through the normal equations in one solve by
    the factor cached per chart (``_disk_factor``), refined by the same factor.
    A component converges on the normal-equations residual |B^H (d - B u)| of
    its two slots relative to |B^H d|.  The least-squares residual, reported
    alongside, measures how far the trace is from data a first-order system
    can meet; it does not fall with h and never gates.  Refinement stops when
    every component is at or below ``tol``, and raises SolverError with the
    residual history when a refinement fails to lower the worst residual (a
    NaN residual included).
    Returns (psi, report); ``"iterations"`` is the number of solves plus one.
    BLAS runs at one thread, so the bytes do not depend on the thread count.
    """
    chart = f.chart
    if chart.kind != DISK:
        raise DomainError("disk_solve requires a disk chart")
    bnodes = chart.boundary_nodes
    trace = np.asarray(trace, np.complex128)
    if trace.shape != (bnodes.shape[0], f.n, 2):
        raise PreconditionError(
            f"trace must have shape (n_boundary, n, 2) = {(bnodes.shape[0], f.n, 2)}")
    import scipy.sparse.linalg  # noqa: F401  loads scipy's OpenBLAS before the pin
    n = f.n
    with one_blas_thread():
        B, corners = _disk_system(chart)

        # right-hand sides: corner means (a Python sum, whose start value 0
        # turns four -0.0 corners into +0.0), then the weighted trace rows,
        # slot 2's data first in each row; column c of d is slot 2 of component
        # c, column n + c slot 1's conjugate problem: conj, and -1 on cell rows
        mean = 0.25 * sum(f.values.reshape(-1, n, 2)[corners])
        rhs = np.concatenate([mean, (1.0 / chart.h) * trace[..., ::-1]])
        d = rhs.transpose(0, 2, 1).reshape(-1, 2 * n)
        np.conjugate(d[:, n:], out=d[:, n:])
        np.negative(d[:corners.shape[1], n:], out=d[:corners.shape[1], n:])

        # normal equations by the cached factor, every column in one solve,
        # refined with the same factor while above tol
        lu = _disk_factor(chart)
        U = np.zeros((B.shape[1], 2 * n), np.complex128)
        R = _adjoint(B, d)
        snorm = [np.linalg.norm(_slots(R, c)) for c in range(n)]
        histories = [[] if s == 0 else [1.0] for s in snorm]
        # written so that a NaN residual counts as not converged and not falling
        while live := [c for c, h in enumerate(histories) if h and not h[-1] <= tol]:
            worst = histories[max(live, key=lambda c: histories[c][-1])]
            if len(worst) > 1 and not worst[-1] < worst[-2]:
                raise SolverError(f"disk_solve: relative normal residual {worst[-1]:.3e} "
                                  f"above tol after {len(worst) - 1} solves", worst)
            cols = live + [n + c for c in live]
            U[:, cols] += lu.solve(R[:, cols])
            R = _adjoint(B, d - B @ U)
            for c in live:
                histories[c].append(float(np.linalg.norm(_slots(R, c)) / snorm[c]))

        misfit = B @ U - d
        ls_residuals = [float(np.linalg.norm(_slots(misfit, c)) / np.linalg.norm(_slots(d, c)))
                        if _slots(d, c).any() else 0.0 for c in range(n)]
    out = np.zeros_like(f.values)
    # conj gives an exact zero the imaginary part -0.0; 0 + makes it +0.0
    out[chart.active] = np.stack([0 + U[:, n:].conj(), U[:, :n]], axis=-1)
    psi = SpinorField(chart, out)
    report = {"residual_histories": histories,
              "final_residual": max((h[-1] if h else 0.0) for h in histories),
              "least_squares_residual": max(ls_residuals),
              "iterations": max(len(h) for h in histories)}
    return psi, report


def dirac_inverse(chart: GridChart, trace: np.ndarray | None = None):
    """The Dirac inverse on ``chart`` as a callable f -> psi; the one place
    that chooses it, so a chart it cannot serve is rejected before any solve.

    On a torus with a kernel-free spin structure it is
    ``dirac_inverse_spectral``, and a ``trace`` is a ConfigurationError (the
    torus has no boundary).  On a disk it is ``disk_solve`` with boundary
    values ``trace`` (shape (n_boundary, n, 2)), zero when none is given; that
    linear zero-trace inverse is the S0 of ``newton_refine``'s linear solve.
    Any other chart, or a torus whose Dirac operator has a kernel, is a
    ConfigurationError.
    """
    if chart.kind == TORUS:
        if trace is not None:
            raise ConfigurationError("a boundary trace is read on disk charts only; "
                                     "the torus has no boundary")
        torus_setup(chart, "the torus Dirac inverse", invertible=True)
        return dirac_inverse_spectral
    if chart.kind == DISK:
        nb = chart.boundary_nodes.shape[0]

        def inverse(f: SpinorField) -> SpinorField:
            tr = trace if trace is not None else np.zeros((nb, f.n, 2), np.complex128)
            return disk_solve(f, tr)[0]

        return inverse
    raise ConfigurationError(f"the Dirac inverse is not defined on {chart.kind!r} charts")


# ---------------------------------------------------------------------------
# empirical boundary-estimate ratio
# ---------------------------------------------------------------------------

def windowed_mode_field(chart: GridChart, stream: SplitMix64) -> SpinorField:
    """Band-limited random one-component field cut off smoothly inside the
    chart: modes |kx|, |ky| <= 3, window falling from 1 at 0.45 R to 0 at 0.7 R.

    The coefficient stream is consumed in a fixed (slot, kx, ky) order by
    ``fields.plane_wave_sum``, so the same seed yields the same continuum
    field at every resolution.
    """
    if chart.kind == DISK:
        radius = chart.params[0]
    else:
        radius = 0.5 * min(chart.xs[-1] - chart.xs[0], chart.ys[-1] - chart.ys[0])
    X, Y = chart.grid()
    cx, cy = 0.5 * (chart.xs[0] + chart.xs[-1]), 0.5 * (chart.ys[0] + chart.ys[-1])
    r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
    a, b = 0.45 * radius, 0.7 * radius
    window = smoothstep7((r - a) / (b - a))
    kx, ky = (k.ravel()[:, None] for k in np.mgrid[-3:4, -3:4])
    e_x = np.exp(1j * np.pi * kx * (chart.xs - cx) / radius)
    e_y = np.exp(1j * np.pi * ky * (chart.ys - cy) / radius)
    v = np.stack(plane_wave_sum(stream, e_x, e_y, 2) * window, axis=-1)[:, :, None, :]
    v[~chart.active] = 0.0
    return SpinorField(chart, v)


def gradient_magnitude(psi: SpinorField) -> np.ndarray:
    """Pointwise |grad psi| by centered differences."""
    vx = diff_x(psi.values, psi.chart)
    vy = diff_y(psi.values, psi.chart)
    return np.sqrt(np.sum(vx.real ** 2 + vx.imag ** 2 + vy.real ** 2 + vy.imag ** 2,
                          axis=(2, 3)))


def estimate_ratio(p: float, trials: int, refinements, seed: int = 0) -> dict:
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
            fnorm = lp_norm(f, p)
            if fnorm == 0.0:
                continue  # degenerate 0/0 trial
            w = green_convolve(f)
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
