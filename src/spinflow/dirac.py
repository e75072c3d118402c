"""Discrete Dirac operator and flat Laplacian.

With dbar = (d/dx + i d/dy)/2 and d = (d/dx - i d/dy)/2, the operator acts
blockwise as

    (D psi)_1 = 2 dbar psi_2,      (D psi)_2 = -2 d psi_1.

Finite differences are centered second order, with one-sided second-order
stencils on non-periodic edges and on the disk boundary ring.  The spectral
mode (torus only) realizes the four spin structures by half-integer frequency
shifts: the stored section is modulated to a periodic function, transformed,
and the frequencies along an antiperiodic cycle become 2*pi*(k + 1/2)/L.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .charts import BOUNDARY, CYLINDER, DISK, TORUS, GridChart, SpinorField
from .errors import ConfigurationError, DomainError
from .spinors import lp_norm

FD = "fd"
SPECTRAL = "spectral"

# Test hook: when != 1.0 the centered x-derivative is mis-scaled, which breaks
# the Weitzenboeck identity at O(1).  Used by `spinflow verify` as a negative
# control; never set in library code.
_STENCIL_SCALE = 1.0


@contextmanager
def broken_stencil(scale: float = 1.05):
    global _STENCIL_SCALE
    old = _STENCIL_SCALE
    _STENCIL_SCALE = scale
    try:
        yield
    finally:
        _STENCIL_SCALE = old


# ---------------------------------------------------------------------------
# shifts and finite differences
# ---------------------------------------------------------------------------

def _shift(values: np.ndarray, chart: GridChart, axis: int, k: int) -> np.ndarray:
    """values[..., i + k, ...] along the axis with (anti)periodic wrap: the
    wrapped entries flip sign along an antiperiodic cycle (shift 1/2)."""
    out = np.roll(values, -k, axis=axis)
    if chart.spin_shifts[1 - axis]:
        sl = [slice(None)] * values.ndim
        sl[axis] = slice(-k, None) if k > 0 else slice(None, -k)
        out[tuple(sl)] = -out[tuple(sl)]
    return out


def _diff1_periodic(values, chart, axis, h):
    return (_shift(values, chart, axis, 1) - _shift(values, chart, axis, -1)) / (2.0 * h)


def _diff2_periodic(values, chart, axis, h):
    return (_shift(values, chart, axis, 1) - 2.0 * values
            + _shift(values, chart, axis, -1)) / (h * h)


def _diff1_bounded(values, axis, h):
    """Centered interior, one-sided second order at the two edges."""
    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    o[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    o[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def _diff2_bounded(values, axis, h):
    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    o[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
    o[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    return out


def _fix_disk_nodes(out, values, chart, axis, h, order):
    """Recompute the disk boundary ring with stencils that avoid outside nodes.

    Inside nodes always have active 4-neighbors, so the global centered pass is
    valid there; only the ring needs care.  Each ring node takes the first
    stencil whose neighbors along the axis are active: centered, forward,
    backward, then (first derivative only) first order forward or backward,
    else zero.  Coarse grids reach the later ones.
    """
    ring = list(np.nonzero(chart.mask == BOUNDARY))
    pos, size = ring[axis], chart.active.shape[axis]
    near, ok = [], []           # values and availability at offsets -2..2
    for d in (-2, -1, 0, 1, 2):
        at = list(ring)
        at[axis] = np.clip(pos + d, 0, size - 1)
        near.append(values[tuple(at)])
        ok.append((pos + d >= 0) & (pos + d < size) & chart.active[tuple(at)])
    m2, m1, _, p1, p2 = ok
    if order == 1:
        rules = ((m1 & p1, lambda l2, l1, c, r1, r2: (r1 - l1) / (2.0 * h)),
                 (p1 & p2, lambda l2, l1, c, r1, r2: (-3.0 * c + 4.0 * r1 - r2) / (2.0 * h)),
                 (m1 & m2, lambda l2, l1, c, r1, r2: (3.0 * c - 4.0 * l1 + l2) / (2.0 * h)),
                 (p1, lambda l2, l1, c, r1, r2: (r1 - c) / h),
                 (m1, lambda l2, l1, c, r1, r2: (c - l1) / h))
    else:
        rules = ((m1 & p1, lambda l2, l1, c, r1, r2: (r1 - 2.0 * c + l1) / (h * h)),
                 (p1 & p2, lambda l2, l1, c, r1, r2: (c - 2.0 * r1 + r2) / (h * h)),
                 (m1 & m2, lambda l2, l1, c, r1, r2: (c - 2.0 * l1 + l2) / (h * h)))
    out[tuple(ring)] = 0.0
    for use, rule in reversed(rules):           # earlier rules overwrite later ones
        out[ring[0][use], ring[1][use]] = rule(*(v[use] for v in near))
    return out


def _derivative(values: np.ndarray, chart: GridChart, axis: int, order: int) -> np.ndarray:
    """First or second derivative along an array axis (1 = x, 0 = y), second
    order: periodic stencils with spin-structure wrap, one-sided edges on
    bounded axes, the disk ring recomputed node by node."""
    h, periodic = (chart.hx, chart.periodic_x) if axis == 1 else (chart.hy, chart.periodic_y)
    if periodic:
        out = (_diff1_periodic if order == 1 else _diff2_periodic)(values, chart, axis, h)
    else:
        out = (_diff1_bounded if order == 1 else _diff2_bounded)(values, axis, h)
    if chart.kind == DISK:
        out = _fix_disk_nodes(out, values, chart, axis, h, order=order)
        out[~chart.active] = 0.0
    if axis == 1 and _STENCIL_SCALE != 1.0:
        out = out * _STENCIL_SCALE
    return out


def diff_x(values: np.ndarray, chart: GridChart) -> np.ndarray:
    """d/dx of per-node data (leading axes (ny, nx)), second order."""
    return _derivative(values, chart, 1, 1)


def diff_y(values: np.ndarray, chart: GridChart) -> np.ndarray:
    return _derivative(values, chart, 0, 1)


def diff2_x(values: np.ndarray, chart: GridChart) -> np.ndarray:
    return _derivative(values, chart, 1, 2)


def diff2_y(values: np.ndarray, chart: GridChart) -> np.ndarray:
    return _derivative(values, chart, 0, 2)


# ---------------------------------------------------------------------------
# spectral transform with spin-structure shifts
# ---------------------------------------------------------------------------

def _require_torus(chart: GridChart, what: str):
    if chart.kind != TORUS:
        raise DomainError(f"{what} requires a torus chart, got {chart.kind!r}")


def _spin_phase(chart: GridChart) -> np.ndarray:
    """Modulation making an (anti)periodic section periodic, shape (ny, nx)."""
    sx, sy = chart.spin_shifts
    Lx, Ly = chart.params
    px = np.exp(-2j * np.pi * sx * chart.xs / Lx)
    py = np.exp(-2j * np.pi * sy * chart.ys / Ly)
    return py[:, None] * px[None, :]


def spin_frequencies(chart: GridChart):
    """Angular frequencies (xi, eta) on the fft grid, incl. half shifts."""
    sx, sy = chart.spin_shifts
    Lx, Ly = chart.params
    kx = np.fft.fftfreq(chart.nx) * chart.nx + sx
    ky = np.fft.fftfreq(chart.ny) * chart.ny + sy
    xi = 2.0 * np.pi * kx / Lx
    eta = 2.0 * np.pi * ky / Ly
    return xi[None, :], eta[:, None]


def spin_fft2(values: np.ndarray, chart: GridChart) -> np.ndarray:
    phase = _spin_phase(chart)
    return np.fft.fft2(values * phase[:, :, None, None], axes=(0, 1))


def spin_ifft2(vhat: np.ndarray, chart: GridChart) -> np.ndarray:
    phase = _spin_phase(chart)
    return np.fft.ifft2(vhat, axes=(0, 1)) * np.conj(phase)[:, :, None, None]


def dirac_symbols(chart: GridChart):
    """Per-mode factors (a, b) with (D psi)^ = (a psi2^, -b psi1^)."""
    xi, eta = spin_frequencies(chart)
    a = 1j * (xi + 1j * eta)     # symbol of 2 dbar
    b = 1j * (xi - 1j * eta)     # symbol of 2 d
    return a, b


def symbol_report(chart: GridChart) -> dict:
    """Kernel inspection: the symbol vanishes exactly on zero modes."""
    _require_torus(chart, "symbol inspection")
    a, _ = dirac_symbols(chart)
    mods = np.abs(a)
    scale = 2.0 * np.pi / max(chart.params)
    zero_modes = int(np.count_nonzero(mods < 1e-12 * scale))
    return {"min_symbol_modulus": float(mods.min()),
            "zero_modes": zero_modes,
            "invertible": zero_modes == 0}


def require_invertible(chart: GridChart, what: str) -> None:
    """Raise ConfigurationError when the Dirac operator on this torus has a
    kernel (the PP spin structure carries the constant sections)."""
    rep = symbol_report(chart)
    if not rep["invertible"]:
        raise ConfigurationError(
            f"{what} needs an invertible Dirac operator; spin structure "
            f"{chart.spin_structure} has {rep['zero_modes']} zero mode(s)")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def dirac_apply(psi: SpinorField, mode: str = FD) -> SpinorField:
    """Apply the Dirac operator; linear in psi, chart and n unchanged."""
    chart = psi.chart
    if chart.kind == CYLINDER:
        raise DomainError("the flat Dirac operator is not defined on cylinder charts")
    v = psi.values
    if mode == SPECTRAL:
        _require_torus(chart, "spectral mode")
        a, b = dirac_symbols(chart)
        vh = spin_fft2(v, chart)
        out = np.empty_like(vh)
        out[..., 0] = a[:, :, None] * vh[..., 1]
        out[..., 1] = -b[:, :, None] * vh[..., 0]
        return SpinorField(chart, spin_ifft2(out, chart), psi.tag)
    if mode != FD:
        raise ConfigurationError(f"unknown mode {mode!r}")
    dx = diff_x(v, chart)
    dy = diff_y(v, chart)
    out = np.empty_like(v)
    # 2 dbar = d/dx + i d/dy ; 2 d = d/dx - i d/dy
    out[..., 0] = dx[..., 1] + 1j * dy[..., 1]
    out[..., 1] = -(dx[..., 0] - 1j * dy[..., 0])
    if chart.kind == DISK:
        out[~chart.active] = 0.0
    return SpinorField(chart, out, psi.tag)


def laplace_apply(psi: SpinorField, mode: str = FD) -> SpinorField:
    """Componentwise flat Laplacian."""
    chart = psi.chart
    if chart.kind == CYLINDER:
        raise DomainError("the flat Laplacian is not defined on cylinder charts")
    v = psi.values
    if mode == SPECTRAL:
        _require_torus(chart, "spectral mode")
        xi, eta = spin_frequencies(chart)
        sym = -(xi * xi + eta * eta)
        vh = spin_fft2(v, chart)
        return SpinorField(chart, spin_ifft2(sym[:, :, None, None] * vh, chart), psi.tag)
    if mode != FD:
        raise ConfigurationError(f"unknown mode {mode!r}")
    out = diff2_x(v, chart) + diff2_y(v, chart)
    if chart.kind == DISK:
        out[~chart.active] = 0.0
    return SpinorField(chart, out, psi.tag)


def dirac_inverse_spectral(f: SpinorField) -> SpinorField:
    """Solve D psi = f exactly per Fourier mode (kernel-free torus only)."""
    chart = f.chart
    _require_torus(chart, "the spectral Dirac inverse")
    require_invertible(chart, "the spectral Dirac inverse")
    a, b = dirac_symbols(chart)
    fh = spin_fft2(f.values, chart)
    out = np.empty_like(fh)
    out[..., 0] = -fh[..., 1] / b[:, :, None]
    out[..., 1] = fh[..., 0] / a[:, :, None]
    return SpinorField(chart, spin_ifft2(out, chart), f.tag)


def weitzenboeck_residual(psi: SpinorField, mode: str = SPECTRAL) -> float:
    """L2 norm of D(D psi) + Laplace psi.

    Exact (to roundoff) in spectral mode; O(h^2) in FD mode because the
    squared centered stencil is the wide 5-point star while the Laplacian
    uses the compact one.
    """
    _require_torus(psi.chart, "the Weitzenboeck check")
    dd = dirac_apply(dirac_apply(psi, mode), mode)
    return lp_norm(dd + laplace_apply(psi, mode), 2.0)
