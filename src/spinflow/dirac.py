"""Discrete Dirac operator and flat Laplacian.

With dbar = (d/dx + i d/dy)/2 and d = (d/dx - i d/dy)/2, the operator acts
blockwise as

    (D psi)_1 = 2 dbar psi_2,      (D psi)_2 = -2 d psi_1.

Finite differences are centered second order, one-sided second order on
non-periodic edges, and first order at some disk boundary nodes.  The spectral
mode (torus only) realizes the four spin structures by half-integer frequency
shifts: the stored section is modulated to a periodic function, transformed,
and the frequencies along an antiperiodic cycle become 2*pi*(k + 1/2)/L.
The symbols, the phase and the kernel count of a torus chart are built once
per chart (``torus_setup``) and read by every spectral operator, which
applies the phase and transforms in place, and by ``conformal.sample_field``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .charts import BOUNDARY, CYLINDER, DISK, TORUS, GridChart, SpinorField
from .errors import ConfigurationError, DomainError
from .spinors import lp_norm

FD = "fd"
SPECTRAL = "spectral"


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _centered(left, centre, right, h, order):
    """The centered stencil of each order, second-order accurate."""
    if order == 1:
        return (right - left) / (2.0 * h)
    return (right - 2.0 * centre + left) / (h * h)


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
    rules = [(m1 & p1, lambda l2, l1, c, r1, r2: _centered(l1, c, r1, h, order))]
    if order == 1:
        rules += [(p1 & p2, lambda l2, l1, c, r1, r2: (-3.0 * c + 4.0 * r1 - r2) / (2.0 * h)),
                  (m1 & m2, lambda l2, l1, c, r1, r2: (3.0 * c - 4.0 * l1 + l2) / (2.0 * h)),
                  (p1, lambda l2, l1, c, r1, r2: (r1 - c) / h),
                  (m1, lambda l2, l1, c, r1, r2: (c - l1) / h)]
    else:
        rules += [(p1 & p2, lambda l2, l1, c, r1, r2: (c - 2.0 * r1 + r2) / (h * h)),
                  (m1 & m2, lambda l2, l1, c, r1, r2: (c - 2.0 * l1 + l2) / (h * h))]
    out[tuple(ring)] = 0.0
    for use, rule in reversed(rules):           # earlier rules overwrite later ones
        out[ring[0][use], ring[1][use]] = rule(*(v[use] for v in near))
    return out


def _derivative(values: np.ndarray, chart: GridChart, axis: int, order: int) -> np.ndarray:
    """First or second derivative along an array axis (1 = x, 0 = y).  Centered
    in the interior; on a periodic axis the end rows read across the seam, the
    wrapped node times -1 along an antiperiodic cycle; on a bounded axis the
    end rows are one-sided, second order (three points for the first
    derivative, four for the second); on a disk ``_fix_disk_nodes`` then
    recomputes the boundary ring, first order at some nodes."""
    h, periodic = (chart.hx, chart.periodic_x) if axis == 1 else (chart.hy, chart.periodic_y)
    at = lambda k: (slice(None),) * axis + (k,)     # index of row(s) k along the axis
    v = lambda k: values[at(k)]
    out = np.empty_like(values)
    out[at(slice(1, -1))] = _centered(v(slice(None, -2)), v(slice(1, -1)), v(slice(2, None)),
                                      h, order)
    if periodic:
        first, last = v(0), v(-1)
        if chart.spin_shifts[1 - axis]:         # antiperiodic: the wrapped node flips sign
            first, last = -first, -last
        out[at(0)] = _centered(last, v(0), v(1), h, order)
        out[at(-1)] = _centered(v(-2), v(-1), first, h, order)
    elif order == 1:
        out[at(0)] = (-3.0 * v(0) + 4.0 * v(1) - v(2)) / (2.0 * h)
        out[at(-1)] = (3.0 * v(-1) - 4.0 * v(-2) + v(-3)) / (2.0 * h)
    else:
        out[at(0)] = (2.0 * v(0) - 5.0 * v(1) + 4.0 * v(2) - v(3)) / (h * h)
        out[at(-1)] = (2.0 * v(-1) - 5.0 * v(-2) + 4.0 * v(-3) - v(-4)) / (h * h)
    if chart.kind == DISK:
        out = _fix_disk_nodes(out, values, chart, axis, h, order=order)
        out[~chart.active] = 0.0
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

# Per-chart caches (the torus setup here, kernel grids, disk systems and disk
# factors in ``green``) hold at most this many charts each; a disk factor takes
# about 60 MB at 257 nodes.
_CACHE_CHARTS = 16


class TorusSetup(NamedTuple):
    """Spectral data of one torus chart, built once (``torus_setup``).

    On the fft grid, with the half shifts of the spin structure in the
    angular frequencies (xi, eta), (D psi)^ = (a psi2^, -b psi1^) and the
    Laplacian's symbol is ``lap``.  ``phase`` is the modulation that makes a
    stored section periodic and ``unphase`` its conjugate.  The arrays are
    read-only, shape (ny, nx); ``zero_modes`` counts the modes where the
    symbol vanishes (the kernel of D).
    """
    a: np.ndarray
    b: np.ndarray
    lap: np.ndarray
    phase: np.ndarray
    unphase: np.ndarray
    zero_modes: int
    min_modulus: float


def _require_torus(chart: GridChart, what: str):
    if chart.kind != TORUS:
        raise DomainError(f"{what} requires a torus chart, got {chart.kind!r}")


@lru_cache(maxsize=_CACHE_CHARTS)
def _torus_setup(chart: GridChart) -> TorusSetup:
    sx, sy = chart.spin_shifts
    Lx, Ly = chart.params
    px = np.exp(-2j * np.pi * sx * chart.xs / Lx)
    py = np.exp(-2j * np.pi * sy * chart.ys / Ly)
    phase = py[:, None] * px[None, :]
    xi = (2.0 * np.pi * (np.fft.fftfreq(chart.nx) * chart.nx + sx) / Lx)[None, :]
    eta = (2.0 * np.pi * (np.fft.fftfreq(chart.ny) * chart.ny + sy) / Ly)[:, None]
    a = 1j * (xi + 1j * eta)     # symbol of 2 dbar
    b = 1j * (xi - 1j * eta)     # symbol of 2 d
    mods = np.abs(a)
    arrays = (a, b, -(xi * xi + eta * eta), phase, np.conj(phase))
    for arr in arrays:
        arr.flags.writeable = False
    scale = 2.0 * np.pi / max(chart.params)
    return TorusSetup(*arrays, int(np.count_nonzero(mods < 1e-12 * scale)),
                      float(mods.min()))


def torus_setup(chart: GridChart, what: str, invertible: bool = False) -> TorusSetup:
    """The cached spectral data of a torus chart.  DomainError on any other
    chart; with ``invertible``, ConfigurationError when the Dirac operator
    has a kernel (the PP spin structure carries the constant sections)."""
    _require_torus(chart, what)
    setup = _torus_setup(chart)
    if invertible and setup.zero_modes:
        raise ConfigurationError(
            f"{what} needs an invertible Dirac operator; spin structure "
            f"{chart.spin_structure} has {setup.zero_modes} zero mode(s)")
    return setup


def spin_fft2(values: np.ndarray, chart: GridChart) -> np.ndarray:
    """Transform of the modulated section over the node axes (a new array)."""
    buf = values * torus_setup(chart, "the spin transform").phase[:, :, None, None]
    return np.fft.fft2(buf, axes=(0, 1), out=buf)


def spin_ifft2(vhat: np.ndarray, chart: GridChart) -> np.ndarray:
    """Inverse of ``spin_fft2``, computed in place: ``vhat`` is overwritten
    with the section and returned.  (``np.fft.ifft2`` ignores ``out=``, so
    the transform is ``ifftn`` over the node axes.)"""
    unphase = torus_setup(chart, "the spin transform").unphase
    np.fft.ifftn(vhat, axes=(0, 1), out=vhat)
    vhat *= unphase[:, :, None, None]
    return vhat


def symbol_report(chart: GridChart) -> dict:
    """Kernel inspection: the symbol vanishes exactly on zero modes."""
    setup = torus_setup(chart, "symbol inspection")
    return {"min_symbol_modulus": setup.min_modulus,
            "zero_modes": setup.zero_modes,
            "invertible": setup.zero_modes == 0}


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
        setup = torus_setup(chart, "spectral mode")
        vh = spin_fft2(v, chart)
        d1 = setup.a[:, :, None] * vh[..., 1]
        # each product reads an input apart from its output: a product into
        # an overlapping view goes through numpy's buffers and its bits change
        np.multiply(setup.b[:, :, None], -vh[..., 0], out=vh[..., 1])
        vh[..., 0] = d1
        return SpinorField(chart, spin_ifft2(vh, chart))
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
    return SpinorField(chart, out)


def laplace_apply(psi: SpinorField, mode: str = FD) -> SpinorField:
    """Componentwise flat Laplacian."""
    chart = psi.chart
    if chart.kind == CYLINDER:
        raise DomainError("the flat Laplacian is not defined on cylinder charts")
    v = psi.values
    if mode == SPECTRAL:
        lap = torus_setup(chart, "spectral mode").lap
        vh = spin_fft2(v, chart)
        vh *= lap[:, :, None, None]
        return SpinorField(chart, spin_ifft2(vh, chart))
    if mode != FD:
        raise ConfigurationError(f"unknown mode {mode!r}")
    out = diff2_x(v, chart) + diff2_y(v, chart)
    if chart.kind == DISK:
        out[~chart.active] = 0.0
    return SpinorField(chart, out)


def dirac_inverse_spectral(f: SpinorField) -> SpinorField:
    """Solve D psi = f exactly per Fourier mode (kernel-free torus only)."""
    chart = f.chart
    setup = torus_setup(chart, "the spectral Dirac inverse", invertible=True)
    fh = spin_fft2(f.values, chart)
    psi2 = fh[..., 0] / setup.a[:, :, None]
    np.divide(-fh[..., 1], setup.b[:, :, None], out=fh[..., 0])
    fh[..., 1] = psi2
    return SpinorField(chart, spin_ifft2(fh, chart))


def weitzenboeck_residual(psi: SpinorField, mode: str = SPECTRAL, op=None) -> float:
    """L2 norm of D(D psi) + Laplace psi.

    Exact (to roundoff) in spectral mode; O(h^2) in FD mode because the
    squared centered stencil is the wide 5-point star while the Laplacian
    uses the compact one.  ``op(psi, mode)`` stands in for D (default
    ``dirac_apply``), so a perturbed operator can be shown to fail the check.
    """
    _require_torus(psi.chart, "the Weitzenboeck check")
    # resolved per call, not bound as the default: a rebound dirac_apply
    # (the benchmark's call tracer) is then the one used
    op = dirac_apply if op is None else op
    dd = op(op(psi, mode), mode)
    return lp_norm(dd + laplace_apply(psi, mode), 2.0)
