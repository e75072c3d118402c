"""Conformal chart transfers with spinor weight 1/2.

Under a conformal map the quartic energy and the cubic Dirac equation are
both invariant when the field carries the half-power of the conformal
factor.  Three transfers are provided:

* ``rescale``         psi -> sqrt(lam) psi(x0 + lam x); zooming in on a
  concentration point preserves region-matched energies.
* ``to_cylinder``     annulus around a center to [t0, t1] x S^1 via
  r = e^{-t}; the weight e^{-t/2} turns annulus energies into cylinder
  segment energies.
* ``sphere_transfer`` plane chart <-> stereographic sphere chart; the grid
  is shared, the weight is (2/(1+|x|^2))^{-1/2} toward the sphere, and the
  sphere chart's quadrature carries the round area factor.

Resampling is cubic B-spline interpolation; on tori it interpolates the
section times the spin phase of ``dirac.torus_setup``, which is periodic, so
an antiperiodic seam carries no sign artifact.
"""

from __future__ import annotations

import numpy as np

from .charts import CYLINDER, DISK, RECT, SPHERE, TORUS, GridChart, SpinorField
from .dirac import torus_setup
from .errors import ConfigurationError, DecayError, OutOfDomainError, PreconditionError
from .spinors import energy


def _spline_taps(u: np.ndarray, n: int, mirror: bool):
    """Node indices and cubic B-spline weights of the four taps about each
    grid coordinate in ``u``: the indices wrap mod n, or reflect about the
    edge nodes with ``mirror``."""
    t = u - np.floor(u)
    s = 1.0 - t
    period = 2 * n - 2 if mirror else n
    taps = [(np.floor(u).astype(np.intp) + k) % period for k in range(-1, 3)]
    return ([np.minimum(k, period - k) if mirror else k for k in taps],
            (s ** 3 / 6.0, (4.0 - 6.0 * t * t + 3.0 * t ** 3) / 6.0,
             (4.0 - 6.0 * s * s + 3.0 * s ** 3) / 6.0, t ** 3 / 6.0))


def sample_field(psi: SpinorField, X, Y) -> np.ndarray:
    """Bicubic samples of the field at arbitrary coordinates: the exact cubic
    B-spline interpolant (Unser, IEEE Signal Proc. Mag. 16(6), 1999), whose
    coefficients divide the values' transform by (4 + 2 cos w) / 6 per axis.
    Torus charts wrap the phased section; bounded charts extend the values
    evenly about the edges (period 2n - 2) and raise OutOfDomainError when a
    sample point leaves the grid (up to a 1e-9 cell slack for roundoff)."""
    chart = psi.chart
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    ix = (X - chart.xs[0]) / chart.hx
    iy = (Y - chart.ys[0]) / chart.hy
    mirror = chart.kind != TORUS
    if mirror:
        slack = 1e-9
        if (ix.min() < -slack or ix.max() > chart.nx - 1 + slack
                or iy.min() < -slack or iy.max() > chart.ny - 1 + slack):
            raise OutOfDomainError("sample points leave the source chart")
        ix = np.clip(ix, 0.0, chart.nx - 1)
        iy = np.clip(iy, 0.0, chart.ny - 1)
        coeffs = psi.values
    else:
        coeffs = psi.values * torus_setup(chart, "resampling").phase[:, :, None, None]
    for axis in (0, 1):
        c = np.moveaxis(coeffs, axis, 0)
        c = np.fft.fft(np.concatenate([c, c[-2:0:-1]]) if mirror else c, axis=0)
        c /= ((4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(len(c)))) / 6.0)[:, None, None, None]
        coeffs = np.moveaxis(np.fft.ifft(c, axis=0, out=c)[:coeffs.shape[axis]], 0, axis)
    coeffs = coeffs.reshape(chart.ny * chart.nx, 2 * psi.n)
    rows, wy = _spline_taps(iy.ravel(), chart.ny, mirror)
    cols, wx = _spline_taps(ix.ravel(), chart.nx, mirror)
    out = sum((a * b)[:, None] * np.take(coeffs, r * chart.nx + c, axis=0)
              for r, a in zip(rows, wy) for c, b in zip(cols, wx))
    out = out.reshape(X.shape + (psi.n, 2))
    if not mirror:
        (sx, sy), (Lx, Ly) = chart.spin_shifts, chart.params
        out *= np.exp(2j * np.pi * (sx * X / Lx + sy * Y / Ly))[..., None, None]
    return out


def rescale(psi: SpinorField, center, lam: float, target_chart: GridChart) -> SpinorField:
    """Conformal zoom: (rescale psi)(x) = sqrt(lam) psi(center + lam x),
    sampled on ``target_chart``.

    The +1/2 weight exponent is what makes region-matched energies equal and
    maps solutions of the cubic equation to solutions.  On a bounded source
    the zoomed points must stay inside its chart.
    """
    if lam <= 0:
        raise PreconditionError("rescale needs lam > 0")
    cx, cy = center
    X, Y = target_chart.grid()
    vals = np.sqrt(lam) * sample_field(psi, cx + lam * X, cy + lam * Y)
    vals[~target_chart.active] = 0.0
    return SpinorField(target_chart, vals)


def to_cylinder(psi: SpinorField, center, r_inner: float, r_outer: float,
                nt: int | None = None, ntheta: int | None = None) -> SpinorField:
    """Transfer an annulus around ``center`` to the flat cylinder.

    Psi(t, theta) = e^{-t/2} psi(center + e^{-t} e^{i theta}) on
    [-log r_outer, -log r_inner] x S^1; segment energies match annulus
    energies within quadrature error.
    """
    chart = psi.chart
    if chart.kind not in (DISK, RECT, TORUS):
        raise ConfigurationError(f"to_cylinder does not accept {chart.kind!r} sources")
    if not (0 < r_inner < r_outer):
        raise PreconditionError("need 0 < r_inner < r_outer")
    if r_inner < 2.0 * chart.h:
        raise PreconditionError("annulus touches the center cell")
    ntheta = ntheta if ntheta is not None else max(64, chart.nx)
    t0, t1 = -np.log(r_outer), -np.log(r_inner)
    if nt is None:
        ht_target = 2.0 * np.pi / ntheta
        nt = max(8, int(np.ceil((t1 - t0) / ht_target)) + 1)
    target = GridChart.cylinder(nt, ntheta, t0, t1)
    TH, T = target.grid()
    R = np.exp(-T)
    X = center[0] + R * np.cos(TH)
    Y = center[1] + R * np.sin(TH)
    vals = np.exp(-T / 2.0)[..., None, None] * sample_field(psi, X, Y)
    return SpinorField(target, vals)


def cylinder_segment_energy(cyl: SpinorField, t_lo: float, t_hi: float) -> float:
    """Energy of the [t_lo, t_hi] x S^1 segment of a cylinder field."""
    if cyl.chart.kind != CYLINDER:
        raise ConfigurationError("segment energies are for cylinder fields")
    _, T = cyl.chart.grid()
    region = (T >= t_lo - 1e-12) & (T <= t_hi + 1e-12)
    return energy(cyl, region)


def sphere_transfer(psi: SpinorField, direction: str) -> SpinorField:
    """Stereographic transfer with conformal weight 1/2.

    ``toSphere`` requires a centered square rect chart and a field whose
    energy in the outer band (beyond 85% of the extent) is below 1e-3 of the
    total, since the band is carried to a neighborhood of the north pole.
    ``toPlane`` inverts exactly on the shared grid.
    """
    chart = psi.chart
    if direction == "toSphere":
        if chart.kind != RECT:
            raise ConfigurationError("toSphere expects a rect source chart")
        x0, x1, y0, y1 = chart.params
        if abs(x0 + x1) > 1e-12 * (x1 - x0) or abs(y0 + y1) > 1e-12 * (y1 - y0) \
                or abs((x1 - x0) - (y1 - y0)) > 1e-12 * (x1 - x0):
            raise ConfigurationError("toSphere expects a centered square chart")
        if chart.nx != chart.ny:
            raise ConfigurationError("toSphere expects nx == ny")
        total = energy(psi)
        X, Y = chart.grid()
        band = np.maximum(np.abs(X), np.abs(Y)) > 0.85 * x1
        outer = energy(psi, band & chart.active)
        if total > 0 and outer > 1e-3 * total:
            raise DecayError(
                f"outer-band energy fraction {outer / total:.3e} exceeds 1.0e-03")
        target = GridChart.sphere(chart.nx, extent=x1)
        rho = 2.0 / (1.0 + X * X + Y * Y)
        vals = psi.values * (rho ** -0.5)[..., None, None]
        return SpinorField(target, vals)
    if direction == "toPlane":
        if chart.kind != SPHERE:
            raise ConfigurationError("toPlane expects a sphere chart")
        extent = chart.params[0]
        target = GridChart.rect(chart.nx, chart.ny,
                                (-extent, extent, -extent, extent))
        X, Y = chart.grid()
        rho = 2.0 / (1.0 + X * X + Y * Y)
        vals = psi.values * (rho ** 0.5)[..., None, None]
        return SpinorField(target, vals)
    raise ConfigurationError(f"direction must be 'toSphere' or 'toPlane', got {direction!r}")
