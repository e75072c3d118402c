"""Canonical field constructions shared by the CLI, demos, and tests.

Everything here is deterministic given a seed.  The seeded band-limited
fields (``torus_mode_field`` here, ``green.windowed_mode_field``) are sums of
plane waves built by ``plane_wave_sum``: the coefficients are drawn from the
splitmix64 stream field by field ((component,) slot), mode by mode within a
field, and each field is the product ``(E_y.T * c) @ E_x`` of the 1-D
exponentials of its modes.
"""

from __future__ import annotations

import numpy as np

from ._blas import one_blas_thread
from .charts import TORUS, GridChart, SpinorField
from .errors import ConfigurationError
from .rng import SplitMix64

DEFAULT_MODES = ((0, 0), (1, 0), (0, 1), (-1, -1))


def plane_wave_sum(stream: SplitMix64, e_x: np.ndarray, e_y: np.ndarray,
                   count: int) -> np.ndarray:
    """``count`` fields sum_m c_m e_y[m, iy] e_x[m, ix], shape (count, ny, nx).

    ``e_x`` (modes, nx) and ``e_y`` (modes, ny) hold each mode's 1-D
    exponentials; the coefficients c_m come from ``stream``, all modes of the
    first field, then all modes of the next.  The product runs with BLAS at
    one thread: threaded, it costs about twice the CPU and leaves the workers
    spinning after it.
    """
    out = np.empty((count, e_y.shape[1], e_x.shape[1]), np.complex128)
    for f in range(count):
        c = np.array([stream.complex_symmetric() for _ in range(e_x.shape[0])])
        with one_blas_thread():
            out[f] = (e_y.T * c) @ e_x
    return out


def torus_mode_field(chart: GridChart, amplitude: float = 0.3, n: int = 1,
                     seed: int = 0) -> SpinorField:
    """Band-limited random section compatible with the chart's spin structure.

    Modes are exp(2 pi i ((kx + sx/2) x / Lx + (ky + sy/2) y / Ly)) for the
    (kx, ky) of ``DEFAULT_MODES``, with the half shifts of the antiperiodic
    cycles; the field is scaled so its sup equals ``amplitude``.
    """
    if chart.kind != TORUS:
        raise ConfigurationError("mode fields are defined on torus charts")
    sx, sy = chart.spin_shifts
    Lx, Ly = chart.params
    kx, ky = np.array(DEFAULT_MODES, dtype=float).T[:, :, None]
    e_x = np.exp(2j * np.pi * (kx + sx) * chart.xs / Lx)
    e_y = np.exp(2j * np.pi * (ky + sy) * chart.ys / Ly)
    v = np.stack(plane_wave_sum(SplitMix64(seed), e_x, e_y, 2 * n), axis=-1)
    v = v.reshape(chart.ny, chart.nx, n, 2)
    top = np.abs(v).max()
    if top > 0:
        v *= amplitude / top
    return SpinorField(chart, v)


def enneper_field(chart: GridChart, scale: float = 1.0) -> SpinorField:
    """Exact zero-curvature Dirac solution generating the Enneper surface.

    psi = e^{i pi/4}/sqrt(2) (1, scale z): psi_1 is antiholomorphic (constant)
    and psi_2 holomorphic, so D psi = 0 and the reconstructed surface is the
    classical Enneper patch with metric ((1 + |scale z|^2) / 2)^2 |dz|^2.
    """
    X, Y = chart.grid()
    Z = scale * (X + 1j * Y)
    c = np.exp(1j * np.pi / 4) / np.sqrt(2.0)
    return SpinorField.from_components(chart, [(np.full_like(Z, c), c * Z)])


def smoothstep7(u: np.ndarray) -> np.ndarray:
    """C^3 transition from 1 at u <= 0 to 0 at u >= 1."""
    u = np.clip(u, 0.0, 1.0)
    return 1.0 - (35 * u ** 4 - 84 * u ** 5 + 70 * u ** 6 - 20 * u ** 7)


GAUSSIAN_CUT = (1.0, 0.4)       # (start, width) of the planted bubble's cut


def cut_gaussian_profile(u2: np.ndarray) -> np.ndarray:
    """exp(-|u|^2/2) cut smoothly to zero for |u| from 1.0 to 1.4."""
    start, width = GAUSSIAN_CUT
    u = np.sqrt(u2)
    return np.exp(-u2 / 2.0) * smoothstep7((u - start) / width)


def planted_bubble(chart: GridChart, center, lam: float, amplitude: float) -> np.ndarray:
    """Values array of one concentrated bubble in slot 0: amplitude/sqrt(lam)
    times the compact Gaussian profile at scale lam around the center
    (min-image on the torus)."""
    dx, dy = chart.min_image_offset(*center)
    prof = amplitude / np.sqrt(lam) * cut_gaussian_profile((dx * dx + dy * dy) / (lam * lam))
    out = np.zeros((chart.ny, chart.nx, 1, 2), np.complex128)
    out[:, :, 0, 0] = prof
    return out


def bubble_profile_energy(amplitude: float) -> float:
    """Scale-invariant quartic energy of the planted bubble (radial quadrature
    oracle, independent of any chart)."""
    from scipy.integrate import quad

    def integrand(s):
        return cut_gaussian_profile(np.array([s * s]))[0] ** 4 * s

    val, _ = quad(integrand, 0.0, sum(GAUSSIAN_CUT) + 0.5, limit=400)
    return float(amplitude ** 4 * 2.0 * np.pi * val)


SHELL_SUPPORT = (0.6, 1.4)


def shell_bubble(chart: GridChart, center, lam: float, amplitude: float) -> np.ndarray:
    """Bubble in slot 0 whose quartic mass concentrates in the annulus u in
    [0.6, 1.4] at scale lam: the capture radius of any sizable energy fraction
    tracks lam itself, which makes planted-scale recovery robust."""
    a, b = SHELL_SUPPORT
    dx, dy = chart.min_image_offset(*center)
    u = np.hypot(dx, dy) / lam
    prof = np.where((u >= a) & (u <= b),
                    np.sin(np.pi * (u - a) / (b - a)) ** 2, 0.0)
    out = np.zeros((chart.ny, chart.nx, 1, 2), np.complex128)
    out[:, :, 0, 0] = amplitude / np.sqrt(lam) * prof
    return out


def shell_profile_energy(amplitude: float) -> float:
    """Quartic energy of the shell bubble (radial quadrature oracle)."""
    from scipy.integrate import quad

    a, b = SHELL_SUPPORT
    val, _ = quad(lambda u: np.sin(np.pi * (u - a) / (b - a)) ** 8 * u, a, b,
                  limit=200)
    return float(amplitude ** 4 * 2.0 * np.pi * val)


def compact_bump_field(chart: GridChart) -> SpinorField:
    """Smooth compactly supported two-slot field centered on the chart: a
    Gaussian of width 0.18 and 0.3i z times it, vanishing identically beyond
    80% of the usable radius."""
    X, Y = chart.grid()
    cx = 0.5 * (chart.xs[0] + chart.xs[-1])
    cy = 0.5 * (chart.ys[0] + chart.ys[-1])
    radius = 0.5 * min(chart.xs[-1] - chart.xs[0], chart.ys[-1] - chart.ys[0])
    r = np.hypot(X - cx, Y - cy)
    g = np.exp(-(r / 0.18) ** 2 / 2.0) * smoothstep7((r - 0.55 * radius) / (0.25 * radius))
    z = (X - cx) + 1j * (Y - cy)
    return SpinorField.from_components(chart, [(g, 0.3j * g * z)])
