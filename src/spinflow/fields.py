"""Canonical field constructions shared by the CLI, demos, and tests.

Everything here is deterministic given a seed; coefficients are drawn from
the splitmix64 stream in a fixed (component, slot, mode) order.
"""

from __future__ import annotations

import numpy as np

from .charts import TORUS, GridChart, SpinorField
from .errors import ConfigurationError
from .rng import SplitMix64

DEFAULT_MODES = ((0, 0), (1, 0), (0, 1), (-1, -1))


def torus_mode_field(chart: GridChart, amplitude: float = 0.3, n: int = 1,
                     seed: int = 0, modes=DEFAULT_MODES) -> SpinorField:
    """Band-limited random section compatible with the chart's spin structure.

    Modes are exp(2 pi i ((kx + sx/2) x / Lx + (ky + sy/2) y / Ly)) with the
    half shifts of the antiperiodic cycles; the field is scaled so its sup
    equals ``amplitude``.
    """
    if chart.kind != TORUS:
        raise ConfigurationError("mode fields are defined on torus charts")
    sx, sy = chart.spin_shifts
    Lx, Ly = chart.params
    X, Y = chart.grid()
    stream = SplitMix64(seed)
    v = np.zeros((chart.ny, chart.nx, n, 2), np.complex128)
    for comp in range(n):
        for s in (0, 1):
            acc = np.zeros_like(X, dtype=np.complex128)
            for (kx, ky) in modes:
                c = stream.complex_symmetric()
                acc = acc + c * np.exp(2j * np.pi * ((kx + sx) * X / Lx
                                                     + (ky + sy) * Y / Ly))
            v[:, :, comp, s] = acc
    top = np.abs(v).max()
    if top > 0:
        v *= amplitude / top
    return SpinorField(chart, v, f"mode-field(seed={seed})")


def enneper_field(chart: GridChart, scale: float = 1.0) -> SpinorField:
    """Exact zero-curvature Dirac solution generating the Enneper surface.

    psi = e^{i pi/4}/sqrt(2) (1, scale z): psi_1 is antiholomorphic (constant)
    and psi_2 holomorphic, so D psi = 0 and the reconstructed surface is the
    classical Enneper patch with metric ((1 + |scale z|^2) / 2)^2 |dz|^2.
    """
    X, Y = chart.grid()
    Z = scale * (X + 1j * Y)
    c = np.exp(1j * np.pi / 4) / np.sqrt(2.0)
    return SpinorField.from_components(
        chart, [(np.full_like(Z, c), c * Z)], tag="enneper")


def smoothstep7(u: np.ndarray) -> np.ndarray:
    """C^3 transition from 1 at u <= 0 to 0 at u >= 1."""
    u = np.clip(u, 0.0, 1.0)
    return 1.0 - (35 * u ** 4 - 84 * u ** 5 + 70 * u ** 6 - 20 * u ** 7)


def cut_gaussian_profile(u2: np.ndarray, cut_start: float = 1.0,
                         cut_width: float = 0.4) -> np.ndarray:
    """exp(-|u|^2/2) cut smoothly to zero on [cut_start, cut_start+cut_width]."""
    u = np.sqrt(u2)
    return np.exp(-u2 / 2.0) * smoothstep7((u - cut_start) / cut_width)


def planted_bubble(chart: GridChart, center, lam: float, amplitude: float,
                   slot: int = 0, cut_start: float = 1.0,
                   cut_width: float = 0.4) -> np.ndarray:
    """Values array of one concentrated bubble: amplitude/sqrt(lam) times the
    compact Gaussian profile at scale lam around the center (min-image on the
    torus)."""
    dx, dy = chart.min_image_offset(*center)
    prof = amplitude / np.sqrt(lam) * cut_gaussian_profile(
        (dx * dx + dy * dy) / (lam * lam), cut_start, cut_width)
    out = np.zeros((chart.ny, chart.nx, 1, 2), np.complex128)
    out[:, :, 0, slot] = prof
    return out


def bubble_profile_energy(amplitude: float, cut_start: float = 1.0,
                          cut_width: float = 0.4) -> float:
    """Scale-invariant quartic energy of the planted bubble (radial quadrature
    oracle, independent of any chart)."""
    from scipy.integrate import quad

    def integrand(s):
        return cut_gaussian_profile(np.array([s * s]), cut_start, cut_width)[0] ** 4 * s

    val, _ = quad(integrand, 0.0, cut_start + cut_width + 0.5, limit=400)
    return float(amplitude ** 4 * 2.0 * np.pi * val)


SHELL_SUPPORT = (0.6, 1.4)


def shell_bubble(chart: GridChart, center, lam: float, amplitude: float,
                 slot: int = 0) -> np.ndarray:
    """Bubble whose quartic mass concentrates in the annulus u in [0.6, 1.4]
    at scale lam: the capture radius of any sizable energy fraction tracks
    lam itself, which makes planted-scale recovery robust."""
    a, b = SHELL_SUPPORT
    dx, dy = chart.min_image_offset(*center)
    u = np.hypot(dx, dy) / lam
    prof = np.where((u >= a) & (u <= b),
                    np.sin(np.pi * (u - a) / (b - a)) ** 2, 0.0)
    out = np.zeros((chart.ny, chart.nx, 1, 2), np.complex128)
    out[:, :, 0, slot] = amplitude / np.sqrt(lam) * prof
    return out


def shell_profile_energy(amplitude: float) -> float:
    """Quartic energy of the shell bubble (radial quadrature oracle)."""
    from scipy.integrate import quad

    a, b = SHELL_SUPPORT
    val, _ = quad(lambda u: np.sin(np.pi * (u - a) / (b - a)) ** 8 * u, a, b,
                  limit=200)
    return float(amplitude ** 4 * 2.0 * np.pi * val)


def compact_bump_field(chart: GridChart, width: float = 0.18,
                       slot_mix: complex = 0.3j) -> SpinorField:
    """Smooth compactly supported two-slot field centered on the chart,
    vanishing identically beyond 80% of the usable radius."""
    X, Y = chart.grid()
    cx = 0.5 * (chart.xs[0] + chart.xs[-1])
    cy = 0.5 * (chart.ys[0] + chart.ys[-1])
    radius = 0.5 * min(chart.xs[-1] - chart.xs[0], chart.ys[-1] - chart.ys[0])
    r = np.hypot(X - cx, Y - cy)
    g = np.exp(-(r / width) ** 2 / 2.0) * smoothstep7((r - 0.55 * radius) / (0.25 * radius))
    z = (X - cx) + 1j * (Y - cy)
    return SpinorField.from_components(chart, [(g, slot_mix * g * z)], tag="bump")
