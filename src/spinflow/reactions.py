"""Cubic right-hand sides of the nonlinear Dirac equation.

Variants:

* ``GeneralCubic``   rhs^i = H^i_{jkl} <psi^j, psi^k> psi^l with a real
  rank-4 coefficient tensor (constant or per-node).
* ``ScalarH``        n = 1 special case  rhs = H |psi|^2 psi.
* ``CurvatureCubic`` rhs^i = -(1/3) R^i_{jkl} <psi^j, psi^k> psi^l with a
  constant tensor carrying curvature symmetries.
* ``ChiralUV``       n = 1 chiral form rhs = [U Gamma_+ + V Gamma_-] psi with
  the Lie-group presets

      su2:  U = -(H - i) |psi|^2,            V = conj(U) for real H
      nil:  U = V = -H |psi|^2 - (i/2) (|psi_1|^2 - |psi_2|^2)
      sl2:  U = -H |psi|^2 - i ((3/2)|psi_2|^2 - |psi_1|^2)
            V = -H |psi|^2 - i (|psi_2|^2 - (3/2)|psi_1|^2)

  or custom callables U(psi_values), V(psi_values).

All variants are 3-homogeneous in psi.  ``linearize`` returns the directional
derivative of the right-hand side; it is real-linear but not complex-linear
(the Hermitian pairings conjugate one slot), which is why the Newton solve
works on real-stacked vectors.

Coefficient bounds: ``h0`` is the sup of the cubic coefficient (for the
chiral presets sup|H| + alpha with alpha = 1, 1/2, 3/2 for su2/nil/sl2, the
combination controlling the chiral small-energy guards), ``h1`` the sup of
its gradient by finite differences.
"""

from __future__ import annotations

import numpy as np

from .charts import GridChart, SpinorField
from .dirac import diff_x, diff_y
from .errors import ConfigurationError
from .spinors import component_inners

CHIRAL_ALPHA = {"su2": 1.0, "nil": 0.5, "sl2": 1.5}


def _as_node_scalar(h, chart: GridChart) -> np.ndarray:
    if callable(h):
        X, Y = chart.grid()
        return np.asarray(h(X, Y), dtype=float) + np.zeros((chart.ny, chart.nx))
    arr = np.asarray(h, dtype=float)
    if arr.ndim == 0:
        return np.full((chart.ny, chart.nx), float(arr))
    if arr.shape != (chart.ny, chart.nx):
        raise ConfigurationError("scalar coefficient shape must match the chart")
    return arr


def _scalar_bounds(h, chart: GridChart):
    arr = _as_node_scalar(h, chart)
    gx = diff_x(arr[:, :, None, None].astype(complex), chart)[..., 0, 0].real
    gy = diff_y(arr[:, :, None, None].astype(complex), chart)[..., 0, 0].real
    act = chart.active
    h0 = float(np.abs(arr[act]).max())
    h1 = float(np.sqrt(gx ** 2 + gy ** 2)[act].max())
    return h0, h1


class ReactionSpec:
    """Base class; concrete variants implement rhs/linearize/bounds."""

    n = 1

    def rhs(self, psi: SpinorField) -> SpinorField:
        raise NotImplementedError

    def linearize(self, psi: SpinorField, delta: SpinorField) -> SpinorField:
        raise NotImplementedError

    def coefficient_bounds(self, chart: GridChart) -> tuple:
        """(h0, h1): sup of the cubic coefficients and of their gradient."""
        raise NotImplementedError

    def _check(self, psi: SpinorField):
        if psi.n != self.n:
            raise ConfigurationError(
                f"{type(self).__name__} expects n={self.n}, field has n={psi.n}")


class ScalarH(ReactionSpec):
    def __init__(self, h):
        self.h = h

    def rhs(self, psi: SpinorField) -> SpinorField:
        self._check(psi)
        H = _as_node_scalar(self.h, psi.chart)
        v = psi.values
        dens = np.sum(v.real ** 2 + v.imag ** 2, axis=(2, 3))
        return SpinorField(psi.chart, (H * dens)[:, :, None, None] * v, psi.tag)

    def linearize(self, psi: SpinorField, delta: SpinorField) -> SpinorField:
        self._check(psi)
        H = _as_node_scalar(self.h, psi.chart)
        v, d = psi.values, delta.values
        dens = np.sum(v.real ** 2 + v.imag ** 2, axis=(2, 3))
        ddens = 2.0 * np.sum(d.real * v.real + d.imag * v.imag, axis=(2, 3))
        out = (H * dens)[:, :, None, None] * d + (H * ddens)[:, :, None, None] * v
        return SpinorField(psi.chart, out, psi.tag)

    def coefficient_bounds(self, chart: GridChart) -> tuple:
        return _scalar_bounds(self.h, chart)


class GeneralCubic(ReactionSpec):
    def __init__(self, tensor, n: int | None = None):
        t = np.asarray(tensor, dtype=float)
        if t.ndim == 4:
            if len(set(t.shape)) != 1:
                raise ConfigurationError("cubic tensor must be square in all four indices")
            self.n = t.shape[0]
        elif t.ndim == 6:
            if len(set(t.shape[2:])) != 1:
                raise ConfigurationError("per-node tensor must be square in the index axes")
            self.n = t.shape[2]
        else:
            raise ConfigurationError("cubic tensor must have 4 (constant) or "
                                     "6 (per-node) axes")
        if n is not None and n != self.n:
            raise ConfigurationError("declared n does not match the tensor")
        self.tensor = t

    def _tensor_on(self, chart: GridChart) -> np.ndarray:
        if self.tensor.ndim == 4:
            return self.tensor
        if self.tensor.shape[:2] != (chart.ny, chart.nx):
            raise ConfigurationError("per-node tensor does not match the chart grid")
        return self.tensor

    def rhs(self, psi: SpinorField) -> SpinorField:
        self._check(psi)
        t = self._tensor_on(psi.chart)
        P = component_inners(psi)
        if t.ndim == 4:
            out = np.einsum("ijkl,yxjk,yxls->yxis", t, P, psi.values)
        else:
            out = np.einsum("yxijkl,yxjk,yxls->yxis", t, P, psi.values)
        return SpinorField(psi.chart, out, psi.tag)

    def linearize(self, psi: SpinorField, delta: SpinorField) -> SpinorField:
        self._check(psi)
        t = self._tensor_on(psi.chart)
        v, d = psi.values, delta.values
        P = component_inners(psi)
        dP = (np.einsum("yxjs,yxks->yxjk", d, np.conj(v))
              + np.einsum("yxjs,yxks->yxjk", v, np.conj(d)))
        if t.ndim == 4:
            out = (np.einsum("ijkl,yxjk,yxls->yxis", t, dP, v)
                   + np.einsum("ijkl,yxjk,yxls->yxis", t, P, d))
        else:
            out = (np.einsum("yxijkl,yxjk,yxls->yxis", t, dP, v)
                   + np.einsum("yxijkl,yxjk,yxls->yxis", t, P, d))
        return SpinorField(psi.chart, out, psi.tag)

    def coefficient_bounds(self, chart: GridChart) -> tuple:
        t = self.tensor
        if t.ndim == 4:
            return float(np.abs(t).max()), 0.0
        h0 = float(np.abs(t[chart.active]).max())
        flat = t.reshape(chart.ny, chart.nx, -1)
        g2 = np.zeros((chart.ny, chart.nx))
        for k in range(flat.shape[2]):
            comp = flat[:, :, k][:, :, None, None].astype(complex)
            gx = diff_x(comp, chart)[..., 0, 0].real
            gy = diff_y(comp, chart)[..., 0, 0].real
            g2 = np.maximum(g2, gx ** 2 + gy ** 2)
        return h0, float(np.sqrt(g2[chart.active]).max())


class CurvatureCubic(ReactionSpec):
    """Constant curvature tensor; evaluates -(1/3) R^i_{jkl} <psi^j,psi^k> psi^l."""

    SYMMETRY_TOL = 1e-12

    def __init__(self, tensor):
        t = np.asarray(tensor, dtype=float)
        if t.ndim != 4 or len(set(t.shape)) != 1:
            raise ConfigurationError("curvature tensor must be constant rank 4, square")
        defect = max(
            np.abs(t + np.swapaxes(t, 0, 1)).max(),
            np.abs(t + np.swapaxes(t, 2, 3)).max(),
            np.abs(t - np.transpose(t, (2, 3, 0, 1))).max(),
        )
        if defect > self.SYMMETRY_TOL:
            raise ConfigurationError(
                f"curvature symmetries violated by {defect:.2e} (tol {self.SYMMETRY_TOL})")
        self.tensor = t
        self.n = t.shape[0]
        self._general = GeneralCubic(-t / 3.0)

    @staticmethod
    def constant_curvature(n: int, kappa: float) -> "CurvatureCubic":
        """Space-form tensor R_{ijkl} = kappa (d_ik d_jl - d_il d_jk)."""
        eye = np.eye(n)
        t = kappa * (np.einsum("ik,jl->ijkl", eye, eye)
                     - np.einsum("il,jk->ijkl", eye, eye))
        return CurvatureCubic(t)

    def as_general_cubic(self) -> GeneralCubic:
        return self._general

    def rhs(self, psi: SpinorField) -> SpinorField:
        self._check(psi)
        return self._general.rhs(psi)

    def linearize(self, psi: SpinorField, delta: SpinorField) -> SpinorField:
        self._check(psi)
        return self._general.linearize(psi, delta)

    def coefficient_bounds(self, chart: GridChart) -> tuple:
        return self._general.coefficient_bounds(chart)


class ChiralUV(ReactionSpec):
    """rhs = [U(psi) Gamma_+ + V(psi) Gamma_-] psi with Gamma_+ = diag(0, 1)."""

    PRESETS = ("su2", "nil", "sl2", "custom")

    def __init__(self, preset: str, h=0.0, u=None, v=None, h0: float | None = None):
        if preset not in self.PRESETS:
            raise ConfigurationError(f"unknown chiral preset {preset!r}")
        if preset == "custom" and (u is None or v is None):
            raise ConfigurationError("custom chiral form needs both U and V callables")
        self.preset = preset
        self.h = h
        self.u = u
        self.v = v
        self._h0_override = h0

    def _law(self, H, m1, m2):
        """Preset (U, V) from the slot densities m1 = |psi_1|^2, m2 = |psi_2|^2.

        The law is linear in (m1, m2), so applied to their directional
        derivatives it gives (dU, dV).
        """
        dens = m1 + m2
        if self.preset == "su2":
            return -(H - 1j) * dens, -(H + 1j) * dens
        if self.preset == "nil":
            U = -H * dens - 0.5j * (m1 - m2)
            return U, U
        return (-H * dens - 1j * (1.5 * m2 - m1),
                -H * dens - 1j * (m2 - 1.5 * m1))

    def _uv(self, psi: SpinorField):
        v = psi.values
        if self.preset == "custom":
            return np.asarray(self.u(v), complex), np.asarray(self.v(v), complex)
        m1 = v.real[..., 0, 0] ** 2 + v.imag[..., 0, 0] ** 2
        m2 = v.real[..., 0, 1] ** 2 + v.imag[..., 0, 1] ** 2
        return self._law(_as_node_scalar(self.h, psi.chart), m1, m2)

    def rhs(self, psi: SpinorField) -> SpinorField:
        self._check(psi)
        U, V = self._uv(psi)
        out = np.empty_like(psi.values)
        out[..., 0, 0] = V * psi.values[..., 0, 0]   # Gamma_- keeps slot 1
        out[..., 0, 1] = U * psi.values[..., 0, 1]   # Gamma_+ keeps slot 2
        return SpinorField(psi.chart, out, psi.tag)

    def linearize(self, psi: SpinorField, delta: SpinorField) -> SpinorField:
        self._check(psi)
        v, d = psi.values, delta.values
        if self.preset == "custom":
            # Symmetric-difference fallback; custom U, V carry no derivative rule.
            scale = max(float(np.abs(v).max()), 1.0)
            eps = 1e-6 * scale / max(float(np.abs(d).max()), 1e-30)
            plus = self.rhs(SpinorField(psi.chart, v + eps * d, psi.tag))
            minus = self.rhs(SpinorField(psi.chart, v - eps * d, psi.tag))
            return SpinorField(psi.chart, (plus.values - minus.values) / (2 * eps),
                               psi.tag)
        H = _as_node_scalar(self.h, psi.chart)
        re = lambda s: 2.0 * (d.real[..., 0, s] * v.real[..., 0, s]
                              + d.imag[..., 0, s] * v.imag[..., 0, s])
        dU, dV = self._law(H, re(0), re(1))
        U, V = self._uv(psi)
        out = np.empty_like(v)
        out[..., 0, 0] = V * d[..., 0, 0] + dV * v[..., 0, 0]
        out[..., 0, 1] = U * d[..., 0, 1] + dU * v[..., 0, 1]
        return SpinorField(psi.chart, out, psi.tag)

    def coefficient_bounds(self, chart: GridChart) -> tuple:
        if self.preset == "custom":
            if self._h0_override is None:
                raise ConfigurationError(
                    "custom chiral forms need an explicit h0 bound")
            return float(self._h0_override), 0.0
        h0, h1 = _scalar_bounds(self.h, chart)
        return h0 + CHIRAL_ALPHA[self.preset], h1
