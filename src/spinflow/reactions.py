"""Cubic right-hand sides of the nonlinear Dirac equation.

Variants:

* ``GeneralCubic``   rhs^i = H^i_{jkl} <psi^j, psi^k> psi^l with a real
  rank-4 coefficient tensor, constant ``(n, n, n, n)`` or per-node
  ``(ny, nx, n, n, n, n)``.  Both go through one contraction and no BLAS:
  ``spinors.node_product`` of ``H`` and the pairing matrix ``<psi^j, psi^k>``
  gives a per-node ``(n, n)`` matrix, and a second one multiplies ``psi``.
* ``ScalarH``        n = 1 special case  rhs = H |psi|^2 psi: a
  ``GeneralCubic`` whose per-node tensor is the scalar H, so the mean
  curvature equation runs through the same contraction.
* ``CurvatureCubic`` rhs^i = -(1/3) R^i_{jkl} <psi^j, psi^k> psi^l: a
  ``GeneralCubic`` that checks the curvature symmetries of a constant ``R``
  and stores ``-R/3`` as its ``.tensor``.
* ``ChiralUV``       n = 1 chiral form rhs = [U Gamma_+ + V Gamma_-] psi with
  the Lie-group presets

      su2:  U = -(H - i) |psi|^2,            V = conj(U) for real H
      nil:  U = V = -H |psi|^2 - (i/2) (|psi_1|^2 - |psi_2|^2)
      sl2:  U = -H |psi|^2 - i ((3/2)|psi_2|^2 - |psi_1|^2)
            V = -H |psi|^2 - i (|psi_2|^2 - (3/2)|psi_1|^2)

All variants are 3-homogeneous in psi.  ``linearize`` returns the directional
derivative of the right-hand side; it is real-linear but not complex-linear
(the Hermitian pairings conjugate one slot), which is why the Newton solve
works on real vectors, the float64 view of the field.

Coefficient bound: ``h0`` is the sup of the cubic coefficient over the
active nodes (for the chiral presets sup|H| + alpha with alpha = 1, 1/2, 3/2
for su2/nil/sl2, the combination controlling the chiral small-energy guards).
It is the one number of the equation that enters the small-energy margin
``h0 * ||psi||_{L4}^2``.
"""

from __future__ import annotations

import numpy as np

from .charts import GridChart, SpinorField
from .errors import ConfigurationError
from .spinors import component_inners, node_product, pairing

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


def _contract(t: np.ndarray, P: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_jkl t^i_jkl P^jk v^l per node for a constant or per-node t, no GEMM:
    M^i_l = t^i_(jk)l P^(jk) with i a leading axis, then M v, by ``node_product``."""
    M = node_product(P.reshape(P.shape[:-2] + (1, 1, -1)),
                     t.reshape(t.shape[:-3] + (-1, t.shape[-1])))
    return node_product(M[..., 0, :], v)


class ReactionSpec:
    """Base class; concrete variants implement rhs/linearize/coefficient_bound."""

    n = 1

    def rhs(self, psi: SpinorField) -> SpinorField:
        raise NotImplementedError

    def linearize(self, psi: SpinorField, delta: SpinorField) -> SpinorField:
        raise NotImplementedError

    def coefficient_bound(self, chart: GridChart) -> float:
        """h0: sup of the cubic coefficients over the active nodes."""
        raise NotImplementedError

    def _check(self, psi: SpinorField):
        if psi.n != self.n:
            raise ConfigurationError(
                f"{type(self).__name__} expects n={self.n}, field has n={psi.n}")


class GeneralCubic(ReactionSpec):
    def __init__(self, tensor):
        t = np.asarray(tensor, dtype=float)
        if t.ndim not in (4, 6):
            raise ConfigurationError("cubic tensor must have 4 (constant) or "
                                     "6 (per-node) axes")
        if len(set(t.shape[-4:])) != 1:
            raise ConfigurationError("cubic tensor must be square in its four index axes")
        self.n = t.shape[-1]
        self.tensor = t

    def _tensor_on(self, chart: GridChart) -> np.ndarray:
        if self.tensor.shape[:-4] not in ((), (chart.ny, chart.nx)):
            raise ConfigurationError("per-node tensor does not match the chart grid")
        return self.tensor

    def rhs(self, psi: SpinorField) -> SpinorField:
        self._check(psi)
        t = self._tensor_on(psi.chart)
        out = _contract(t, component_inners(psi), psi.values)
        return SpinorField(psi.chart, out)

    def linearize(self, psi: SpinorField, delta: SpinorField) -> SpinorField:
        self._check(psi)
        t = self._tensor_on(psi.chart)
        v, d = psi.values, delta.values
        dP = pairing(d, v)
        dP = dP + np.conj(np.swapaxes(dP, -1, -2))  # + pairing(v, d), bit for bit
        out = _contract(t, dP, v) + _contract(t, component_inners(psi), d)
        return SpinorField(psi.chart, out)

    def coefficient_bound(self, chart: GridChart) -> float:
        t = self._tensor_on(chart)
        return float(np.abs(t if t.ndim == 4 else t[chart.active]).max())


class ScalarH(GeneralCubic):
    """Scalar mean curvature H: a ``GeneralCubic`` with the per-node tensor H
    (a number, a (ny, nx) array or a callable H(X, Y)), built on each chart."""

    n = 1

    def __init__(self, h):
        self.h = h

    def _tensor_on(self, chart: GridChart) -> np.ndarray:
        return _as_node_scalar(self.h, chart)[:, :, None, None, None, None]


class CurvatureCubic(GeneralCubic):
    """Constant curvature tensor R; a ``GeneralCubic`` with tensor -R/3."""

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
        super().__init__(-t / 3.0)

    @staticmethod
    def constant_curvature(n: int, kappa: float) -> "CurvatureCubic":
        """Space-form tensor R_{ijkl} = kappa (d_ik d_jl - d_il d_jk)."""
        eye = np.eye(n)
        t = kappa * (np.einsum("ik,jl->ijkl", eye, eye)
                     - np.einsum("il,jk->ijkl", eye, eye))
        return CurvatureCubic(t)


class ChiralUV(ReactionSpec):
    """rhs = [U(psi) Gamma_+ + V(psi) Gamma_-] psi with Gamma_+ = diag(0, 1)."""

    def __init__(self, preset: str, h=0.0):
        if preset not in CHIRAL_ALPHA:
            raise ConfigurationError(f"unknown chiral preset {preset!r}")
        self.preset = preset
        self.h = h

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
        m1 = v.real[..., 0, 0] ** 2 + v.imag[..., 0, 0] ** 2
        m2 = v.real[..., 0, 1] ** 2 + v.imag[..., 0, 1] ** 2
        return self._law(_as_node_scalar(self.h, psi.chart), m1, m2)

    def rhs(self, psi: SpinorField) -> SpinorField:
        self._check(psi)
        U, V = self._uv(psi)
        out = np.empty_like(psi.values)
        out[..., 0, 0] = V * psi.values[..., 0, 0]   # Gamma_- keeps slot 1
        out[..., 0, 1] = U * psi.values[..., 0, 1]   # Gamma_+ keeps slot 2
        return SpinorField(psi.chart, out)

    def linearize(self, psi: SpinorField, delta: SpinorField) -> SpinorField:
        self._check(psi)
        v, d = psi.values, delta.values
        H = _as_node_scalar(self.h, psi.chart)
        re = lambda s: 2.0 * (d.real[..., 0, s] * v.real[..., 0, s]
                              + d.imag[..., 0, s] * v.imag[..., 0, s])
        dU, dV = self._law(H, re(0), re(1))
        U, V = self._uv(psi)
        out = np.empty_like(v)
        out[..., 0, 0] = V * d[..., 0, 0] + dV * v[..., 0, 0]
        out[..., 0, 1] = U * d[..., 0, 1] + dU * v[..., 0, 1]
        return SpinorField(psi.chart, out)

    def coefficient_bound(self, chart: GridChart) -> float:
        return ScalarH(self.h).coefficient_bound(chart) + CHIRAL_ALPHA[self.preset]
