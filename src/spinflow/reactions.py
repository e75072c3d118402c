"""Cubic right-hand sides of the nonlinear Dirac equation.

Variants:

* ``GeneralCubic``   rhs^i = H^i_{jkl} <psi^j, psi^k> psi^l with a real
  rank-4 coefficient tensor, constant ``(n, n, n, n)`` or per-node
  ``(ny, nx, n, n, n, n)``, both through one contraction on ``(ny, nx)`` node
  planes, no BLAS: pairing planes ``P_jk = <psi^j, psi^k>`` (j <= k once, real
  diagonal) give ``M_il = H^i_{jkl} P_jk``, and the rhs is ``M_il psi^l``.
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

import itertools

import numpy as np

from .charts import GridChart, SpinorField
from .errors import ConfigurationError

CHIRAL_ALPHA = {"su2": 1.0, "nil": 0.5, "sl2": 1.5}


def _as_node_scalar(h, chart: GridChart) -> np.ndarray:
    """H from a number, an (ny, nx) array or H(X, Y) giving either; never broadcast."""
    arr = np.asarray(h(*chart.grid()) if callable(h) else h, dtype=float)
    if arr.ndim == 0:
        return np.full((chart.ny, chart.nx), float(arr))
    if arr.shape != (chart.ny, chart.nx):
        raise ConfigurationError("scalar coefficient shape must match the chart")
    return arr


def _inner(a: np.ndarray, b: np.ndarray, j: int, k: int) -> np.ndarray:
    """<a^j, b^k> per node, an (ny, nx) plane; for j = k its real part from real
    products, slot 1's pair plus slot 2's (the order of ``pointwise_norm``)."""
    x, y = (a.real[..., j, s] * b.real[..., j, s] + a.imag[..., j, s] * b.imag[..., j, s]
            if j == k else a[..., j, s] * np.conj(b[..., k, s]) for s in (0, 1))
    return x + y


def _pairing(v: np.ndarray, d=None) -> dict:
    """Node planes P[j, k] of the Hermitian matrix <v^j, v^k> of a node-major
    (ny, nx, n, 2) array or, given d, of its derivative <d^j, v^k> + <v^j, d^k>:
    each j <= k built once, the diagonal real, P[k, j] = conj(P[j, k])."""
    P = {}
    for j, k in itertools.combinations_with_replacement(range(v.shape[2]), 2):
        p = _inner(v if d is None else d, v, j, k)
        P[j, k] = p if d is None else p + (_inner(v, d, j, k) if k > j else p)
        if k > j:
            P[k, j] = np.conj(P[j, k])
    return P


def _contract(t: np.ndarray, terms, out: np.ndarray) -> np.ndarray:
    """out_is = sum over (P, w) in ``terms`` of sum_l M_il w_ls, M_il = sum_jk
    t_ijkl P[j, k], by in-place multiply-adds on (ny, nx) planes: the scalar
    t_ijkl of a constant tensor or the plane t[:, :, i, j, k, l] of a per-node
    one, no BLAS.  M is real when the pairings are (n = 1): out = M w."""
    n = out.shape[2]
    m = np.empty(out.shape[:2], np.result_type(*terms[0][0].values()))
    # the products added onto m and out (complex, as m is once n > 1); none for one term
    prod = np.empty(out.shape[:2], out.dtype) if n * len(terms) > 1 else None
    for i, (q, (P, w)), l in itertools.product(range(n), enumerate(terms), range(n)):
        for r, (jk, p) in enumerate(P.items()):
            np.multiply(t[(..., i) + jk + (l,)], p, out=prod if r else m)
            if r:
                m += prod
        for s in range(2):
            np.multiply(m, w[..., l, s], out=prod if q or l else out[..., i, s])
            if q or l:
                out[..., i, s] += prod
    return out


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
        t, v = self._tensor_on(psi.chart), psi.values
        return SpinorField(psi.chart, _contract(t, [(_pairing(v), v)], np.empty_like(v)))

    def linearize(self, psi: SpinorField, delta: SpinorField) -> SpinorField:
        self._check(psi)
        self._check(delta)
        t, v, d = self._tensor_on(psi.chart), psi.values, delta.values
        terms = [(_pairing(v), d), (_pairing(v, d), v)]
        return SpinorField(psi.chart, _contract(t, terms, np.empty_like(v)))

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
