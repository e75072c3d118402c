"""Clifford algebra in the fixed 2x2 representation, norms and energies.

The representation is

    sigma1 = [[0, 1], [-1, 0]],   sigma2 = [[0, i], [i, 0]],

so sigma_a sigma_b + sigma_b sigma_a = -2 delta_ab and both matrices are
skew-Hermitian.  The chirality operator i sigma1 sigma2 works out to
diag(-1, 1), giving the projectors diag(0, 1) and diag(1, 0).

The Hermitian product on 2-spinor blocks is conjugate-linear in the SECOND
slot: <a, b> = a1 conj(b1) + a2 conj(b2).  Flipping this convention
conjugates the cubic reaction terms, so it is fixed here once and used
everywhere.
"""

from __future__ import annotations

import numpy as np

from .charts import GridChart, SpinorField
from .errors import PreconditionError

SIGMA1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, 1.0j], [1.0j, 0.0]], dtype=np.complex128)
GAMMA = 1j * (SIGMA1 @ SIGMA2)                 # diag(-1, 1)
PROJ_PLUS = 0.5 * (np.eye(2) + GAMMA)          # diag(0, 1)
PROJ_MINUS = 0.5 * (np.eye(2) - GAMMA)         # diag(1, 0)


def clifford_defect() -> float:
    """Largest violation of the Clifford/projector relations by the module's
    SIGMA1, SIGMA2, GAMMA, PROJ_PLUS and PROJ_MINUS."""
    eye = np.eye(2)
    defects = []
    for a in (SIGMA1, SIGMA2):
        defects.append(np.abs(a + a.conj().T).max())           # skew-Hermitian
    for a, b, d in ((SIGMA1, SIGMA1, 1.0), (SIGMA2, SIGMA2, 1.0), (SIGMA1, SIGMA2, 0.0)):
        defects.append(np.abs(a @ b + b @ a + 2.0 * d * eye).max())
    defects.append(np.abs(GAMMA @ GAMMA - eye).max())
    defects.append(np.abs(PROJ_PLUS + PROJ_MINUS - eye).max())
    defects.append(np.abs(PROJ_PLUS @ PROJ_PLUS - PROJ_PLUS).max())
    defects.append(np.abs(PROJ_MINUS @ PROJ_MINUS - PROJ_MINUS).max())
    defects.append(np.abs(PROJ_PLUS @ PROJ_MINUS).max())
    return float(max(defects))


def pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a^j, b^k> per node of two (ny, nx, n, 2) field arrays: (ny, nx, n, n)."""
    return np.einsum("yxjs,yxks->yxjk", a, np.conj(b))


def node_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_l a[..., i, l] b[..., l, s], leading axes broadcast, l unrolled: no BLAS."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for l in range(1, a.shape[-1]):
        out += a[..., :, l, None] * b[..., None, l, :]
    return out


def apply_matrix(mat: np.ndarray, psi: SpinorField) -> SpinorField:
    """Apply a 2x2 matrix blockwise to every component of every node."""
    return SpinorField(psi.chart, node_product(psi.values, mat.T))


def clifford_multiply(alpha: int, psi: SpinorField) -> SpinorField:
    """Clifford multiplication e_alpha . psi, alpha in {1, 2}."""
    if alpha not in (1, 2):
        raise PreconditionError("direction index must be 1 or 2")
    return apply_matrix(SIGMA1 if alpha == 1 else SIGMA2, psi)


def chirality_project(sign: int, psi: SpinorField) -> SpinorField:
    """Apply the chirality projector for sign = +1 or -1; idempotent."""
    if sign not in (+1, -1):
        raise PreconditionError("projector sign must be +1 or -1")
    return apply_matrix(PROJ_PLUS if sign > 0 else PROJ_MINUS, psi)


def component_inners(psi: SpinorField) -> np.ndarray:
    """Matrix of products <psi^j, psi^k>, shape (ny, nx, n, n)."""
    return pairing(psi.values, psi.values)


def pointwise_norm(psi: SpinorField) -> np.ndarray:
    """|psi| per node: sqrt of the summed squared component magnitudes."""
    v = psi.values
    return np.sqrt(np.sum(v.real ** 2 + v.imag ** 2, axis=(2, 3)))


def _region_mask(chart: GridChart, region) -> np.ndarray:
    if region is None:
        return chart.active
    region = np.asarray(region, dtype=bool)
    if region.shape != (chart.ny, chart.nx):
        raise PreconditionError("region mask must match the chart grid")
    if np.any(region & ~chart.active):
        raise PreconditionError("region includes nodes outside the domain")
    return region


def energy(psi: SpinorField, region=None) -> float:
    """Quadrature of |psi|^4 over the region (default: all active nodes).

    The per-node terms are weighted by the chart quadrature weights and summed
    in fixed C order with numpy's pairwise reduction, so results do not depend
    on callers or thread settings.  An empty region gives 0.
    """
    mask = _region_mask(psi.chart, region)
    dens = pointwise_norm(psi) ** 4 * psi.chart.weights
    return float(np.sum(np.where(mask, dens, 0.0)))


def lp_norm(psi: SpinorField, p: float, region=None) -> float:
    """Discrete L^p norm of |psi| with the same quadrature weights as energy."""
    if not (p >= 1.0):
        raise PreconditionError("p must be in [1, inf]")
    return scalar_lp_norm(pointwise_norm(psi), psi.chart, p, region)


def scalar_lp_norm(field: np.ndarray, chart: GridChart, p: float, region=None) -> float:
    """L^p norm of a nonnegative scalar node field with chart weights."""
    mask = _region_mask(chart, region)
    vals = np.abs(np.asarray(field, dtype=float))
    if np.isinf(p):
        return float(np.where(mask, vals, 0.0).max())
    dens = vals ** p * chart.weights
    return float(np.sum(np.where(mask, dens, 0.0)) ** (1.0 / p))
