"""Surface reconstruction from spinor data and geometric verification.

A single-component spinor determines three scalar forms

    phi_1 = i (conj(psi_1)^2 + psi_2^2)
    phi_2 = psi_2^2 - conj(psi_1)^2
    phi_3 = 2 conj(psi_1) psi_2

which satisfy phi_1^2 + phi_2^2 + phi_3^2 = 0 identically, and the immersion
is X = Re int phi dz.  The conjugation sits on psi_1 so that Dirac solutions
with H = 0 (psi_1 antiholomorphic, psi_2 holomorphic) give holomorphic phi,
i.e. closed forms and the classical minimal-surface formula; the induced
metric is |psi|^4 |dz|^2 pointwise for any field.

Integration runs along a breadth-first spanning tree of grid edges with the
trapezoid rule.  Path dependence is never hidden: the maximal plaquette
circulation per unit cell area is recorded as ``loop_residual`` (O(h^2) for
solutions, order one for arbitrary fields).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy import ndimage

from .charts import BOUNDARY, CYLINDER, GridChart, SpinorField
from .errors import ConfigurationError, PreconditionError
from .spinors import pointwise_norm

DEGENERATE_AREA_FACTOR = 1e-14
METRIC_FLOOR = 1e-12


def weierstrass_form(psi: SpinorField) -> np.ndarray:
    """The three form coefficients, shape (ny, nx, 3) complex."""
    if psi.n != 1:
        raise ConfigurationError("surface reconstruction needs a single-component field")
    a = np.conj(psi.values[:, :, 0, 0])
    b = psi.values[:, :, 0, 1]
    out = np.empty(a.shape + (3,), np.complex128)
    out[..., 0] = 1j * (a * a + b * b)
    out[..., 1] = b * b - a * a
    out[..., 2] = 2.0 * a * b
    return out


def null_identity_defect(psi: SpinorField) -> float:
    phi = weierstrass_form(psi)
    return float(np.abs(np.sum(phi * phi, axis=-1))[psi.chart.active].max())


@dataclass
class SurfaceMesh:
    chart: GridChart
    vertices: np.ndarray        # (ny, nx, 3) float, NaN outside the domain
    faces: np.ndarray           # (m, 3) flat node ids iy*nx + ix, grid-oriented
    loop_residual: float        # max plaquette circulation / cell area
    source_tag: str
    basepoint: tuple            # (iy, ix)

    def active_vertex_ids(self) -> np.ndarray:
        return np.flatnonzero(self.chart.active.ravel())


def _default_basepoint(chart: GridChart) -> tuple:
    cx = 0.5 * (chart.xs[0] + chart.xs[-1])
    cy = 0.5 * (chart.ys[0] + chart.ys[-1])
    jj, ii = np.nonzero(chart.active)
    d2 = (chart.xs[ii] - cx) ** 2 + (chart.ys[jj] - cy) ** 2
    k = int(np.argmin(d2))     # first minimum in C order: lexicographic tie-break
    return int(jj[k]), int(ii[k])


def integrate_surface(psi: SpinorField, basepoint: tuple | None = None) -> SurfaceMesh:
    """Integrate Re(phi dz) along a spanning tree from the basepoint.

    Edges use the trapezoid rule.  Plaquette circulations are accumulated into
    ``loop_residual``; non-integrable inputs are reported there, never fatal.
    """
    chart = psi.chart
    if chart.kind == CYLINDER:
        raise ConfigurationError("surface charts must be planar (no cylinder charts)")
    psi.validate()
    phi = weierstrass_form(psi)
    act = chart.active
    ny, nx = chart.ny, chart.nx
    if basepoint is None:
        basepoint = _default_basepoint(chart)
    elif not act[basepoint]:
        raise PreconditionError("basepoint lies outside the domain")
    hx, hy = chart.hx, chart.hy

    X = np.full((ny, nx, 3), np.nan)
    X[basepoint] = 0.0
    seen = np.zeros((ny, nx), bool)
    seen[basepoint] = True
    queue = deque([basepoint])
    steps = ((0, 1, hx), (0, -1, -hx), (1, 0, 1j * hy), (-1, 0, -1j * hy))
    while queue:
        j, i = queue.popleft()
        for dj, di, dz in steps:
            ja, ia = j + dj, i + di
            if 0 <= ja < ny and 0 <= ia < nx and act[ja, ia] and not seen[ja, ia]:
                seen[ja, ia] = True
                edge = 0.5 * (phi[j, i] + phi[ja, ia]) * dz
                X[ja, ia] = X[j, i] + edge.real
                queue.append((ja, ia))

    # plaquette circulation of the trapezoid edge rule, per unit cell area
    if chart.cells.any():
        p00 = phi[:-1, :-1]
        p10 = phi[:-1, 1:]
        p11 = phi[1:, 1:]
        p01 = phi[1:, :-1]
        circ = 0.5 * ((p00 + p10) * hx + (p10 + p11) * (1j * hy)
                      + (p11 + p01) * (-hx) + (p01 + p00) * (-1j * hy))
        mags = np.linalg.norm(circ.real, axis=-1) / (hx * hy)
        loop_residual = float(np.where(chart.cells, mags, 0.0).max())
    else:
        loop_residual = 0.0

    faces = _triangulate(chart, X)
    return SurfaceMesh(chart, X, faces, loop_residual, psi.tag, tuple(basepoint))


def _triangulate(chart: GridChart, X: np.ndarray) -> np.ndarray:
    """Split each full cell (``GridChart.cells``), keeping the grid orientation.

    Interior cells use the main diagonal uniformly (a consistent pattern is
    what makes the pointwise curvature estimates converge); cells touching a
    disk boundary node take the shorter diagonal, ties to the main one.
    """
    nx = chart.nx
    jj, ii = np.nonzero(chart.cells)
    a = jj * nx + ii
    b, c, d = a + 1, a + nx + 1, a + nx
    use_main = np.ones(a.shape, bool)
    on_ring = (chart.mask == BOUNDARY).ravel()
    V = X.reshape(-1, 3)
    for k in np.flatnonzero(on_ring[a] | on_ring[b] | on_ring[c] | on_ring[d]):
        use_main[k] = np.linalg.norm(V[a[k]] - V[c[k]]) <= np.linalg.norm(V[b[k]] - V[d[k]])
    faces = np.where(use_main[:, None], np.stack([a, b, c, a, c, d], axis=1),
                     np.stack([a, b, d, b, c, d], axis=1))
    return faces.reshape(-1, 3)


def mesh_area(mesh: SurfaceMesh) -> float:
    """Sum of triangle areas; equals the field energy for solution meshes."""
    V = mesh.vertices.reshape(-1, 3)
    p0 = V[mesh.faces[:, 0]]
    p1 = V[mesh.faces[:, 1]]
    p2 = V[mesh.faces[:, 2]]
    cr = np.cross(p1 - p0, p2 - p0)
    return float(np.sum(0.5 * np.linalg.norm(cr, axis=1)))


def induced_metric_residual(mesh: SurfaceMesh, psi: SpinorField) -> float:
    """Max relative defect of |dX|^2 against |psi|^4 h^2 over grid edges.

    The floor keeps the comparison absolute where the metric degenerates.
    """
    if mesh.chart != psi.chart:
        raise ConfigurationError("mesh and field live on different charts")
    chart = mesh.chart
    act = chart.active
    X = mesh.vertices
    dens = pointwise_norm(psi) ** 4
    worst = 0.0
    for axis, h in ((1, chart.hx), (0, chart.hy)):
        if axis == 1:
            pair = act[:, :-1] & act[:, 1:]
            dX = X[:, 1:] - X[:, :-1]
            m = 0.5 * (dens[:, 1:] + dens[:, :-1]) * h * h
        else:
            pair = act[:-1, :] & act[1:, :]
            dX = X[1:, :] - X[:-1, :]
            m = 0.5 * (dens[1:, :] + dens[:-1, :]) * h * h
        d2 = np.sum(dX * dX, axis=-1)
        rel = np.abs(d2 - m) / (m + METRIC_FLOOR)
        worst = max(worst, float(np.where(pair, rel, 0.0).max()))
    return worst


def mean_curvature(mesh: SurfaceMesh):
    """Signed discrete mean curvature at interior vertices.

    Cotangent Laplacian with barycentric vertex areas; H = -(Delta X . n)/2
    with area-weighted vertex normals, so a unit sphere with outward normals
    reports +1.  Returns (H array with NaN off the interior, excluded list);
    excluded vertices touch degenerate (zero-area) faces.
    """
    chart = mesh.chart
    ny, nx = chart.ny, chart.nx
    V = mesh.vertices.reshape(-1, 3)
    F = mesh.faces
    if F.size == 0:
        return np.full((ny, nx), np.nan), []

    p0, p1, p2 = V[F[:, 0]], V[F[:, 1]], V[F[:, 2]]
    cr = np.cross(p1 - p0, p2 - p0)
    area2 = np.linalg.norm(cr, axis=1)              # twice the face area
    scale = float(np.median(area2[area2 > 0])) if np.any(area2 > 0) else 0.0
    degenerate = area2 <= DEGENERATE_AREA_FACTOR * max(scale, 1.0)

    nv = V.shape[0]
    vertex_area = np.zeros(nv)
    normal_acc = np.zeros((nv, 3))
    good = ~degenerate
    rows, cols, vals = [], [], []
    for (ia, ib, ic) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        e1 = V[F[:, ib]] - V[F[:, ia]]
        e2 = V[F[:, ic]] - V[F[:, ia]]
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = np.einsum("ij,ij->i", e1, e2) / area2
        w = np.where(good, 0.5 * cot, 0.0)     # corner a weights opposite edge (b, c)
        rows.extend([F[good, ib], F[good, ic]])
        cols.extend([F[good, ic], F[good, ib]])
        vals.extend([w[good], w[good]])
    W = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(nv, nv))
    np.add.at(vertex_area, F[good].ravel(), np.repeat(area2[good] / 6.0, 3))
    np.add.at(normal_acc, F[good].ravel(), np.repeat(0.5 * cr[good], 3, axis=0))

    diag = np.asarray(W.sum(axis=1)).ravel()
    LX = W @ V - diag[:, None] * V

    # interior = active 8-neighborhood, not meeting a degenerate face
    interior = ndimage.binary_erosion(chart.active, np.ones((3, 3)))

    excluded = sorted(set(F[degenerate].ravel().tolist()))
    H = np.full(nv, np.nan)
    ok = interior.ravel() & (vertex_area > 0)
    if excluded:
        ok[np.asarray(excluded, dtype=np.int64)] = False
    nrm = np.linalg.norm(normal_acc, axis=1)
    unit = np.zeros_like(normal_acc)
    pos = nrm > 0
    unit[pos] = normal_acc[pos] / nrm[pos, None]
    lap = LX / np.maximum(vertex_area, 1e-300)[:, None]
    H[ok] = -0.5 * np.einsum("ij,ij->i", lap[ok], unit[ok])
    return H.reshape(ny, nx), excluded
