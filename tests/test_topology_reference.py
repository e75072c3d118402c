"""The array-built disk operators against per-cell loop references.

Each reference walks cells or ring nodes one at a time with the same scalar
arithmetic as the library, so results must agree bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from spinflow.charts import BOUNDARY, GridChart, SpinorField
from spinflow.dirac import _derivative
from spinflow.fields import enneper_field
from spinflow.green import _disk_system, disk_solve
from spinflow.weierstrass import _triangulate, integrate_surface

CHARTS = [GridChart.disk(nx, r) for nx in (9, 13, 17, 33) for r in (1.0, 0.73)]


def _full_cells(act):
    ny, nx = act.shape
    return [(j, i) for j in range(ny - 1) for i in range(nx - 1)
            if act[j, i] and act[j, i + 1] and act[j + 1, i] and act[j + 1, i + 1]]


def _reference_system(chart):
    act = chart.active
    idx = -np.ones((chart.ny, chart.nx), dtype=np.int64)
    idx[act] = np.arange(int(act.sum()))
    rows, cols, vals = [], [], []
    r = 0
    hx, hy = chart.hx, chart.hy
    for j, i in _full_cells(act):
        corners = ((j, i), (j, i + 1), (j + 1, i), (j + 1, i + 1))
        for slot, sign in ((1, 1), (0, -1)):
            for c, sx, sy in zip(corners, (-1, 1, -1, 1), (-1, -1, 1, 1)):
                rows.append(r)
                cols.append(2 * idx[c] + slot)
                vals.append(sx / (2 * hx) + 1j * sy / (2 * hy) if sign > 0
                            else -(sx / (2 * hx) - 1j * sy / (2 * hy)))
            r += 1
    for j, i in chart.boundary_nodes:
        for s in (0, 1):
            rows.append(r)
            cols.append(2 * idx[j, i] + s)
            vals.append(1.0 / chart.h)
            r += 1
    return sp.csr_matrix((np.asarray(vals, np.complex128), (rows, cols)),
                         shape=(r, 2 * int(act.sum())))


def _reference_rhs(chart, f, trace, comp):
    b = []
    for j, i in _full_cells(chart.active):
        corners = ((j, i), (j, i + 1), (j + 1, i), (j + 1, i + 1))
        for s in (0, 1):
            b.append(0.25 * sum(f.values[jj, ii, comp, s] for (jj, ii) in corners))
    for k in range(2 * trace.shape[0]):
        b.append((1.0 / chart.h) * trace[k // 2, comp, k % 2])
    return np.asarray(b, np.complex128)


def _reference_ring(values, chart, axis, order):
    h = chart.hx if axis == 1 else chart.hy
    out = _derivative(values, chart, axis, order)     # ring nodes are all rewritten
    act = chart.active
    for j, i in zip(*np.nonzero(chart.mask == BOUNDARY)):
        def at(d):
            return values[j + d, i] if axis == 0 else values[j, i + d]

        def ok(d):
            jd, id_ = (j + d, i) if axis == 0 else (j, i + d)
            return 0 <= jd < chart.ny and 0 <= id_ < chart.nx and act[jd, id_]

        c = values[j, i]
        m2, m1, p1, p2 = ok(-2), ok(-1), ok(1), ok(2)
        if order == 1 and m1 and p1:
            out[j, i] = (at(1) - at(-1)) / (2.0 * h)
        elif order == 1 and p1 and p2:
            out[j, i] = (-3.0 * c + 4.0 * at(1) - at(2)) / (2.0 * h)
        elif order == 1 and m1 and m2:
            out[j, i] = (3.0 * c - 4.0 * at(-1) + at(-2)) / (2.0 * h)
        elif order == 1 and p1:
            out[j, i] = (at(1) - c) / h
        elif order == 1 and m1:
            out[j, i] = (c - at(-1)) / h
        elif order == 2 and m1 and p1:
            out[j, i] = (at(1) - 2.0 * c + at(-1)) / (h * h)
        elif order == 2 and p1 and p2:
            out[j, i] = (c - 2.0 * at(1) + at(2)) / (h * h)
        elif order == 2 and m1 and m2:
            out[j, i] = (c - 2.0 * at(-1) + at(-2)) / (h * h)
        else:
            out[j, i] = 0.0
    return out


def _reference_faces(chart, X):
    nx = chart.nx
    ring = chart.mask == BOUNDARY
    faces = []
    for j, i in _full_cells(chart.active):
        a, b, c, d = j * nx + i, j * nx + i + 1, (j + 1) * nx + i + 1, (j + 1) * nx + i
        use_main = True
        if ring[j, i] or ring[j, i + 1] or ring[j + 1, i] or ring[j + 1, i + 1]:
            use_main = (np.linalg.norm(X[j, i] - X[j + 1, i + 1])
                        <= np.linalg.norm(X[j, i + 1] - X[j + 1, i]))
        faces += [(a, b, c), (a, c, d)] if use_main else [(a, b, d), (b, c, d)]
    return np.asarray(faces, dtype=np.int64).reshape(-1, 3)


def _same(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: f"{c.nx}-{c.params[0]}")
class TestAgainstLoops:
    def test_disk_system(self, chart):
        A, AH, _, _ = _disk_system(chart)
        ref = _reference_system(chart)
        for got, want in ((A, ref), (AH, ref.conj().T.tocsr())):
            _same(got.data, want.data)
            _same(got.indices, want.indices)
            _same(got.indptr, want.indptr)

    def test_disk_solve_rhs(self, chart):
        rng = np.random.default_rng(chart.nx)
        f = SpinorField(chart, rng.standard_normal((chart.ny, chart.nx, 2, 2))
                        + 1j * rng.standard_normal((chart.ny, chart.nx, 2, 2))).zero_outside()
        trace = (rng.standard_normal((chart.boundary_nodes.shape[0], 2, 2))
                 + 1j * rng.standard_normal((chart.boundary_nodes.shape[0], 2, 2)))
        psi, rep = disk_solve(f, trace, tol=1e-6)
        A, _, idx, _ = _disk_system(chart)
        act = chart.active
        ls = []
        for comp in range(2):
            x = np.zeros(A.shape[1], np.complex128)
            x[2 * idx[act]] = psi.values[act, comp, 0]
            x[2 * idx[act] + 1] = psi.values[act, comp, 1]
            b = _reference_rhs(chart, f, trace, comp)
            ls.append(float(np.linalg.norm(A @ x - b) / np.linalg.norm(b)))
        # the reported residual is taken against the solve's own right-hand side
        assert rep["least_squares_residual"] == max(ls)

    @pytest.mark.parametrize("axis, order", [(0, 1), (1, 1), (0, 2), (1, 2)])
    def test_ring_stencils(self, chart, axis, order):
        rng = np.random.default_rng(chart.nx)
        values = (rng.standard_normal((chart.ny, chart.nx, 2, 2))
                  + 1j * rng.standard_normal((chart.ny, chart.nx, 2, 2)))
        got = _derivative(values, chart, axis, order)
        _same(got, _reference_ring(values, chart, axis, order))

    def test_triangulation(self, chart):
        mesh = integrate_surface(enneper_field(chart, 0.8))
        _same(mesh.faces, _reference_faces(chart, mesh.vertices))
        X = np.random.default_rng(chart.nx).standard_normal((chart.ny, chart.nx, 3))
        _same(_triangulate(chart, X), _reference_faces(chart, X))
