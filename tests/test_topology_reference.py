"""The array-built disk operators and surface tree against loop references.

Each reference walks cells, ring nodes or tree nodes one at a time with the
same scalar arithmetic as the library, so results must agree bit for bit.
"""

from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp

from spinflow.charts import BOUNDARY, GridChart, SpinorField
from spinflow.dirac import _derivative
from spinflow.fields import enneper_field
from spinflow.green import _adjoint, _disk_factor, _disk_system, disk_solve
from spinflow.weierstrass import (_default_basepoint, _triangulate, integrate_surface,
                                  weierstrass_form)

from conftest import _full_cells, random_field, zero_outside

CHARTS = [GridChart.disk(nx, r) for nx in (9, 13, 17, 33) for r in (1.0, 0.73)]


def _reference_scalar_system(chart):
    act = chart.active
    col = {(int(j), int(i)): u for u, (j, i) in enumerate(zip(*np.nonzero(act)))}
    rows, cols, vals = [], [], []
    r = 0
    hx, hy = chart.hx, chart.hy
    for j, i in _full_cells(act):
        corners = ((j, i), (j, i + 1), (j + 1, i), (j + 1, i + 1))
        for c, sx, sy in zip(corners, (-1, 1, -1, 1), (-1, -1, 1, 1)):
            rows.append(r)
            cols.append(col[c])
            vals.append(sx / (2 * hx) + 1j * sy / (2 * hy))
        r += 1
    for j, i in chart.boundary_nodes:
        rows.append(r)
        cols.append(col[int(j), int(i)])
        vals.append(1.0 / chart.h)
        r += 1
    return sp.csr_matrix((np.asarray(vals, np.complex128), (rows, cols)), shape=(r, len(col)))


def _reference_data(chart, f, trace):
    """Right-hand sides of the scalar system, column c slot 2 of component c
    and column n + c slot 1's conjugate problem."""
    n = f.n
    d = []
    for j, i in _full_cells(chart.active):
        corners = ((j, i), (j, i + 1), (j + 1, i), (j + 1, i + 1))
        mean = [[0.25 * sum(f.values[jj, ii, c, s] for (jj, ii) in corners) for s in (0, 1)]
                for c in range(n)]
        d.append([m1 for m1, _ in mean] + [-np.conj(m2) for _, m2 in mean])
    for k in range(trace.shape[0]):
        d.append([(1.0 / chart.h) * trace[k, c, 1] for c in range(n)]
                 + [np.conj((1.0 / chart.h) * trace[k, c, 0]) for c in range(n)])
    return np.asarray(d, np.complex128)


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
        B = _disk_system(chart)[0]
        ref = _reference_scalar_system(chart)
        _same(B.data, ref.data)
        _same(B.indices, ref.indices)
        _same(B.indptr, ref.indptr)

    def test_disk_solve_rhs(self, chart):
        rng = np.random.default_rng(chart.nx)
        f = zero_outside(SpinorField(chart, rng.standard_normal((chart.ny, chart.nx, 2, 2))
                                     + 1j * rng.standard_normal((chart.ny, chart.nx, 2, 2))))
        trace = (rng.standard_normal((chart.boundary_nodes.shape[0], 2, 2))
                 + 1j * rng.standard_normal((chart.boundary_nodes.shape[0], 2, 2)))
        psi, rep = disk_solve(f, trace, tol=1e-6)
        assert rep["iterations"] == 2                  # one solve, no refinement
        B = _disk_system(chart)[0]
        d = _reference_data(chart, f, trace)
        U = _disk_factor(chart).solve(_adjoint(B, d))
        act = chart.active
        want = np.zeros_like(psi.values)
        for u, (j, i) in enumerate(zip(*np.nonzero(act))):
            for c in range(2):
                want[j, i, c] = (np.conj(U[u, 2 + c]), U[u, c])
        _same(psi.values, want)
        # the reported residual is the misfit of psi in the loop-built system,
        # both slots of a component in one norm, slot 2 then slot 1 per row
        V = np.concatenate([psi.values[act, :, 1], psi.values[act, :, 0].conj()], axis=1)
        misfit = _reference_scalar_system(chart) @ V - d
        assert rep["least_squares_residual"] == max(
            float(np.linalg.norm(np.column_stack([misfit[:, c], misfit[:, 2 + c]]))
                  / np.linalg.norm(np.column_stack([d[:, c], d[:, 2 + c]])))
            for c in range(2))

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


def _reference_tree(psi, basepoint):
    """Breadth-first walk with a FIFO queue: pop a node, then visit its
    right, left, down and up neighbours, each by the trapezoid rule."""
    chart = psi.chart
    phi = weierstrass_form(psi)
    act = chart.active
    ny, nx = chart.ny, chart.nx
    X = np.full((ny, nx, 3), np.nan)
    X[basepoint] = 0.0
    seen = np.zeros((ny, nx), bool)
    seen[basepoint] = True
    queue = deque([basepoint])
    steps = ((0, 1, chart.hx), (0, -1, -chart.hx), (1, 0, 1j * chart.hy), (-1, 0, -1j * chart.hy))
    while queue:
        j, i = queue.popleft()
        for dj, di, dz in steps:
            ja, ia = j + dj, i + di
            if 0 <= ja < ny and 0 <= ia < nx and act[ja, ia] and not seen[ja, ia]:
                seen[ja, ia] = True
                edge = 0.5 * (phi[j, i] + phi[ja, ia]) * dz
                X[ja, ia] = X[j, i] + edge.real
                queue.append((ja, ia))
    return X


@pytest.mark.parametrize("chart", [
    GridChart.rect(33, 21), GridChart.torus(24, 32), GridChart.sphere(25),
    GridChart.disk(17), GridChart.disk(97)], ids=lambda c: f"{c.kind}{c.nx}x{c.ny}")
@pytest.mark.parametrize("off_row", [False, True], ids=["default", "off-row"])
def test_surface_tree(chart, off_row):
    # random fields are far from integrable, so another tree moves X by O(1)
    psi = random_field(chart, seed=chart.nx)
    basepoint = None
    if off_row:
        jj, ii = np.nonzero(chart.active)
        basepoint = (int(jj[len(jj) // 3]), int(ii[len(jj) // 3]))
    mesh = integrate_surface(psi, basepoint)
    assert off_row == (mesh.basepoint[0] != _default_basepoint(chart)[0])
    _same(mesh.vertices, _reference_tree(psi, mesh.basepoint))
