import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from spinflow.charts import GridChart, SpinorField

# CLI tests run ``python -m spinflow.cli`` in subprocesses; let those import
# the source tree too, so a plain ``pytest`` works without installing.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))


def random_field(chart, n=1, seed=0, scale=1.0):
    """Dense random field (not band-limited); zero outside the domain."""
    rng = np.random.default_rng(seed)
    shape = (chart.ny, chart.nx, n, 2)
    vals = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    vals[~chart.active] = 0.0
    return SpinorField(chart, vals)


def zero_outside(psi):
    """Zero ``psi`` on the nodes outside its chart's domain, in place; returns psi."""
    psi.values[~psi.chart.active] = 0.0
    return psi


def block_inner(a, b):
    """<a, b> per node for (..., 2) blocks; conjugate-linear in b."""
    return np.sum(a * np.conj(b), axis=-1)


def bubbles_by_point(ledger):
    """The ledger's bubble entries grouped by blow-up point."""
    groups = {}
    for b in ledger.bubbles:
        groups.setdefault(b.point, []).append(b)
    return groups


def rel_l2(chart, a, b):
    d = np.sqrt(np.sum(np.abs(a - b) ** 2, axis=(2, 3)))
    r = np.sqrt(np.sum(np.abs(b) ** 2, axis=(2, 3)))
    w = chart.weights
    return float(np.sqrt(np.sum(d ** 2 * w) / np.sum(r ** 2 * w)))


# The disk boundary-value problem as one loop-built two-slot system: unknowns
# interleave slot 1 and slot 2 per active node in C order; each full cell has
# a slot-2 row then a slot-1 row, each ring node a slot-1 then a slot-2 trace
# row.  It never uses the conjugation that the library's scalar solve rests on.

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


@pytest.fixture
def torus64():
    return GridChart.torus(64, spin_structure="AA")


@pytest.fixture
def torus_pp():
    return GridChart.torus(32, spin_structure="PP")


@pytest.fixture
def disk33():
    return GridChart.disk(33, radius=1.0)
