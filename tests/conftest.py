import os
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture
def torus64():
    return GridChart.torus(64, spin_structure="AA")


@pytest.fixture
def torus_pp():
    return GridChart.torus(32, spin_structure="PP")


@pytest.fixture
def disk33():
    return GridChart.disk(33, radius=1.0)
