"""Array code of the analyze path and the field header against the per-node
and per-kind code it replaced.

Each reference uses the same scalar arithmetic as the library, so results
must agree bit for bit.
"""

import numpy as np
import pytest

from spinflow.charts import DISK, RECT, SPHERE, TORUS, GridChart
from spinflow.cli import _write_obj
from spinflow.fieldfile import _chart_params
from spinflow.fields import enneper_field
from spinflow.weierstrass import integrate_surface

CHARTS = [GridChart.torus(32, spin_structure="AA"),
          GridChart.torus(24, 40, 1.5, 0.7, spin_structure="PA"),
          GridChart.disk(33, 1.0), GridChart.disk(17, 0.73),
          GridChart.rect(33, 17, (-1.0, 1.0, -0.5, 0.25))]
CENTERS = [(0.0, 0.0), (0.5, 0.25), (0.97, 0.03), (-0.31, 0.62), (1.4, -0.2)]


def _reference_min_image_offset(chart, cx, cy):
    X, Y = chart.grid()
    dx, dy = X - cx, Y - cy
    if chart.kind == TORUS:
        Lx, Ly = chart.params
        dx = (dx + 0.5 * Lx) % Lx - 0.5 * Lx
        dy = (dy + 0.5 * Ly) % Ly - 0.5 * Ly
    return dx, dy


def _reference_write_obj(path, mesh):
    act = mesh.chart.active.ravel()
    remap = -np.ones(act.size, dtype=np.int64)
    remap[act] = np.arange(int(act.sum()))
    V = mesh.vertices.reshape(-1, 3)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for vid in np.flatnonzero(act):
            x, y, z = (float(c) for c in V[vid])
            fh.write(f"v {x!r} {y!r} {z!r}\n")
        for (a, b, c) in mesh.faces:
            fh.write(f"f {remap[a] + 1} {remap[b] + 1} {remap[c] + 1}\n")


def _reference_chart_params(chart):
    p = chart.params
    if chart.kind == TORUS:
        return (p[0], p[1], 0.0, 0.0)
    if chart.kind in (DISK, SPHERE):
        return (p[0], 0.0, 0.0, 0.0)
    if chart.kind == RECT:
        return p
    return (p[0], p[1], 0.0, 0.0)


def _same_bits(a, b):
    a, b = np.broadcast_arrays(a, b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: f"{c.kind}-{c.nx}x{c.ny}")
@pytest.mark.parametrize("center", CENTERS)
def test_min_image_offset_matches_grid_reference(chart, center):
    dx, dy = chart.min_image_offset(*center)
    assert dx.shape == (1, chart.nx) and dy.shape == (chart.ny, 1)
    rx, ry = _reference_min_image_offset(chart, *center)
    assert _same_bits(np.broadcast_to(dx, rx.shape), rx)
    assert _same_bits(np.broadcast_to(dy, ry.shape), ry)
    assert _same_bits(dx * dx + dy * dy, rx * rx + ry * ry)
    assert _same_bits(np.hypot(dx, dy), np.hypot(rx, ry))


@pytest.mark.parametrize("chart", [GridChart.rect(33, 17, (-1.0, 1.0, -0.5, 0.25)),
                                   GridChart.rect(41, 41, (-1.0, 1.0, -1.0, 1.0)),
                                   GridChart.disk(33, 1.0), GridChart.disk(25, 0.73)],
                         ids=lambda c: f"{c.kind}-{c.nx}x{c.ny}")
def test_obj_writer_matches_loop_reference(tmp_path, chart):
    mesh = integrate_surface(enneper_field(chart, 0.9))
    _write_obj(str(tmp_path / "new.obj"), mesh)
    _reference_write_obj(str(tmp_path / "ref.obj"), mesh)
    new = (tmp_path / "new.obj").read_bytes()
    assert new == (tmp_path / "ref.obj").read_bytes()
    assert new.count(b"\nf ") == mesh.faces.shape[0]


@pytest.mark.parametrize("chart", [
    GridChart.torus(16, 24, 1.5, 0.7, spin_structure="AP"), GridChart.disk(17, 0.73),
    GridChart.rect(16, 12, (-1.0, 2.0, -0.5, 0.25)), GridChart.sphere(17, 2.5),
    GridChart.cylinder(12, 16, -0.4, 1.3)], ids=lambda c: c.kind)
def test_chart_params_match_per_kind_reference(chart):
    new, ref = _chart_params(chart), _reference_chart_params(chart)
    assert np.array(new, "<f8").tobytes() == np.array(ref, "<f8").tobytes()
