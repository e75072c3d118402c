import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflow.charts import GridChart, SpinorField
from spinflow.dirac import dirac_apply
from spinflow.errors import ConfigurationError
from spinflow.fields import enneper_field
from spinflow.spinors import energy, scalar_lp_norm
from spinflow.weierstrass import (SurfaceMesh, _triangulate, integrate_surface,
                                  induced_metric_residual, mean_curvature,
                                  mesh_area, null_identity_defect,
                                  weierstrass_form)

from conftest import random_field


def plane_field(nx=65):
    chart = GridChart.rect(nx, nx, (0.0, 1.0, 0.0, 1.0))
    X, _ = chart.grid()
    return chart, SpinorField.from_components(
        chart, [(np.zeros_like(X), np.ones_like(X))])


def minimal_transcendental(nx):
    # psi1 antiholomorphic, psi2 holomorphic: an exact H = 0 solution whose
    # forms are transcendental, so trapezoid loop errors are genuinely O(h^2)
    chart = GridChart.rect(nx, nx, (-0.8, 0.8, -0.8, 0.8))
    X, Y = chart.grid()
    Z = X + 1j * Y
    psi1 = np.conj(0.4 * np.exp(0.8 * Z) + 0.1j * Z ** 3)
    psi2 = 0.5 * np.exp(-0.6 * Z) + 0.2 * Z ** 2
    return chart, SpinorField.from_components(chart, [(psi1, psi2)])


class TestForm:
    def test_basis_examples(self):
        chart, psi = plane_field(33)
        phi = weierstrass_form(psi)
        np.testing.assert_array_equal(phi[0, 0], [1j, 1.0, 0.0])
        psi2 = SpinorField.zeros(chart, 1)
        psi2.values[..., 0, 0] = 1.0
        np.testing.assert_array_equal(weierstrass_form(psi2)[0, 0], [1j, -1.0, 0.0])

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_null_identity_any_field(self, seed):
        chart = GridChart.rect(9, 9, (0.0, 1.0, 0.0, 1.0))
        psi = random_field(chart, seed=seed, scale=2.0)
        scale = float(np.abs(psi.values).max()) ** 2
        assert null_identity_defect(psi) <= 1e-12 * max(scale, 1.0) ** 2

    def test_needs_single_component(self):
        chart = GridChart.rect(9, 9, (0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ConfigurationError):
            weierstrass_form(random_field(chart, n=2))


class TestPlane:
    def test_flat_unit_metric(self):
        chart, psi = plane_field()
        mesh = integrate_surface(psi)
        assert mesh.loop_residual == 0.0
        assert mesh_area(mesh) == 1.0
        assert energy(psi) == 1.0
        assert induced_metric_residual(mesh, psi) == 0.0
        bp = mesh.basepoint
        X, Y = chart.grid()
        expect = np.stack([-(Y - Y[bp]), X - X[bp], np.zeros_like(X)], axis=-1)
        assert np.abs(mesh.vertices - expect).max() < 1e-14

    def test_zero_mean_curvature(self):
        _, psi = plane_field()
        H, excluded = mean_curvature(integrate_surface(psi))
        finite = H[np.isfinite(H)]
        assert excluded == []
        assert np.abs(finite).max() <= 1e-8

    def test_basepoint_translation_invariance(self):
        chart, psi = plane_field(33)
        a = integrate_surface(psi, basepoint=(5, 7))
        b = integrate_surface(psi, basepoint=(20, 11))
        va = a.vertices - np.nanmean(a.vertices, axis=(0, 1))
        vb = b.vertices - np.nanmean(b.vertices, axis=(0, 1))
        assert np.nanmax(np.abs(va - vb)) <= 1e-10


class TestEnneper:
    def test_exact_solution(self):
        chart = GridChart.rect(65, 65, (-1.0, 1.0, -1.0, 1.0))
        psi = enneper_field(chart)
        res = dirac_apply(psi, "fd")
        assert np.abs(res.values).max() < 1e-10

    def test_area_identity_second_order(self):
        gaps = []
        for nx in (65, 129, 257):
            chart = GridChart.rect(nx, nx, (-1.0, 1.0, -1.0, 1.0))
            psi = enneper_field(chart)
            mesh = integrate_surface(psi)
            gaps.append(abs(mesh_area(mesh) - energy(psi)) / energy(psi))
        assert gaps[1] <= 1e-3
        assert 3.0 <= gaps[0] / gaps[1] <= 5.0
        assert 3.0 <= gaps[1] / gaps[2] <= 5.0

    def test_energy_matches_closed_form(self):
        # |psi|^4 = ((1 + x^2 + y^2)/2)^2 integrates to 133/45 over [-1,1]^2;
        # the trapezoid boundary term leaves an O(h^2) gap
        chart = GridChart.rect(129, 129, (-1.0, 1.0, -1.0, 1.0))
        assert energy(enneper_field(chart)) == pytest.approx(133.0 / 45.0, rel=5e-4)

    def test_small_mean_curvature(self):
        chart = GridChart.rect(129, 129, (-1.0, 1.0, -1.0, 1.0))
        psi = enneper_field(chart)
        H, _ = mean_curvature(integrate_surface(psi))
        assert np.nanmax(np.abs(H)) <= 0.05

    def test_metric_residual_first_order(self):
        res = []
        for nx in (65, 129):
            chart = GridChart.rect(nx, nx, (-1.0, 1.0, -1.0, 1.0))
            psi = enneper_field(chart)
            res.append(induced_metric_residual(integrate_surface(psi), psi))
        assert res[1] <= res[0] / 1.8     # at least O(h)
        assert res[1] < 5e-4


class TestLoopResidual:
    def test_exact_solution_second_order(self):
        vals = []
        for nx in (33, 65, 129):
            chart, psi = minimal_transcendental(nx)
            mesh = integrate_surface(psi)
            # joint check: the Dirac residual of sampled exact data is O(h^2)
            fd = dirac_apply(psi, "fd")
            mags = np.sqrt(np.sum(np.abs(fd.values) ** 2, axis=(2, 3)))
            vals.append((mesh.loop_residual, scalar_lp_norm(mags, chart, 2)))
        for k in range(2):
            assert 3.0 <= vals[k][0] / vals[k + 1][0] <= 5.0
            assert 3.0 <= vals[k][1] / vals[k + 1][1] <= 5.0

    def test_random_nonsolution_order_one(self):
        chart = GridChart.rect(33, 33, (0.0, 1.0, 0.0, 1.0))
        psi = random_field(chart, seed=3)
        mesh = integrate_surface(psi)
        assert mesh.loop_residual > 1.0


class TestMetricScaling:
    def test_edge_lengths_scale_quartically(self):
        chart, psi = minimal_transcendental(65)
        c = 1.7
        area1 = mesh_area(integrate_surface(psi))
        area2 = mesh_area(integrate_surface(c * psi))
        assert area2 == pytest.approx(abs(c) ** 4 * area1, rel=1e-12)

    def test_area_scales_with_energy(self):
        chart, psi = minimal_transcendental(65)
        c = 0.6
        assert energy(c * psi) == pytest.approx(0.6 ** 4 * energy(psi), rel=1e-12)


class TestMeanCurvatureCalibration:
    def test_unit_sphere(self):
        errs = []
        for nx in (65, 129):
            chart = GridChart.rect(nx, nx, (-1.2, 1.2, -1.2, 1.2))
            X, Y = chart.grid()
            den = 1.0 + X ** 2 + Y ** 2
            pts = np.stack([2 * X / den, 2 * Y / den, (X ** 2 + Y ** 2 - 1) / den],
                           axis=-1)
            faces = _triangulate(chart, pts)[:, ::-1]   # outward orientation
            mesh = SurfaceMesh(chart, pts, faces, 0.0, (nx // 2, nx // 2))
            H, _ = mean_curvature(mesh)
            core = (np.abs(X) <= 0.8) & (np.abs(Y) <= 0.8) & np.isfinite(H)
            errs.append(float(np.abs(H[core] - 1.0).max()))
        assert errs[0] < 0.01
        assert errs[1] < errs[0] / 1.8    # at least O(h)

    def test_degenerate_faces_excluded(self):
        chart = GridChart.rect(9, 9, (0.0, 1.0, 0.0, 1.0))
        _, psi = plane_field(9)
        mesh = integrate_surface(psi)
        mesh.vertices[0, 1] = mesh.vertices[0, 0]   # collapse one edge
        H, excluded = mean_curvature(mesh)
        assert len(excluded) > 0
