import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflow.charts import GridChart, SpinorField
from spinflow.spinors import (GAMMA, PROJ_MINUS, PROJ_PLUS, chirality_project,
                              clifford_defect, clifford_multiply, energy, lp_norm,
                              pointwise_norm)

from conftest import block_inner, random_field, zero_outside


class TestCliffordAlgebra:
    def test_relations_exact(self):
        assert clifford_defect() == 0.0

    def test_chirality_matrix_is_diag(self):
        assert np.allclose(GAMMA, np.diag([-1.0, 1.0]), atol=0)
        assert np.allclose(PROJ_PLUS, np.diag([0.0, 1.0]), atol=0)
        assert np.allclose(PROJ_MINUS, np.diag([1.0, 0.0]), atol=0)

    def test_sigma1_on_basis(self, torus_pp):
        psi = SpinorField.zeros(torus_pp, 1)
        psi.values[..., 0, 0] = 1.0
        out = clifford_multiply(1, psi)
        assert np.all(out.values[..., 0, 0] == 0.0)
        assert np.all(out.values[..., 0, 1] == -1.0)

    def test_sigma2_on_basis(self, torus_pp):
        psi = SpinorField.zeros(torus_pp, 1)
        psi.values[..., 0, 0] = 1.0
        out = clifford_multiply(2, psi)
        assert np.all(out.values[..., 0, 0] == 0.0)
        assert np.all(out.values[..., 0, 1] == 1.0j)

    def test_double_application_is_minus_identity(self, torus_pp):
        psi = random_field(torus_pp, n=2, seed=1)
        out = clifford_multiply(1, clifford_multiply(1, psi))
        np.testing.assert_array_equal(out.values, -psi.values)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_clifford_skew_symmetry(self, seed):
        # <e.psi, phi> + <psi, e.phi> = 0 pointwise
        chart = GridChart.torus(8, spin_structure="PP")
        psi = random_field(chart, seed=seed)
        phi = random_field(chart, seed=seed + 1)
        for alpha in (1, 2):
            lhs = block_inner(clifford_multiply(alpha, psi).values,
                              phi.values)
            rhs = block_inner(psi.values, clifford_multiply(alpha, phi).values)
            assert np.abs(lhs + rhs).max() < 1e-13


class TestChiralityProjectors:
    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=15, deadline=None)
    def test_completeness_and_idempotence(self, seed):
        chart = GridChart.torus(8, spin_structure="PP")
        psi = random_field(chart, n=2, seed=seed)
        plus = chirality_project(+1, psi)
        minus = chirality_project(-1, psi)
        np.testing.assert_allclose((plus + minus).values, psi.values, atol=1e-15)
        np.testing.assert_allclose(chirality_project(+1, plus).values,
                                   plus.values, atol=0)

    def test_projectors_kill_opposite(self, torus_pp):
        psi = random_field(torus_pp, seed=3)
        both = chirality_project(+1, chirality_project(-1, psi))
        assert np.abs(both.values).max() == 0.0


class TestNorms:
    def test_zero_field(self, torus_pp):
        assert np.all(pointwise_norm(SpinorField.zeros(torus_pp, 1)) == 0.0)

    def test_three_four_norm(self, torus_pp):
        psi = SpinorField.zeros(torus_pp, 1)
        psi.values[..., 0, 0] = 3.0
        psi.values[..., 0, 1] = 4.0j
        assert np.all(pointwise_norm(psi) == 5.0)

    def test_two_component_sum(self, torus_pp):
        psi = SpinorField.zeros(torus_pp, 2)
        psi.values[..., 0, 0] = 1.0
        psi.values[..., 1, 1] = 1.0
        np.testing.assert_allclose(pointwise_norm(psi), np.sqrt(2.0))

    def test_linf_norm(self, torus_pp):
        psi = SpinorField.zeros(torus_pp, 1)
        psi.values[..., 0, 0] = 1.0
        assert lp_norm(psi, np.inf) == 1.0

    def test_lp_scaling(self, torus_pp):
        psi = random_field(torus_pp, seed=5)
        c = 0.37 - 1.2j
        assert lp_norm(c * psi, 4.0 / 3.0) == pytest.approx(
            abs(c) * lp_norm(psi, 4.0 / 3.0), rel=1e-13)


class TestEnergy:
    def test_unit_torus_constant(self):
        chart = GridChart.torus(32, spin_structure="PP")
        psi = SpinorField.zeros(chart, 1)
        psi.values[..., 0, 0] = 1.0
        assert energy(psi) == 1.0

    def test_zero(self, torus_pp):
        assert energy(SpinorField.zeros(torus_pp, 2)) == 0.0

    def test_band_limited_closed_form(self):
        # psi1 = a + b cos(2 pi x): integral of (a + b c)^4 over the unit
        # torus is a^4 + 3 a^2 b^2 + (3/8) b^4; no aliasing at nx = 64 so the
        # midpoint quadrature is exact to roundoff.
        a, b = 0.8, 0.45
        chart = GridChart.torus(64, spin_structure="PP")
        X, _ = chart.grid()
        psi = SpinorField.from_components(
            chart, [(a + b * np.cos(2 * np.pi * X), np.zeros_like(X))])
        exact = a ** 4 + 3.0 * a ** 2 * b ** 2 + 0.375 * b ** 4
        assert energy(psi) == pytest.approx(exact, rel=1e-13)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=15, deadline=None)
    def test_four_homogeneity(self, seed):
        chart = GridChart.torus(8, spin_structure="PP")
        psi = random_field(chart, seed=seed)
        c = complex(0.7, -1.3)
        assert energy(c * psi) == pytest.approx(abs(c) ** 4 * energy(psi), rel=1e-12)

    def test_additivity_exact_on_dyadic_fields(self):
        # Dyadic magnitudes keep every partial sum exactly representable, so
        # region additivity is bitwise exact for any partition.
        chart = GridChart.torus(32, spin_structure="PP")
        rng = np.random.default_rng(0)
        psi = SpinorField.zeros(chart, 1)
        psi.values[..., 0, 0] = 2.0 ** rng.integers(-2, 3, size=(32, 32))
        region = rng.random((32, 32)) < 0.5
        total = energy(psi)
        assert energy(psi, region) + energy(psi, ~region & chart.active) == total

    def test_additivity_generic(self, torus_pp):
        psi = random_field(torus_pp, seed=9)
        rng = np.random.default_rng(1)
        region = rng.random((torus_pp.ny, torus_pp.nx)) < 0.4
        lhs = energy(psi, region) + energy(psi, ~region & torus_pp.active)
        assert lhs == pytest.approx(energy(psi), rel=1e-14)

    def test_lp4_consistency(self, torus_pp):
        psi = random_field(torus_pp, seed=11)
        assert lp_norm(psi, 4.0) ** 4 == pytest.approx(energy(psi), rel=1e-12)

    def test_empty_region(self, torus_pp):
        psi = random_field(torus_pp, seed=2)
        assert energy(psi, np.zeros((torus_pp.ny, torus_pp.nx), bool)) == 0.0

    def test_disk_boundary_half_weight(self, disk33):
        psi = SpinorField.zeros(disk33, 1)
        psi.values[..., 0, 0] = 1.0
        zero_outside(psi)
        w = disk33.weights
        assert energy(psi) == pytest.approx(float(w.sum()), rel=1e-14)
        # jagged-rim quadrature area approaches pi R^2 at O(h)
        assert float(w.sum()) == pytest.approx(np.pi, rel=0.07)
        fine = GridChart.disk(129, 1.0)
        assert float(fine.weights.sum()) == pytest.approx(np.pi, rel=0.02)
