import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflow.charts import GridChart, SpinorField
from spinflow.errors import ConfigurationError
from spinflow.reactions import ChiralUV, CurvatureCubic, GeneralCubic, ScalarH

from conftest import random_field


def const_field(chart, pair, n=1):
    psi = SpinorField.zeros(chart, n)
    psi.values[..., 0, 0] = pair[0]
    psi.values[..., 0, 1] = pair[1]
    return psi


class TestScalarH:
    def test_unit_h_on_basis(self, torus_pp):
        psi = const_field(torus_pp, (1.0, 0.0))
        out = ScalarH(1.0).rhs(psi)
        np.testing.assert_allclose(out.values, psi.values, atol=0)

    def test_matches_formula(self, torus_pp):
        psi = random_field(torus_pp, seed=1)
        H = 0.6
        out = ScalarH(H).rhs(psi)
        dens = np.sum(np.abs(psi.values) ** 2, axis=(2, 3))
        np.testing.assert_allclose(out.values,
                                   H * dens[..., None, None] * psi.values,
                                   rtol=1e-14)

    def test_requires_single_component(self, torus_pp):
        with pytest.raises(ConfigurationError):
            ScalarH(1.0).rhs(random_field(torus_pp, n=2))

    def test_bounds_of_varying_h(self, torus_pp):
        spec = ScalarH(lambda X, Y: 0.5 + 0.25 * np.sin(2 * np.pi * X))
        for chart in (torus_pp, GridChart.torus(32, spin_structure="AA")):
            assert spec.coefficient_bound(chart) == pytest.approx(0.75, rel=1e-2)


class TestChiralPresets:
    # the preset U, V forms evaluated on a constant spinor (a, b)
    def test_su2_formula(self, torus_pp):
        a, b = 0.7 + 0.2j, -0.4 + 0.9j
        H = 0.8
        psi = const_field(torus_pp, (a, b))
        out = ChiralUV("su2", h=H).rhs(psi)
        dens = abs(a) ** 2 + abs(b) ** 2
        U = -(H - 1j) * dens
        V = -(H + 1j) * dens
        assert U == pytest.approx(np.conj(V))          # V = conj(U) for real H
        np.testing.assert_allclose(out.values[0, 0, 0], [V * a, U * b], rtol=1e-14)

    def test_nil_formula(self, torus_pp):
        a, b = 0.3 - 0.5j, 1.1 + 0.1j
        H = 0.8
        psi = const_field(torus_pp, (a, b))
        out = ChiralUV("nil", h=H).rhs(psi)
        dens = abs(a) ** 2 + abs(b) ** 2
        U = -H * dens - 0.5j * (abs(a) ** 2 - abs(b) ** 2)
        np.testing.assert_allclose(out.values[0, 0, 0], [U * a, U * b], rtol=1e-14)

    def test_sl2_formula(self, torus_pp):
        a, b = -0.2 + 0.6j, 0.5 + 0.3j
        H = 0.8
        psi = const_field(torus_pp, (a, b))
        out = ChiralUV("sl2", h=H).rhs(psi)
        dens = abs(a) ** 2 + abs(b) ** 2
        U = -H * dens - 1j * (1.5 * abs(b) ** 2 - abs(a) ** 2)
        V = -H * dens - 1j * (abs(b) ** 2 - 1.5 * abs(a) ** 2)
        np.testing.assert_allclose(out.values[0, 0, 0], [V * a, U * b], rtol=1e-14)

    def test_preset_alpha_offsets(self, torus_pp):
        for preset, alpha in (("su2", 1.0), ("nil", 0.5), ("sl2", 1.5)):
            h0 = ChiralUV(preset, h=0.8).coefficient_bound(torus_pp)
            assert h0 == pytest.approx(0.8 + alpha)


class TestGeneralCubic:
    def test_three_homogeneity_all_variants(self, torus_pp):
        rng = np.random.default_rng(7)
        specs = [
            (ScalarH(0.9), 1),
            (GeneralCubic(rng.standard_normal((2, 2, 2, 2))), 2),
            (CurvatureCubic.constant_curvature(2, 1.3), 2),
            (ChiralUV("su2", h=0.5), 1),
            (ChiralUV("nil", h=0.5), 1),
            (ChiralUV("sl2", h=0.5), 1),
        ]
        for c in (2.0, -0.7, 0.4 + 1.1j):
            for spec, n in specs:
                psi = random_field(torus_pp, n=n, seed=11)
                lhs = spec.rhs(c * psi).values
                rhs = (abs(c) ** 2 * c) * spec.rhs(psi).values
                assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_curvature_symmetry_validation(self):
        bad = np.ones((2, 2, 2, 2))
        with pytest.raises(ConfigurationError):
            CurvatureCubic(bad)

    def test_constant_curvature_tensor_symmetries(self):
        t = CurvatureCubic.constant_curvature(3, 0.7).tensor
        assert np.abs(t + np.swapaxes(t, 0, 1)).max() == 0.0
        assert np.abs(t + np.swapaxes(t, 2, 3)).max() == 0.0
        assert np.abs(t - np.transpose(t, (2, 3, 0, 1))).max() == 0.0

    def test_curvature_equals_general(self, torus_pp):
        # rhs = -R/3 contracted, with R_{ijkl} = kappa (d_ik d_jl - d_il d_jk)
        kappa = 1.1
        t = np.zeros((2, 2, 2, 2))
        for i in range(2):
            for j in range(2):
                t[i, j, i, j] += kappa
                t[i, j, j, i] -= kappa
        curv = CurvatureCubic.constant_curvature(2, kappa)
        psi = random_field(torus_pp, n=2, seed=13)
        a = curv.rhs(psi).values
        b = GeneralCubic(-t / 3).rhs(psi).values
        np.testing.assert_array_equal(a, b)

    def test_component_mismatch(self, torus_pp):
        with pytest.raises(ConfigurationError):
            GeneralCubic(np.zeros((2, 2, 2, 2))).rhs(random_field(torus_pp, n=3))


class TestPerNodeCubic:
    def test_broadcast_constant_matches_constant(self, torus_pp):
        t = np.random.default_rng(5).standard_normal((2, 2, 2, 2))
        const = GeneralCubic(t)
        node = GeneralCubic(np.broadcast_to(t, (32, 32, 2, 2, 2, 2)))
        psi = random_field(torus_pp, n=2, seed=1)
        delta = random_field(torus_pp, n=2, seed=2)
        for a, b in ((const.rhs(psi), node.rhs(psi)),
                     (const.linearize(psi, delta), node.linearize(psi, delta))):
            assert np.abs(a.values - b.values).max() <= 1e-14 * np.abs(a.values).max()

    def test_varying_tensor_matches_pointwise(self, torus_pp):
        t = np.random.default_rng(6).standard_normal((32, 32, 2, 2, 2, 2))
        psi = random_field(torus_pp, n=2, seed=3)
        out = GeneralCubic(t).rhs(psi).values
        for (y, x) in ((0, 0), (5, 17), (31, 30)):
            v = psi.values[y, x]
            ref = np.zeros((2, 2), complex)
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        for l in range(2):
                            pair = np.sum(v[j] * np.conj(v[k]))
                            ref[i] += t[y, x, i, j, k, l] * pair * v[l]
            np.testing.assert_allclose(out[y, x], ref, rtol=1e-13, atol=1e-13)

    def test_wrong_grid_shape_rejected(self, torus_pp):
        spec = GeneralCubic(np.zeros((16, 32, 2, 2, 2, 2)))
        psi = random_field(torus_pp, n=2)
        for call in (lambda: spec.rhs(psi), lambda: spec.linearize(psi, psi),
                     lambda: spec.coefficient_bound(torus_pp)):
            with pytest.raises(ConfigurationError):
                call()


class TestLinearization:
    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=10, deadline=None)
    def test_directional_derivative_vs_fd(self, seed):
        chart = GridChart.torus(8, spin_structure="PP")
        rng = np.random.default_rng(3)
        specs = [ScalarH(0.8),
                 GeneralCubic(rng.standard_normal((1, 1, 1, 1))),
                 ChiralUV("su2", h=0.6), ChiralUV("nil", h=0.6),
                 ChiralUV("sl2", h=0.6),
                 GeneralCubic(rng.standard_normal((2, 2, 2, 2))),
                 CurvatureCubic.constant_curvature(2, 1.3)]
        eps = 1e-5
        for spec in specs:
            psi = random_field(chart, n=spec.n, seed=seed, scale=0.5)
            delta = random_field(chart, n=spec.n, seed=seed + 9, scale=1.0)
            plus = spec.rhs(SpinorField(chart, psi.values + eps * delta.values))
            minus = spec.rhs(SpinorField(chart, psi.values - eps * delta.values))
            numeric = (plus.values - minus.values) / (2 * eps)
            analytic = spec.linearize(psi, delta).values
            scale = max(np.abs(analytic).max(), 1e-12)
            assert np.abs(numeric - analytic).max() / scale < 1e-6
