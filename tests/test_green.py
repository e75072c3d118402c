import numpy as np
import pytest

from spinflow.charts import GridChart, SpinorField
from spinflow.dirac import dirac_apply
from spinflow.errors import PreconditionError, SolverError
from spinflow.fields import compact_bump_field
from spinflow.green import (GreenKernel, boundary_trace_norm, disk_solve,
                            estimate_ratio, green_convolve, windowed_mode_field,
                            gradient_magnitude)
from spinflow.rng import SplitMix64
from spinflow.spinors import scalar_lp_norm

from conftest import rel_l2


class TestKernelRule:
    def test_antisymmetry(self):
        k = GreenKernel()
        for (x, y) in ((0.3, -0.7), (1.2, 0.1), (-0.4, -0.9)):
            np.testing.assert_allclose(k.matrix(-x, -y), -k.matrix(x, y), atol=0)

    def test_magnitude(self):
        k = GreenKernel()
        for (x, y) in ((0.5, 0.0), (0.3, 0.4)):
            r = np.hypot(x, y)
            assert np.linalg.norm(k.matrix(x, y), 2) == pytest.approx(
                1.0 / (2 * np.pi * r), rel=1e-12)

    def test_self_cell_zeroed(self):
        chart = GridChart.disk(17, 1.0)
        g1, g2 = GreenKernel().scalar_offset_grids(chart)
        assert g1[16, 16] == 0.0 and g2[16, 16] == 0.0


class TestConvolve:
    def test_zero_source(self, disk33):
        w = green_convolve(SpinorField.zeros(disk33, 1))
        assert np.abs(w.values).max() == 0.0

    def test_manufactured_recovery_rate(self):
        errs = []
        for nx in (65, 129, 257):
            chart = GridChart.disk(nx, 1.0)
            psi_c = compact_bump_field(chart)
            f = dirac_apply(psi_c, "fd")
            w = green_convolve(f, "fft")
            errs.append(rel_l2(chart, w.values, psi_c.values))
        for k in range(len(errs) - 1):
            assert 3.0 <= errs[k] / errs[k + 1] <= 5.0

    def test_roundtrip_dirac_of_potential(self):
        # D(green_convolve(f)) ~ f on the support, halving h shrinks the
        # mismatch by a factor in [3, 5]
        errs = []
        for nx in (65, 129):
            chart = GridChart.disk(nx, 1.0)
            psi_c = compact_bump_field(chart)
            f = dirac_apply(psi_c, "fd")
            w = green_convolve(f, "fft")
            dd = dirac_apply(w, "fd")
            X, Y = chart.grid()
            support = (np.hypot(X, Y) < 0.55) & chart.active
            diff = np.sqrt(np.sum(np.abs(dd.values - f.values) ** 2, axis=(2, 3)))
            ref = np.sqrt(np.sum(np.abs(f.values) ** 2, axis=(2, 3)))
            errs.append(scalar_lp_norm(np.where(support, diff, 0.0), chart, 2)
                        / scalar_lp_norm(ref, chart, 2))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_direct_vs_fft_disk(self):
        chart = GridChart.disk(49, 1.0)
        f = dirac_apply(compact_bump_field(chart), "fd")
        wd = green_convolve(f, "direct")
        wf = green_convolve(f, "fft")
        assert rel_l2(chart, wd.values, wf.values) < 1e-10

    def test_direct_vs_fft_torus(self):
        chart = GridChart.torus(48, spin_structure="AA")
        f = windowed_mode_field(chart, SplitMix64(3))
        wd = green_convolve(f, "direct")
        wf = green_convolve(f, "fft")
        assert rel_l2(chart, wd.values, wf.values) < 1e-10

    def test_torus_spectral_roundtrip_exact(self):
        chart = GridChart.torus(64, spin_structure="AA")
        f = windowed_mode_field(chart, SplitMix64(5))
        w = green_convolve(f, "fft")
        res = dirac_apply(w, "spectral").values - f.values
        assert np.abs(res).max() < 1e-11

    def test_boundary_support_rejected(self, disk33):
        f = SpinorField.zeros(disk33, 1)
        ring = disk33.mask == 2
        f.values[ring, 0, 0] = 1.0
        with pytest.raises(PreconditionError):
            green_convolve(f)

    @pytest.mark.parametrize("chart", [GridChart.disk(33),
                                       GridChart.rect(33, bounds=(-1.0, 1.0, -1.0, 1.0))],
                             ids=lambda c: c.kind)
    def test_support_margin_two_nodes(self, chart):
        # counted from the rim node of the middle row: the second node in is
        # rejected, the third is accepted
        mid = chart.ny // 2
        rim = int(np.flatnonzero(chart.active[mid])[0])
        f = SpinorField.zeros(chart, 1)
        f.values[mid, rim + 1, 0, 0] = 1.0
        with pytest.raises(PreconditionError):
            green_convolve(f)
        g = SpinorField.zeros(chart, 1)
        g.values[mid, rim + 2, 0, 0] = 1.0
        assert np.abs(green_convolve(g).values).max() > 0


class TestDiskSolve:
    def test_constant_trace_harmonic(self, disk33):
        f = SpinorField.zeros(disk33, 1)
        nb = disk33.boundary_nodes.shape[0]
        trace = np.zeros((nb, 1, 2), complex)
        trace[:, 0, 0] = 1.0
        psi, rep = disk_solve(f, trace)
        act = disk33.active
        assert np.abs(psi.values[act][:, 0, 0] - 1.0).max() < 1e-9
        assert np.abs(psi.values[act][:, 0, 1]).max() < 1e-9
        assert rep["final_residual"] <= 1e-10

    def test_harmonic_zbar_squared(self, disk33):
        # psi* = (zbar^2, 0) satisfies D psi = 0; recovered from its trace
        X, Y = disk33.grid()
        Zb = X - 1j * Y
        psi_star = SpinorField.from_components(disk33, [(Zb ** 2, np.zeros_like(X))])
        bn = disk33.boundary_nodes
        trace = psi_star.values[bn[:, 0], bn[:, 1]]
        assert np.abs(dirac_apply(psi_star, "fd").values[disk33.inside]).max() < 1e-10
        psi, _ = disk_solve(SpinorField.zeros(disk33, 1), trace)
        assert np.abs(psi.values[disk33.active] - psi_star.values[disk33.active]).max() < 1e-7

    @staticmethod
    def _manufactured(chart):
        X, Y = chart.grid()
        Z = X + 1j * Y
        Zb = X - 1j * Y
        psi1 = Zb ** 2 + 0.5 * np.sin(X) * np.exp(0.3 * Y)
        psi2 = Z * Zb + 0.25 * np.cos(Y)
        f1 = 2 * Z - 0.25j * np.sin(Y)
        f2 = -0.5 * (np.cos(X) * np.exp(0.3 * Y) - 0.3j * np.sin(X) * np.exp(0.3 * Y))
        return (SpinorField.from_components(chart, [(psi1, psi2)]),
                SpinorField.from_components(chart, [(f1, f2)]))

    def test_manufactured_second_order(self):
        errs = []
        for nx in (25, 49, 97):
            chart = GridChart.disk(nx, 1.0)
            psi_star, f = self._manufactured(chart)
            bn = chart.boundary_nodes
            trace = psi_star.values[bn[:, 0], bn[:, 1]]
            sol, rep = disk_solve(f, trace)
            errs.append(np.abs(sol.values[chart.active]
                               - psi_star.values[chart.active]).max())
            assert rep["final_residual"] <= 1e-10
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_residual_history_monotone_tail(self, disk33):
        psi_star, f = self._manufactured(disk33)
        bn = disk33.boundary_nodes
        trace = psi_star.values[bn[:, 0], bn[:, 1]]
        _, rep = disk_solve(f, trace)
        hist = rep["residual_histories"][0]
        assert hist[-1] <= 1e-10
        assert len(hist) >= 3

    def test_nonconvergence_raises_with_history(self, disk33):
        psi_star, f = self._manufactured(disk33)
        bn = disk33.boundary_nodes
        trace = psi_star.values[bn[:, 0], bn[:, 1]]
        with pytest.raises(SolverError) as err:
            disk_solve(f, trace, tol=1e-14, max_iter=3)
        assert len(err.value.history) == 3

    def test_bounded_ratio_under_refinement(self):
        # || grad psi ||_{4/3} / (||f||_{4/3} + trace norm) stays bounded
        ratios = []
        for nx in (25, 33, 49):
            chart = GridChart.disk(nx, 1.0)
            psi_star, f = self._manufactured(chart)
            bn = chart.boundary_nodes
            trace = psi_star.values[bn[:, 0], bn[:, 1]]
            sol, _ = disk_solve(f, trace)
            p = 4.0 / 3.0
            num = scalar_lp_norm(gradient_magnitude(sol), chart, p)
            fmag = np.sqrt(np.sum(np.abs(f.values) ** 2, axis=(2, 3)))
            den = scalar_lp_norm(fmag, chart, p) + boundary_trace_norm(chart, trace, p)
            ratios.append(num / den)
        assert max(ratios) / min(ratios) < 1.5


class TestEstimateRatio:
    def test_drift_and_determinism(self):
        rep1 = estimate_ratio(4.0 / 3.0, trials=4, refinements=(25, 49), seed=3)
        rep2 = estimate_ratio(4.0 / 3.0, trials=4, refinements=(25, 49), seed=3)
        assert rep1["levels"] == rep2["levels"]
        assert max(rep1["drift"]) < 0.2

    def test_bad_exponent_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_ratio(2.0, 2, (25,))
        with pytest.raises(PreconditionError):
            estimate_ratio(5.0, 2, (25,))
