import numpy as np
import pytest

from spinflow.charts import GridChart, SpinorField
from spinflow.conformal import rescale
from spinflow.dirac import dirac_apply, dirac_inverse_spectral
from spinflow.errors import ConfigurationError, DivergenceError
from spinflow.fields import torus_mode_field
from spinflow.green import disk_solve, green_convolve
from spinflow.reactions import ChiralUV, CurvatureCubic, GeneralCubic, ScalarH
from spinflow.solve import (newton_refine, picard_solve, residual,
                            smallness_margin)


def manufactured(chart, spec, n=1, amplitude=0.35, seed=11, mode="spectral"):
    psi_star = torus_mode_field(chart, amplitude, n, seed)
    forcing = dirac_apply(psi_star, mode) - spec.rhs(psi_star)
    return psi_star, forcing


class TestResidual:
    def test_zero_field(self, torus64):
        _, r = residual(ScalarH(1.0), SpinorField.zeros(torus64, 1), mode="spectral")
        assert r == 0.0

    def test_constant_harmonic_h0(self):
        chart = GridChart.torus(32, spin_structure="PP")
        psi = SpinorField.zeros(chart, 1)
        psi.values[..., 0, 0] = 0.8 - 0.1j
        _, r = residual(ScalarH(0.0), psi, mode="spectral")
        assert r < 1e-12

    def test_rescale_covariance(self, torus64):
        # residual norm of a near-solution stays small under conformal zoom
        spec = ScalarH(1.0)
        psi_star, forcing = manufactured(torus64, spec)
        psi, _ = picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing,
                              tol=1e-10)
        psi, _ = newton_refine(spec, psi, forcing=forcing, tol=1e-12)
        _, r0 = residual(spec, psi, forcing, mode="fd")
        target = GridChart.rect(129, 129, (-1.0, 1.0, -1.0, 1.0))
        zoomed = rescale(psi, (0.5, 0.5), 0.25, target)
        # the zoomed field solves the H-equation with the rescaled forcing;
        # compare against the zoom of the forcing itself
        zoomed_forcing_vals = rescale(forcing, (0.5, 0.5), 0.25, target).values
        lam32 = 0.25 ** 1.5
        zf = SpinorField(target, zoomed_forcing_vals * lam32 / np.sqrt(0.25))
        _, r1 = residual(spec, zoomed, zf, mode="fd")
        h = target.hx
        assert r1 <= r0 + 60.0 * h ** 2


class TestPicard:
    def test_linear_decay_to_zero(self, torus64):
        psi, rep = picard_solve(ScalarH(0.0),
                                torus_mode_field(torus64, 0.5, 1, seed=3),
                                tol=1e-10)
        assert rep.converged
        assert np.abs(psi.values).max() < 1e-9

    @pytest.mark.parametrize("name,spec,n", [
        ("scalar", ScalarH(1.0), 1),
        ("su2", ChiralUV("su2", h=0.7), 1),
        ("nil", ChiralUV("nil", h=0.7), 1),
        ("sl2", ChiralUV("sl2", h=0.7), 1),
        ("curvature", CurvatureCubic.constant_curvature(2, 1.0), 2),
    ])
    def test_manufactured_recovery(self, torus64, name, spec, n):
        psi_star, forcing = manufactured(torus64, spec, n=n)
        sol, rep = picard_solve(spec, SpinorField.zeros(torus64, n),
                                forcing=forcing, tol=1e-9)
        assert rep.converged
        assert rep.final_residual <= 1e-8
        assert np.abs(sol.values - psi_star.values).max() < 1e-7
        assert not rep.guard_flagged

    def test_general_cubic_recovery(self, torus64):
        rng = np.random.default_rng(5)
        spec = GeneralCubic(0.5 * rng.standard_normal((2, 2, 2, 2)))
        psi_star, forcing = manufactured(torus64, spec, n=2, amplitude=0.3)
        sol, rep = picard_solve(spec, SpinorField.zeros(torus64, 2),
                                forcing=forcing, tol=1e-9)
        assert rep.converged
        assert np.abs(sol.values - psi_star.values).max() < 1e-7

    def test_residual_monotone_after_burn_in(self, torus64):
        spec = ScalarH(1.0)
        _, forcing = manufactured(torus64, spec)
        _, rep = picard_solve(spec, SpinorField.zeros(torus64, 1),
                              forcing=forcing, tol=1e-10)
        tail = rep.residual_norms[5:]
        assert all(tail[k + 1] <= tail[k] * (1 + 1e-9) for k in range(len(tail) - 1))

    def test_guard_violation_diverges(self, torus64):
        spec = ScalarH(1.0)
        psi_star, forcing = manufactured(torus64, spec, amplitude=4.0)
        assert smallness_margin(spec, psi_star) >= 1.0
        with pytest.raises(DivergenceError) as err:
            picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing)
        assert len(err.value.history) > 0

    def test_pp_torus_rejected(self):
        chart = GridChart.torus(32, spin_structure="PP")
        with pytest.raises(ConfigurationError):
            picard_solve(ScalarH(0.5), SpinorField.zeros(chart, 1))

    def test_disk_picard_with_trace(self):
        # small-data solve on the disk driven by the boundary trace
        chart = GridChart.disk(25, 1.0)
        spec = ScalarH(0.4)
        nb = chart.boundary_nodes.shape[0]
        trace = np.zeros((nb, 1, 2), complex)
        trace[:, 0, 0] = 0.3
        sol, rep = picard_solve(spec, SpinorField.zeros(chart, 1), trace=trace,
                                tol=1e-8, max_iter=60)
        assert rep.converged
        _, r = residual(spec, sol, mode="fd")
        # interior residual is solver-level small; the FD ring stencils add O(h)
        sol_check, _ = disk_solve(spec.rhs(sol), trace)
        assert np.abs(sol_check.values - sol.values).max() < 1e-6


class TestNewton:
    def test_fixed_point_stays(self, torus64):
        spec = ScalarH(1.0)
        psi_star, forcing = manufactured(torus64, spec)
        sol, _ = picard_solve(spec, SpinorField.zeros(torus64, 1),
                              forcing=forcing, tol=1e-10)
        refined, rep = newton_refine(spec, sol, forcing=forcing, tol=1e-11)
        assert rep.converged
        again, rep2 = newton_refine(spec, refined, forcing=forcing, tol=1e-11)
        assert rep2.converged and rep2.steps == 0

    def test_quadratic_finish(self, torus64):
        spec = ChiralUV("sl2", h=0.7)
        psi_star, forcing = manufactured(torus64, spec)
        sol, _ = picard_solve(spec, SpinorField.zeros(torus64, 1),
                              forcing=forcing, tol=1e-6)
        refined, rep = newton_refine(spec, sol, forcing=forcing, tol=1e-10)
        assert rep.converged
        assert rep.steps <= 5
        assert rep.residual_norms[-1] <= 1e-10
        assert np.abs(refined.values - psi_star.values).max() < 1e-10

    def test_residual_strictly_decreases(self, torus64):
        spec = ScalarH(1.0)
        _, forcing = manufactured(torus64, spec)
        sol, _ = picard_solve(spec, SpinorField.zeros(torus64, 1),
                              forcing=forcing, tol=1e-4)
        _, rep = newton_refine(spec, sol, forcing=forcing, tol=1e-12, max_steps=4)
        rs = rep.residual_norms
        assert all(rs[k + 1] < rs[k] for k in range(len(rs) - 1))

    def test_disk_reports_stagnation(self):
        chart = GridChart.disk(25, 1.0)
        psi = SpinorField.zeros(chart, 1)
        out, rep = newton_refine(ScalarH(0.5), psi)
        assert rep.stagnated and not rep.converged
        assert np.array_equal(out.values, psi.values)


class _NoSweep(ScalarH):
    """A reaction that fails the test if a solver sweeps before checking."""

    def rhs(self, psi):
        raise AssertionError("solver evaluated the reaction before the invertibility check")


@pytest.mark.parametrize("call", [
    dirac_inverse_spectral,
    lambda f: green_convolve(f, "fft"),
    lambda f: green_convolve(f, "direct"),
    lambda f: picard_solve(_NoSweep(0.5), f),
    lambda f: newton_refine(_NoSweep(0.5), f),
], ids=["dirac_inverse_spectral", "green_fft", "green_direct", "picard", "newton"])
def test_pp_torus_kernel_rejected(call):
    chart = GridChart.torus(16, spin_structure="PP")
    with pytest.raises(ConfigurationError, match="zero mode"):
        call(SpinorField.zeros(chart, 1))


class TestSmallnessMargin:
    def test_zero_field(self, torus64):
        assert smallness_margin(ScalarH(1.0), SpinorField.zeros(torus64, 1)) == 0.0

    def test_definition(self, torus64):
        from spinflow.spinors import energy
        psi = torus_mode_field(torus64, 0.4, 1, seed=2)
        expected = 1.0 * np.sqrt(energy(psi))
        assert smallness_margin(ScalarH(1.0), psi) == pytest.approx(expected, rel=1e-12)

    def test_doubling_quadruples(self, torus64):
        psi = torus_mode_field(torus64, 0.4, 1, seed=2)
        m1 = smallness_margin(ScalarH(1.0), psi)
        m2 = smallness_margin(ScalarH(1.0), 2.0 * psi)
        assert m2 == pytest.approx(4.0 * m1, rel=1e-12)
